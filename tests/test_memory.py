"""Peak memory of the renders, the WAV encoder, `fmstack render` and the
predictor, as tracemalloc sees it.

tracemalloc counts numpy's data buffers, so the peak of a call is its
output plus the temporaries it holds at once. Each render that returns an
array fills one preallocated output a block at a time: its temporaries must
fit a fixed allowance of a few blocks. The encoder, and `render`, which
hands each block from the engine to the encoder, hold a few blocks at any
duration. The predictor's peak is set by its largest merge, which holds a
few arrays per candidate.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from fmstack import spectrum
from fmstack.cli import main
from fmstack.io_formats import WavSpec, write_wav
from fmstack.operators import DEFAULT_BLOCK_SIZE, render_feedback_fm, render_naive_stack, render_stack
from fmstack.pm import render_feedback_pm, render_pm_chain
from fmstack.spectrum import predict_stack

FS = 96000.0
N = 96000  # one second, almost twelve blocks
ALLOWANCE = 3 * 8 * DEFAULT_BLOCK_SIZE  # three blocks of float64
# the block temporaries of a stack's operator calls, about ten blocks at any depth
STACK_ALLOWANCE = 12 * 8 * DEFAULT_BLOCK_SIZE


def _peak_bytes(call) -> int:
    call()  # one-time set-up, such as numpy's ufunc caches, is not the call's cost
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("render", [
    lambda: render_pm_chain([(1.0, 300.0), (2.0, 500.0), (3.0, 200.0), (1.0, 700.0)], N, FS),
    lambda: render_feedback_pm(1.0, 500.0, 1.0, N, FS),
], ids=["pm_chain", "feedback_pm"])
def test_pm_renders_hold_one_float64_output(render):
    assert _peak_bytes(render) <= 8 * N + ALLOWANCE


def test_feedback_fm_holds_one_float64_output():
    assert _peak_bytes(lambda: render_feedback_fm(1.0, 500.0, 1.0, N, FS)) <= 8 * N + ALLOWANCE


_STACKS = {
    "stack_depth1": lambda n: render_stack([(1.0, 500.0)], n, FS),
    "stack_depth8": lambda n: render_stack([(0.5, 300.0)] * 7 + [(1.0, 500.0)], n, FS),
    "naive_stack": lambda n: render_naive_stack([(1.0, 300.0), (1.0, 500.0), (1.0, 200.0)], n, FS),
}


# at two durations, so that a second buffer growing with the length fails
@pytest.mark.parametrize("n", [N, 3 * N], ids=["1s", "3s"])
@pytest.mark.parametrize("render", _STACKS.values(), ids=_STACKS)
def test_stack_renders_hold_one_float64_output(render, n):
    assert _peak_bytes(lambda: render(n)) <= 8 * n + STACK_ALLOWANCE


# at two durations, so that a buffer growing with the length fails
@pytest.mark.parametrize("n", [N, 3 * N], ids=["1s", "3s"])
@pytest.mark.parametrize("bits", [16, 32])
def test_wav_encoder_holds_a_few_blocks(bits, n, tmp_path, caplog):
    # a third of the samples clip, in every block, so the clip path is measured too
    samples = 1.2 * np.sin(np.arange(n) * 0.01)
    with caplog.at_level(logging.WARNING):
        peak = _peak_bytes(lambda: write_wav(tmp_path / "a.wav", samples, WavSpec(int(FS), bits)))
    assert peak <= ALLOWANCE
    assert "clipped" in caplog.text


_PATCHES = {
    "fm-stack": ["--op", "0.5:300", "--op", "0.8:700", "--op", "1:500"],
    "fm-stack-naive": ["--op", "0.5:300", "--op", "0.8:700", "--op", "1:500"],
    "pm-stack": ["--op", "0.5:300", "--op", "0.8:700", "--op", "1:200", "--op", "1:500"],
    "pm1": ["--op", "2:300", "--op", "1:500"],
    "pm2": ["--op", "0.5:300", "--op", "0.8:700", "--op", "1:500"],
    "fm-feedback": ["--op", "1:500", "--feedback-gain", "0.5"],
    "pm-feedback": ["--op", "1:500", "--feedback-gain", "1"],
}
# a stack's block temporaries, the engine's output block and the encoder's
# two block buffers, at any duration
RENDER_ALLOWANCE = STACK_ALLOWANCE + ALLOWANCE


@pytest.mark.parametrize("bits", ["16", "32"])
@pytest.mark.parametrize("seconds", ["1", "3"])
@pytest.mark.parametrize("topology", _PATCHES)
def test_render_command_holds_a_few_blocks(topology, seconds, bits, tmp_path, capsys):
    argv = ["render", "--topology", topology, *_PATCHES[topology], "--sr", str(int(FS)), "--dur", seconds,
            "--bits", bits, "--out", str(tmp_path / "x.wav")]
    assert _peak_bytes(lambda: main(argv)) <= RENDER_ALLOWANCE
    assert (tmp_path / "x.wav").stat().st_size == 44 + int(bits) // 8 * int(seconds) * N


# four float64 arrays and two boolean ones per candidate, and the merged lines
MERGE_BYTES_PER_CANDIDATE = 48
PREDICT_ALLOWANCE = 128 * 1024  # the level's lines, Bessel rows, the folded output


def test_predictor_holds_a_few_arrays_per_merge_candidate(monkeypatch):
    candidates = []
    merge = spectrum._merge_convolution

    def spy(freqs, amps, orders, *args):
        candidates.append(len(freqs) * len(orders))
        return merge(freqs, amps, orders, *args)

    monkeypatch.setattr(spectrum, "_merge_convolution", spy)
    params = [(8, 211.223), (4, 404.331), (0.6, 1855.69)]
    peak = _peak_bytes(lambda: predict_stack(params))
    assert len(predict_stack(params).freqs) == 2709
    assert peak <= MERGE_BYTES_PER_CANDIDATE * max(candidates) + PREDICT_ALLOWANCE
