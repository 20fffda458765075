import numpy as np
import pytest

from fmstack.analysis import AnalysisFrame, measure_dc, measure_spectrum
from fmstack.operators import (
    DEFAULT_BLOCK_SIZE,
    Block,
    InstabilityError,
    Operator,
    render_feedback_fm,
    render_naive_stack,
    render_stack,
)
from fmstack.pm import PMParams, render_pm2
from oracles import bessel_series, feedback_fm_ticks

FS = 48000.0
FIG3 = [(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)]


def test_tick_examples():
    op = Operator(FS)
    assert op.tick(0.0, 500.0, 123.0) == (0.0, 0.0)
    op = Operator(FS)
    assert op.tick(1.0, 500.0, 0.0) == (1.0, 500.0)
    op = Operator(FS)
    assert op.tick(2.0, 500.0, 250.0) == (2.0, 1500.0)


def test_tick_rejects_alias():
    op = Operator(FS)
    with pytest.raises(ValueError):
        op.tick(1.0, 500.0, 50000.0)


def test_modulation_identity_bitwise():
    rng = np.random.default_rng(3)
    fm = rng.uniform(-2000.0, 2000.0, size=512)
    op = Operator(FS)
    audio, mod = op.process(1.3, 700.0, fm=fm)
    assert np.array_equal(mod, audio * (700.0 + fm))
    op = Operator(FS)
    audio, mod = op.process(1.3, 700.0, fm=fm, naive=True)
    assert np.array_equal(mod, audio * 700.0)


def test_process_matches_tick_bitwise():
    rng = np.random.default_rng(4)
    fm = rng.uniform(-1500.0, 1500.0, size=300)
    serial = Operator(FS)
    expected = np.array([serial.tick(0.8, 600.0, float(m))[0] for m in fm])
    vector = Operator(FS)
    audio, _ = vector.process(0.8, 600.0, fm=fm)
    assert np.array_equal(audio, expected)
    assert vector.acc.phase == serial.acc.phase


def test_single_operator_stack_is_pure_tone():
    n = 96 * 16
    blk = render_stack([(1.0, 500.0)], n, FS)
    ideal = np.cos(2.0 * np.pi * 500.0 * np.arange(n) / FS)
    assert np.abs(blk.audio - ideal).max() < 5e-6
    assert blk.sample_rate == FS


def test_empty_stack_rejected():
    with pytest.raises(ValueError):
        render_stack([], 64, FS)


def test_block_size_invariance_bitwise():
    a = render_stack(FIG3, 1000, FS, block_size=64)
    b = render_stack(FIG3, 1000, FS, block_size=977)
    c = render_stack(FIG3, 1000, FS, block_size=1)
    assert np.array_equal(a.audio, b.audio)
    assert np.array_equal(a.audio, c.audio)
    assert np.array_equal(a.modulation, b.modulation)
    # several default-size chunks plus a remainder
    n = 3 * DEFAULT_BLOCK_SIZE + 17
    whole = render_stack(FIG3, n, FS, block_size=n)
    for size in (DEFAULT_BLOCK_SIZE, 7):
        chunked = render_stack(FIG3, n, FS, block_size=size)
        assert np.array_equal(chunked.audio, whole.audio)
        assert np.array_equal(chunked.modulation, whole.modulation)


def test_order_reduction_to_single_oscillator():
    n = 512
    stack = render_stack([(0.0, 500.0), (0.0, 500.0), (1.0, 500.0)], n, FS)
    single = render_stack([(1.0, 500.0)], n, FS)
    assert np.array_equal(stack.audio, single.audio)


def test_naive_equals_corrected_without_first_order_modulation():
    n = 512
    for params in [[(0.0, 500.0), (2.0, 500.0), (1.0, 500.0)], [(1.0, 500.0)]]:
        assert np.array_equal(
            render_naive_stack(params, n, FS).audio,
            render_stack(params, n, FS).audio,
        )


def test_two_operator_stack_matches_bessel_lines():
    # first-order FM: sidebands J_n(2) at 2000 + n*500
    n = 96 * 16
    blk = render_stack([(2.0, 500.0), (1.0, 2000.0)], n, FS)
    lines = measure_spectrum(AnalysisFrame(blk.audio, FS, 500.0)).mags[::16]
    for k, measured in enumerate(lines):
        if measured < 1e-3:
            continue
        order = k - 4  # 2000 Hz carrier sits at harmonic 4
        expect = abs(bessel_series(order, 2.0))
        assert abs(measured - expect) < 1e-2


def test_second_order_equivalence_to_pm():
    # per-line magnitudes within 1 dB of the PM oracle above a -60 dB floor
    fs = 96000.0
    periods = 16
    n = round(fs / 500.0) * periods
    fm_lines = measure_spectrum(AnalysisFrame(render_stack(FIG3, n, fs).audio, fs, 500.0), "hann").mags[::periods]
    pm = render_pm2(PMParams(500.0, [500.0, 500.0], [3.0, 2.0], fs), n)
    pm_lines = measure_spectrum(AnalysisFrame(pm, fs, 500.0), "hann").mags[::periods]
    floor = max(fm_lines.max(), pm_lines.max()) * 1e-3
    checked = 0
    for a, b in zip(fm_lines, pm_lines):
        if max(a, b) > floor:
            assert abs(20.0 * np.log10(a / b)) < 1.0
            checked += 1
    assert checked >= 20


def test_stack_alias_rejected():
    with pytest.raises(ValueError):
        render_stack([(1.0, 50000.0)], 64, FS)


@pytest.mark.parametrize("params", [[(1.0, np.nan)], [(np.nan, 300.0), (1.0, 440.0)], [(np.inf, 300.0), (1.0, 440.0)]])
def test_stack_non_finite_frequency_rejected(params):
    with pytest.raises(ValueError):
        render_stack(params, 64, FS)


def test_feedback_fm_silence():
    blk = render_feedback_fm(0.0, 500.0, 1.0, 256, FS)
    assert np.all(blk.audio == 0.0)
    assert np.all(blk.modulation == 0.0)


def test_feedback_fm_divergence_guard():
    with pytest.raises(InstabilityError):
        render_feedback_fm(1.0, 500.0, 50.0, 4800, FS)
    with pytest.raises(InstabilityError):
        render_feedback_fm(4.0, 500.0, 8.0, 4800, FS)


@pytest.mark.parametrize("gain", [0.01, 0.5, 1.0])
def test_feedback_fm_matches_ticks_bitwise(gain):
    n = 96 * 64
    blk = render_feedback_fm(1.0, 500.0, gain, n, FS)
    ref = feedback_fm_ticks(1.0, 500.0, gain, n, FS)
    assert np.array_equal(blk.audio, ref.audio)
    assert np.array_equal(blk.modulation, ref.modulation)


# alias guard at samples 1 and 310, |modulation| guard at sample 1
@pytest.mark.parametrize("amp,freq,gain", [(1.0, 1000.0, 50.0), (1.0, 500.0, 2.0), (15.0, 5000.0, 0.5)])
def test_feedback_fm_diverges_at_tick_sample(amp, freq, gain):
    with pytest.raises(InstabilityError) as ref:
        feedback_fm_ticks(amp, freq, gain, 4800, FS)
    with pytest.raises(InstabilityError) as got:
        render_feedback_fm(amp, freq, gain, 4800, FS)
    assert str(got.value) == str(ref.value)


def test_feedback_fm_strong_dc():
    n = 96 * 64
    blk = render_feedback_fm(1.0, 500.0, 1.0, n, FS)
    assert abs(measure_dc(AnalysisFrame(blk.audio, FS, 500.0))) > 0.05


def test_feedback_fm_envelope_decays():
    n = 96 * 64
    blk = render_feedback_fm(1.0, 500.0, 0.5, n, FS)
    frame = AnalysisFrame(blk.audio, FS, 500.0)
    harm = measure_spectrum(frame).mags[::64][1:11]
    for k in range(9):
        assert harm[k] > harm[k + 1]


def test_block_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Block(np.zeros(4), np.zeros(5), FS)
