from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmstack import operators
from fmstack.analysis import AnalysisFrame, measure_dc, measure_spectrum
from fmstack.operators import (
    DEFAULT_BLOCK_SIZE,
    InstabilityError,
    Operator,
    render_feedback_fm,
    render_naive_stack,
    render_stack,
)
from fmstack.pm import render_pm_chain
from fmstack.wavetable import PHASE_MODULUS
from oracles import (
    bessel_series,
    feedback_fm_int_phase,
    feedback_fm_ticks,
    operator_process,
    pm_chain,
)

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
    audio = render_stack([(1.0, 500.0)], n, FS)
    ideal = np.cos(2.0 * np.pi * 500.0 * np.arange(n) / FS)
    assert np.abs(audio - ideal).max() < 5e-6


@pytest.mark.parametrize("render", [render_stack, render_naive_stack, render_pm_chain])
def test_empty_stack_rejected(render):
    with pytest.raises(ValueError, match="stack needs at least one operator"):
        render([], 64, FS)


def _render_in_blocks(render, params, n, block_size):
    """A stack render with the module's block length set for this one call."""
    with mock.patch.object(operators, "DEFAULT_BLOCK_SIZE", block_size):
        return render(params, n, FS)


def test_block_size_invariance_bitwise():
    a = _render_in_blocks(render_stack, FIG3, 1000, 64)
    b = _render_in_blocks(render_stack, FIG3, 1000, 977)
    c = _render_in_blocks(render_stack, FIG3, 1000, 1)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    # several default-size chunks plus a remainder
    n = 3 * DEFAULT_BLOCK_SIZE + 17
    whole = _render_in_blocks(render_stack, FIG3, n, n)
    for size in (DEFAULT_BLOCK_SIZE, 7):
        assert np.array_equal(_render_in_blocks(render_stack, FIG3, n, size), whole)


def test_order_reduction_to_single_oscillator():
    n = 512
    stack = render_stack([(0.0, 500.0), (0.0, 500.0), (1.0, 500.0)], n, FS)
    single = render_stack([(1.0, 500.0)], n, FS)
    assert np.array_equal(stack, single)


def test_naive_equals_corrected_without_first_order_modulation():
    n = 512
    for params in [[(0.0, 500.0), (2.0, 500.0), (1.0, 500.0)], [(1.0, 500.0)]]:
        assert np.array_equal(
            render_naive_stack(params, n, FS),
            render_stack(params, n, FS),
        )


def test_two_operator_stack_matches_bessel_lines():
    # first-order FM: sidebands J_n(2) at 2000 + n*500
    n = 96 * 16
    audio = render_stack([(2.0, 500.0), (1.0, 2000.0)], n, FS)
    lines = measure_spectrum(AnalysisFrame(audio, FS, 500.0)).amps[::16]
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
    fm_lines = measure_spectrum(AnalysisFrame(render_stack(FIG3, n, fs), fs, 500.0), "hann").amps[::periods]
    pm = render_pm_chain([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)], n, fs)
    pm_lines = measure_spectrum(AnalysisFrame(pm, fs, 500.0), "hann").amps[::periods]
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


@pytest.mark.parametrize("params", [
    [(1.0, np.nan)],
    [(np.nan, 300.0), (1.0, 440.0)],
    [(np.inf, 300.0), (1.0, 440.0)],
    [(1.0, 500.0), (np.nan, 500.0)],
])
def test_stack_non_finite_frequency_rejected(params):
    for render in (render_stack, render_naive_stack):
        with pytest.raises(ValueError, match="finite"):
            render(params, 64, FS)


@pytest.mark.parametrize("sr", [0.0, -48000.0, np.nan])
def test_stack_rejects_bad_sample_rate(sr):
    for render in (render_stack, render_naive_stack):
        with pytest.raises(ValueError):
            render([(1.0, 500.0), (1.0, 500.0)], 4, sr)


def test_renders_reject_negative_sample_count():
    for render in (render_stack, render_naive_stack):
        with pytest.raises(ValueError, match="sample count must be >= 0"):
            render([(1.0, 500.0)], -1, FS)
    with pytest.raises(ValueError, match="sample count must be >= 0"):
        render_feedback_fm(1.0, 500.0, 0.0, -1, FS)


@pytest.mark.parametrize("sr", [0.0, -48000.0, np.inf, np.nan])
def test_operator_rejects_bad_sample_rate(sr):
    with pytest.raises(ValueError, match="sample rate must be finite and positive"):
        Operator(sr)


def test_feedback_fm_silence():
    assert np.all(render_feedback_fm(0.0, 500.0, 1.0, 256, FS) == 0.0)


@pytest.mark.parametrize("amp,freq,gain,sr", [
    (np.nan, 500.0, 1.0, FS),
    (np.inf, 500.0, 1.0, FS),
    (1.0, np.nan, 1.0, FS),
    (1.0, -np.inf, 1.0, FS),
    (1.0, 500.0, np.nan, FS),
    (1.0, 500.0, np.inf, FS),
    (1.0, 500.0, 1.0, np.nan),
    (1.0, 500.0, 1.0, np.inf),
    (1.0, 500.0, 1.0, 0.0),
    (1.0, 500.0, 1.0, -48000.0),
])
def test_feedback_fm_rejects_bad_arguments(amp, freq, gain, sr):
    with pytest.raises(ValueError):
        render_feedback_fm(amp, freq, gain, 64, sr)


def test_feedback_fm_divergence_guard():
    with pytest.raises(InstabilityError):
        render_feedback_fm(1.0, 500.0, 50.0, 4800, FS)
    with pytest.raises(InstabilityError):
        render_feedback_fm(4.0, 500.0, 8.0, 4800, FS)


@pytest.mark.parametrize("gain", [0.01, 0.5, 1.0])
def test_feedback_fm_matches_ticks_bitwise(gain):
    n = 96 * 64
    ref = feedback_fm_ticks(1.0, 500.0, gain, n, FS)
    assert np.array_equal(render_feedback_fm(1.0, 500.0, gain, n, FS), ref)


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
    audio = render_feedback_fm(1.0, 500.0, 1.0, n, FS)
    assert abs(measure_dc(AnalysisFrame(audio, FS, 500.0))) > 0.05


def test_feedback_fm_envelope_decays():
    n = 96 * 64
    frame = AnalysisFrame(render_feedback_fm(1.0, 500.0, 0.5, n, FS), FS, 500.0)
    harm = measure_spectrum(frame).amps[::64][1:11]
    for k in range(9):
        assert harm[k] > harm[k + 1]


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, InstabilityError) as exc:
        return type(exc), str(exc)


_sample_rates = st.sampled_from([8000.0, 44100.0, 48000.0, 96000.0])


@given(
    sr=_sample_rates,
    phase=st.one_of(st.integers(0, PHASE_MODULUS - 1), st.integers(PHASE_MODULUS - 2**20, PHASE_MODULUS - 1)),
    amp=st.floats(-10.0, 10.0),
    freq=st.floats(-100000.0, 100000.0),
    fm=st.one_of(
        st.none(),
        st.lists(st.floats(-100000.0, 100000.0), max_size=200),
        st.lists(st.floats(allow_infinity=True, allow_nan=True), max_size=20),
    ),
    n=st.integers(0, 200),
    naive=st.booleans(),
)
# NaN in fm or in a top operator's frequency raises; a zero-length top operator checks nothing.
# fm=None stands for a top operator: the oracle builds its frequencies from
# n, and Operator.process takes the -0.0 input a stack render feeds it.
@example(sr=48000.0, phase=0, amp=1.0, freq=500.0, fm=[0.0, float("nan"), 0.0], n=0, naive=False)
@example(sr=48000.0, phase=0, amp=1.0, freq=float("nan"), fm=None, n=5, naive=False)
@example(sr=48000.0, phase=0, amp=1.0, freq=float("nan"), fm=None, n=0, naive=False)
@example(sr=48000.0, phase=0, amp=1.0, freq=-48000.0, fm=None, n=3, naive=True)
def test_process_matches_pre_rewrite_oracle_bitwise(sr, phase, amp, freq, fm, n, naive):
    new, old = Operator(sr), Operator(sr)
    new.acc.phase = old.acc.phase = phase
    fm = None if fm is None else np.array(fm, dtype=np.float64)
    got = _outcome(new.process, amp, freq, np.full(n, -0.0) if fm is None else fm, naive=naive)
    want = _outcome(operator_process, old, amp, freq, fm=fm, n_samples=n, naive=naive)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert new.acc.phase == old.acc.phase


@settings(max_examples=60, deadline=None)
@given(
    sr=_sample_rates,
    amp=st.one_of(st.floats(-2.0, 2.0), st.floats(-50.0, 50.0)),
    freq=st.floats(-5000.0, 5000.0),
    gain=st.one_of(st.floats(-2.0, 2.0), st.floats(-20.0, 20.0)),
    n=st.integers(0, 3000),
)
# the alias guard at sample 1, the |modulation| guard at sample 1, an alias
# at sample 310, and a phase that wraps backward: an error must carry the
# oracle's message and sample index
@example(sr=48000.0, amp=1.0, freq=1000.0, gain=50.0, n=4800)
@example(sr=48000.0, amp=15.0, freq=5000.0, gain=0.5, n=4800)
@example(sr=48000.0, amp=1.0, freq=500.0, gain=2.0, n=4800)
@example(sr=48000.0, amp=1.0, freq=-700.0, gain=0.3, n=4800)
def test_feedback_fm_matches_int_phase_oracle_bitwise(sr, amp, freq, gain, n):
    got = _outcome(render_feedback_fm, amp, freq, gain, n, sr)
    want = _outcome(feedback_fm_int_phase, amp, freq, gain, n, sr)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tobytes() == want.tobytes()


# --- stack properties over random patches


@st.composite
def _stacks(draw):
    # indices <= 1 and frequencies <= 2000 Hz: at depth 8 the compounded
    # deviation stays below 16 kHz, far from aliasing at 48 kHz
    depth = draw(st.integers(1, 8))
    return [(draw(st.floats(0.0, 1.0)), draw(st.floats(50.0, 2000.0))) for _ in range(depth)]


# (block size, length): every size from one sample to the default chunk,
# with lengths on and across the 8192-sample chunk boundaries
_SHORT = st.integers(1, 300)
_blocks_and_lengths = st.one_of(
    st.tuples(st.just(1), _SHORT),
    st.tuples(st.just(7), st.one_of(_SHORT, st.sampled_from([8191, 8192, 8193]))),
    st.tuples(st.just(DEFAULT_BLOCK_SIZE), st.one_of(_SHORT, st.sampled_from([8191, 8192, 8193, 16385, 20000]))),
)


@settings(max_examples=40, deadline=None)
@given(params=_stacks(), block_and_length=_blocks_and_lengths, naive=st.booleans())
def test_chunked_render_equals_whole_buffer_bitwise(params, block_and_length, naive):
    block_size, n = block_and_length
    render = render_naive_stack if naive else render_stack
    whole = _render_in_blocks(render, params, n, n)
    assert _render_in_blocks(render, params, n, block_size).tobytes() == whole.tobytes()


def _grid_lines(signal, fs, grid, periods=16):
    """Hann-windowed magnitudes at the grid harmonics, as `compare` measures them."""
    frame = AnalysisFrame(signal[: round(fs / grid) * periods], fs, grid)
    return measure_spectrum(frame, "hann").amps[::periods]


def _max_line_diff_db(ops, fs, grid):
    """Largest FM/PM line difference in dB above a -60 dB floor, over 16 grid periods."""
    n = round(fs / grid) * 16
    fm_lines = _grid_lines(render_stack(ops, n, fs), fs, grid)
    pm_lines = _grid_lines(pm_chain(ops, n, fs), fs, grid)
    active = np.maximum(fm_lines, pm_lines) > max(fm_lines.max(), pm_lines.max()) * 1e-3
    return np.abs(20.0 * np.log10(fm_lines[active] / pm_lines[active])).max()


# The paper's patch family: every operator on one frequency of the grid, as
# in Fig. 3. Past an index of about 1.4 at depth 3, and for mixed frequency
# ratios, the left-sum phase integration of the oscillator breaks the exact
# cancellations of some PM lines and the 1 dB bound does not hold at 96 kHz.
# Four operators hold it with indices up to 1.0; five hold it except where
# every index is near 1.0, a corner this draw reaches rarely (pinned below).
@settings(max_examples=25, deadline=None)
@given(
    grid=st.sampled_from([250.0, 500.0]),
    harmonic=st.sampled_from([1, 2]),
    depth=st.sampled_from([2, 3, 4, 5]),
    data=st.data(),
)
def test_commensurate_stack_matches_pm_oracle_within_1db(grid, harmonic, depth, data):
    fs = 96000.0
    freq = grid * harmonic
    z_max = {2: 2.5, 3: 1.2}.get(depth, 1.0)
    indices = data.draw(st.lists(st.floats(0.1, z_max), min_size=depth - 1, max_size=depth - 1), label="indices")
    ops = [(z, freq) for z in indices] + [(1.0, freq)]
    assert _max_line_diff_db(ops, fs, grid) <= 1.0


# Five operators at 1000 Hz, every index 1.0, read 1.106 dB from PM on the
# 500 Hz grid (0.91 dB at index 0.98). Trapezoidal phase integration,
# ROADMAP item 2, is expected to bring it within the bound.
@pytest.mark.xfail(strict=True, reason="left-sum phase integration; ROADMAP item 2")
def test_five_operator_stack_at_index_1_matches_pm_oracle_within_1db():
    assert _max_line_diff_db([(1.0, 1000.0)] * 5, 96000.0, 500.0) <= 1.0
