import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmstack.analysis import AnalysisFrame, detect_carrier_drift, measure_spectrum
from fmstack.pm import render_feedback_pm, render_pm_chain
from oracles import bessel_series, feedback_pm_loop, line_amplitude, pm1_expression, pm2_expression, pm_chain

FS = 48000.0


def _frame(x, fundamental=500.0, fs=FS):
    return AnalysisFrame(x, fs, fundamental)


def test_pm1_zero_index_is_pure_cosine():
    n = 96 * 16
    out = render_pm_chain([(0.0, 500.0), (1.0, 2000.0)], n, FS)
    t = np.arange(n) / FS
    assert np.array_equal(out, np.cos(2.0 * np.pi * 2000.0 * t))


def test_pm1_sideband_magnitudes():
    n = 96 * 16
    out = render_pm_chain([(2.0, 500.0), (1.0, 2000.0)], n, FS)
    spec = measure_spectrum(_frame(out))
    lines = spec.mags[::16]  # harmonics of 500 Hz
    assert abs(lines[4] - abs(bessel_series(0, 2.0))) < 1e-3  # 2000 Hz
    assert abs(lines[5] - abs(bessel_series(1, 2.0))) < 1e-3  # 2500 Hz


def test_pm2_outer_index_zero_is_pure_cosine():
    n = 96 * 16
    out = render_pm_chain([(3.0, 500.0), (0.0, 500.0), (1.0, 500.0)], n, FS)
    t = np.arange(n) / FS
    assert np.array_equal(out, np.cos(2.0 * np.pi * 500.0 * t))


def test_pm2_degenerates_to_pm1_exactly():
    n = 96 * 16
    two = render_pm_chain([(0.0, 123.0), (2.0, 500.0), (1.0, 700.0)], n, FS)
    one = render_pm_chain([(2.0, 500.0), (1.0, 700.0)], n, FS)
    assert np.array_equal(two, one)


def test_pm_params_validation():
    with pytest.raises(ValueError, match=">= 0"):
        render_pm_chain([(-1.0, 500.0), (1.0, 500.0)], 64, FS)
    for fs in (0.0, -48000.0):
        with pytest.raises(ValueError, match="positive"):
            render_pm_chain([(1.0, 500.0), (1.0, 500.0)], 64, fs)
    with pytest.raises(ValueError, match="at least one operator"):
        render_pm_chain([], 64, FS)
    with pytest.raises(ValueError, match="sample count"):
        render_pm_chain([(1.0, 500.0), (1.0, 500.0)], -1, FS)


@pytest.mark.parametrize("fc,fm,z,fs", [
    (float("nan"), [500.0], [float("nan")], FS),
    (float("inf"), [500.0], [1.0], FS),
    (500.0, [float("nan")], [1.0], FS),
    (500.0, [500.0, 300.0], [1.0, float("inf")], FS),
    (500.0, [500.0], [1.0], float("inf")),
])
def test_pm_params_reject_non_finite(fc, fm, z, fs):
    with pytest.raises(ValueError, match="finite"):
        render_pm_chain([*zip(z, fm), (1.0, fc)], 64, fs)


@pytest.mark.parametrize("z0,z1", [(3.0, 2.0), (2.0, 1.0), (1.0, 3.0)])
def test_pm_has_no_drift(z0, z1):
    n = 96 * 64
    out = render_pm_chain([(z0, 500.0), (z1, 500.0), (1.0, 500.0)], n, FS)
    spec = measure_spectrum(_frame(out), "hann")
    max_offset, offenders = detect_carrier_drift(spec, 500.0, 1.0)
    assert max_offset < 1.0
    assert offenders == []


def test_pm1_matches_folded_prediction():
    from fmstack.spectrum import predict_stack

    n = 96 * 16
    for z in [0.5, 1.0, 2.0, 3.0, 5.0]:
        out = render_pm_chain([(z, 500.0), (1.0, 2000.0)], n, FS)
        lines = measure_spectrum(_frame(out)).mags[::16]
        predicted = predict_stack([(z, 500.0), (1.0, 2000.0)])
        for k, measured in enumerate(lines):
            expect = abs(line_amplitude(predicted, k * 500.0))
            if max(measured, expect) > 1e-6:
                assert abs(measured - expect) < 1e-3


def test_dc_offset_is_a_phase_shift():
    # fc >> z*fm so no negative-frequency fold interferes with the magnitudes
    n = 96 * 16
    params = [(2.0, 500.0), (1.0, 8000.0)]
    base = measure_spectrum(_frame(render_pm_chain(params, n, FS))).mags
    for c in [0.3, 1.0, np.pi / 2]:
        shifted = measure_spectrum(_frame(pm1_expression(params, n, FS, phase_offset=c))).mags
        assert np.abs(shifted - base).max() < 1e-9


def test_feedback_pm_trivial_cases():
    assert np.all(render_feedback_pm(0.0, 500.0, 1.0, 256, FS) == 0.0)
    out = render_feedback_pm(1.0, 500.0, 0.0, 256, FS)
    ideal = np.cos(2.0 * np.pi * 500.0 * (np.arange(256) / FS))
    assert np.abs(out - ideal).max() < 1e-12


def test_feedback_pm_harmonics_decay():
    n = 96 * 64
    out = render_feedback_pm(1.0, 500.0, 1.0, n, FS)
    lines = measure_spectrum(_frame(out)).mags[::64]
    harm = lines[1:11]
    for k in range(1, 9):  # harmonics 2..10
        assert harm[k] > harm[k + 1]


_freqs = st.floats(-20000.0, 20000.0)
_indices = st.floats(0.0, 50.0)
_rates = st.sampled_from([8000.0, 44100.0, 48000.0, 96000.0, 12345.678])
# short renders, and lengths on and across the 8192-sample block boundaries
_lengths = st.one_of(st.integers(0, 2000), st.sampled_from([8191, 8192, 8193, 16385, 20000]))


@settings(deadline=None)
@given(amp=st.floats(-4.0, 4.0), fc=_freqs, fm=_freqs, z=_indices, sr=_rates, n=_lengths)
def test_pm1_matches_expression_oracle_bitwise(amp, fc, fm, z, sr, n):
    params = [(z, fm), (amp, fc)]
    assert render_pm_chain(params, n, sr).tobytes() == pm1_expression(params, n, sr).tobytes()


@settings(deadline=None)
@given(fc=_freqs, fm=st.lists(_freqs, min_size=2, max_size=2), z=st.lists(_indices, min_size=2, max_size=2),
       sr=_rates, n=_lengths)
def test_pm2_matches_expression_oracle_bitwise(fc, fm, z, sr, n):
    params = [*zip(z, fm), (1.0, fc)]
    assert render_pm_chain(params, n, sr).tobytes() == pm2_expression(params, n, sr).tobytes()


@settings(deadline=None)
@given(amp=st.floats(-4.0, 4.0), fc=_freqs, mods=st.lists(st.tuples(_indices, _freqs), max_size=8), sr=_rates,
       n=_lengths)
def test_pm_chain_matches_oracle_bitwise(amp, fc, mods, sr, n):
    params = [*mods, (amp, fc)]
    assert render_pm_chain(params, n, sr).tobytes() == pm_chain(params, n, sr).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(-4.0, 4.0),
    freq=_freqs,
    gain=st.floats(-5.0, 5.0),
    sr=st.one_of(_rates, st.integers(1000, 200000)),
    n=st.one_of(st.integers(0, 300), st.sampled_from([8191, 8192, 8193, 16385, 20000])),
)
@example(amp=1.0, freq=500.0, gain=1.0, sr=48000.0, n=8192 * 2 + 1)
def test_feedback_pm_matches_scalar_loop_oracle_bitwise(amp, freq, gain, sr, n):
    assert render_feedback_pm(amp, freq, gain, n, sr).tobytes() == feedback_pm_loop(amp, freq, gain, n, sr).tobytes()


@pytest.mark.parametrize("amp,freq,gain,sr", [
    (float("nan"), 500.0, 1.0, FS),
    (float("inf"), 500.0, 1.0, FS),
    (1.0, float("nan"), 1.0, FS),
    (1.0, float("-inf"), 1.0, FS),
    (1.0, 500.0, float("nan"), FS),
    (1.0, 500.0, float("inf"), FS),
    (1.0, 500.0, 1.0, float("nan")),
    (1.0, 500.0, 1.0, float("inf")),
    (1.0, 500.0, 1.0, 0.0),
    (1.0, 500.0, 1.0, -48000.0),
])
def test_feedback_pm_rejects_bad_arguments(amp, freq, gain, sr):
    with pytest.raises(ValueError):
        render_feedback_pm(amp, freq, gain, 64, sr)


def test_feedback_pm_rejects_negative_sample_count():
    with pytest.raises(ValueError, match="sample count must be >= 0"):
        render_feedback_pm(1.0, 500.0, 1.0, -1, FS)
