import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fmstack.analysis import (
    AnalysisFrame,
    MeasuredSpectrum,
    detect_carrier_drift,
    fit_spectral_slope,
    measure_dc,
    measure_spectrum,
)
from fmstack.operators import render_feedback_fm, render_naive_stack, render_stack
from fmstack.pm import render_feedback_pm, render_pm_chain
from oracles import bessel_series, carrier_drift_loop, naive_dft_mags

FS = 48000.0
FIG3 = [(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)]


def _tone(freq, n, amp=1.0, fs=FS):
    return amp * np.cos(2.0 * np.pi * freq * np.arange(n) / fs)


def test_bin_centered_cosine_is_a_single_bin():
    frame = AnalysisFrame(_tone(500.0, 96 * 16), FS, 500.0)
    spec = measure_spectrum(frame)
    k = np.argmax(spec.mags)
    assert spec.freqs[k] == 500.0
    assert abs(spec.mags[k] - 1.0) < 1e-12
    rest = np.delete(spec.mags, k)
    assert rest.max() < 1e-9


def test_silence_measures_zero():
    frame = AnalysisFrame(np.zeros(96 * 16), FS, 500.0)
    assert measure_spectrum(frame).mags.max() == 0.0


def test_pm1_line_matches_bessel():
    out = render_pm_chain([(2.0, 500.0), (1.0, 2000.0)], 96 * 16, FS)
    spec = measure_spectrum(AnalysisFrame(out, FS, 500.0))
    k = round(2500.0 / spec.freqs[1])
    assert abs(spec.mags[k] - abs(bessel_series(1, 2.0))) < 1e-3


def test_frame_validation():
    with pytest.raises(ValueError):
        AnalysisFrame(np.zeros(96 * 16 + 1), FS, 500.0)  # not whole periods
    with pytest.raises(ValueError):
        AnalysisFrame(np.zeros(96 * 8), FS, 500.0)  # fewer than 16 periods
    with pytest.raises(ValueError):
        AnalysisFrame(np.zeros(96 * 16), FS, 501.0)  # grid does not divide fs
    with pytest.raises(ValueError):
        AnalysisFrame(np.zeros(96 * 16), FS, -500.0)
    with pytest.raises(ValueError):
        measure_spectrum(AnalysisFrame(np.zeros(96 * 16), FS, 500.0), window="hamming")


def test_from_signal_trims_to_whole_periods():
    frame = AnalysisFrame.from_signal(np.zeros(96 * 16 + 50), FS, 500.0)
    assert len(frame.samples) == 96 * 16
    assert frame.periods == 16


def test_parseval_rectangular():
    rng = np.random.default_rng(9)
    n = 96 * 16
    x = np.zeros(n)
    for k, a in zip([1, 3, 7, 12], rng.uniform(0.1, 0.5, 4)):
        x += a * np.cos(2.0 * np.pi * 500.0 * k * np.arange(n) / FS + rng.uniform(0, 6))
    x += 0.2  # DC
    spec = measure_spectrum(AnalysisFrame(x, FS, 500.0))
    power = spec.mags[0] ** 2 + spec.mags[-1] ** 2 + np.sum(spec.mags[1:-1] ** 2) / 2.0
    assert abs(power - np.mean(x**2)) < 1e-6 * np.mean(x**2)


def test_fft_matches_naive_dft():
    rng = np.random.default_rng(13)
    fs, f0 = 3200.0, 100.0
    n = 32 * 16
    x = rng.normal(0, 0.3, n)
    spec = measure_spectrum(AnalysisFrame(x, fs, f0))
    freqs, mags = naive_dft_mags(x, fs)
    assert np.array_equal(spec.freqs, freqs)
    assert np.abs(spec.mags - mags).max() < 1e-9


def test_peak_interpolation_bias():
    frame = AnalysisFrame(_tone(500.0, 96 * 64), FS, 500.0)
    spec = measure_spectrum(frame, "hann")
    max_offset, _ = detect_carrier_drift(spec, 500.0, 1.0)
    assert max_offset < 1e-6 * FS


def test_drift_pure_tone_is_on_grid():
    spec = measure_spectrum(AnalysisFrame(_tone(500.0, 96 * 16), FS, 500.0), "hann")
    max_offset, offenders = detect_carrier_drift(spec, 500.0, 1.0)
    assert max_offset < 0.01
    assert offenders == []


def test_drift_corrected_stack_stays_on_grid():
    fs = 96000.0
    n = round(fs / 500.0) * 64
    audio = render_stack(FIG3, n, fs)
    spec = measure_spectrum(AnalysisFrame(audio, fs, 500.0))
    max_offset, _ = detect_carrier_drift(spec, 500.0, 1.0)
    assert max_offset < 1.0


def test_drift_naive_stack_is_far_off_grid():
    fs = 96000.0
    n = round(fs / 500.0) * 64
    audio = render_naive_stack(FIG3, n, fs)
    for window in ["hann", "rectangular"]:
        spec = measure_spectrum(AnalysisFrame(audio, fs, 500.0), window)
        max_offset, offenders = detect_carrier_drift(spec, 500.0, 1.0)
        assert max_offset >= 5.0
        assert offenders


def test_drift_rejects_bad_grid():
    spec = measure_spectrum(AnalysisFrame(_tone(500.0, 96 * 16), FS, 500.0))
    for grid in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            detect_carrier_drift(spec, grid, 1.0)


def test_measure_dc():
    frame = AnalysisFrame(_tone(500.0, 96 * 16), FS, 500.0)
    assert abs(measure_dc(frame)) < 1e-9
    n = 96 * 64
    fm_dc = measure_dc(AnalysisFrame(render_feedback_fm(1.0, 500.0, 1.0, n, FS), FS, 500.0))
    pm_dc = measure_dc(AnalysisFrame(render_feedback_pm(1.0, 500.0, 1.0, n, FS), FS, 500.0))
    assert abs(fm_dc) > 0.05
    assert abs(pm_dc) < abs(fm_dc)


def test_slope_of_exact_one_over_f():
    n = 96 * 16
    x = np.zeros(n)
    for k in range(1, 11):
        x += (1.0 / k) * np.cos(2.0 * np.pi * 500.0 * k * np.arange(n) / FS)
    spec = measure_spectrum(AnalysisFrame(x, FS, 500.0))
    slope = fit_spectral_slope(spec, 500.0, range(1, 11))
    assert abs(slope - (-6.02)) < 0.1


def test_slope_of_flat_lines():
    n = 96 * 16
    x = np.zeros(n)
    for k in range(1, 11):
        x += 0.1 * np.cos(2.0 * np.pi * 500.0 * k * np.arange(n) / FS)
    spec = measure_spectrum(AnalysisFrame(x, FS, 500.0))
    assert abs(fit_spectral_slope(spec, 500.0, range(1, 11))) < 1e-6


def test_slope_of_feedback_pm():
    n = 96 * 64
    out = render_feedback_pm(1.0, 500.0, 1.3, n, FS)
    spec = measure_spectrum(AnalysisFrame(out, FS, 500.0))
    slope = fit_spectral_slope(spec, 500.0, range(1, 11))
    assert -9.0 <= slope <= -3.0


def test_slope_needs_enough_peaks():
    frame = AnalysisFrame(_tone(500.0, 96 * 16), FS, 500.0)
    with pytest.raises(ValueError):
        fit_spectral_slope(measure_spectrum(frame), 500.0, range(1, 11))


# few distinct levels make plateaus (equal neighbours) common
_levels = st.sampled_from([0.0, 5e-324, 1e-160, 0.003, 0.01, 0.5, 1.0, 7.0])
_mags = st.one_of(
    st.lists(_levels, min_size=3, max_size=5),
    st.lists(st.one_of(_levels, st.floats(0.0, 1e300)), min_size=3, max_size=300),
)


@given(mags=_mags, bin_hz=st.floats(0.01, 100.0), grid_hz=st.floats(0.1, 2000.0),
       tolerance_hz=st.floats(0.0, 50.0))
@example(mags=[0.0] * 5, bin_hz=1.0, grid_hz=1.0, tolerance_hz=0.0)
@example(mags=[0.0, 1.0, 1.0, 1.0, 0.0], bin_hz=1.0, grid_hz=3.0, tolerance_hz=0.0)
@example(mags=[1.0, 0.0, 0.2, 0.2, 1.0, 0.0], bin_hz=1.0, grid_hz=3.0, tolerance_hz=0.0)
@example(mags=[1.0, 0.0, 0.0, 0.01, 0.0], bin_hz=1.0, grid_hz=2.0, tolerance_hz=0.0)  # at threshold
def test_drift_matches_loop_oracle(mags, bin_hz, grid_hz, tolerance_hz):
    mags = np.array(mags)
    spec = MeasuredSpectrum(np.arange(len(mags)) * bin_hz, mags)
    expected = carrier_drift_loop(spec, grid_hz, tolerance_hz)
    assert detect_carrier_drift(spec, grid_hz, tolerance_hz) == expected
