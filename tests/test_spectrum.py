import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

import oracles
from fmstack import spectrum
from fmstack.analysis import AnalysisFrame, measure_spectrum
from fmstack.pm import render_pm_chain
from fmstack.spectrum import (
    AMPLITUDE_FLOOR,
    BudgetExceededError,
    LineSpectrum,
    merge_and_fold,
    predict_stack,
)
from oracles import bessel_series, line_amplitude, line_power, pm_chain


def test_merge_and_fold_examples():
    folded = merge_and_fold([(-500.0, 0.3), (500.0, 0.2)])
    assert list(folded.freqs) == [500.0]
    assert folded.amps[0] == 0.5

    dc = merge_and_fold([(0.0, -0.1)])
    assert list(dc.freqs) == [0.0]
    assert dc.amps[0] == -0.1

    cancelled = merge_and_fold([(500.0, 0.3), (500.0, -0.3)])
    assert len(cancelled.freqs) == 0


def test_merge_and_fold_properties():
    rng = np.random.default_rng(5)
    lines = [(float(f), float(a)) for f, a in zip(rng.uniform(-4000, 4000, 200), rng.normal(0, 1, 200))]
    spec = merge_and_fold(lines)
    assert np.all(spec.freqs >= 0)
    assert np.all(np.diff(spec.freqs) > 0)
    again = merge_and_fold(list(zip(spec.freqs, spec.amps)))
    assert np.array_equal(again.freqs, spec.freqs)
    assert np.array_equal(again.amps, spec.amps)


def test_line_spectrum_validation():
    with pytest.raises(ValueError):
        LineSpectrum(np.array([500.0, 400.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        LineSpectrum(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LineSpectrum(np.array([1.0]), np.array([1.0, 2.0]))


def test_first_order_zero_index():
    spec = predict_stack([(0.0, 500.0), (1.0, 2000.0)])
    assert list(spec.freqs) == [2000.0]
    assert list(spec.amps) == [1.0]


def test_first_order_line_values():
    spec = predict_stack([(2.0, 500.0), (1.0, 2000.0)])
    # sidebands J_n(2) at 2000 + n*500, negative frequencies folded
    assert abs(line_amplitude(spec, 2000.0) - 0.2239) < 1e-3
    assert abs(line_amplitude(spec, 1000.0) - 0.3528) < 2e-3
    expected_1000 = bessel_series(-2, 2.0) + bessel_series(-6, 2.0)
    assert abs(line_amplitude(spec, 1000.0) - expected_1000) < 1e-12
    expected_500 = bessel_series(-3, 2.0) + bessel_series(-5, 2.0)
    assert abs(line_amplitude(spec, 500.0) - expected_500) < 1e-12


def test_first_order_dc_fold_matches_rendered_dc():
    spec = predict_stack([(2.0, 500.0), (1.0, 500.0)])
    assert abs(line_amplitude(spec, 0.0) - bessel_series(-1, 2.0)) < 1e-12
    fs = 48000.0
    out = render_pm_chain([(2.0, 500.0), (1.0, 500.0)], 96 * 16, fs)
    assert abs(line_amplitude(spec, 0.0) - out.mean()) < 1e-3


def test_first_order_rejects_bad_modulator():
    with pytest.raises(ValueError):
        predict_stack([(1.0, 0.0), (1.0, 2000.0)])
    with pytest.raises(ValueError):
        predict_stack([(1.0, -500.0), (1.0, 2000.0)])


def test_second_order_outer_zero_is_single_line():
    spec = predict_stack([(3.0, 123.0), (0.0, 456.0), (1.0, 500.0)])
    assert list(spec.freqs) == [500.0]
    assert list(spec.amps) == [1.0]


def test_second_order_degenerates_exactly():
    # the output of a two-modulator stack drops lines below the floor; one modulator keeps them
    two = predict_stack([(0.0, 123.0), (2.0, 500.0), (1.0, 700.0)])
    one = predict_stack([(2.0, 500.0), (1.0, 700.0)])
    strong = np.abs(one.amps) >= AMPLITUDE_FLOOR
    assert np.array_equal(two.freqs, one.freqs[strong])
    assert np.array_equal(two.amps, one.amps[strong])


def test_second_order_matches_pm_oracle():
    # Fig-3-style parameters: predicted lines vs the DFT of the PM render
    fs = 96000.0
    periods = 16
    n = round(fs / 500.0) * periods
    pm = render_pm_chain([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)], n, fs)
    lines = measure_spectrum(AnalysisFrame(pm, fs, 500.0)).mags[::periods]
    pred = predict_stack([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)])
    floor = max(np.abs(pred.amps).max(), lines.max()) * 1e-3
    checked = 0
    for k, measured in enumerate(lines):
        predicted = abs(line_amplitude(pred, k * 500.0))
        if max(predicted, measured) < floor:
            continue
        assert abs(20.0 * np.log10(predicted / measured)) < 1.0
        checked += 1
    assert checked >= 20


def test_predicted_power_matches_rendered_power_with_folds():
    # fc=fm so folds interfere; the prediction must match the real signal power
    fs = 96000.0
    n = round(fs / 500.0) * 16
    pm = render_pm_chain([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)], n, fs)
    pred = predict_stack([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)])
    assert abs(line_power(pred) - np.mean(pm**2)) < 1e-4
    assert line_power(pred) < 1.0 + 1e-6


def test_power_conservation_without_folds():
    for z in [0.5, 1.0, 2.0, 3.0]:
        power = line_power(predict_stack([(z, 400.0), (1.0, 10000.0)]))
        assert power < 0.5 + 1e-6
        assert abs(power - 0.5) < 1e-4
    for z0, z1 in [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (3.0, 3.0)]:
        power = line_power(predict_stack([(z0, 100.0), (z1, 400.0), (1.0, 20000.0)]))
        assert power < 0.5 + 1e-6
        assert abs(power - 0.5) < 1e-4


def test_expansion_budget_guard():
    with pytest.raises(BudgetExceededError):
        predict_stack([(1.0, np.sqrt(2.0) * 100.0), (1e5, np.pi * 100.0), (1.0, 500.0)])


def test_second_order_rejects_bad_input():
    with pytest.raises(ValueError):
        predict_stack([(1.0, 0.0), (1.0, 500.0), (1.0, 500.0)])
    with pytest.raises(ValueError):
        predict_stack([(-1.0, 500.0), (1.0, 500.0), (1.0, 500.0)])


def test_scaled_spectrum():
    spec = predict_stack([(1.0, 500.0), (0.25, 2000.0)])  # the carrier's amplitude scales every line
    expected = 0.25 * (bessel_series(0, 1.0) + bessel_series(-8, 1.0))  # n=-8 folds onto 2000
    assert abs(line_amplitude(spec, 2000.0) - expected) < 1e-12


@pytest.mark.parametrize("zeta", [0.3, -0.3, 1.7, -1.7, 3.2, -3.2, 16.0, -16.0])
def test_component_weights_are_bessel_values_of_signed_order_and_argument(zeta):
    # the parity the predictor runs on: J_-n(z) = (-1)^n J_n(z) = J_n(-z)
    n_max = spectrum._sideband_count(zeta)
    orders = np.arange(-n_max, n_max + 1)
    weights = spectrum._component_weights(zeta, n_max)
    series = np.array([bessel_series(int(n), zeta) for n in orders])
    assert np.abs(weights - series).max() < 1e-12
    assert np.abs(weights - jv(orders, zeta)).max() < 1e-12
    parity = np.where(orders % 2, -1.0, 1.0)
    assert np.array_equal(weights[::-1], parity * weights)  # exact, as the recurrence is run once
    assert np.array_equal(spectrum._component_weights(-zeta, n_max), parity * weights)


def test_first_order_tiny_index_is_the_carrier():
    spec = predict_stack([(1e-200, 500.0), (1.0, 500.0)])
    assert list(spec.freqs) == [500.0]
    assert list(spec.amps) == [1.0]


def test_second_order_tiny_inner_index_matches_first_order():
    # one inner sideband's effective index z1*J_k(1e-6) reaches ~1e-62
    second = predict_stack([(1e-6, 500.0), (2.0, 500.0), (1.0, 500.0)])
    first = predict_stack([(2.0, 500.0), (1.0, 500.0)])
    strong = first.freqs[np.abs(first.amps) > 1e-4]
    assert len(strong) > 5
    for f in strong:
        assert abs(line_amplitude(second, f) - line_amplitude(first, f)) < 1e-5


def _assert_same_lines(a, b):
    assert np.array_equal(a.freqs, b.freqs)
    assert np.array_equal(a.amps, b.amps)


_INDEX = st.sampled_from([0.0, 1e-200, 1e-9]) | st.floats(0.05, 8.0)
_FREQ = st.integers(1, 12).map(lambda k: 125.0 * k) | st.floats(20.0, 3000.0)  # commensurate | not


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(1, 3),
    indices=st.lists(_INDEX, min_size=2, max_size=2),
    freqs=st.lists(_FREQ, min_size=3, max_size=3),
    amp=st.sampled_from([1.0, 0.5, -2.0]),
)
def test_predict_stack_reproduces_the_first_and_second_order_predictors(depth, indices, freqs, amp):
    params = list(zip(indices[: depth - 1], freqs[: depth - 1])) + [(amp, freqs[depth - 1])]
    stack = predict_stack(params)
    if depth == 1:
        _assert_same_lines(stack, LineSpectrum(np.array([freqs[0]]), np.array([amp])))
    elif depth == 2:
        (z, fm), (_, fc) = params
        old = oracles.predict_first_order(fc, fm, z)
        _assert_same_lines(stack, LineSpectrum(old.freqs, old.amps * amp))
    else:
        (z0, fm0), (z1, fm1), (_, fc) = params
        old = oracles.predict_second_order(fc, fm0, fm1, z0, z1)
        _assert_same_lines(stack, LineSpectrum(old.freqs, old.amps * amp))


def _worst_db_against_pm_chain(params, grid, sample_rate, periods=16):
    """Largest line error of predict_stack against the DFT of the closed-form PM chain,
    and the number of lines compared.

    Lines below -60 dB of the strongest line in both spectra are skipped. The
    sample rate must leave the chain's bandwidth unaliased.
    """
    n = round(sample_rate / grid) * periods
    lines = measure_spectrum(AnalysisFrame(pm_chain(params, n, sample_rate), sample_rate, grid)).mags[::periods]
    pred = predict_stack(params)
    floor = max(np.abs(pred.amps).max(), lines.max()) * 1e-3
    worst, checked = 0.0, 0
    for k, measured in enumerate(lines):
        predicted = abs(line_amplitude(pred, k * grid))
        if max(predicted, measured) < floor:
            continue
        worst = max(worst, abs(20.0 * np.log10(predicted / measured)))
        checked += 1
    return worst, checked


@pytest.mark.parametrize("params, grid, sample_rate", [
    ([(2.0, 500.0), (1.5, 500.0), (1.0, 500.0), (1.0, 500.0)], 500.0, 48000.0),  # folds onto DC
    ([(1.0, 100.0), (1.0, 200.0), (1.0, 300.0), (0.8, 2000.0)], 100.0, 48000.0),
    ([(1.5, 150.0), (1.2, 250.0), (1.0, 350.0), (0.8, 450.0), (1.0, 3000.0)], 50.0, 48000.0),
    # deviation reaches ~60 kHz: 192 kHz aliases, 384 kHz does not
    ([(3.0, 500.0), (3.0, 500.0), (3.0, 500.0), (3.0, 500.0), (1.0, 500.0)], 500.0, 384000.0),
])
def test_deep_stack_matches_pm_chain(params, grid, sample_rate):
    worst, checked = _worst_db_against_pm_chain(params, grid, sample_rate)
    assert checked >= 5
    assert worst < 1.0


@settings(max_examples=15, deadline=None)
@given(
    modulators=st.lists(st.tuples(st.floats(0.1, 2.0), st.integers(1, 12)), min_size=3, max_size=4),
    carrier=st.integers(10, 60),
)
# small indices leave fewer than 5 lines above -60 dB: too few to compare
@example(modulators=[(0.625, 1), (0.1015625, 1), (0.1015625, 1)], carrier=10)
def test_deep_stack_matches_pm_chain_on_random_grids(modulators, carrier):
    params = [(z, 50.0 * k) for z, k in modulators] + [(1.0, 50.0 * carrier)]
    try:
        worst, checked = _worst_db_against_pm_chain(params, 50.0, 96000.0)
    except BudgetExceededError:
        return  # a documented outcome; the CLI maps it to exit 3
    assume(checked >= 5)
    assert worst < 1.0


def test_predict_stack_validates_its_operators():
    with pytest.raises(ValueError):
        predict_stack([])
    with pytest.raises(ValueError):
        predict_stack([(1.0, 0.0), (1.0, 500.0), (1.0, 1000.0), (1.0, 1000.0)])
    with pytest.raises(ValueError):
        predict_stack([(1.0, 100.0), (-1.0, 500.0), (1.0, 1000.0), (1.0, 1000.0)])


def test_predict_stack_budget_bounds_a_huge_index():
    # the series of index 1e9 would take ~1e9 orders; the budget refuses it first
    with pytest.raises(BudgetExceededError):
        predict_stack([(1e9, 500.0), (1.0, 1000.0)])


@pytest.mark.parametrize("params", [
    [(1.0, math.nan), (1.0, 500.0)],
    [(math.nan, 100.0), (1.0, 500.0)],
    [(1.0, math.inf), (1.0, 500.0)],
    [(math.inf, 100.0), (1.0, 500.0)],
    [(1.0, 100.0), (1.0, 200.0), (1.0, -math.inf)],
    [(1.0, 100.0), (math.nan, 500.0)],
    [(math.nan, 500.0)],
])
def test_predict_stack_rejects_non_finite_parameters(params):
    with pytest.raises(ValueError, match="finite"):
        predict_stack(params)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_first_order_rejects_a_non_finite_index(z):
    with pytest.raises(ValueError, match="finite"):
        predict_stack([(z, 100.0), (1.0, 500.0)])


# MHz carriers put candidates where the grid spacing of float64 reaches
# 1e-9 Hz, and modulators below 1e-9 Hz sit under the spacing at audio
# frequencies, so rounding can reorder exact ties
_WIDE_FREQ = _FREQ | st.floats(1e5, 3e7) | st.floats(1e-15, 1e-9) | st.sampled_from([1e-9, 5e-10, 3e-14])
# indices that keep stacks of depth 5 well inside the budget
_SMALL_INDEX = st.sampled_from([0.0, 1e-200, 1e-9]) | st.floats(0.05, 1.2)


def _row_major_or_budget(params):
    try:
        return oracles.predict_stack_row_major(params)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            predict_stack(params)
        return None


@settings(max_examples=80, deadline=None)
@given(
    indices=st.lists(_SMALL_INDEX, min_size=4, max_size=4),
    freqs=st.lists(_WIDE_FREQ, min_size=5, max_size=5),
    depth=st.integers(2, 5),
    amp=st.sampled_from([1.0, 0.5, -2.0]),
)
def test_predict_stack_matches_the_row_major_merge(indices, freqs, depth, amp):
    params = list(zip(indices[: depth - 1], freqs[: depth - 1])) + [(amp, freqs[depth - 1])]
    old = _row_major_or_budget(params)
    if old is not None:
        _assert_same_lines(predict_stack(params), old)


_ROUNDING_EDGES = [
    [(1.5, 3e-14), (1.2, 2e-14), (1.0, 1000.0)],
    [(2.0, 1.0), (1.5, 1e7), (1.0, 3e7)],
    [(1.0, 123.4), (2.0, 456.7), (1.0, 9.1e6)],
    [(0.7, 1e-9), (1.3, 5e-10), (0.5, 1e-9), (1.0, 440.0)],
]


@pytest.mark.parametrize("params", _ROUNDING_EDGES)
def test_predict_stack_matches_the_row_major_merge_at_rounding_edges(params):
    _assert_same_lines(predict_stack(params), oracles.predict_stack_row_major(params))


@pytest.mark.parametrize("params, falls_back", [
    # the modulator's 1e-15 Hz line is a component far below the spacing of
    # float64 at 125 Hz: every order of its series rounds onto one value in
    # one row, the descending columns reverse the row-major tie order, and
    # only the row-major merge gives the oracle's bits
    ([(1.0, 125.0), (1.0, 1e-15), (1.0, 125.0)], True),
    (_ROUNDING_EDGES[0], True),
    # exact ties in the column order need no fallback, with components
    # at 0 Hz and below in the first stack
    ([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)], False),
    ([(1.5, 123.456), (2.5, 456.789), (1.0, 1000.0)], False),
])
def test_merge_falls_back_only_where_rounding_breaks_the_tie_order(monkeypatch, params, falls_back):
    calls = []

    def spy(freqs, amps, floor):
        calls.append(len(freqs))
        return merge_signed(freqs, amps, floor)

    expected = oracles.predict_stack_row_major(params)
    merge_signed = spectrum._merge_signed
    monkeypatch.setattr(spectrum, "_merge_signed", spy)
    _assert_same_lines(predict_stack(params), expected)
    assert (len(calls) > 1) == falls_back  # merge_and_fold accounts for one call
