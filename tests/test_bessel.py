import numpy as np
import pytest
from scipy.special import jv

from fmstack.bessel import bessel_row
from oracles import bessel_series


def test_known_values():
    assert bessel_row(0, 0.0)[0] == 1.0
    assert bessel_row(3, 0.0)[3] == 0.0
    assert abs(bessel_row(1, 2.0)[1] - 0.576724807756873) < 1e-12


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
def test_against_series_oracle(z):
    for n in range(0, 33):
        assert abs(bessel_row(n, z)[n] - bessel_series(n, z)) < 1e-12


@pytest.mark.parametrize("z", [20.0, 24.0, 32.0])
@pytest.mark.parametrize("n", [0, 16, 33, 48, 64])
def test_extended_domain(n, z):
    assert abs(bessel_row(n, z)[n] - bessel_series(n, z, terms=140)) < 1e-12


def test_row_matches_series_oracle():
    row = bessel_row(8, 2.0)
    for n in range(9):
        assert abs(row[n] - bessel_series(n, 2.0)) < 1e-12


def test_row_consistent_across_max_orders():
    row = bessel_row(40, 7.3)
    for n in range(41):
        assert abs(row[n] - bessel_row(n, 7.3)[n]) < 1e-12


def test_row_at_zero():
    row = bessel_row(10, 0.0)
    assert row[0] == 1.0
    assert np.all(row[1:] == 0.0)


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_normalization_identity(z):
    row = bessel_row(int(z) + 40, z)
    total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
    assert abs(total - 1.0) < 1e-10


def test_normalization_random_arguments():
    rng = np.random.default_rng(11)
    for z in rng.uniform(0.0, 10.0, size=25):
        row = bessel_row(int(z) + 40, float(z))
        total = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        assert abs(total - 1.0) < 1e-10


def test_three_term_recurrence():
    for z in np.linspace(0.5, 16.0, 32):
        row = bessel_row(34, float(z))
        for n in range(1, 33):
            assert abs(row[n - 1] + row[n + 1] - (2.0 * n / z) * row[n]) < 1e-9


def test_row_rejects_bad_input():
    with pytest.raises(ValueError):
        bessel_row(-1, 2.0)
    with pytest.raises(ValueError, match="z must be >= 0"):
        bessel_row(4, -1.0)
    for z in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="z must be finite"):
            bessel_row(4, z)


def test_row_at_tiny_argument_is_the_leading_term():
    row = bessel_row(3, 1e-200)
    assert np.all(np.isfinite(row))
    assert row[0] == 1.0 and row[1] == 5e-201
    assert np.all(row[2:] == 0.0)  # (z/2)^n/n! underflows


@pytest.mark.parametrize("z", np.geomspace(1e-300, 1e3, 61))
def test_row_matches_scipy(z):
    ref = jv(np.arange(41), z)
    row = bessel_row(40, float(z))
    assert np.abs(row - ref).max() < 1e-12
    if z <= 1.0:
        normal = np.abs(ref) > 1e-290
        assert np.all(np.abs(row - ref)[normal] <= 1e-12 * np.abs(ref[normal]))
