"""Independent brute-force oracles for the test suite; never used by the package."""

from fractions import Fraction
from math import factorial

import numpy as np

from fmstack.operators import Block, InstabilityError, Operator


def bessel_series(n: int, z: float, terms: int = 100) -> float:
    """J_n(z) by the alternating power series in exact rational arithmetic.

    sum_k (-1)^k (z/2)^(n+2k) / (k! (n+k)!), summed over `terms` terms with
    Fraction coefficients, so there is no cancellation error; the truncation
    tail is far below 1e-20 for z <= 32 with the default term count.
    """
    order = abs(n)
    sign = -1 if (n < 0 and order % 2) else 1
    if z < 0:
        if order % 2:
            sign = -sign
        z = -z
    half = Fraction(z) / 2
    total = Fraction(0)
    power = half**order
    for k in range(terms):
        term = power / (factorial(k) * factorial(order + k))
        total += -term if k % 2 else term
        power *= half * half
    return sign * float(total)


def naive_dft_mags(samples, sample_rate):
    """O(N^2) DFT magnitudes, normalized so a bin-centered cosine reads 1.0."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    k = np.arange(n // 2 + 1)
    kernel = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    mags = np.abs(kernel @ x) / n
    mags[1:] *= 2.0
    if n % 2 == 0:
        mags[-1] *= 0.5
    freqs = k * (sample_rate / n)
    return freqs, mags


def feedback_fm_ticks(amp, freq_hz, feedback_gain, n_samples, sample_rate, table=None):
    """render_feedback_fm as one Operator.tick call per sample."""
    op = Operator(sample_rate, table)
    audio = np.empty(n_samples)
    modulation = np.empty(n_samples)
    limit = 10.0 * sample_rate
    prev = 0.0
    for n in range(n_samples):
        try:
            s, m = op.tick(amp, freq_hz, feedback_gain * prev)
        except ValueError as exc:
            raise InstabilityError(f"feedback FM diverged at sample {n}: {exc}") from exc
        if abs(m) > limit:
            raise InstabilityError(
                f"feedback FM diverged at sample {n}: |modulation| {abs(m):.3g} > {limit:.3g}"
            )
        audio[n] = s
        modulation[n] = m
        prev = m
    return Block(audio, modulation, float(sample_rate))
