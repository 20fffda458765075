"""Bessel functions of the first kind, integer order.

Downward (Miller) recurrence normalized with J_0 + 2*sum(J_2k) = 1.
Arguments so small that the recurrence would overflow take the leading
series term, exact there.
"""

import math

import numpy as np

_RESCALE = 1e250
# largest step factor 2k/z the recurrence takes: a value just under _RESCALE
# times it stays below the double-precision maximum (~1.8e308)
_MAX_STEP_GROWTH = 1e57


def _miller_start(max_order: int, z: float) -> int:
    m = max(max_order, int(math.ceil(z)))
    m += 1 + int(math.ceil(math.sqrt(160.0 * (m + 1))))
    return m + (m & 1)


def bessel_row(max_order: int, z: float) -> np.ndarray:
    """J_0(z)..J_max_order(z) as one array; z must be finite and >= 0."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z < 0:
        raise ValueError("z must be >= 0 (use bessel_j for signed arguments)")
    row = np.zeros(max_order + 1)
    if z == 0.0:
        row[0] = 1.0
        return row
    start = _miller_start(max_order, z)
    if z < 2.0 * start / _MAX_STEP_GROWTH:
        # J_n(z) = (z/2)^n/n! * (1 + O(z^2)), and z^2 is far below double
        # precision here; the product underflows to 0 where J_n does
        row[0] = 1.0
        row[1:] = 0.5 * z / np.arange(1, max_order + 1)
        return np.cumprod(row)
    j_hi = 0.0  # unnormalized J_{k+1}
    j_k = 1e-30  # seed at the start order
    even_sum = 0.0
    for k in range(start, 0, -1):
        if k <= max_order:
            row[k] = j_k
        if k % 2 == 0:
            even_sum += j_k
        j_lo = (2.0 * k / z) * j_k - j_hi
        j_hi, j_k = j_k, j_lo
        if abs(j_k) > _RESCALE:
            j_k /= _RESCALE
            j_hi /= _RESCALE
            even_sum /= _RESCALE
            row /= _RESCALE
    row[0] = j_k
    row /= j_k + 2.0 * even_sum
    return row


def bessel_j(n: int, z: float) -> float:
    """J_n(z) for any integer n and real z, via parity for negative arguments."""
    order = abs(n)
    sign = 1.0
    if order % 2 == 1:
        if n < 0:
            sign = -sign  # J_{-n} = (-1)^n J_n
        if z < 0:
            sign = -sign  # J_n(-z) = (-1)^n J_n(z)
    return sign * float(bessel_row(order, abs(z))[order])
