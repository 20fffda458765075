"""Analytic line spectra of sinusoidal FM/PM stacks of any depth.

A stack's top operator is one sine component. Phase modulation by a sum of
sine components is the convolution of one Jacobi-Anger series per
component: lines at carrier + n*nu weighted J_n(zeta). The lines of each
level, scaled by that operator's index, are the components of the level
below. The output's negative frequencies fold onto positive ones by cosine
symmetry, with signed amplitudes so coincident lines interfere coherently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_row

MERGE_FREQ_EPS = 1e-9  # Hz; closer lines are treated as coincident
MERGE_AMP_EPS = 1e-14  # amplitudes this small after merging are dropped
EXPANSION_BUDGET = 10_000_000
# lines of a level merged from more than one component, and of the output of
# a stack of three or more operators, weaker than this are dropped; a level
# expanded from one component is otherwise left whole
AMPLITUDE_FLOOR = 1e-6


class BudgetExceededError(RuntimeError):
    """The expansion grew past EXPANSION_BUDGET terms; smaller indices or fewer operators shrink it."""


@dataclass
class LineSpectrum:
    """Sorted cosine-phase partials: non-negative frequencies, signed amplitudes."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        self.amps = np.asarray(self.amps, dtype=np.float64)
        if len(self.freqs) != len(self.amps):
            raise ValueError("freqs and amps must have equal length")
        if len(self.freqs) and self.freqs[0] < 0:
            raise ValueError("line frequencies must be non-negative")
        if len(self.freqs) > 1 and np.any(np.diff(self.freqs) <= 0):
            raise ValueError("line frequencies must be strictly increasing")


def _sideband_count(z: float) -> int:
    # Carson-style significant-sideband rule with safety margin
    if not math.isfinite(z):
        raise ValueError("modulation indices must be finite")
    return int(math.ceil(abs(z))) + 8


def _merge_signed(freqs: np.ndarray, amps: np.ndarray, floor: float):
    """Sum amplitudes of coincident signed frequencies; drop lines below floor."""
    if len(freqs) == 0:
        return np.asarray(freqs, dtype=np.float64), np.asarray(amps, dtype=np.float64)
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    amps = amps[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(freqs) > MERGE_FREQ_EPS)))
    merged = np.add.reduceat(amps, starts)
    keep = np.abs(merged) >= floor
    return freqs[starts[keep]], merged[keep]


def merge_and_fold(raw_lines) -> LineSpectrum:
    """Fold negative-frequency cosine lines onto positive frequencies and merge.

    `raw_lines` holds (freq, amp) pairs, as a sequence or an (n, 2) array.
    Cosine symmetry keeps the signed amplitude unchanged under folding;
    frequencies equal within 1e-9 Hz are summed, and sums below
    MERGE_AMP_EPS (exact cancellations) are dropped.
    """
    lines = raw_lines if isinstance(raw_lines, np.ndarray) else list(raw_lines)
    lines = np.asarray(lines, dtype=np.float64).reshape(-1, 2)
    f, a = _merge_signed(np.abs(lines[:, 0]), lines[:, 1], MERGE_AMP_EPS)
    return LineSpectrum(f, a)


def _component_weights(zeta: float, n_max: int) -> np.ndarray:
    """J_n(zeta) for n in [-n_max, n_max], parity handling signed zeta."""
    row = bessel_row(n_max, abs(zeta))
    alternating = row.copy()
    alternating[1::2] *= -1.0  # (-1)^n J_n(|zeta|) = J_-n(|zeta|) = J_n(-|zeta|)
    if zeta < 0:
        return np.concatenate((row[:0:-1], alternating))
    return np.concatenate((alternating[:0:-1], row))


class _Buffers:
    """Work arrays of one `predict_stack` call, reused from merge to merge.

    Reuse keeps each merge from freeing its full-size temporaries and
    faulting fresh pages back in at the next one. An array grows to exactly
    the size asked for, and the smaller one is freed before the larger one
    is allocated.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        buf = self._arrays.pop(name, None)
        if buf is None or len(buf) < size:
            del buf  # the smaller array is freed before the larger one is allocated
            buf = np.empty(size, dtype)
        self._arrays[name] = buf
        return buf[:size]


def _merge_convolution(freqs, amps, orders, weights, nu, floor, buf: _Buffers):
    """`_merge_signed` of the candidates freqs[i] + orders[k]*nu, amps[i]*weights[k], bit for bit.

    `freqs` must be sorted (a merge's output is). The candidates are laid out
    column by column: column k is the sorted run freqs + orders[k]*nu, so
    the stable argsort merges presorted runs. Putting the columns in
    descending k when nu > 0, ascending otherwise, makes exactly equal
    candidates come out in the row-major (i, k) order in which
    `_merge_signed` sums them: equal sums from rows i < j need the larger
    offset on row i. Rounding can break that, so each exact tie is checked:
    its row index must rise, or stay equal only with ascending columns.
    Where it does not, or a candidate is NaN, the row-major candidates go
    to `_merge_signed` instead.
    """
    n, k = len(freqs), len(orders)
    m = n * k
    if m == 0:
        return np.empty(0), np.empty(0)
    descending = nu > 0
    if descending:
        orders, weights = orders[::-1], weights[::-1]
    cand_f = buf.get("cand_f", m)
    cand_a = buf.get("cand_a", m)
    np.add((orders * nu)[:, None], freqs[None, :], out=cand_f.reshape(k, n))
    np.multiply(weights[:, None], amps[None, :], out=cand_a.reshape(k, n))
    order = np.argsort(cand_f, kind="stable")
    # mode="clip" writes straight into `out`; "raise" would buffer a copy
    sorted_f = np.take(cand_f, order, out=buf.get("sorted_f", m), mode="clip")
    broken = math.isnan(sorted_f[-1])  # NaNs sort last
    if not broken:
        # cand_f is free once gathered: it holds the sorted amplitudes
        sorted_a = np.take(cand_a, order, out=cand_f, mode="clip")
        # one flag per sorted candidate: first an exact tie with the one
        # before it, then the start of a new line
        flags = buf.get("flags", m, np.bool_)
        tie = np.equal(sorted_f[1:], sorted_f[:-1], out=flags[1:])
        if tie.any():
            rows = np.remainder(order, n, out=order)
            falls = np.less_equal if descending else np.less
            bad = falls(rows[1:], rows[:-1], out=buf.get("bad", m - 1, np.bool_))
            broken = bool(np.logical_and(bad, tie, out=bad).any())
            if broken:  # the frequencies again, in place of the sorted amplitudes
                np.add((orders * nu)[:, None], freqs[None, :], out=cand_f.reshape(k, n))
    if broken:
        columns = slice(None, None, -1) if descending else slice(None)
        return _merge_signed(
            cand_f.reshape(k, n)[columns].T.ravel(), cand_a.reshape(k, n)[columns].T.ravel(), floor
        )
    # cand_a is free once gathered: it holds the gaps
    gaps = np.subtract(sorted_f[1:], sorted_f[:-1], out=cand_a[: m - 1])
    flags[0] = True
    np.greater(gaps, MERGE_FREQ_EPS, out=flags[1:])
    starts = np.flatnonzero(flags)
    merged = np.add.reduceat(sorted_a, starts)
    keep = np.abs(merged) >= floor
    return sorted_f[starts[keep]], merged[keep]


# an expansion past the double range turns into inf or NaN lines, which the
# check at the end rejects; numpy's warnings on the way would say nothing more
@np.errstate(over="ignore", invalid="ignore")
def predict_stack(params) -> LineSpectrum:
    """Truncated line spectrum of a modulation stack of any depth.

    `params` holds (index, freq_hz) pairs from the top of the stack down,
    the last being the carrier's (amplitude, freq_hz), as for `render_stack`.
    Each operator's output is a sum of signed sine components; phase
    modulation by that sum is the convolution of one Jacobi-Anger series per
    component (LeBrun 1977), and the lines it yields, scaled by the
    operator's index, are the components of the level below. Only the
    output is folded onto non-negative frequencies.

    Every series takes _sideband_count(|zeta|) sidebands. A level built from
    more than one component merges coincident lines and drops those below
    AMPLITUDE_FLOOR after each convolution; a level expanded from a single
    component is left whole, unless it is the output of a stack of three or
    more operators, whose lines below the floor are dropped. Past
    EXPANSION_BUDGET terms the expansion raises BudgetExceededError.

    Each merge sorts its candidates as presorted runs, one per order of the
    series, and gives the bits `_merge_signed` gives on the row-major
    candidates; it falls back to that where rounding breaks the tie order
    (see `_merge_convolution`). Its work arrays live for this call only.
    Non-finite indices, frequencies or carrier amplitude raise ValueError,
    and so does an output line whose frequency or amplitude overflows.
    """
    if not params:
        raise ValueError("a stack needs at least one operator")
    if not all(math.isfinite(v) for pair in params for v in pair):
        raise ValueError("indices, frequencies and the carrier amplitude must be finite")
    for z, f in params[:-1]:
        if f <= 0:
            raise ValueError("modulation frequencies must be positive")
        if z < 0:
            raise ValueError("modulation indices must be >= 0")
    freqs, amps = np.array([params[0][1]], dtype=np.float64), np.array([1.0])
    terms = 0
    buf = _Buffers()
    for depth, ((z, _), (_, carrier)) in enumerate(zip(params, params[1:]), 2):
        single = len(freqs) == 1
        floor = 0.0 if single and (depth < len(params) or len(params) == 2) else AMPLITUDE_FLOOR
        components = zip(freqs, z * amps)
        freqs, amps = np.array([carrier], dtype=np.float64), np.array([1.0])
        for nu, zeta in components:
            n_max = _sideband_count(zeta)
            terms += len(freqs) * (2 * n_max + 1)
            if terms > EXPANSION_BUDGET:
                raise BudgetExceededError(
                    f"expansion grew past {EXPANSION_BUDGET} terms; use smaller indices or fewer operators"
                )
            weights = _component_weights(zeta, n_max)
            nonzero = np.flatnonzero(weights)
            if single:
                cand_f = (freqs[:, None] + (nonzero - n_max)[None, :] * nu).ravel()
                cand_a = (amps[:, None] * weights[nonzero][None, :]).ravel()
                keep = np.abs(cand_a) >= floor
                freqs, amps = cand_f[keep], cand_a[keep]
            else:
                freqs, amps = _merge_convolution(
                    freqs, amps, nonzero - n_max, weights[nonzero], nu, floor, buf
                )
    spectrum = merge_and_fold(np.column_stack((freqs, amps)))
    spectrum.amps *= params[-1][0]  # the carrier's amplitude
    if not (np.isfinite(spectrum.freqs).all() and np.isfinite(spectrum.amps).all()):
        raise ValueError("predicted line frequencies or amplitudes overflow the double range")
    return spectrum
