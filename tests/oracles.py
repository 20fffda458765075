"""Independent brute-force oracles for the test suite; never used by the package."""

import logging
import math
import struct
from array import array
from math import factorial

import numpy as np

from fmstack import spectrum
from fmstack.analysis import _LOG_GUARD, _PEAK_SELECT_DB, MeasuredSpectrum
from fmstack.operators import InstabilityError, Operator
from fmstack.bessel import bessel_row
from fmstack.spectrum import (
    AMPLITUDE_FLOOR,
    EXPANSION_BUDGET,
    MERGE_AMP_EPS,
    MERGE_FREQ_EPS,
    BudgetExceededError,
    LineSpectrum,
    _sideband_count,
)
from fmstack.wavetable import _PHASE_MASK, COSINE_TABLE, FRAC_BITS, FRAC_MASK, FRAC_SCALE, PHASE_MODULUS


def bessel_series(n: int, z: float, terms: int = 100) -> float:
    """J_n(z) by the alternating power series in exact rational arithmetic.

    sum_k (-1)^k (z/2)^(n+2k) / (k! (n+k)!), summed over `terms` terms
    exactly, so there is no cancellation error; the truncation tail is far
    below 1e-20 for z <= 32 with the default term count.

    With z = p/q exactly (`float.as_integer_ratio`) and K = terms, the sum
    is p^n * T / ((2q)^n (4q^2)^(K-1) (K-1)! (n+K-1)!), where the integer
    T = sum_k (-1)^k p^(2k) (4q^2)^(K-1-k) (K-1)!/k! (n+K-1)!/(n+k)! obeys
    T_m = T_(m-1) * 4q^2 * m * (n+m) + (-p^2)^m. Integer division rounds
    correctly, so the result is the exact sum rounded once.
    """
    order = abs(n)
    sign = -1 if (n < 0 and order % 2) else 1
    if z < 0:
        if order % 2:
            sign = -sign
        z = -z
    p, q = z.as_integer_ratio()
    c = 4 * q * q
    num, power = 1, 1
    for m in range(1, terms):
        power *= -p * p
        num = num * c * m * (order + m) + power
    den = (2 * q) ** order * c ** (terms - 1) * factorial(terms - 1) * factorial(order + terms - 1)
    return sign * (p**order * num / den)


def line_amplitude(spec: LineSpectrum, freq_hz: float, tol_hz: float = 1e-6) -> float:
    """Signed amplitude of the first line of spec within tol_hz of freq_hz, or 0.0."""
    for f, a in zip(spec.freqs.tolist(), spec.amps.tolist()):
        if abs(f - freq_hz) <= tol_hz:
            return a
    return 0.0


def line_power(spec: LineSpectrum) -> float:
    """Mean-square power of a line spectrum: a^2/2 per line, a^2 for a DC line."""
    return math.fsum(a * a if f == 0.0 else 0.5 * a * a for f, a in zip(spec.freqs.tolist(), spec.amps.tolist()))


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


def feedback_fm_ticks(amp, freq_hz, feedback_gain, n_samples, sample_rate):
    """render_feedback_fm as one Operator.tick call per sample."""
    op = Operator(sample_rate)
    audio = np.empty(n_samples)
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
        prev = m
    return audio


def write_spectrum_csv_rows(path, spec):
    """write_spectrum_csv as one formatted write per row from numpy scalars."""
    if isinstance(spec, LineSpectrum):
        rows = zip(spec.freqs, spec.amps)
    elif isinstance(spec, MeasuredSpectrum):
        rows = zip(spec.freqs, spec.mags)
    else:
        raise TypeError(f"cannot export {type(spec).__name__} as a spectrum CSV")
    with open(path, "w", newline="\n") as fh:
        fh.write("freq_hz,amplitude\n")
        for f, a in rows:
            fh.write(f"{f:.9g},{a:.9g}\n")


def carrier_drift_loop(spec, grid_hz, tolerance_hz):
    """detect_carrier_drift as a Python loop over every bin."""
    if grid_hz <= 0:
        raise ValueError("grid must be positive")
    mags = spec.mags
    if len(mags) < 3 or mags.max() <= 0.0:
        return 0.0, []
    bin_hz = spec.freqs[1] - spec.freqs[0]
    threshold = mags.max() * 10.0 ** (_PEAK_SELECT_DB / 20.0)
    logm = 20.0 * np.log10(np.maximum(mags, _LOG_GUARD))
    max_offset = 0.0
    offenders: list[tuple[float, float]] = []
    for i in range(2, len(mags) - 1):
        if mags[i] < threshold or mags[i] <= mags[i - 1] or mags[i] <= mags[i + 1]:
            continue
        left, center, right = logm[i - 1], logm[i], logm[i + 1]
        denom = left - 2.0 * center + right
        delta = 0.5 * (left - right) / denom if denom != 0.0 else 0.0
        freq = (i + delta) * bin_hz
        offset = abs(freq - grid_hz * round(freq / grid_hz))
        max_offset = max(max_offset, offset)
        if offset > tolerance_hz:
            offenders.append((freq, offset))
    return max_offset, offenders


# --- the first- and second-order predictors as written before `predict_stack`
# replaced them, with the merge helpers they used. `predict_stack` must
# reproduce their output bit for bit.


def _merge_signed(freqs: np.ndarray, amps: np.ndarray, floor: float):
    """Sum amplitudes of coincident signed frequencies; drop lines below floor."""
    if len(freqs) == 0:
        return np.asarray(freqs, dtype=np.float64), np.asarray(amps, dtype=np.float64)
    order = np.argsort(freqs, kind="stable")
    freqs = freqs[order]
    amps = amps[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(freqs) > MERGE_FREQ_EPS)))
    merged = np.add.reduceat(amps, starts)
    keep = (np.abs(merged) >= floor) & (np.abs(merged) >= MERGE_AMP_EPS)
    return freqs[starts[keep]], merged[keep]


def merge_and_fold(raw_lines) -> LineSpectrum:
    """Fold negative-frequency cosine lines onto positive frequencies and merge.

    Cosine symmetry keeps the signed amplitude unchanged under folding;
    frequencies equal within 1e-9 Hz are summed, exact cancellations pruned.
    """
    lines = list(raw_lines)
    if not lines:
        return LineSpectrum(np.empty(0), np.empty(0))
    freqs = np.abs(np.array([f for f, _ in lines], dtype=np.float64))
    amps = np.array([a for _, a in lines], dtype=np.float64)
    f, a = _merge_signed(freqs, amps, 0.0)
    return LineSpectrum(f, a)


def predict_first_order(fc: float, fm: float, z: float) -> LineSpectrum:
    """Sideband lines of single-modulator FM/PM: J_n(z) at fc + n*fm, none dropped."""
    if fm <= 0:
        raise ValueError("modulation frequency must be positive")
    if z < 0:
        raise ValueError("modulation index must be >= 0")
    max_sideband = _sideband_count(z)
    row = bessel_row(max_sideband, z)
    lines = []
    for n in range(-max_sideband, max_sideband + 1):
        a = row[abs(n)]
        if n < 0 and (n & 1):
            a = -a
        lines.append((fc + n * fm, a))
    return merge_and_fold(lines)


def _component_weights(zeta: float, n_max: int) -> np.ndarray:
    """J_n(zeta) for n in [-n_max, n_max], parity handling signed zeta."""
    row = bessel_row(n_max, abs(zeta))
    n = np.arange(-n_max, n_max + 1)
    w = row[np.abs(n)].copy()
    odd = (np.abs(n) & 1) == 1
    if zeta >= 0:
        w[odd & (n < 0)] *= -1.0
    else:
        w[odd & (n > 0)] *= -1.0
    return w


def predict_second_order(
    fc: float,
    fm0: float,
    fm1: float,
    z0: float,
    z1: float,
) -> LineSpectrum:
    """Truncated line spectrum of a two-stage modulation stack.

    The modulated modulator contributes components at fm1 + k*fm0 with
    effective indices z1*J_k(z0); their Jacobi-Anger series are convolved,
    pruning amplitudes below AMPLITUDE_FLOOR as the expansion grows.
    """
    if fm0 <= 0 or fm1 <= 0:
        raise ValueError("modulation frequencies must be positive")
    if z0 < 0 or z1 < 0:
        raise ValueError("modulation indices must be >= 0")
    k_max = _sideband_count(z0)
    floor = AMPLITUDE_FLOOR

    inner = bessel_row(k_max, z0)
    freqs = np.array([fc])
    amps = np.array([1.0])
    expanded_terms = 0
    for k in range(-k_max, k_max + 1):
        jk = inner[abs(k)]
        if k < 0 and (k & 1):
            jk = -jk
        zeta = z1 * jk
        nu = fm1 + k * fm0  # component frequency; may be negative
        n_max = _sideband_count(zeta)
        weights = _component_weights(zeta, n_max)
        n_values = np.arange(-n_max, n_max + 1)
        keep = weights != 0.0
        weights = weights[keep]
        n_values = n_values[keep]
        expanded_terms += len(freqs) * len(weights)
        if expanded_terms > EXPANSION_BUDGET:
            raise BudgetExceededError(f"expansion grew past {EXPANSION_BUDGET} terms")
        cand_f = (freqs[:, None] + n_values[None, :] * nu).ravel()
        cand_a = (amps[:, None] * weights[None, :]).ravel()
        freqs, amps = _merge_signed(cand_f, cand_a, floor)
    f, a = _merge_signed(np.abs(freqs), amps, 0.0)
    return LineSpectrum(f, a)


# --- `predict_stack` as written before its merges sorted column runs: every
# multi-component convolution goes row-major through `_merge_signed`. The body
# is verbatim but for the `spectrum.` prefix on the package helpers it calls,
# which are unchanged, the name of its result, and its truncation: the top
# series' sideband count and the floor are two locals set by the default rule.
# `predict_stack` must reproduce its output bit for bit.


def predict_stack_row_major(params) -> LineSpectrum:
    """Truncated line spectrum of a modulation stack, one row-major merge per convolution."""
    if not params:
        raise ValueError("a stack needs at least one operator")
    for z, f in params[:-1]:
        if f <= 0:
            raise ValueError("modulation frequencies must be positive")
        if z < 0:
            raise ValueError("modulation indices must be >= 0")
    if len(params) > 1:
        sidebands = _sideband_count(params[0][0])
        amplitude_floor = 0.0 if len(params) == 2 else AMPLITUDE_FLOOR
    freqs, amps = np.array([params[0][1]], dtype=np.float64), np.array([1.0])
    terms = 0
    for depth, ((z, _), (_, carrier)) in enumerate(zip(params, params[1:]), 2):
        single = len(freqs) == 1
        floor = 0.0 if single and depth < len(params) else amplitude_floor
        components = zip(freqs, z * amps)
        freqs, amps = np.array([carrier], dtype=np.float64), np.array([1.0])
        for nu, zeta in components:
            n_max = sidebands if depth == 2 else _sideband_count(zeta)
            terms += len(freqs) * (2 * n_max + 1)
            if terms > EXPANSION_BUDGET:
                raise BudgetExceededError(f"expansion grew past {EXPANSION_BUDGET} terms")
            weights = spectrum._component_weights(zeta, n_max)
            nonzero = np.flatnonzero(weights)
            cand_f = (freqs[:, None] + (nonzero - n_max)[None, :] * nu).ravel()
            cand_a = (amps[:, None] * weights[nonzero][None, :]).ravel()
            if single:
                keep = np.abs(cand_a) >= floor
                freqs, amps = cand_f[keep], cand_a[keep]
            else:
                freqs, amps = spectrum._merge_signed(cand_f, cand_a, floor)
    result = spectrum.merge_and_fold(np.column_stack((freqs, amps)))
    result.amps *= params[-1][0]  # the carrier's amplitude
    return result


def pm_chain(params, n_samples, sample_rate):
    """Closed-form PM stack of any depth, top (index, freq_hz) pair first.

    amp*cos(2*pi*fc*t + m(t)), where the top operator gives
    m = z0*sin(2*pi*f0*t) and each operator below it
    m = z*sin(2*pi*f*t + m), evaluated per sample at t = n/fs.
    """
    t = np.arange(n_samples) / sample_rate
    *modulators, (amp, fc) = params
    phase = np.zeros(n_samples)
    for z, f in modulators:
        phase = z * np.sin(2.0 * np.pi * f * t + phase)
    return amp * np.cos(2.0 * np.pi * fc * t + phase)


# --- the render kernels as written before the difference-table oscillator,
# the float phase register of feedback FM, the chunked feedback PM, the
# in-place PM renders and the one-pass WAV range check. The package's
# kernels must reproduce their output bit for bit. The bodies are verbatim;
# the two methods take the accumulator or operator as `self`, and the
# process copy calls the run copy.

log = logging.getLogger("oracles")


def phase_accumulator_run(self, amp: float, increments: np.ndarray) -> np.ndarray:
    """PhaseAccumulator.run, called with the accumulator as `self`."""
    inc = np.asarray(increments, dtype=np.int64).astype(np.uint32)
    if len(inc) == 0:
        return np.empty(0, dtype=np.float64)
    phases = np.empty(len(inc), dtype=np.uint32)
    phases[0] = self.phase
    phases[1:] = inc[:-1]
    np.cumsum(phases, dtype=np.uint32, out=phases)
    idx = (phases >> FRAC_BITS).astype(np.intp)
    frac = (phases & FRAC_MASK) * FRAC_SCALE
    base = COSINE_TABLE[idx]
    out = amp * (base + frac * (COSINE_TABLE[idx + 1] - base))
    # Python ints: numpy uint32 scalar addition warns on overflow
    self.phase = (int(phases[-1]) + int(inc[-1])) & _PHASE_MASK
    return out


def operator_process(
    self,
    amp: float,
    freq_hz: float,
    fm: np.ndarray | None = None,
    n_samples: int | None = None,
    naive: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Operator.process, called with the operator as `self`."""
    if fm is None:
        if n_samples is None:
            raise ValueError("need n_samples when no modulation input is given")
        f = np.full(n_samples, float(freq_hz))
    else:
        f = freq_hz + np.asarray(fm, dtype=np.float64)
    if not np.all(np.abs(f) < self.sample_rate):
        raise ValueError(f"instantaneous frequency aliases at fs={self.sample_rate}")
    increments = (f * self.acc.freq_scale).astype(np.int64)
    audio = phase_accumulator_run(self.acc, amp, increments)
    modulation = audio * (freq_hz if naive else f)
    return audio, modulation


def feedback_fm_int_phase(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
) -> np.ndarray:
    """render_feedback_fm with its phase register as a Python int."""
    op = Operator(sample_rate)
    # Operator.tick inlined: the loop is serial, so per-sample call and numpy
    # scalar overhead is the whole cost. Same arithmetic, same guards.
    tab = COSINE_TABLE.tolist()
    frac_bits, frac_mask = FRAC_BITS, FRAC_MASK
    frac_scale, freq_scale = FRAC_SCALE, op.acc.freq_scale
    phase_mask = PHASE_MODULUS - 1
    sr = op.sample_rate
    audio = array("d", bytes(8 * n_samples))
    limit = 10.0 * sample_rate
    phase = 0
    prev = 0.0
    for n in range(n_samples):
        f = freq_hz + feedback_gain * prev
        if not abs(f) < sr:
            raise InstabilityError(
                f"feedback FM diverged at sample {n}: instantaneous frequency {f} Hz aliases at fs={sr}"
            )
        idx = phase >> frac_bits
        base = tab[idx]
        s = amp * (base + (phase & frac_mask) * frac_scale * (tab[idx + 1] - base))
        phase = (phase + int(f * freq_scale)) & phase_mask
        m = s * f
        if abs(m) > limit:
            raise InstabilityError(
                f"feedback FM diverged at sample {n}: |modulation| {abs(m):.3g} > {limit:.3g}"
            )
        audio[n] = s
        prev = m
    return np.frombuffer(audio)


def feedback_pm_loop(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
) -> np.ndarray:
    """render_feedback_pm as one scalar loop over the whole render."""
    out = np.empty(n_samples)
    w = 2.0 * math.pi * freq_hz
    prev = 0.0
    for n in range(n_samples):
        prev = amp * math.cos(w * (n / sample_rate) + feedback_gain * prev)
        out[n] = prev
    return out


def pm1_expression(params, n_samples: int, sample_rate: float, phase_offset: float = 0.0) -> np.ndarray:
    """First-order PM from [(z, fm), (amp, fc)] as one numpy expression."""
    (z, fm), (amp, fc) = params
    t = np.arange(n_samples) / sample_rate
    wc = 2.0 * np.pi * fc
    wm = 2.0 * np.pi * fm
    return amp * np.cos(wc * t + z * np.sin(wm * t) + phase_offset)


def pm2_expression(params, n_samples: int, sample_rate: float) -> np.ndarray:
    """Second-order PM from [(z0, fm0), (z1, fm1), (amp, fc)] as one numpy expression."""
    (z0, fm0), (z1, fm1), (amp, fc) = params
    t = np.arange(n_samples) / sample_rate
    wc = 2.0 * np.pi * fc
    wm0 = 2.0 * np.pi * fm0
    wm1 = 2.0 * np.pi * fm1
    return amp * np.cos(wc * t + z1 * np.sin(wm1 * t + z0 * np.sin(wm0 * t)))


def write_wav_clip_copy(path, samples, spec) -> None:
    """write_wav with an unconditional np.clip copy and .tobytes() buffers."""
    samples = np.asarray(samples, dtype=np.float64)
    if 36 + len(samples) * (spec.bit_depth // 8) > 0xFFFFFFFF:
        raise ValueError(f"{len(samples)} samples overflow the 4 GiB size field of a RIFF file")
    clipped = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    if clipped:
        log.warning("write_wav: clipped %d of %d samples to [-1, 1]", clipped, len(samples))
    samples = np.clip(samples, -1.0, 1.0)
    if spec.bit_depth == 16:
        fmt_tag = 1
        data = np.rint(samples * 32767.0).astype("<i2").tobytes()
    else:
        fmt_tag = 3
        data = samples.astype("<f4").tobytes()
    bytes_per_sample = spec.bit_depth // 8
    byte_rate = spec.sample_rate * bytes_per_sample
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        fmt_tag,
        1,
        spec.sample_rate,
        byte_rate,
        bytes_per_sample,
        spec.bit_depth,
    )
    header += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
