"""Table-lookup oscillator core: 32-bit fixed-point phase with linear interpolation.

Every oscillator reads one read-only table, built once at import: a
1024-point cosine period plus a guard point equal to the first sample, so
that interpolation between points i and i + 1 never wraps. The top 10 phase
bits index it, the low FRAC_BITS form the interpolation fraction.
"""

import math

import numpy as np

PHASE_BITS = 32
PHASE_MODULUS = 1 << PHASE_BITS
_PHASE_MASK = PHASE_MODULUS - 1

COSINE_TABLE = np.cos(2.0 * np.pi * np.arange(1025, dtype=np.float64) / 1024)
COSINE_TABLE[1024] = COSINE_TABLE[0]
# interpolation reads DIFF_TABLE[i] = COSINE_TABLE[i + 1] - COSINE_TABLE[i]
DIFF_TABLE = COSINE_TABLE[1:] - COSINE_TABLE[:-1]
COSINE_TABLE.flags.writeable = DIFF_TABLE.flags.writeable = False

FRAC_BITS = PHASE_BITS - 10
FRAC_MASK = (1 << FRAC_BITS) - 1
FRAC_SCALE = 1.0 / (1 << FRAC_BITS)


def _check_sample_rate(sample_rate: float) -> None:
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise ValueError(f"sample rate must be finite and positive, not {sample_rate}")


def check_render_args(values, n_samples: int, sample_rate: float) -> None:
    """The argument checks every renderer shares: `values` (the operator
    values, and a feedback gain) not empty and each finite, the sample rate
    finite and positive, the sample count >= 0. Raises ValueError otherwise."""
    if not values:
        raise ValueError("stack needs at least one operator")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("render parameters must be finite")
    _check_sample_rate(sample_rate)
    if n_samples < 0:
        raise ValueError("sample count must be >= 0")


class PhaseAccumulator:
    """Wrapping 32-bit phase register split into table index and interpolation fraction.

    Overflow is the wrap; there is no saturation. A non-finite or
    non-positive sample rate raises ValueError.
    """

    def __init__(self, sample_rate: float):
        _check_sample_rate(sample_rate)
        self.freq_scale = PHASE_MODULUS / sample_rate
        self.phase = 0

    def tick(self, amp: float, increment: int) -> float:
        """One interpolated lookup at the current phase, then advance by increment."""
        phase = self.phase
        frac = (phase & FRAC_MASK) * FRAC_SCALE
        idx = phase >> FRAC_BITS
        sample = amp * (COSINE_TABLE[idx] + frac * DIFF_TABLE[idx])
        self.phase = (phase + increment) & _PHASE_MASK
        return float(sample)

    def run(self, amp: float, increments: np.ndarray) -> np.ndarray:
        """Render one sample per increment; bit-identical to repeated tick().

        The phases are a uint32 running sum seeded with the current phase, so
        the 2**32 wrap is the integer arithmetic itself, at any run length.
        """
        inc = np.asarray(increments, dtype=np.int64)
        if len(inc) == 0:
            return np.empty(0, dtype=np.float64)
        phases = np.empty(len(inc), dtype=np.uint32)
        phases[0] = self.phase
        phases[1:] = inc[:-1]  # the uint32 cast wraps negative increments
        np.add.accumulate(phases, dtype=np.uint32, out=phases)
        # phase / 2**FRAC_BITS is exact in float64: its integer part is the
        # table index, the rest the fraction (phase & FRAC_MASK) * FRAC_SCALE
        x = phases * FRAC_SCALE
        whole = np.floor(x)
        idx = whole.astype(np.intp)
        x -= whole
        out = DIFF_TABLE[idx]
        out *= x
        out += COSINE_TABLE[idx]
        out *= amp
        # Python ints: numpy uint32 scalar addition warns on overflow
        self.phase = (int(phases[-1]) + int(inc[-1])) & _PHASE_MASK
        return out
