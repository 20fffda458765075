"""Table-lookup oscillator core: 32-bit fixed-point phase with linear interpolation."""

import numpy as np

PHASE_BITS = 32
PHASE_MODULUS = 1 << PHASE_BITS
_PHASE_MASK = PHASE_MODULUS - 1

DEFAULT_TABLE_SIZE = 1025


def make_cosine_table(size: int = DEFAULT_TABLE_SIZE) -> np.ndarray:
    """Build one cosine period plus a guard point.

    size must be 2**k + 1 with k >= 4; the last sample duplicates the first
    so lookups may read table[idx + 1] without wrapping.
    """
    n = size - 1
    if size < 17 or (n & (n - 1)) != 0:
        raise ValueError(f"table size must be 2**k + 1 with k >= 4, got {size}")
    table = np.cos(2.0 * np.pi * np.arange(size, dtype=np.float64) / n)
    table[n] = table[0]
    return table


def freq_to_increment(freq_hz: float, sample_rate: float) -> int:
    """Per-sample phase increment, truncated toward zero like a C integer cast.

    Negative frequencies give negative increments (phase runs backward);
    wrapping modulo 2**32 is the caller's concern.
    """
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    if abs(freq_hz) >= sample_rate:
        raise ValueError(
            f"|{freq_hz} Hz| >= sample rate {sample_rate}: "
            "more than a full cycle per sample"
        )
    return int(freq_hz * (PHASE_MODULUS / sample_rate))


class PhaseAccumulator:
    """Wrapping 32-bit phase register split into table index and interpolation fraction.

    The top bits index the table, the low frac_bits form the linear-interp
    fraction. Overflow is the wrap; there is no saturation.
    """

    def __init__(self, table_size: int, sample_rate: float):
        n = table_size - 1
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError("table size must be a power of two plus a guard point")
        k = n.bit_length() - 1
        self.frac_bits = PHASE_BITS - k
        self.frac_mask = (1 << self.frac_bits) - 1
        self.frac_scale = 1.0 / (1 << self.frac_bits)
        self.freq_scale = PHASE_MODULUS / sample_rate
        self.sample_rate = float(sample_rate)
        self.phase = 0

    def tick(self, table: np.ndarray, amp: float, increment: int) -> float:
        """One interpolated lookup at the current phase, then advance by increment."""
        phase = self.phase
        frac = (phase & self.frac_mask) * self.frac_scale
        idx = phase >> self.frac_bits
        sample = amp * (table[idx] + frac * (table[idx + 1] - table[idx]))
        self.phase = (phase + increment) & _PHASE_MASK
        return float(sample)

    def run(self, table: np.ndarray, amp: float, increments: np.ndarray) -> np.ndarray:
        """Render one sample per increment; bit-identical to repeated tick().

        The phases are a uint32 running sum seeded with the current phase, so
        the 2**32 wrap is the integer arithmetic itself, at any run length.
        Interpolation reads a difference table: dtab[idx] is exactly the
        table[idx + 1] - table[idx] that tick() computes.
        """
        inc = np.asarray(increments, dtype=np.int64)
        if len(inc) == 0:
            return np.empty(0, dtype=np.float64)
        phases = np.empty(len(inc), dtype=np.uint32)
        phases[0] = self.phase
        phases[1:] = inc[:-1]  # the uint32 cast wraps negative increments
        np.add.accumulate(phases, dtype=np.uint32, out=phases)
        # phase / 2**frac_bits is exact in float64: its integer part is the
        # table index, the rest the fraction (phase & frac_mask) * frac_scale
        x = phases * self.frac_scale
        whole = np.floor(x)
        idx = whole.astype(np.intp)
        x -= whole
        out = np.subtract(table[1:], table[:-1])[idx]
        out *= x
        out += table[idx]
        out *= amp
        # Python ints: numpy uint32 scalar addition warns on overflow
        self.phase = (int(phases[-1]) + int(inc[-1])) & _PHASE_MASK
        return out
