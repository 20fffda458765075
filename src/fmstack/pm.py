"""Closed-form phase-modulation renderers.

These evaluate the phase expression directly per sample (time as n/fs in
double precision, no accumulated state), so they serve as ground truth when
checking the table-based FM engine.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PMParams:
    """Carrier frequency plus one modulation (frequency, index) pair per order."""

    fc: float
    fm: list[float] = field(default_factory=list)
    z: list[float] = field(default_factory=list)
    sample_rate: float = 48000.0

    def __post_init__(self):
        if len(self.fm) != len(self.z):
            raise ValueError("fm and z must have one entry per modulation order")
        if not all(math.isfinite(v) for v in (self.fc, *self.fm, *self.z, self.sample_rate)):
            raise ValueError("fc, fm, z and sample rate must be finite")
        if any(zi < 0 for zi in self.z):
            raise ValueError("modulation indices must be >= 0")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")


def render_pm1(params: PMParams, n_samples: int, phase_offset: float = 0.0) -> np.ndarray:
    """First-order PM: cos(2*pi*fc*t + z*sin(2*pi*fm*t) + phase_offset).

    phase_offset models a constant added to the carrier phase (e.g. a DC
    component of the modulation signal).
    """
    if len(params.fm) != 1:
        raise ValueError("render_pm1 needs exactly one modulation order")
    t = np.arange(n_samples) / params.sample_rate
    wc = 2.0 * np.pi * params.fc
    wm = 2.0 * np.pi * params.fm[0]
    return np.cos(wc * t + params.z[0] * np.sin(wm * t) + phase_offset)


def render_pm2(params: PMParams, n_samples: int) -> np.ndarray:
    """Second-order PM: cos(2*pi*fc*t + z1*sin(2*pi*fm1*t + z0*sin(2*pi*fm0*t)))."""
    if len(params.fm) != 2:
        raise ValueError("render_pm2 needs exactly two modulation orders")
    t = np.arange(n_samples) / params.sample_rate
    wc = 2.0 * np.pi * params.fc
    wm0 = 2.0 * np.pi * params.fm[0]
    wm1 = 2.0 * np.pi * params.fm[1]
    z0, z1 = params.z
    return np.cos(wc * t + z1 * np.sin(wm1 * t + z0 * np.sin(wm0 * t)))


def render_feedback_pm(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
) -> np.ndarray:
    """Feedback PM with a one-sample delay: out[n] = amp*cos(w*n/fs + g*out[n-1])."""
    out = np.empty(n_samples)
    w = 2.0 * math.pi * freq_hz
    prev = 0.0
    for n in range(n_samples):
        prev = amp * math.cos(w * (n / sample_rate) + feedback_gain * prev)
        out[n] = prev
    return out
