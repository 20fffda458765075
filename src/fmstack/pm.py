"""Closed-form phase-modulation renderers.

These evaluate the phase expression directly per sample (time as n/fs in
double precision, no accumulated state), so they serve as ground truth when
checking the table-based FM engine.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

# samples per vectorized carrier-phase chunk in render_feedback_pm
_FEEDBACK_CHUNK = 8192


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


def render_pm_chain(params: PMParams, n_samples: int, phase_offset: float = 0.0) -> np.ndarray:
    """PM stack of any depth: cos(2*pi*fc*t + m + phase_offset), where each
    modulator, top first, makes m = z*sin(2*pi*f*t + m) from m = 0.

    phase_offset models a constant added to the carrier phase (e.g. a DC
    component of the modulation signal).
    """
    t = np.arange(n_samples) / params.sample_rate
    mod = None
    for f, z in zip(params.fm, params.z):  # each level in place
        x = (2.0 * np.pi * f) * t
        if mod is not None:
            x += mod
        mod = np.sin(x, out=x)
        mod *= z
    t *= 2.0 * np.pi * params.fc
    if mod is not None:
        t += mod
    t += phase_offset
    return np.cos(t, out=t)


def render_pm1(params: PMParams, n_samples: int, phase_offset: float = 0.0) -> np.ndarray:
    """First-order PM: cos(2*pi*fc*t + z*sin(2*pi*fm*t) + phase_offset)."""
    if len(params.fm) != 1:
        raise ValueError("render_pm1 needs exactly one modulation order")
    return render_pm_chain(params, n_samples, phase_offset)


def render_pm2(params: PMParams, n_samples: int) -> np.ndarray:
    """Second-order PM: cos(2*pi*fc*t + z1*sin(2*pi*fm1*t + z0*sin(2*pi*fm0*t)))."""
    if len(params.fm) != 2:
        raise ValueError("render_pm2 needs exactly two modulation orders")
    return render_pm_chain(params, n_samples)


def render_feedback_pm(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
) -> np.ndarray:
    """Feedback PM with a one-sample delay: out[n] = amp*cos(w*n/fs + g*out[n-1]).

    Non-finite arguments and a non-positive sample rate raise ValueError.
    """
    if not all(math.isfinite(v) for v in (amp, freq_hz, feedback_gain, sample_rate)):
        raise ValueError("amp, frequency, feedback gain and sample rate must be finite")
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    if n_samples < 0:
        raise ValueError("sample count must be >= 0")
    w = 2.0 * math.pi * freq_hz
    cos = math.cos
    out = array("d")
    append = out.append
    prev = 0.0
    # the carrier phase w*(n/fs) is vectorized a chunk at a time; the
    # recurrence through prev stays a scalar loop over Python floats
    for start in range(0, n_samples, _FEEDBACK_CHUNK):
        n = np.arange(start, min(start + _FEEDBACK_CHUNK, n_samples))
        for wt in (w * (n / sample_rate)).tolist():
            prev = amp * cos(wt + feedback_gain * prev)
            append(prev)
    return np.frombuffer(out)
