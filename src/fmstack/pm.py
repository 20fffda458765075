"""Closed-form phase-modulation renderers.

These evaluate the phase expression directly per sample (time as n/fs in
double precision, no accumulated state), so they serve as ground truth when
checking the table-based FM engine.
"""

import math
from array import array

import numpy as np

# samples per vectorized carrier-phase chunk in render_feedback_pm
_FEEDBACK_CHUNK = 8192


def render_pm_chain(params: list[tuple[float, float]], n_samples: int, sample_rate: float) -> np.ndarray:
    """PM stack of any depth: amp*cos(2*pi*fc*t + m), where each modulator,
    top first, makes m = z*sin(2*pi*f*t + m) from m = 0.

    params lists (index, freq_hz) pairs top to bottom, the carrier's
    (amp, freq_hz) last, as for render_stack. Non-finite values, a negative
    modulation index, a non-positive sample rate, an empty stack and a
    negative sample count raise ValueError.
    """
    if not params:
        raise ValueError("stack needs at least one operator")
    if not all(math.isfinite(v) for v in (*(v for op in params for v in op), sample_rate)):
        raise ValueError("operator values and sample rate must be finite")
    *mods, (amp, fc) = params
    if any(z < 0 for z, _ in mods):
        raise ValueError("modulation indices must be >= 0")
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    if n_samples < 0:
        raise ValueError("sample count must be >= 0")
    t = np.arange(n_samples) / sample_rate
    mod = None
    for z, f in mods:  # each level in place
        x = (2.0 * np.pi * f) * t
        if mod is not None:
            x += mod
        mod = np.sin(x, out=x)
        mod *= z
    t *= 2.0 * np.pi * fc
    if mod is not None:
        t += mod
    out = np.cos(t, out=t)
    out *= amp
    return out


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
