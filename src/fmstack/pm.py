"""Closed-form phase-modulation renderers.

These evaluate the phase expression directly per sample (time as n/fs in
double precision, no accumulated state), so they serve as ground truth when
checking the table-based FM engine.
"""

import math

import numpy as np

from .operators import DEFAULT_BLOCK_SIZE
from .wavetable import check_render_args


def _sample_times(out: np.ndarray, sample_rate: float):
    """Yield (start, block) over out a block at a time, each block filled
    with the sample times n/fs of its samples.

    arange(start, stop) holds the same integers as a slice of
    arange(len(out)), so every time has the bits of the whole-buffer form.
    """
    for start in range(0, len(out), DEFAULT_BLOCK_SIZE):
        t = out[start : start + DEFAULT_BLOCK_SIZE]
        t[:] = np.arange(start, start + len(t))
        t /= sample_rate
        yield start, t


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
    check_render_args([v for op in params for v in op], n_samples, sample_rate)
    *mods, (amp, fc) = params
    if any(z < 0 for z, _ in mods):
        raise ValueError("modulation indices must be >= 0")
    out = np.empty(n_samples)
    for _, t in _sample_times(out, sample_rate):
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
        np.cos(t, out=t)
        t *= amp
    return out


def render_feedback_pm(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
) -> np.ndarray:
    """Feedback PM with a one-sample delay: out[n] = amp*cos(w*n/fs + g*out[n-1]).

    Non-finite arguments, a non-positive sample rate and a negative sample
    count raise ValueError.
    """
    check_render_args((amp, freq_hz, feedback_gain), n_samples, sample_rate)
    w = 2.0 * math.pi * freq_hz
    cos = math.cos
    out = np.empty(n_samples)
    buf = memoryview(out)
    prev = 0.0
    # the carrier phase w*(n/fs) is vectorized into the output a block at a
    # time; the recurrence through prev then overwrites it sample by sample,
    # a scalar loop over Python floats
    for start, wt in _sample_times(out, sample_rate):
        wt *= w
        for i in range(start, start + len(wt)):
            prev = amp * cos(buf[i] + feedback_gain * prev)
            buf[i] = prev
    return out
