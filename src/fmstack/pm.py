"""Closed-form phase-modulation renderers.

These evaluate the phase expression directly per sample (time as n/fs in
double precision, no accumulated state), so they serve as ground truth when
checking the table-based FM engine.
"""

import math

import numpy as np

from .operators import Sink, output_blocks
from .wavetable import check_render_args


def _sample_times(blocks, sample_rate: float):
    """Yield the (start, block) pairs of output_blocks, each block filled
    with the sample times n/fs of its samples.

    arange(start, stop) holds the same integers as a slice of
    arange(n_samples), so every time has the bits of the whole-buffer form.
    """
    for start, t in blocks:
        t[:] = np.arange(start, start + len(t))
        t /= sample_rate
        yield start, t


def render_pm_chain(
    params: list[tuple[float, float]], n_samples: int, sample_rate: float, sink: Sink | None = None
) -> np.ndarray | None:
    """PM stack of any depth: amp*cos(2*pi*fc*t + m), where each modulator,
    top first, makes m = z*sin(2*pi*f*t + m) from m = 0.

    params lists (index, freq_hz) pairs top to bottom, the carrier's
    (amp, freq_hz) last, as for render_stack. Returns the samples, or hands
    them to a sink a block at a time and returns None (see
    operators.output_blocks). Non-finite values, a negative modulation index,
    a non-positive sample rate, an empty stack and a negative sample count
    raise ValueError.
    """
    check_render_args([v for op in params for v in op], n_samples, sample_rate)
    *mods, (amp, fc) = params
    if any(z < 0 for z, _ in mods):
        raise ValueError("modulation indices must be >= 0")
    out, blocks = output_blocks(n_samples, sink)
    for _, t in _sample_times(blocks, sample_rate):
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
    sink: Sink | None = None,
) -> np.ndarray | None:
    """Feedback PM with a one-sample delay: out[n] = amp*cos(w*n/fs + g*out[n-1]).

    Returns the samples, or hands them to a sink a block at a time and
    returns None (see operators.output_blocks). Non-finite arguments, a
    non-positive sample rate and a negative sample count raise ValueError.
    """
    check_render_args((amp, freq_hz, feedback_gain), n_samples, sample_rate)
    w = 2.0 * math.pi * freq_hz
    cos = math.cos
    prev = 0.0
    # the carrier phase w*(n/fs) is vectorized into the block; the recurrence
    # through prev then overwrites it sample by sample, a scalar loop over
    # Python floats
    out, blocks = output_blocks(n_samples, sink)
    for _, wt in _sample_times(blocks, sample_rate):
        wt *= w
        buf = memoryview(wt)
        for i in range(len(wt)):
            prev = amp * cos(buf[i] + feedback_gain * prev)
            buf[i] = prev
    return out
