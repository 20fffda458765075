"""FM operators: modulatable oscillators with paired audio and modulation outputs.

An operator takes a scalar amplitude (or modulation index), a scalar
frequency and a modulation input signal. Its audio output is the
interpolated oscillator sample; its modulation output is that sample times
the instantaneous frequency, which is what makes operators freely stackable
without the carrier drift of the naive formulation.
"""

import math
from collections.abc import Callable

import numpy as np

from .wavetable import COSINE_TABLE, DIFF_TABLE, FRAC_SCALE, PHASE_MODULUS, PhaseAccumulator, check_render_args

# Block length of every render and of the WAV encoder: each works a block
# at a time, so its temporaries are a few blocks long at any duration.
# Output is bit-identical at any size; 8192 was the fastest stack block size
# measured (64 to whole-buffer).
DEFAULT_BLOCK_SIZE = 8192

Sink = Callable[[np.ndarray], object]


def output_blocks(n_samples: int, sink: Sink | None = None):
    """The output of a render of n_samples samples, as (result, blocks).

    blocks yields (start, block) pairs, block being the float64 buffer the
    render fills with samples start to start + len(block), at most
    DEFAULT_BLOCK_SIZE of them. Without a sink, result is a new array of all
    the samples and each block a view of it. With one, result is None, every
    block is one reused buffer, and sink(block) is called once the render has
    filled it, when it asks for the next block; the buffer is valid only
    during that call.
    """
    size = DEFAULT_BLOCK_SIZE
    if sink is None:
        out = np.empty(n_samples)
        return out, ((start, out[start : start + size]) for start in range(0, n_samples, size))
    buf = np.empty(min(n_samples, size))

    def blocks():
        for start in range(0, n_samples, size):
            block = buf[: min(size, n_samples - start)]
            yield start, block
            sink(block)

    return None, blocks()


class InstabilityError(RuntimeError):
    """A feedback loop diverged."""


class Operator:
    """One oscillator of a modulation stack.

    `naive` switches the modulation output from audio * instantaneous
    frequency to audio * static frequency, reproducing the incorrect
    deviation rule for demonstration purposes; the audio path is identical.
    """

    def __init__(self, sample_rate: float):
        self.acc = PhaseAccumulator(sample_rate)
        self.sample_rate = float(sample_rate)

    def tick(self, amp: float, freq_hz: float, mod_in: float = 0.0, naive: bool = False) -> tuple[float, float]:
        """Single-sample form: returns (audio, modulation_out)."""
        f = freq_hz + mod_in
        if not abs(f) < self.sample_rate:
            raise ValueError(f"instantaneous frequency {f} Hz aliases at fs={self.sample_rate}")
        s = self.acc.tick(amp, int(f * self.acc.freq_scale))
        return s, s * (freq_hz if naive else f)

    def process(
        self, amp: float, freq_hz: float, fm: np.ndarray, naive: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block form: fm is the modulation input, one value per sample.

        A top-of-stack operator takes fm = -0.0 at every sample: freq_hz +
        -0.0 has the bits of freq_hz, where +0.0 would turn -0.0 into +0.0.
        """
        sr = self.sample_rate
        f = freq_hz + np.asarray(fm, dtype=np.float64)
        # min and max are NaN if any sample is
        if len(f) and not (-sr < f.min() and f.max() < sr):
            raise ValueError(f"instantaneous frequency aliases at fs={sr}")
        # the product truncates toward zero as it is cast into the int64 output
        increments = np.empty(len(f), dtype=np.int64)
        np.multiply(f, self.acc.freq_scale, out=increments, casting="unsafe")
        audio = self.acc.run(amp, increments)
        # the modulation output takes over the buffer of f
        modulation = np.multiply(audio, freq_hz if naive else f, out=f)
        return audio, modulation


def _render(params, n_samples, sample_rate, naive, sink) -> np.ndarray | None:
    check_render_args([v for op in params for v in op], n_samples, sample_rate)
    ops = [Operator(sample_rate) for _ in params]
    out, blocks = output_blocks(n_samples, sink)
    # the top operator's input, made once: np.broadcast_to costs a block's addition
    unmodulated = np.broadcast_to(-0.0, DEFAULT_BLOCK_SIZE)
    # the bottom operator's modulation output feeds nothing and is dropped
    for _, block in blocks:
        mod = unmodulated[: len(block)]
        for (amp, freq_hz), op in zip(params, ops):
            audio, mod = op.process(amp, freq_hz, mod, naive)
        block[:] = audio
    return out


def render_stack(
    params: list[tuple[float, float]], n_samples: int, sample_rate: float, sink: Sink | None = None
) -> np.ndarray | None:
    """Render a modulation stack, top operator first, and return its audio.

    params lists (amp_or_index, freq_hz) pairs top to bottom: every entry but
    the last acts as a modulation index, the last is the output amplitude.
    Given a sink, the audio goes to it a block at a time instead and None is
    returned (see output_blocks). Non-finite values, a non-positive sample
    rate and a negative sample count raise ValueError.
    """
    return _render(params, n_samples, sample_rate, False, sink)


def render_naive_stack(
    params: list[tuple[float, float]], n_samples: int, sample_rate: float, sink: Sink | None = None
) -> np.ndarray | None:
    """Same wiring as render_stack but with the incorrect static-frequency
    modulation outputs, kept as the carrier-drift demonstration; returns the
    audio, or None with a sink."""
    return _render(params, n_samples, sample_rate, True, sink)


def render_feedback_fm(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
    sink: Sink | None = None,
) -> np.ndarray | None:
    """One operator modulated by its own unit-delayed modulation output;
    returns its audio, or hands it to a sink a block at a time and returns
    None (see output_blocks).

    feedback_gain scales the fed-back signal independently of the output
    level. Raises InstabilityError when the loop diverges (|modulation| past
    10x the sample rate, or the instantaneous frequency aliasing).
    Non-finite arguments, a non-positive sample rate and a negative sample
    count raise ValueError.
    """
    check_render_args((amp, freq_hz, feedback_gain), n_samples, sample_rate)
    # Operator.tick inlined: the loop is serial, so per-sample call and numpy
    # scalar overhead is the whole cost. Same arithmetic, same guards. The
    # phase register is a float holding an integer in [0, 2**32): every sum
    # stays below 2**53, so it is exact, and float arithmetic is faster than
    # Python's two-digit ints for phases past 2**30.
    tab = COSINE_TABLE.tolist()
    dtab = DIFF_TABLE.tolist()
    frac_scale, freq_scale = FRAC_SCALE, PHASE_MODULUS / sample_rate
    modulus = float(PHASE_MODULUS)
    sr = float(sample_rate)
    limit = 10.0 * sample_rate
    neg_sr, neg_limit = -sr, -limit
    trunc = math.trunc  # int() of a float costs about four times as much
    phase = 0.0
    prev = 0.0
    audio, blocks = output_blocks(n_samples, sink)
    for start, block in blocks:
        buf = memoryview(block)
        for n in range(len(block)):
            f = freq_hz + feedback_gain * prev
            if not neg_sr < f < sr:
                raise InstabilityError(
                    f"feedback FM diverged at sample {start + n}: "
                    f"instantaneous frequency {f} Hz aliases at fs={sr}"
                )
            x = phase * frac_scale
            i = trunc(x)
            s = amp * (tab[i] + (x - i) * dtab[i])
            phase = (phase + trunc(f * freq_scale)) % modulus
            m = s * f
            if m > limit or m < neg_limit:
                raise InstabilityError(
                    f"feedback FM diverged at sample {start + n}: |modulation| {abs(m):.3g} > {limit:.3g}"
                )
            buf[n] = s
            prev = m
    return audio
