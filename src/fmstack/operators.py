"""FM operators: modulatable oscillators with paired audio and modulation outputs.

An operator takes a scalar amplitude (or modulation index), a scalar
frequency and a modulation input signal. Its audio output is the
interpolated oscillator sample; its modulation output is that sample times
the instantaneous frequency, which is what makes operators freely stackable
without the carrier drift of the naive formulation.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .wavetable import PHASE_MODULUS, PhaseAccumulator, make_cosine_table

# Chunk length of stack renders. Output is bit-identical at any size; 8192
# was the fastest size measured (64 to whole-buffer), and chunking bounds the
# temporaries of long renders.
DEFAULT_BLOCK_SIZE = 8192

_shared_table = None


def default_cosine_table() -> np.ndarray:
    """Shared read-only 1025-point cosine table."""
    global _shared_table
    if _shared_table is None:
        _shared_table = make_cosine_table()
    return _shared_table


class InstabilityError(RuntimeError):
    """A feedback loop diverged."""


@dataclass
class Block:
    """Paired audio/modulation sample buffers at one sample rate."""

    audio: np.ndarray
    modulation: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if len(self.audio) != len(self.modulation):
            raise ValueError("audio and modulation buffers must have equal length")


class Operator:
    """One oscillator of a modulation stack.

    `naive` switches the modulation output from audio * instantaneous
    frequency to audio * static frequency, reproducing the incorrect
    deviation rule for demonstration purposes; the audio path is identical.
    """

    def __init__(self, sample_rate: float, table: np.ndarray | None = None):
        self.table = default_cosine_table() if table is None else np.asarray(table, dtype=np.float64)
        self.acc = PhaseAccumulator(len(self.table), sample_rate)
        self.sample_rate = float(sample_rate)

    def tick(self, amp: float, freq_hz: float, mod_in: float = 0.0, naive: bool = False) -> tuple[float, float]:
        """Single-sample form: returns (audio, modulation_out)."""
        f = freq_hz + mod_in
        if not abs(f) < self.sample_rate:
            raise ValueError(f"instantaneous frequency {f} Hz aliases at fs={self.sample_rate}")
        s = self.acc.tick(self.table, amp, int(f * self.acc.freq_scale))
        return s, s * (freq_hz if naive else f)

    def process(
        self,
        amp: float,
        freq_hz: float,
        fm: np.ndarray | None = None,
        n_samples: int | None = None,
        naive: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block form: fm is the modulation input (None for a top-of-stack operator)."""
        if fm is None:
            if n_samples is None:
                raise ValueError("need n_samples when no modulation input is given")
            f = np.full(n_samples, float(freq_hz))
        else:
            f = freq_hz + np.asarray(fm, dtype=np.float64)
        if not np.all(np.abs(f) < self.sample_rate):
            raise ValueError(f"instantaneous frequency aliases at fs={self.sample_rate}")
        increments = (f * self.acc.freq_scale).astype(np.int64)
        audio = self.acc.run(self.table, amp, increments)
        modulation = audio * (freq_hz if naive else f)
        return audio, modulation


def _render(params, n_samples, sample_rate, table, block_size, naive) -> Block:
    if not params:
        raise ValueError("stack needs at least one operator")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    tab = default_cosine_table() if table is None else table
    ops = [Operator(sample_rate, tab) for _ in params]
    audio_out = np.empty(n_samples)
    mod_out = np.empty(n_samples)
    pos = 0
    while pos < n_samples:
        blk = min(block_size, n_samples - pos)
        mod = None
        for (amp, freq_hz), op in zip(params, ops):
            audio, mod = op.process(amp, freq_hz, fm=mod, n_samples=blk, naive=naive)
        audio_out[pos : pos + blk] = audio
        mod_out[pos : pos + blk] = mod
        pos += blk
    return Block(audio_out, mod_out, float(sample_rate))


def render_stack(
    params: list[tuple[float, float]],
    n_samples: int,
    sample_rate: float,
    table: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Block:
    """Render a modulation stack, top operator first.

    params lists (amp_or_index, freq_hz) pairs top to bottom: every entry but
    the last acts as a modulation index, the last is the output amplitude.
    """
    return _render(params, n_samples, sample_rate, table, block_size, naive=False)


def render_naive_stack(
    params: list[tuple[float, float]],
    n_samples: int,
    sample_rate: float,
    table: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Block:
    """Same wiring as render_stack but with the incorrect static-frequency
    modulation outputs, kept as the carrier-drift demonstration."""
    return _render(params, n_samples, sample_rate, table, block_size, naive=True)


def render_feedback_fm(
    amp: float,
    freq_hz: float,
    feedback_gain: float,
    n_samples: int,
    sample_rate: float,
    table: np.ndarray | None = None,
) -> Block:
    """One operator modulated by its own unit-delayed modulation output.

    feedback_gain scales the fed-back signal independently of the output
    level. Raises InstabilityError when the loop diverges (|modulation| past
    10x the sample rate, or the instantaneous frequency aliasing).
    """
    op = Operator(sample_rate, table)
    # Operator.tick inlined: the loop is serial, so per-sample call and numpy
    # scalar overhead is the whole cost. Same arithmetic, same guards.
    tab = op.table.tolist()
    frac_bits, frac_mask = op.acc.frac_bits, op.acc.frac_mask
    frac_scale, freq_scale = op.acc.frac_scale, op.acc.freq_scale
    phase_mask = PHASE_MODULUS - 1
    sr = op.sample_rate
    audio = array("d", bytes(8 * n_samples))
    modulation = array("d", bytes(8 * n_samples))
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
        modulation[n] = m
        prev = m
    return Block(np.frombuffer(audio), np.frombuffer(modulation), float(sample_rate))
