"""Measurement side of verification: bin-centered spectra, peak drift, DC, slopes.

Frames hold an integer number of fundamental periods so every harmonic of
the grid falls exactly on a DFT bin; a rectangular window is then leakage
free and magnitude tolerances can be tight. The Hann window is kept for
signals whose partials are off the grid (the naive-FM drift pathology).
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import LineSpectrum

MIN_PERIODS = 16
_PEAK_SELECT_DB = -40.0  # peaks above this, relative to the strongest bin
_LOG_GUARD = 1e-150


def samples_per_period(sample_rate: float, grid_hz: float) -> int:
    """Whole samples in one period of `grid_hz`, or 0 when the grid is not
    positive or does not divide the sample rate (to 1e-6 of a period)."""
    spp = sample_rate / grid_hz if grid_hz > 0 else 0.0
    if math.isfinite(spp) and spp > 0 and abs(spp - round(spp)) <= 1e-6 * spp:
        return round(spp)
    return 0


@dataclass
class AnalysisFrame:
    """A signal slice whose length is an integer number of grid periods."""

    samples: np.ndarray
    sample_rate: float
    fundamental_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        spp = samples_per_period(self.sample_rate, self.fundamental_hz)
        if not spp:
            raise ValueError(f"fundamental {self.fundamental_hz} must divide the sample rate {self.sample_rate}")
        if len(self.samples) % spp != 0:
            raise ValueError("frame length is not an integer number of periods")
        if len(self.samples) // spp < MIN_PERIODS:
            raise ValueError(f"frame must hold at least {MIN_PERIODS} periods")


def measure_spectrum(frame: AnalysisFrame, window: str = "rectangular") -> LineSpectrum:
    """One-sided magnitude spectrum of a frame: one line per DFT bin, whose
    amplitude is the bin's magnitude; a full-scale bin-centered cosine reads 1.0.

    The rectangular window is exact for bin-centered partials; 'hann'
    (periodic form) trades exactness for leakage control on off-grid peaks.
    """
    x = frame.samples
    n = len(x)
    if window == "rectangular":
        w = None
        gain = 1.0
    elif window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        gain = float(w.mean())
    else:
        raise ValueError(f"unknown window {window!r}")
    spectrum = np.fft.rfft(x if w is None else x * w)
    mags = np.abs(spectrum) / (n * gain)
    mags[1:] *= 2.0
    if n % 2 == 0:
        mags[-1] *= 0.5  # Nyquist bin is not doubled
    freqs = np.arange(len(spectrum)) * (frame.sample_rate / n)
    return LineSpectrum(freqs, mags)


def detect_carrier_drift(
    spec: LineSpectrum, grid_hz: float, tolerance_hz: float
) -> tuple[float, list[tuple[float, float]]]:
    """Distance of spectral peaks from the nearest harmonic-grid multiple.

    Peaks above -40 dB of the strongest bin are located by parabolic
    interpolation of log magnitude across three bins. The scan starts two
    bins above DC: anything closer is indistinguishable from the DC
    component's own window mainlobe. Returns the maximum offset and the
    (frequency, offset) pairs exceeding tolerance_hz.
    """
    if not 0 < grid_hz < math.inf:
        raise ValueError(f"grid must be positive and finite, got {grid_hz}")
    mags = spec.amps
    if len(mags) < 3 or mags.max() <= 0.0:
        return 0.0, []
    bin_hz = spec.freqs[1] - spec.freqs[0]
    threshold = mags.max() * 10.0 ** (_PEAK_SELECT_DB / 20.0)
    mid = mags[2:-1]
    i = np.flatnonzero((mid >= threshold) & (mid > mags[1:-2]) & (mid > mags[3:])) + 2
    # log magnitude of the three bins around each peak only
    left, center, right = (20.0 * np.log10(np.maximum(mags[j], _LOG_GUARD)) for j in (i - 1, i, i + 1))
    denom = left - 2.0 * center + right
    delta = np.divide(0.5 * (left - right), denom, out=np.zeros(len(i)), where=denom != 0.0)
    freq = (i + delta) * bin_hz
    offset = np.abs(freq - grid_hz * np.round(freq / grid_hz))  # half to even, as round()
    over = offset > tolerance_hz
    offenders = list(zip(freq[over].tolist(), offset[over].tolist()))
    return float(offset.max(initial=0.0)), offenders


def measure_dc(frame: AnalysisFrame) -> float:
    """Mean of the frame (an integer number of periods by construction)."""
    return float(np.mean(frame.samples))


def fit_spectral_slope(spec: LineSpectrum, fundamental_hz: float, harmonics) -> float:
    """Least-squares slope in dB/octave of harmonic magnitudes vs log frequency.

    A 1/f envelope fits -6.02 dB/octave. Needs at least four harmonics with
    magnitude above 1e-9.
    """
    bin_hz = spec.freqs[1] - spec.freqs[0]
    freqs, amps = [], []
    for k in harmonics:
        if k < 1:
            raise ValueError("harmonics are counted from 1")
        idx = round(k * fundamental_hz / bin_hz)
        if idx < len(spec.amps) and spec.amps[idx] > 1e-9:
            freqs.append(k * fundamental_hz)
            amps.append(spec.amps[idx])
    if len(freqs) < 4:
        raise ValueError("need at least four harmonics with measurable magnitude")
    slope, _ = np.polyfit(np.log2(freqs), 20.0 * np.log10(amps), 1)
    return float(slope)
