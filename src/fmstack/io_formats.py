"""WAV (RIFF PCM / IEEE float) and spectrum CSV writers.

Mono only; output bytes are a pure function of the input so renders are
reproducible file-for-file.
"""

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .analysis import MeasuredSpectrum
from .operators import DEFAULT_BLOCK_SIZE
from .spectrum import LineSpectrum

log = logging.getLogger(__name__)


@dataclass
class WavSpec:
    sample_rate: int
    bit_depth: int = 32  # 16 = integer PCM, 32 = IEEE float

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.bit_depth not in (16, 32):
            raise ValueError("bit depth must be 16 or 32")
        if self.sample_rate * (self.bit_depth // 8) > 0xFFFFFFFF:
            raise ValueError(
                f"sample rate {self.sample_rate} Hz at {self.bit_depth} bits overflows "
                "the 32-bit byte rate field of a WAV header"
            )


def write_wav(path, samples, spec: WavSpec) -> None:
    """Write samples (nominal [-1, 1]) as a RIFF/WAVE file.

    Values outside [-1, 1] are clipped (count goes to the log); NaN or
    infinite samples raise ValueError before the file is opened. The 16-bit
    path rounds to nearest with +1.0 stored as 32767; the float path is
    lossless. Samples are encoded a block at a time into the file's data
    buffer; the caller's array is left unchanged.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if 36 + len(samples) * (spec.bit_depth // 8) > 0xFFFFFFFF:
        raise ValueError(f"{len(samples)} samples overflow the 4 GiB size field of a RIFF file")
    data = np.empty(len(samples), dtype="<i2" if spec.bit_depth == 16 else "<f4")
    bad = clipped = 0
    for start in range(0, len(samples), DEFAULT_BLOCK_SIZE):
        block = samples[start : start + DEFAULT_BLOCK_SIZE]
        # min and max are NaN if any sample is, so one check covers the
        # common in-range block; only a block that fails it is scanned again
        if not (-1.0 <= block.min() and block.max() <= 1.0):
            bad += int(np.count_nonzero(~np.isfinite(block)))
            clipped += int(np.count_nonzero((block < -1.0) | (block > 1.0)))
            block = np.clip(block, -1.0, 1.0)
        if bad:  # the write fails; the rest is only counted
            continue
        if spec.bit_depth == 16:
            block = block * 32767.0
            np.rint(block, out=block)
        data[start : start + len(block)] = block
    if bad:
        raise ValueError(f"write_wav: {bad} of {len(samples)} samples are NaN or infinite")
    if clipped:
        log.warning("write_wav: clipped %d of %d samples to [-1, 1]", clipped, len(samples))
    fmt_tag = 1 if spec.bit_depth == 16 else 3
    bytes_per_sample = spec.bit_depth // 8
    byte_rate = spec.sample_rate * bytes_per_sample
    header = b"RIFF" + struct.pack("<I", 36 + data.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        fmt_tag,
        1,  # channels
        spec.sample_rate,
        byte_rate,
        bytes_per_sample,  # block align
        spec.bit_depth,
    )
    header += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(data))


_CSV_VECTOR_MIN_ROWS = 128  # measured break-even: shorter spectra format faster with one %


def write_spectrum_csv(path, spec: LineSpectrum | MeasuredSpectrum) -> None:
    """Write `freq_hz,amplitude` rows with 9 significant digits (`%.9g`).

    LineSpectrum rows carry signed amplitudes, MeasuredSpectrum rows carry
    magnitudes. Output bytes are deterministic for identical inputs and
    equal those of one `%.9g` per value. Spectra of at least
    _CSV_VECTOR_MIN_ROWS rows, all finite, are formatted by numpy (see
    `csv_format.format_cells`); shorter spectra and any spectrum with a NaN
    or infinity take one Python `%` over all cells.
    """
    if isinstance(spec, LineSpectrum):
        values = spec.amps
    elif isinstance(spec, MeasuredSpectrum):
        values = spec.mags
    else:
        raise TypeError(f"cannot export {type(spec).__name__} as a spectrum CSV")
    cells = np.column_stack((spec.freqs, values)).ravel()
    if len(values) >= _CSV_VECTOR_MIN_ROWS and np.isfinite(cells).all():
        from . import csv_format  # imported on first use: its tables cost set-up time

        body = csv_format.format_cells(cells)
    else:
        # Python floats format exactly like the numpy scalars they come from
        body = (("%.9g,%.9g\n" * len(values)) % tuple(cells.tolist())).encode()
    with open(path, "wb") as fh:
        fh.write(b"freq_hz,amplitude\n")
        fh.write(body)
