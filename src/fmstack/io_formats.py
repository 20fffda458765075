"""WAV (RIFF PCM / IEEE float) and spectrum CSV writers.

Mono only; output bytes are a pure function of the input so renders are
reproducible file-for-file.
"""

import contextlib
import itertools
import logging
import os
import stat
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


def _create_beside(path) -> tuple[str, int]:
    """Create a new, empty file in the directory of path; returns its name and
    a descriptor open for writing. Its mode is 0o666 less the umask, as for
    open(path, "wb")."""
    head = os.path.dirname(os.fspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for n in itertools.count():
        tmp = os.path.join(head, f".fmstack-{os.getpid()}-{n}.tmp")
        try:
            return tmp, os.open(tmp, flags, 0o666)
        except FileExistsError:  # left by a run that was killed
            continue


@contextlib.contextmanager
def _replacing(path):
    """Yield a binary file on a temporary file beside path, which replaces
    path if the context ends without an exception and is removed otherwise;
    a symlink is followed, so it is its target that is replaced. A path that
    exists and is not a regular file, such as a FIFO or a device, is written
    straight into: replacing it would put a file in its place."""
    try:
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        with open(os.open(path, os.O_WRONLY | getattr(os, "O_BINARY", 0)), "wb") as fh:
            yield fh
        return
    if os.path.islink(path):  # realpath costs an lstat per path component
        path = os.path.realpath(path)
    tmp, fd = _create_beside(path)
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def wav_sink(path, n_samples: int, spec: WavSpec):
    """Write a RIFF/WAVE file of n_samples samples handed over a block at a time.

    The context yields a sink: call it with each block of samples (nominal
    [-1, 1], at most DEFAULT_BLOCK_SIZE of them), in order, n_samples in all.
    Values outside [-1, 1] are clipped (count goes to the log); NaN or
    infinite samples are counted over all blocks and raise ValueError when
    the context ends. The 16-bit path rounds to nearest with +1.0 stored as
    32767; the float path is lossless. A block is read only during the call.

    The header and each encoded block are written through _replacing, so
    they replace path only when the context ends without an exception, after
    n_samples finite samples; on any other outcome path is left as it was.
    """
    bytes_per_sample = spec.bit_depth // 8
    if 36 + n_samples * bytes_per_sample > 0xFFFFFFFF:
        raise ValueError(f"{n_samples} samples overflow the 4 GiB size field of a RIFF file")
    size = min(n_samples, DEFAULT_BLOCK_SIZE)
    data = np.empty(size, dtype="<i2" if spec.bit_depth == 16 else "<f4")
    scaled = np.empty(size)  # the clipped or 16-bit scaled block
    seen = bad = clipped = 0

    def encode(block):
        nonlocal seen, bad, clipped
        n = len(block)
        seen += n
        # min and max are NaN if any sample is, so one check covers the
        # common in-range block; only a block that fails it is scanned again
        if not (-1.0 <= block.min() and block.max() <= 1.0):
            bad += int(np.count_nonzero(~np.isfinite(block)))
            clipped += int(np.count_nonzero((block < -1.0) | (block > 1.0)))
            block = np.clip(block, -1.0, 1.0, out=scaled[:n])
        if bad:  # the write fails; the rest is only counted
            return
        if spec.bit_depth == 16:
            block = np.multiply(block, 32767.0, out=scaled[:n])
            np.rint(block, out=block)
        data[:n] = block
        fh.write(memoryview(data[:n]))

    data_bytes = n_samples * bytes_per_sample
    header = b"RIFF" + struct.pack("<I", 36 + data_bytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,
        1 if spec.bit_depth == 16 else 3,  # integer PCM or IEEE float
        1,  # channels
        spec.sample_rate,
        spec.sample_rate * bytes_per_sample,  # byte rate
        bytes_per_sample,  # block align
        spec.bit_depth,
    )
    header += b"data" + struct.pack("<I", data_bytes)
    with _replacing(path) as fh:
        fh.write(header)
        yield encode
        if bad:
            raise ValueError(f"write_wav: {bad} of {seen} samples are NaN or infinite")
        if seen != n_samples:
            raise ValueError(f"write_wav: got {seen} samples for a header of {n_samples}")
    if clipped:
        log.warning("write_wav: clipped %d of %d samples to [-1, 1]", clipped, seen)


def write_wav(path, samples, spec: WavSpec) -> None:
    """Write samples (nominal [-1, 1]) as a RIFF/WAVE file through wav_sink,
    a block at a time; the caller's array is left unchanged. NaN or infinite
    samples raise ValueError and leave path as it was."""
    samples = np.asarray(samples, dtype=np.float64)
    with wav_sink(path, len(samples), spec) as sink:
        for start in range(0, len(samples), DEFAULT_BLOCK_SIZE):
            sink(samples[start : start + DEFAULT_BLOCK_SIZE])


_CSV_VECTOR_MIN_ROWS = 128  # measured break-even: shorter spectra format faster with one %


def write_spectrum_csv(path, spec: LineSpectrum | MeasuredSpectrum) -> None:
    """Write `freq_hz,amplitude` rows with 9 significant digits (`%.9g`).

    LineSpectrum rows carry signed amplitudes, MeasuredSpectrum rows carry
    magnitudes. Output bytes are deterministic for identical inputs and
    equal those of one `%.9g` per value. Spectra of at least
    _CSV_VECTOR_MIN_ROWS rows, all finite, are formatted by numpy (see
    `csv_format.format_cells`); shorter spectra and any spectrum with a NaN
    or infinity take one Python `%` over all cells. The file is written
    through _replacing, so a failing write leaves path as it was.
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
    with _replacing(path) as fh:
        fh.write(b"freq_hz,amplitude\n")
        fh.write(body)
