import logging
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fmstack.analysis import AnalysisFrame, measure_spectrum
from fmstack import csv_format
from fmstack.csv_format import CHUNK
from fmstack.io_formats import _CSV_VECTOR_MIN_ROWS, WavSpec, write_spectrum_csv, write_wav
from fmstack.operators import DEFAULT_BLOCK_SIZE as BLOCK
from fmstack.spectrum import LineSpectrum, predict_stack
from oracles import write_spectrum_csv_rows, write_wav_clip_copy


def _read_wav(path):
    """Minimal independent RIFF reader for round-trip checks."""
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt "
    fmt_tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", raw[20:36])
    assert raw[36:40] == b"data"
    (size,) = struct.unpack("<I", raw[40:44])
    data = raw[44 : 44 + size]
    if fmt_tag == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2")
    elif fmt_tag == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4")
    else:
        raise AssertionError(f"unexpected format {fmt_tag}/{bits}")
    return rate, channels, samples


def test_pcm16_file_size(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(path, np.zeros(48000), WavSpec(48000, 16))
    assert path.stat().st_size == 44 + 96000


def test_pcm16_full_scale_value(tmp_path):
    path = tmp_path / "fs.wav"
    write_wav(path, np.array([1.0, -1.0, 0.0]), WavSpec(48000, 16))
    _, _, samples = _read_wav(path)
    assert samples[0] == 32767
    assert samples[1] == -32767
    assert samples[2] == 0


def test_float_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.0, 4096)
    path = tmp_path / "f.wav"
    write_wav(path, x, WavSpec(44100, 32))
    rate, channels, samples = _read_wav(path)
    assert rate == 44100 and channels == 1
    assert np.array_equal(samples, x.astype(np.float32))


def test_clipping_logged(tmp_path, caplog):
    path = tmp_path / "c.wav"
    with caplog.at_level(logging.WARNING):
        write_wav(path, np.array([0.5, 1.5, -2.0]), WavSpec(48000, 16))
    assert "clipped 2 of 3" in caplog.text
    _, _, samples = _read_wav(path)
    assert samples[1] == 32767 and samples[2] == -32767


def test_wav_spec_validation():
    with pytest.raises(ValueError):
        WavSpec(0, 16)
    with pytest.raises(ValueError):
        WavSpec(48000, 24)
    # the byte rate must fit the header's 32-bit field: 2**32 - 2 does, 2**32 does not
    assert WavSpec(2**31 - 1, 16).sample_rate == 2**31 - 1
    with pytest.raises(ValueError, match="byte rate"):
        WavSpec(2**31, 16)
    with pytest.raises(ValueError, match="byte rate"):
        WavSpec(2**30, 32)


def test_csv_single_line_bytes(tmp_path):
    path = tmp_path / "one.csv"
    write_spectrum_csv(path, LineSpectrum(np.array([500.0]), np.array([1.0])))
    assert path.read_bytes() == b"freq_hz,amplitude\n500,1\n"


def test_csv_empty_spectrum(tmp_path):
    path = tmp_path / "empty.csv"
    write_spectrum_csv(path, LineSpectrum(np.empty(0), np.empty(0)))
    assert path.read_bytes() == b"freq_hz,amplitude\n"


def test_csv_row_count_matches_prediction(tmp_path):
    pred = predict_stack([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)])
    path = tmp_path / "fig3.csv"
    write_spectrum_csv(path, pred)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 1 + len(pred.freqs)


def test_csv_measured_spectrum_and_determinism(tmp_path):
    x = np.cos(2.0 * np.pi * 500.0 * np.arange(96 * 16) / 48000.0)
    spec = measure_spectrum(AnalysisFrame(x, 48000.0, 500.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum_csv(a, spec)
    write_spectrum_csv(b, spec)
    assert a.read_bytes() == b.read_bytes()
    first = a.read_text().split("\n")[1]
    assert first.startswith("0,")


def test_wav_rejects_more_samples_than_riff_holds(tmp_path):
    path = tmp_path / "long.wav"
    # a zero-stride view: 2**30 samples without allocating them
    samples = np.broadcast_to(np.float64(0.0), (2**30,))
    with pytest.raises(ValueError, match="RIFF"):
        write_wav(path, samples, WavSpec(48000, 32))
    assert not path.exists()


# any float, nan and infinities included, plus signed zeros, subnormals and extremes
_values = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300, 123456789.5]))


@st.composite
def _line_spectra(draw):
    freqs = draw(st.lists(st.floats(0.0, 1e12), max_size=40, unique=True))
    amps = draw(st.lists(_values, min_size=len(freqs), max_size=len(freqs)))
    return LineSpectrum(np.sort(np.array(freqs)), np.array(amps))


@dataclass
class _Columns:
    """A spectrum's two columns unchecked: unsorted, negative or non-finite
    frequencies, which a LineSpectrum would reject, reach the writer too."""

    freqs: np.ndarray
    amps: np.ndarray


@st.composite
def _unchecked_spectra(draw):
    n = draw(st.integers(0, 40))
    freqs = draw(st.lists(_values, min_size=n, max_size=n))
    amps = draw(st.lists(_values, min_size=n, max_size=n))
    return _Columns(np.array(freqs), np.array(amps))


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=st.one_of(_line_spectra(), _unchecked_spectra()))
def test_csv_matches_row_writer_oracle(spec, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_spectrum_csv(new, spec)
    write_spectrum_csv_rows(old, spec)
    assert new.read_bytes() == old.read_bytes()


# values where a numpy %.9g can go wrong: decimal ties at the 10th digit
# (exact, and the doubles nearest to them), neighbours of the limits of fixed
# notation and of rounding up past 1e9, signed zeros, subnormals, extremes
_NEIGHBOURED = np.array([1e-5, 1e-4, 1e8, 1e9, 999999999.5])
_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 9.99e-291, 1e-290,
                      1.7976931348623157e308, -1.7976931348623157e308, 1e23, 1234567885.0])


def _hard_values(rng, n):
    """n finite doubles, each drawn from one of the formatter's hard cases."""
    mantissa = rng.integers(10**8, 10**9, n)
    exponent = rng.integers(-300, 290, n)
    near_ties = np.char.add(np.char.add(mantissa.astype(str), "5e"), exponent.astype(str)).astype(np.float64)
    steps = _NEIGHBOURED[rng.integers(0, len(_NEIGHBOURED), n)].view(np.int64) + rng.integers(-20, 21, n)
    bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64)
    cases = [
        np.where(np.isfinite(bits), bits, 1.0),  # random bit patterns
        (10 * mantissa + 5) * 10.0 ** rng.integers(0, 6, n),  # exact ties: 1234567885.0
        mantissa + 0.5,  # exact ties below 1e9
        near_ties,
        steps.view(np.float64),
        _SPECIALS[rng.integers(0, len(_SPECIALS), n)],
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 12, n),
    ]
    values = np.choose(rng.integers(0, len(cases), n), cases)
    return np.where(rng.random(n) < 0.5, -values, values)


@st.composite
def _long_spectra(draw):
    rows = draw(st.integers(_CSV_VECTOR_MIN_ROWS - 2, 4 * CHUNK // 2 + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # a measured grid: bin k of an n-point DFT at fs
        fs, n = draw(st.sampled_from([44100.0, 48000.0, 96000.0])), draw(st.integers(rows, 4 * rows))
        freqs = np.sort(rng.choice(n, rows, replace=False)) * fs / n
        spec = LineSpectrum(freqs, _hard_values(rng, rows))
    else:
        spec = _Columns(_hard_values(rng, rows), np.abs(_hard_values(rng, rows)))
    non_finite = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if non_finite is not None:
        column = spec.freqs if draw(st.booleans()) else spec.amps
        column[rng.integers(rows)] = non_finite
    return spec


# ties just below a power of ten, whose scaled mantissa first rounds up to 1e9
_DECADE_TIES = [0.9999999995, 9.999999995, 999.9999995, 99999.99995, 9.999999995e-287]


def _with_values(values, rows=200):
    amps = np.ones(rows)
    amps[: len(values)] = values
    return LineSpectrum(np.arange(rows, dtype=np.float64), amps)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_long_spectra())
@example(spec=_with_values(_DECADE_TIES + [-v for v in _DECADE_TIES]))
@example(spec=_Columns(np.array(_DECADE_TIES * 40), np.array(_DECADE_TIES[::-1] * 40)))
def test_long_csv_matches_row_writer_oracle(spec, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_spectrum_csv(new, spec)
    write_spectrum_csv_rows(old, spec)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("value", _DECADE_TIES)
def test_decade_boundary_ties_keep_nine_digits(value, tmp_path):
    write_spectrum_csv(tmp_path / "a.csv", _with_values([value]))
    assert (tmp_path / "a.csv").read_bytes().splitlines()[1] == b"0,%.9g" % value


def test_long_finite_spectra_take_the_numpy_formatter(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(csv_format, "_format_chunk", lambda cells: calls.append(len(cells)) or b"")
    freqs = np.arange(_CSV_VECTOR_MIN_ROWS, dtype=np.float64)
    write_spectrum_csv(tmp_path / "short.csv", LineSpectrum(freqs[:-1], freqs[:-1]))
    write_spectrum_csv(tmp_path / "nan.csv", LineSpectrum(freqs, np.where(freqs == 5.0, np.nan, freqs)))
    assert calls == []
    rows = CHUNK + 1
    write_spectrum_csv(tmp_path / "long.csv", LineSpectrum(np.arange(rows, dtype=np.float64), np.ones(rows)))
    assert calls == [CHUNK, CHUNK, 2]


# finite samples in and out of range, with the 16-bit rounding ties, full
# scale, signed zeros and subnormals
_samples = st.lists(st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),
    st.integers(-32767, 32767).map(lambda k: (k + 0.5) / 32767.0),
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]),
), max_size=300)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=_samples, bits=st.sampled_from([16, 32]))
@example(samples=[], bits=16)
@example(samples=[0.5, 1.5, -2.0, 1.0, -1.0], bits=16)
def test_wav_bytes_match_clip_copy_oracle(samples, bits, tmp_path):
    new, old = tmp_path / "new.wav", tmp_path / "old.wav"
    write_wav(new, np.array(samples, dtype=np.float64), WavSpec(48000, bits))
    write_wav_clip_copy(old, np.array(samples, dtype=np.float64), WavSpec(48000, bits))
    assert new.read_bytes() == old.read_bytes()


@st.composite
def _multi_block_samples(draw):
    """Lengths on and across the encoder's block boundaries, with rounding
    ties and out-of-range samples in the first block, the last block and
    anywhere between."""
    n = draw(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 20000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, n)
    ties = rng.random(n) < 0.1
    x[ties] = (rng.integers(-32767, 32767, np.count_nonzero(ties)) + 0.5) / 32767.0
    at = [draw(st.integers(0, BLOCK - 2)), draw(st.integers((n - 1) // BLOCK * BLOCK, n - 1)),
          *rng.integers(0, n, draw(st.integers(0, 20)))]
    x[at] = rng.choice([1.5, -2.0, 1e300, -1e300, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)], len(at))
    return x


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=_multi_block_samples(), bits=st.sampled_from([16, 32]))
def test_multi_block_wav_bytes_match_clip_copy_oracle(samples, bits, tmp_path):
    new, old = tmp_path / "new.wav", tmp_path / "old.wav"
    write_wav(new, samples, WavSpec(48000, bits))
    write_wav_clip_copy(old, samples, WavSpec(48000, bits))
    assert new.read_bytes() == old.read_bytes()


def test_clipping_logged_once_with_the_count_of_all_blocks(tmp_path, caplog):
    samples = np.zeros(2 * BLOCK + 5)
    samples[[1, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 4]] = [1.5, -3.0, 1e300, 2.0]
    with caplog.at_level(logging.WARNING, logger="fmstack.io_formats"):
        write_wav(tmp_path / "c.wav", samples, WavSpec(48000, 16))
    assert [r.getMessage() for r in caplog.records if r.name == "fmstack.io_formats"] == [
        f"{tmp_path / 'c.wav'}: clipped 4 of {2 * BLOCK + 5} samples to [-1, 1]"]


def test_wav_leaves_caller_samples_unchanged(tmp_path):
    samples = np.array([0.25, 1.5, -2.0])
    write_wav(tmp_path / "a.wav", samples, WavSpec(48000, 16))
    assert samples.tolist() == [0.25, 1.5, -2.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bits", [16, 32])
def test_wav_rejects_non_finite_samples_without_file(bad, bits, tmp_path):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="1 of 4 samples are NaN or infinite"):
        write_wav(path, np.array([0.0, 0.5, bad, 2.0]), WavSpec(48000, bits))
    assert not path.exists()


@pytest.mark.parametrize("bits", [16, 32])
def test_wav_counts_non_finite_samples_of_all_blocks(bits, tmp_path, caplog):
    path = tmp_path / "bad.wav"
    samples = np.zeros(2 * BLOCK + 5)
    # a clipped sample before the first bad one, and bad samples in two blocks
    samples[[2, BLOCK + 3, 2 * BLOCK + 1, 2 * BLOCK + 2]] = [2.0, np.nan, -np.inf, 1.5]
    with caplog.at_level(logging.WARNING), pytest.raises(
            ValueError, match=f"2 of {2 * BLOCK + 5} samples are NaN or infinite"):
        write_wav(path, samples, WavSpec(48000, bits))
    assert not path.exists()
    assert "clipped" not in caplog.text
