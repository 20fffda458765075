"""A numpy `%.9g` for spectrum CSV bodies, byte for byte.

`io_formats.write_spectrum_csv` imports this module on its first long
spectrum, so a process that writes none pays neither for compiling it nor
for building its tables.
"""

import numpy as np

CHUNK = 4096  # cells per formatting pass; even, so every pass holds whole rows
_EXP_OFFSET = 330  # the per-exponent tables cover decimal exponents -330..330
_EXPONENTS = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
# the ASCII digits of 0..9999, in counting order
_DIGITS4 = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
# 10**(8 - x), parsed from the text `1e±XXX` so each entry is correctly rounded
_SCALE_TEXT = np.empty((len(_EXPONENTS), 6), np.uint8)
_SCALE_TEXT[:, :2] = np.frombuffer(b"1e", np.uint8)
_SCALE_TEXT[:, 2] = np.where(_EXPONENTS > 8, ord("-"), ord("+"))
_SCALE_TEXT[:, 3:] = _DIGITS4[np.abs(8 - _EXPONENTS), 1:]
_SCALE = _SCALE_TEXT.view("S6").ravel().astype(np.float64)
# four digits in the even bytes of a little-endian uint64, 0xFF in the odd ones
_SPREAD4 = np.full((10000, 8), 0xFF, np.uint8)
_SPREAD4[:, 0::2] = _DIGITS4
_SPREAD4 = _SPREAD4.view("<u8").ravel()
_LEAD_DIGIT = (np.arange(10, dtype=np.uint64) + ord("0")) << 48
_ZERO = _DIGITS4 == ord("0")
_TRAILING_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0].astype(np.int32))))
# 4 * significant digits of N = a*10**8 + b*10**4 + c is the larger of
# _SIG4_LOW[c] (0 when c is 0) and _SIG4_HIGH[b] (at most 20 < _SIG4_LOW[c > 0])
_SIG4_LOW = np.where(_TRAILING_ZEROS == 4, 0, 4 * (9 - _TRAILING_ZEROS)).astype(np.uint8)
_SIG4_HIGH = np.where(_TRAILING_ZEROS == 4, 4, 4 * (5 - _TRAILING_ZEROS)).astype(np.uint8)
# notation of exponent x: fixed for -4 <= x <= 8 (kinds 0-12), else scientific
# with a negative/positive exponent of 2/3 digits (kinds 13-16)
_KIND = np.where((_EXPONENTS >= -4) & (_EXPONENTS <= 8), _EXPONENTS + 4,
                 13 + 2 * (_EXPONENTS > 0) + (np.abs(_EXPONENTS) >= 100))
# template row of kind k, s digits, sign bit and column: 36k + 4(s - 1) + 2 sign + column
_KIND_CODE = (36 * _KIND - 4).astype(np.int32)
_EXP_WORD = np.full((len(_EXPONENTS), 8), 0xFF, np.uint8)
_EXP_WORD[:, 2:5] = _DIGITS4[np.abs(_EXPONENTS), 1:]
_EXP_WORD = _EXP_WORD.view("<u8").ravel()


def _cell_templates() -> np.ndarray:
    """One 32-byte row per (kind, significant digits, sign, column) code.

    Bytes: 0 sign, 1-5 the `0.000` of fixed notation below 1, 6-23 the nine
    digits each followed by its point byte, 24-28 `e±XXX`, 29 the separator.
    A 0 byte is a pad that the writer deletes. Digit bytes to keep hold 0xFF
    (digit 0 holds 0: it is always kept and ORed in), and so do the exponent
    digits, so ANDing a row with its digits fills it in.
    """
    kind = np.arange(17)[:, None]
    sig = np.arange(1, 10)[None, :]
    x = kind - 4  # the exponent of a fixed-notation kind
    fixed = kind <= 12
    kept = np.where(fixed & (x >= 0), np.maximum(sig, x + 1), sig)
    point = np.where(fixed, np.where((x >= 0) & (sig > x + 1), x, -1), np.where(sig > 1, 0, -1))
    lead = np.where(fixed & (x < 0), 1 - x, 0)
    digit = np.arange(9)
    rows = np.zeros((17, 9, 2, 2, 32), np.uint8)
    rows[..., 6:24:2] = np.where(digit < kept[..., None], 0xFF, 0)[:, :, None, None]
    rows[..., 6] = 0
    rows[..., 7:24:2] = np.where(digit == point[..., None], ord("."), 0)[:, :, None, None]
    rows[..., 1:6] = np.where(np.arange(5) < lead[..., None], np.frombuffer(b"0.000", np.uint8), 0)[:, :, None, None]
    rows[13:, ..., 24] = ord("e")
    rows[13:15, ..., 25] = ord("-")
    rows[15:, ..., 25] = ord("+")
    rows[13:, ..., 27:29] = 0xFF
    rows[[14, 16], ..., 26] = 0xFF
    rows[:, :, 1, :, 0] = ord("-")
    rows[..., 0, 29] = ord(",")
    rows[..., 1, 29] = ord("\n")
    return rows.reshape(-1, 32).view("<u8")


_TEMPLATES = _cell_templates()
_COLUMN = np.tile(np.array([0, 1], np.int32), CHUNK // 2)


def format_cells(cells: np.ndarray) -> bytes:
    """`%.9g` of finite interleaved (freq, value) cells, each followed by `,` or a newline.

    `cells` holds whole rows. It is formatted in passes of CHUNK cells, so
    temporaries do not grow with its length.
    """
    return b"".join(_format_chunk(cells[i : i + CHUNK]) for i in range(0, len(cells), CHUNK))


def _format_chunk(cells: np.ndarray) -> bytes:
    """`format_cells` of at most CHUNK cells.

    The 9-digit mantissa N and exponent e come from rint(|x| * 10**(8-e)),
    e = floor(log10|x|), moved by one where N leaves [1e8, 1e9). The scale
    is correctly rounded, so the scaled value is off by at most about
    2.3e-7 of a unit. Where its fraction lies within 1e-6 of .5, before or
    after that move, where N is still out of range, and for 0 < |x| <
    1e-290, Python's `%.8e` gives N and e exactly.
    """
    ax = np.abs(cells)
    tiny = ax < 1e-290
    ax[tiny] = 1.0
    e = np.log10(ax)
    np.floor(e, out=e)
    e += _EXP_OFFSET  # from here on e indexes the per-exponent tables
    e = e.astype(np.intp)
    scaled = ax * np.take(_SCALE, e)
    n = np.rint(scaled)
    off = np.flatnonzero((n < 1e8) | (n >= 1e9))
    if len(off):
        # a first rint of 999999999.5 or so decides by its own residual
        # whether N rounds up to 1e9, however the second one lands
        near_tie = np.abs(scaled[off] - n[off]) > 0.5 - 1e-6
        e[off] += np.where(n[off] >= 1e9, 1, -1)
        scaled[off] = ax[off] * _SCALE[e[off]]
        n[off] = np.rint(scaled[off])
    residual = np.subtract(scaled, n, out=scaled)
    exact = np.abs(residual, out=residual) > 0.5 - 1e-6
    if len(off):
        exact[off] |= near_tie | (n[off] < 1e8) | (n[off] >= 1e9)
    if tiny.any():
        exact[tiny] = cells[tiny] != 0.0
        n[tiny] = 0.0
        e[tiny] = _EXP_OFFSET
    for i in np.flatnonzero(exact).tolist():
        mantissa, exponent = ("%.8e" % abs(cells[i])).split("e")
        n[i] = int(mantissa[0] + mantissa[2:])
        e[i] = int(exponent) + _EXP_OFFSET
    n = n.astype(np.int32)
    high = n // 10000
    c = n - high * 10000
    a = high // 10000
    b = high - a * 10000
    code = np.take(_KIND_CODE, e)
    code += np.maximum(np.take(_SIG4_LOW, c), np.take(_SIG4_HIGH, b))
    code += _COLUMN[: len(cells)]
    code += np.signbit(cells) * 2
    rows = np.take(_TEMPLATES, code, axis=0)
    rows[:, 0] |= np.take(_LEAD_DIGIT, a)
    rows[:, 1] &= np.take(_SPREAD4, b)
    rows[:, 2] &= np.take(_SPREAD4, c)
    rows[:, 3] &= np.take(_EXP_WORD, e)
    return rows.tobytes().translate(None, b"\0")
