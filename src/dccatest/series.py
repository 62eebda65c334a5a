"""Paired time-series ingestion, integrated profiles, and scale bookkeeping.

The raw inputs are two equal-length increment series y1, y2.  Every
downstream computation works on their integrated profiles
x_j(t) = sum(y_j[:t]), split into non-overlapping windows of the sizes
held by a :class:`ScaleSet`.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property
from typing import BinaryIO

import numpy as np

_WRITE_ROWS = 1 << 13
# Decimal exponents k = floor(log10|v|) of the finite nonzero doubles,
# and the powers 10^(16 - k) that scale |v| to 17 integer digits.
_EXP_MIN, _EXP_MAX = -324, 308
_READ_BYTES = 1 << 18
# :func:`_read_e16` rounds through x87 extended precision: a 64-bit
# significand in the low eight of sixteen little-endian bytes.
_X87 = (np.finfo(np.longdouble).nmant == 63
        and np.dtype(np.longdouble).itemsize == 16
        and sys.byteorder == "little")
# Decimal exponents the reader scales itself: even a token with 16
# leading zero digits stays above the smallest normal double, 2.2e-308.
_EXP_FAST = 290


class InfeasibleScalesError(ValueError):
    """Requested window sizes cannot be realised for the series at hand."""


def integrate_profile(y: np.ndarray) -> np.ndarray:
    """Cumulative sum x(t) = sum_{i<=t} y(i); rejects non-finite input."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("profile integration needs a non-empty 1-d sequence")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains NaN or infinite values")
    return np.cumsum(y)


@dataclass(frozen=True)
class SeriesPair:
    """Two equal-length increment series; their profiles are integrated
    on first use."""

    y1: np.ndarray
    y2: np.ndarray
    n_samples: int

    @classmethod
    def from_increments(cls, y1, y2) -> "SeriesPair":
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        if y1.ndim != 1 or y2.ndim != 1:
            raise ValueError("input series must be 1-dimensional")
        if len(y1) != len(y2):
            raise ValueError(
                f"series lengths differ: {len(y1)} vs {len(y2)}"
            )
        if len(y1) < 2:
            raise ValueError("need at least 2 samples per series")
        if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))):
            raise ValueError("series contains NaN or infinite values")
        return cls(y1=y1, y2=y2, n_samples=len(y1))

    @cached_property
    def x1(self) -> np.ndarray:
        return integrate_profile(self.y1)

    @cached_property
    def x2(self) -> np.ndarray:
        return integrate_profile(self.y2)

    @classmethod
    def from_profiles(cls, x1, x2) -> "SeriesPair":
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        y1 = np.diff(x1, prepend=0.0)
        y2 = np.diff(x2, prepend=0.0)
        return cls.from_increments(y1, y2)


@dataclass(frozen=True)
class ScaleSet:
    """Ordered window sizes n_1 < ... < n_r plus the detrending degree."""

    scales: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("detrending degree must be non-negative")
        if len(self.scales) < 1:
            raise ValueError("need at least one scale")
        arr = np.asarray(self.scales)
        if np.any(np.diff(arr) <= 0):
            raise InfeasibleScalesError("scales must be strictly increasing")
        if arr[0] < self.degree + 2:
            raise InfeasibleScalesError(
                f"smallest scale {arr[0]} cannot support a degree-"
                f"{self.degree} fit (need n >= d+2)"
            )

    @property
    def r(self) -> int:
        return len(self.scales)

    def window_counts(self, n_samples: int) -> np.ndarray:
        """Number of complete windows [N/n_i] at each scale."""
        counts = np.array([n_samples // n for n in self.scales])
        if counts[-1] < 2:
            raise InfeasibleScalesError(
                f"largest scale {self.scales[-1]} leaves fewer than 2 "
                f"windows in {n_samples} samples"
            )
        return counts

    def discarded_samples(self, n_samples: int) -> np.ndarray:
        """Tail samples beyond n_i*[N/n_i] dropped at each scale."""
        counts = self.window_counts(n_samples)
        return n_samples - counts * np.asarray(self.scales)


def make_scales(n_samples: int, n_min: int, n_max: int, r: int,
                degree: int = 1) -> ScaleSet:
    """Build r approximately log-spaced integer scales in [n_min, n_max].

    Real-valued geometric spacing is rounded to the nearest integer and
    deduplicated; endpoints are always kept.
    """
    if r < 2:
        raise InfeasibleScalesError("need at least 2 scales")
    if n_min < degree + 2:
        raise InfeasibleScalesError(
            f"n_min={n_min} too small for degree {degree} (need >= d+2)"
        )
    if n_max > n_samples // 2:
        raise InfeasibleScalesError(
            f"n_max={n_max} exceeds N/2={n_samples // 2}"
        )
    if n_max <= n_min:
        raise InfeasibleScalesError("n_max must exceed n_min")
    raw = np.exp(np.linspace(math.log(n_min), math.log(n_max), r))
    scales = np.unique(np.rint(raw).astype(int))
    if len(scales) < 2:
        raise InfeasibleScalesError(
            "fewer than 2 distinct scales after integer rounding"
        )
    return ScaleSet(scales=tuple(int(n) for n in scales), degree=degree)


def _fields(line: str) -> list[str]:
    """A line's fields: the text before any '#', split at commas if it
    has any, else at whitespace; blank fields are dropped."""
    line = line.partition("#")[0]
    if "," in line:
        return [p for p in line.split(",") if p.strip()]
    return line.split()


def _data_lines(fh, path: str):
    """(line number, text, values) of each line of ``fh`` with fields
    (:func:`_fields`; blank and comment lines have none), read as float()
    reads them.  One non-numeric line before the first data line is a
    header and is skipped; any other raises the line-numbered error."""
    header_allowed = True
    for lineno, line in enumerate(fh, start=1):
        fields = _fields(line)
        if not fields:
            continue
        try:
            values = [float(p) for p in fields]
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise ValueError(f"{path}:{lineno}: could not parse numeric "
                             "values") from None
        header_allowed = False
        yield lineno, line, values


def _parse_columns(path: str) -> np.ndarray:
    """Read comma- or whitespace-separated numeric columns.

    The data lines are those of :func:`_data_lines`.  A comma (or
    one-column) file whose data lines all hold tokens of the writer's
    own '%.16e' shape, as many per line as the first, is read by
    :func:`_read_e16` where numpy's long double is x87 extended precision
    (``_X87``).  numpy's ``loadtxt`` reads any other file from its first
    data line on, splitting at commas if that line has any; it converts
    each field as float() does.  A file it rejects (a blank field, a
    line that splits differently from the first, a bad value; in a
    comma file also a whitespace-only or indented-comment line, which
    numpy takes for a one-field row), or that holds a byte 0x1c..0x1f
    (which numpy strips as whitespace and float() refuses), is read by
    :func:`_parse_lines`, which gives the same array or the error with
    its line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line, values in _data_lines(fh, path):
            break
        else:
            return _parse_lines(path)       # the error for no data
        sep = "," if "," in line.partition("#")[0] else None
        # One field splits alike at commas and at whitespace.
        if _X87 and (sep or len(values) == 1):
            with open(path, "rb") as raw:
                data = _read_e16(raw, lineno, len(values))
            if data is not None:
                return data
        if _holds_info_separator(path):
            return _parse_lines(path)
        with suppress(ValueError):
            return np.loadtxt(path, delimiter=sep, comments="#",
                              skiprows=lineno - 1, ndmin=2, encoding="utf-8")
    return _parse_lines(path)


def _holds_info_separator(path: str) -> bool:
    """Whether the file holds a byte 0x1c..0x1f: numpy strips those from
    a field as whitespace, and float() rejects the field."""
    with open(path, "rb") as fh:
        while chunk := fh.read(_READ_BYTES):
            if any(bytes([c]) in chunk for c in range(0x1c, 0x20)):
                return True
    return False


def _parse_lines(path: str) -> np.ndarray:
    """Line-by-line reader behind :func:`_parse_columns`: the values of
    :func:`_data_lines`, which must be as many on every line."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [values for _, _, values in _data_lines(fh, path)]
    if not rows:
        raise ValueError(f"{path}: no numeric data found")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{path}: inconsistent column count")
    return np.asarray(rows, dtype=float)


def _digits8(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of the eight ASCII digits in each little-endian uint64,
    by multiply-and-shift steps that join digits, then pairs, then
    quads; and the mask of the words whose eight bytes are all digits."""
    v = words - 0x3030303030303030
    ok = (v | (v + 0x7676767676767676)) & 0x8080808080808080 == 0
    v = (v * 2561) >> 8
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32, ok


@cache
def _pow10_x87() -> np.ndarray:
    """10^(k - 16) rounded to nearest in x87 extended precision, row
    k + _EXP_FAST for |k| <= _EXP_FAST: the scale of the 17 digits of a
    token with exponent k."""
    out = np.empty(2 * _EXP_FAST + 1, np.longdouble)
    for row, q in enumerate(range(-_EXP_FAST - 16, _EXP_FAST - 15)):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        shift = 64 - num.bit_length() + den.bit_length()
        while True:             # top: the 64 leading bits, rounded
            n, d = (num << shift, den) if shift >= 0 else (num, den << -shift)
            top = (2 * n + d) // (2 * d)
            if top < 1 << 64:
                break
            shift -= 1
        out[row] = np.ldexp(np.longdouble(top), -shift)
    return out


def _read_e16(fh: BinaryIO, lineno: int, width: int) -> np.ndarray | None:
    """The rows of a binary file from line ``lineno`` on, when every line
    there holds ``width`` tokens of the writer's shape
    ``[-]d.dddddddddddddddde[+-]dd[d]`` separated by ',' and ended by
    '\\n'; None for any other file, before or after reading it.

    The data is read in chunks of ``_READ_BYTES`` cut at their last
    newline.  Each token holds one 'e', so the 'e' bytes give every
    token's bounds, and the chunk is accepted only if those tokens tile
    it and each byte has its place in the shape.  A token's 17 digits m
    are exact in uint64, and its value is m * 10^q with q = exponent -
    16.  One x87 multiplication of m by the nearest extended value of
    10^q rounds twice, each time by at most half a unit of the 64-bit
    significand relative to the value, so the product lies within two
    units of m * 10^q.  It then rounds to the same double as m * 10^q
    unless a double midpoint (low 11 bits 0x400) lies within those two
    units: only such tokens, and those with an exponent beyond
    +-_EXP_FAST, go to float().
    """
    lead = 24                   # the gathers below read up to 24 bytes back
    for _ in range(lineno - 1):
        # Text mode also ends a line at '\r': a prefix holding one would
        # number its lines differently.
        if b"\r" in fh.readline():
            return None
    begin = fh.tell()
    size = fh.seek(0, os.SEEK_END) - begin
    fh.seek(begin)
    out = np.empty(size // 23 + 1)   # a token and its separator: >= 23 B
    chunk = min(size, _READ_BYTES)
    buf = bytearray(lead + chunk + 8)
    view = np.frombuffer(buf, np.uint8)
    # Byte i starts record i: the 32 bytes from the 'e' - 24 of a token
    # to its 'e' + 7.
    records = np.ndarray((len(buf) - 31,), np.dtype((np.void, 32)),
                         buf, 0, (1,))
    seps = np.full(chunk // 23 + width, ord(","), np.uint8)
    seps[width - 1::width] = ord("\n")
    pow10 = _pow10_x87()
    pos = carry = 0
    while got := fh.readinto(memoryview(buf)[lead + carry:-8]):
        cut = buf.rfind(b"\n", lead, lead + carry + got) + 1
        if not cut:
            return None
        e = np.flatnonzero(view[lead:cut] == ord("e"))
        e += lead
        k = len(e)
        if not k or k % width or k * 23 > cut - lead:
            return None
        # Record byte j is the byte at 'e' - 24 + j: 5 is '-' or the
        # previous separator, 6 the lead digit, 7 '.', 8..23 the
        # fraction, 25 the exponent's sign, 26.. its digits and the
        # separator.
        rec = records[e - 24].view(np.uint8).reshape(k, 32)
        words = rec.view(np.uint64)
        neg = rec[:, 5] == ord("-")
        first = rec[:, 6] - ord("0")
        hi, ok = _digits8(words[:, 1])
        lo, ok_lo = _digits8(words[:, 2])
        ok &= ok_lo & (first < 10) & (rec[:, 7] == ord("."))
        sign = rec[:, 25]
        d2 = rec[:, 26] - ord("0")
        d3 = rec[:, 27] - ord("0")
        d4 = rec[:, 28] - ord("0")
        three = d4 < 10
        ok &= (np.maximum(d2, d3) < 10) \
            & ((sign == ord("+")) | (sign == ord("-")))
        ok &= np.where(three, rec[:, 29], rec[:, 28]) == seps[:k]
        start = e - 18 - neg
        stop = e + 4 + three
        if not (ok.all() and start[0] == lead and stop[-1] == cut - 1
                and np.array_equal(start[1:], stop[:-1] + 1)):
            return None
        exp = d2 * np.int16(10) + d3
        exp = np.where(three, exp * 10 + d4, exp)
        exp *= ord(",") - sign.view(np.int8)       # '+' 1, '-' -1
        far = (exp + _EXP_FAST).view(np.uint16) > 2 * _EXP_FAST
        exp[far] = 0            # any row: float() reads these tokens
        x = (first * np.uint64(10 ** 16) + hi * 10 ** 8 + lo) \
            .astype(np.longdouble)
        x *= pow10[exp + _EXP_FAST]
        low = x.view(np.uint64)[::2] & 0x7FF
        slow = far | (low - (0x400 - 2) <= 4)
        rows = out[pos:pos + k]
        rows[...] = x
        rows.view(np.uint64)[...] |= neg.astype(np.uint64) << 63
        for j in np.flatnonzero(slow):
            rows[j] = float(buf[start[j]:stop[j]])
        pos += k
        carry = lead + carry + got - cut
        buf[lead:lead + carry] = buf[cut:cut + carry]
    if carry or not pos:        # the last line has no '\n', or no line
        return None
    return out[:pos].reshape(-1, width)


def _take_column(data: np.ndarray, col: int, path: str) -> np.ndarray:
    if not 1 <= col <= data.shape[1]:
        raise ValueError(f"{path}: column {col} requested but file has "
                         f"{data.shape[1]}")
    return data[:, col - 1]


def load_pair(path_a: str, path_b: str | None = None,
              columns: tuple[int, int] | None = None) -> SeriesPair:
    """Load a series pair from one two-column file or two files.

    ``columns`` gives 1-based column numbers: both from ``path_a`` when
    ``path_b`` is None (default columns 1 and 2), otherwise one from each
    file (default column 1 of each).
    """
    data_a = _parse_columns(path_a)
    if path_b is None:
        path_b, data_b, default = path_a, data_a, (1, 2)
    else:
        data_b, default = _parse_columns(path_b), (1, 1)
        if len(data_a) != len(data_b):
            raise ValueError(f"sample counts differ: {path_a} has "
                             f"{len(data_a)}, {path_b} has {len(data_b)}")
    col_a, col_b = columns or default
    return SeriesPair.from_increments(_take_column(data_a, col_a, path_a),
                                      _take_column(data_b, col_b, path_b))


@cache
def _e16_tables():
    """Tables of :func:`_e16_words`, built on the first write.

    ``pow10`` row q - 16 + _EXP_MAX holds 10^q = (hi + lo) * 2^e with hi
    given as its two 26-bit halves (Veltkamp split), lo rounded to
    nearest and 10^q / 2^e in [0.5, 1]; ``digits`` maps 0..9999 to four
    ASCII digits, ``lead`` a sign and leading digit to "-d." or "d.",
    and ``exps`` a decimal exponent to "e+dd"/"e-ddd" as two columns of
    words.
    """
    pow10 = []
    for q in range(16 - _EXP_MAX, 17 - _EXP_MIN):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        e = num.bit_length() - den.bit_length()
        if e >= 0:
            den <<= e
        else:
            num <<= -e
        hi = num / den                  # int / int rounds to nearest
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        t = hi * 134217729.0            # 2^27 + 1
        hi_top = t - (t - hi)
        pow10.append((hi_top, hi - hi_top, lo, e))
    words = lambda b: np.frombuffer(b, np.uint32)
    return (
        tuple(np.array(col) for col in zip(*pow10)),
        words(b"".join(b"%04d" % i for i in range(10000))),
        words(b"".join(s + b"%d.\0" % d for s in (b"\0", b"-")
                       for d in range(10))),
        words(b"".join((b"e%+03d" % k).ljust(8, b"\0")
                       for k in range(_EXP_MIN, _EXP_MAX + 1))
              ).reshape(-1, 2).T.copy(),
    )


def _e16_words(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.16e' % x`` for each finite x of ``v`` as a (len(v), 7) array
    of uint32 words whose bytes, NUL padding dropped, are the token; and
    the mask of the values whose words are proven exact.

    |x| * 10^(16 - k), k = floor(log10|x|), is formed as an exact
    double-double product (Dekker) of the frexp mantissa and the
    tabulated power, its error below 1e-13 of a unit, and rounded to the
    17-digit integer.  A value is not proven when its fraction lies
    within 1e-6 of a half unit (a tie or near tie: the product would
    need rounding half to even, or more precision) or the product does
    not have 17 integer digits (log10 misjudged k, as it does at and
    just below some powers of ten).
    """
    (hi_top, hi_bot, lo, e), digits, lead, exps = _e16_tables()
    a = np.abs(v)
    k = np.floor(np.log10(np.where(a > 0, a, 1.0))).astype(np.intp)
    row = _EXP_MAX - k
    hi_top, hi_bot, lo, e = (col[row] for col in (hi_top, hi_bot, lo, e))
    m, m_exp = np.frexp(a)
    t = m * 134217729.0
    m_top = t - (t - m)
    m_bot = m - m_top
    p = m * (hi_top + hi_bot)
    err = ((m_top * hi_top - p) + m_top * hi_bot + m_bot * hi_top) \
        + m_bot * hi_bot
    scale = m_exp + e
    rest = np.ldexp(err + m * lo, scale)
    whole = np.floor(rest)
    frac = rest - whole
    d = np.ldexp(p, scale).astype(np.int64) + whole.astype(np.int64)
    # The 17 digits need floor(product) >= 10^16: a misjudged k can
    # round 9999999999999999.5.. up to 10^16.
    exact = d >= 10 ** 16
    d += frac > 0.5
    exact &= (d < 10 ** 17) & (np.abs(frac - 0.5) >= 1e-6)
    exact |= a == 0
    d *= exact                  # unproven rows: in-range indices below
    first = d // 10 ** 16
    d -= first * 10 ** 16
    top = d // 10 ** 8
    bot = d - top * 10 ** 8
    out = np.empty((len(v), 7), np.uint32)
    out[:, 0] = lead[first + 10 * np.signbit(v)]
    out[:, 1] = digits[top // 10 ** 4]
    out[:, 2] = digits[top % 10 ** 4]
    out[:, 3] = digits[bot // 10 ** 4]
    out[:, 4] = digits[bot % 10 ** 4]
    k -= _EXP_MIN
    out[:, 5] = exps[0][k]
    out[:, 6] = exps[1][k]
    return out, exact


def write_pair(path: str, pair: SeriesPair, comment: str | None = None):
    """Write increments as two-column CSV readable by :func:`load_pair`.

    Each value is written as ``'%.16e' % v``: 17 significant digits, which
    give back every finite double bit for bit.  Rows are formatted in
    numpy, a block of ``_WRITE_ROWS`` at a time (:func:`_e16_words`);
    the few values it cannot prove exact are formatted by Python.
    """
    sep = np.frombuffer(b"\0,\0\0\0\n\0\0", np.uint32)
    with open(path, "wb") as fh:
        if comment:
            fh.write("".join(f"# {line}\n" for line in
                             comment.splitlines()).encode("utf-8"))
        for i in range(0, pair.n_samples, _WRITE_ROWS):
            block = slice(i, i + _WRITE_ROWS)
            values = np.stack((pair.y1[block], pair.y2[block]),
                              axis=1).ravel()
            words, exact = _e16_words(values)
            for j in np.flatnonzero(~exact):
                words[j] = np.frombuffer(
                    (b"%.16e" % values[j]).ljust(28, b"\0"), np.uint32)
            # Word 6 ends each token: a third exponent digit or NUL,
            # then ',' or '\n'.
            words.reshape(-1, 2, 7)[:, :, 6] |= sep
            fh.write(words.tobytes().translate(None, b"\0"))
