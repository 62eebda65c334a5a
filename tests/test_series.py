import contextlib
import io
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccatest import series
from dccatest.series import (InfeasibleScalesError, SeriesPair,
                             _parse_columns, _parse_lines,
                             integrate_profile, load_pair, make_scales,
                             write_pair)


def test_integrate_profile_trivial():
    assert np.array_equal(integrate_profile([0.0, 0.0, 0.0]), [0, 0, 0])
    assert np.array_equal(integrate_profile([1.0, 2.0, 3.0]), [1, 3, 6])
    assert np.array_equal(integrate_profile([1, 1, 1]), [1, 2, 3])
    assert np.array_equal(integrate_profile([1, -1, 1, -1]), [1, 0, 1, 0])


def test_integrate_profile_inverse_oracle(rng):
    y = rng.standard_normal(500)
    x = integrate_profile(y)
    # Differencing inverts integration up to summation round-off.
    assert np.allclose(np.diff(x), y[1:], rtol=0,
                       atol=1e-12 * max(1.0, np.abs(x).max()))
    assert x[0] == y[0]


def test_integrate_profile_linear(rng):
    y = rng.standard_normal(200)
    z = rng.standard_normal(200)
    a, b = 2.5, -1.25
    lhs = integrate_profile(a * y + b * z)
    rhs = a * integrate_profile(y) + b * integrate_profile(z)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_integrate_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_profile([])
    with pytest.raises(ValueError):
        integrate_profile([1.0, np.nan])
    with pytest.raises(ValueError):
        integrate_profile([1.0, np.inf])


def test_series_pair_validation(rng):
    with pytest.raises(ValueError):
        SeriesPair.from_increments([1.0], [1.0])
    with pytest.raises(ValueError):
        SeriesPair.from_increments([1.0, 2.0], [1.0, 2.0, 3.0])
    pair = SeriesPair.from_increments([1.0, 1.0, 1.0], [1.0, -1.0, 1.0])
    assert pair.n_samples == 3
    assert np.array_equal(pair.x1, [1, 2, 3])
    assert np.array_equal(pair.x2, [1, 0, 1])


def test_make_scales_exact_geometric():
    ss = make_scales(20000, 20, 2000, 3, 1)
    assert ss.scales == (20, 200, 2000)


def test_make_scales_endpoints():
    ss = make_scales(100, 10, 40, 2, 1)
    assert ss.scales == (10, 40)


def test_make_scales_ratio_property():
    # Consecutive ratios stay within 25% of the exact geometric ratio.
    for (n_samples, lo, hi, r) in [(10000, 20, 500, 10), (50000, 8, 2000, 15),
                                   (4000, 10, 300, 7)]:
        ss = make_scales(n_samples, lo, hi, r, 1)
        target = (hi / lo) ** (1.0 / (r - 1))
        ratios = np.array(ss.scales[1:]) / np.array(ss.scales[:-1])
        assert np.all(ratios < 1.25 * target)
        assert np.all(ratios > 0.75 * target)


def test_make_scales_deterministic():
    a = make_scales(12345, 17, 600, 9, 2)
    b = make_scales(12345, 17, 600, 9, 2)
    assert a == b


def test_make_scales_errors():
    with pytest.raises(InfeasibleScalesError):
        make_scales(100, 2, 40, 3, 1)          # n_min < d+2
    with pytest.raises(InfeasibleScalesError):
        make_scales(100, 10, 60, 3, 1)         # n_max > N/2
    with pytest.raises(InfeasibleScalesError):
        make_scales(1000, 10, 10, 3, 1)        # n_max must exceed n_min
    with pytest.raises(InfeasibleScalesError):
        make_scales(100, 10, 40, 1, 1)         # r < 2


@settings(max_examples=300, deadline=None)
@given(n_samples=st.integers(1, 10**6), n_min=st.integers(0, 2000),
       n_max=st.integers(0, 10**5), r=st.integers(0, 40),
       degree=st.integers(0, 4))
def test_make_scales_properties(n_samples, n_min, n_max, r, degree):
    feasible = (r >= 2 and n_min >= degree + 2 and n_min < n_max
                <= n_samples // 2)
    if not feasible:
        with pytest.raises(InfeasibleScalesError):
            make_scales(n_samples, n_min, n_max, r, degree)
        return
    scales = make_scales(n_samples, n_min, n_max, r, degree).scales
    assert all(type(n) is int for n in scales)
    assert scales[0] == n_min and scales[-1] == n_max
    assert all(a < b for a, b in zip(scales, scales[1:]))
    assert len(scales) <= r


def test_window_counts_and_discards():
    ss = make_scales(1000, 10, 300, 4, 1)
    counts = ss.window_counts(1000)
    assert np.array_equal(counts, [1000 // n for n in ss.scales])
    disc = ss.discarded_samples(1000)
    assert np.array_equal(disc, 1000 - counts * np.array(ss.scales))


def test_load_pair_two_files(tmp_path):
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    fa.write_text("# comment\n1.0\n2.0\n-0.5\n1.5\n0.25\n")
    fb.write_text("value\n0.1\n0.2\n0.3\n0.4\n0.5\n")  # header auto-skipped
    pair = load_pair(str(fa), str(fb))
    assert pair.n_samples == 5
    assert pair.x1[1] == 3.0
    assert np.isclose(pair.x2[-1], 1.5)


def test_load_pair_single_file_two_columns(tmp_path):
    f = tmp_path / "pair.csv"
    f.write_text("1.0,0.5\n2.0,0.5\n3.0,0.5\n")
    pair = load_pair(str(f))
    assert pair.n_samples == 3
    assert np.array_equal(pair.y2, [0.5, 0.5, 0.5])


def test_load_pair_tab_separated(tmp_path):
    f = tmp_path / "pair.tsv"
    f.write_text("1.0\t2.0\n3.0\t4.0\n")
    pair = load_pair(str(f))
    assert np.array_equal(pair.y1, [1.0, 3.0])


def test_load_pair_errors(tmp_path):
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    fa.write_text("1.0\n2.0\n")
    fb.write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(ValueError, match="sample counts differ"):
        load_pair(str(fa), str(fb))
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\noops\n2.0\n")
    with pytest.raises(ValueError, match="parse"):
        load_pair(str(bad), str(fa))
    short = tmp_path / "short.csv"
    short.write_text("1.0,2.0\n")
    with pytest.raises(ValueError):
        load_pair(str(short))
    nan = tmp_path / "nan.csv"
    nan.write_text("1.0,1.0\nnan,2.0\n")
    with pytest.raises(ValueError, match="NaN"):
        load_pair(str(nan))


@pytest.mark.parametrize("text", [
    "1.5,2\n-3e-5,4\n",
    "# c\n\n 1.5 , 2\n\t3,4\n# d\n",
    "1\t2\n3\t4\n",
    "1 2\n3   4\n",
    "7\n8\n9\n",
    "x,y\n1,2\n3,4\n",
    "1,,2\n3,4\n",
    "1,2,\n3,4\n",
    "1,2\n3\t4\n",
    "1\t2\n3,4\n",
    "1 2\t3\n4 5\t6\n",
    "1 2 3\n4 5\t6\n",
    "1 2\n3\t4\n",
    "1_0,2\n3,4\n",
    "nan,inf\n-Infinity,1e308\n",
    "0.1000000000000000055511151231257827,4.9e-324\n1,2\n",
    "1,2\n3\n",
    "1,2\noops\n",
    "# only a comment\n",
    "",
    "1,2 # c\n3,4\n",
    "1 2 # c\n3 4\n",
    "1,2\n   # indented\n3,4\n",
    "1 2\n\t# indented\n3 4\n",
    "1,2\r\n3,4\r\n",
    "1\t2\r\n3\t4\r\n",
    "x,y\n# c\n\n# d\n1,2\n3,4\n",
    "x,y\n1,2\n \t\n3,4 # c\n",
    "# c\nx y\n# d\n1 2\n",
    "x,y\nu,v\n1,2\n",
    "x,y\n# c\n",
    ",,\n1,2\n",
    "1,2\n3\x1c,4\n",
    "1,2\n\x1f3,4\n",
    "1,2\n3,4\x1d\n",
    "1 2\n3\x1e 4\n",
    "# \x1c\n1,2\n3,4\n",
])
def test_parse_columns_matches_line_reader(tmp_path, text):
    """The numpy fast path and the line-by-line reader agree on every
    file: the same array, bit for bit, or the same error."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    try:
        expected = _parse_lines(str(path))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc).split(": ")[-1]):
            _parse_columns(str(path))
        return
    got = _parse_columns(str(path))
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_parse_columns_matches_line_reader_on_random_digits(tmp_path, rng):
    values = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(
        -300, 300, (500, 2))
    path = tmp_path / "digits.csv"
    path.write_text("".join(f"{float(a)!r},{b:.25g}\n" for a, b in values))
    assert _parse_columns(str(path)).tobytes() == \
        _parse_lines(str(path)).tobytes()


def test_write_pair_round_trip(tmp_path, rng):
    pair = SeriesPair.from_increments(rng.standard_normal(50),
                                      rng.standard_normal(50))
    path = tmp_path / "out.csv"
    write_pair(str(path), pair, comment="test fixture")
    loaded = load_pair(str(path))
    assert np.array_equal(loaded.y1, pair.y1)
    assert np.array_equal(loaded.y2, pair.y2)


def _e16_file(y1, y2, comment):
    head = "".join(f"# {line}\n" for line in comment.splitlines())
    return (head + "".join("%.16e,%.16e\n" % (a, b)
                           for a, b in zip(y1.tolist(), y2.tolist()))
            ).encode("utf-8")


# Signed zeros, the smallest subnormal and normal, extremes, an exact
# integer, a value with a long binary expansion, exact ties at the 17th
# digit (1000000000000000.25 and 3 * 2^-24) and the largest doubles below
# powers of ten: those are the nearest to rounding up to the next power,
# which no finite double does at 17 digits (their spacing exceeds 1e-17
# relative).
_E16_FIXED = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
              1e308, 1.7976931348623157e308, 1e16, 0.1, -2.5,
              1000000000000000.25, 3 * 2.0 ** -24,
              float(np.nextafter(1e5, 0)), float(np.nextafter(1e-5, 0)),
              float(np.nextafter(1e23, 0)), 1e-308, 1e-311, 1e-6]


def test_write_pair_rows_match_percent_e16(tmp_path, monkeypatch):
    """Every row is '%.16e,%.16e' of its pair; blocks of 4 rows put a
    block boundary inside the file."""
    monkeypatch.setattr(series, "_WRITE_ROWS", 4)
    y1 = np.array(_E16_FIXED)
    y2 = -y1[::-1]
    path = tmp_path / "out.csv"
    write_pair(str(path), SeriesPair.from_increments(y1, y2),
               comment="two\nlines")
    assert path.read_bytes() == _e16_file(y1, y2, "two\nlines")
    loaded = load_pair(str(path))
    assert loaded.y1.tobytes() == y1.tobytes()
    assert loaded.y2.tobytes() == y2.tobytes()


@pytest.mark.parametrize("value", [
    1000000000000000.25,        # residual exactly a half unit
    3 * 2.0 ** -24,             # the same, ties to even downward
    1e-308,                     # log10 gives -308, the double is 9.99..e-309
    1e-311,                     # the same for a subnormal
    1e-6,                       # the same, 9999999999999999.55 rounds to 10^16
])
def test_e16_words_leaves_unproven_values_to_python(value):
    """Each branch that hands a value to Python's '%.16e' is reached;
    the file test above holds these values too."""
    _, exact = series._e16_words(np.array([value, -value, 1.5]))
    assert exact.tolist() == [False, False, True]


def _raw_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(0, 2 ** 64 - 1).map(_raw_double)
                .filter(math.isfinite), min_size=4, max_size=12))
def test_write_pair_token_is_percent_e16_and_round_trips(tmp_path_factory,
                                                         values):
    values = np.array(values[:len(values) // 2 * 2])
    y1, y2 = values[0::2], values[1::2]
    path = tmp_path_factory.mktemp("e16") / "out.csv"
    write_pair(str(path), SeriesPair.from_increments(y1, y2))
    tokens = path.read_text().replace("\n", ",").split(",")[:-1]
    assert tokens == ["%.16e" % v for v in values.tolist()]
    back = np.array([float(t) for t in tokens])
    assert back.tobytes() == values.tobytes()



# -- the '%.16e' reader ------------------------------------------------------

needs_x87 = pytest.mark.skipif(
    not series._X87, reason="numpy's long double is not x87 extended")


def _refuse(*args, **kwargs):
    raise AssertionError("a reader other than the '%.16e' one ran")


@contextlib.contextmanager
def _e16_reader_only():
    """numpy's loadtxt and the line reader raise inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series.np, "loadtxt", _refuse)
        mp.setattr(series, "_parse_lines", _refuse)
        yield mp


@needs_x87
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(0, 2 ** 64 - 1).map(_raw_double)
                .filter(math.isfinite), min_size=4, max_size=40),
       st.sampled_from([64, series._READ_BYTES]))
def test_e16_reader_reads_write_pair_bit_for_bit(tmp_path_factory, values,
                                                 read_bytes):
    """A write_pair file reads back through the '%.16e' reader alone as
    the doubles written, in one chunk or in chunks of 64 bytes (a chunk
    boundary inside most rows)."""
    values = np.array(values[:len(values) // 2 * 2])
    path = tmp_path_factory.mktemp("e16") / "pair.csv"
    write_pair(str(path), SeriesPair.from_increments(values[0::2],
                                                     values[1::2]),
               comment="two\nlines")
    with _e16_reader_only() as mp:
        mp.setattr(series, "_READ_BYTES", read_bytes)
        got = _parse_columns(str(path))
    assert got.tobytes() == values.reshape(-1, 2).tobytes()


# Tokens the reader scales itself: +-0, a leading '0.' digit (m < 10^16)
# and exponents from -290 to 290.
_E16_SCALED = [
    "0.0000000000000000e+00", "-0.0000000000000000e+00",
    "0.0000000000001234e-05", "1.2345678901234567e+00",
    "-9.8765432109876543e-21", "1.2345678901234567e+43",
    "1.2345678901234567e+44", "-1.2345678901234567e-12",
    "9.9999999999999999e+289", "1.0000000000000000e-290",
]
# Tokens it leaves to float(): x87 products one unit below, on and one
# unit above a double midpoint (found by search among random 17-digit
# tokens; each rounds the wrong way without the guard, see below), and
# exponents beyond +-290: 3-digit ones, subnormals, the largest double.
_E16_GUARDED = [
    "9.3574295362898359e-07", "9.1098053274485895e-18",
    "9.3567639494770363e-188",
]
_E16_FAR = [
    "1.0000000000000000e+291", "-1.0000000000000000e-291",
    "2.2250738585072009e-308", "-4.9406564584124654e-324",
    "1.7976931348623157e+308", "1.0000000000000000e-320",
]


def _x87_unguarded(token: str) -> float:
    """The reader's extended product for ``token`` rounded to a double
    without the midpoint guard."""
    mantissa, exponent = token.split("e")
    m = np.longdouble(int(mantissa.replace(".", "")))
    return float(m * series._pow10_x87()[int(exponent) + series._EXP_FAST])


@needs_x87
@pytest.mark.parametrize("width", [1, 3])
def test_e16_reader_branches(tmp_path, monkeypatch, width):
    """Each token reads as float() reads it; exactly the guarded and far
    ones go to float(), and the guarded ones need the guard."""
    tokens = _E16_SCALED + _E16_GUARDED + _E16_FAR
    tokens += tokens[:-len(tokens) % width]     # whole rows
    rows = [tokens[i:i + width] for i in range(0, len(tokens), width)]
    path = tmp_path / "tokens.csv"
    path.write_text("# tokens\n" + "".join(",".join(r) + "\n" for r in rows))
    seen = []

    def recorded(text):
        if isinstance(text, bytearray):
            seen.append(text.decode())
        return float(text)

    monkeypatch.setattr(series, "float", recorded, raising=False)
    with _e16_reader_only() as mp:
        mp.setattr(series, "_READ_BYTES", 100)
        got = _parse_columns(str(path))
    want = np.array([[float(t) for t in r] for r in rows])
    assert got.tobytes() == want.tobytes()
    assert set(seen) == set(_E16_GUARDED + _E16_FAR)
    for token in _E16_GUARDED:
        assert _x87_unguarded(token) != float(token)


def test_pow10_x87_holds_the_nearest_extended_powers():
    """Row k + 290 is 10^(k - 16) within half a unit of its 64-bit
    significand."""
    for row, p in enumerate(series._pow10_x87()):
        exact = Fraction(10) ** (row - series._EXP_FAST - 16)
        num, den = p.as_integer_ratio()
        unit = Fraction(2) ** (math.floor(math.log2(exact)) - 63)
        assert 2 * abs(Fraction(num, den) - exact) <= unit


_E16_SMALL = (b"-1.5000000000000000e+00,3.2500000000000000e+100\n"
              b"2.5000000000000000e-30,-0.0000000000000000e+00\n")


@needs_x87
def test_e16_reader_takes_no_mutation_the_line_reader_reads_otherwise(
        tmp_path):
    """Every truncation and every single-byte substitution of a small
    writer file: the reader refuses it, or it gives the line reader's
    array bit for bit.  Only digit-for-digit and exponent-sign
    substitutions, and the truncation after the first row, keep the
    shape."""
    variants = [_E16_SMALL[:i] for i in range(len(_E16_SMALL))]
    variants += [_E16_SMALL[:i] + bytes([b]) + _E16_SMALL[i + 1:]
                 for i in range(len(_E16_SMALL)) for b in range(256)
                 if b != _E16_SMALL[i]]
    path = tmp_path / "m.csv"
    accepted = 0
    for data in variants:
        got = series._read_e16(io.BytesIO(data), 1, 2)
        if got is not None:
            accepted += 1
            path.write_bytes(data)
            assert got.tobytes() == _parse_lines(str(path)).tobytes()
    digits = sum(c in b"0123456789" for c in _E16_SMALL)
    assert accepted == digits * 9 + 4 + 1


@pytest.mark.parametrize("text, fast", [
    (_E16_SMALL.replace(b"\n", b"\r\n"), False),
    (_E16_SMALL[:-1], False),
    (b"x,y\n" + _E16_SMALL, True),
    (b"# c\n\n" + _E16_SMALL, True),
    (_E16_SMALL.replace(b"\n", b" # c\n", 1), False),
    (_E16_SMALL + b"# c\n", False),
    (_E16_SMALL.replace(b"2.5", b"+2.5"), False),
    (_E16_SMALL.replace(b"e-30", b"E-30"), False),
    (_E16_SMALL.replace(b"\n", b",").rstrip(b",") + b"\n", True),
    (_E16_SMALL.replace(b",", b"\n"), True),
    (_E16_SMALL.replace(b"\n", b",9.0000000000000000e-01\n"), True),
    (b"# c\r\n" + _E16_SMALL, False),
])
def test_parse_columns_reads_e16_variants_as_the_line_reader(
        tmp_path, text, fast):
    """Near-writer files read as the line reader reads them, the
    writer-shaped ones (with a header, 1, 3 or 4 columns) through the
    '%.16e' reader alone."""
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    expected = _parse_lines(str(path))
    with _e16_reader_only() if fast and series._X87 \
            else contextlib.nullcontext():
        got = _parse_columns(str(path))
    assert got.tobytes() == expected.tobytes()
    assert got.shape == expected.shape


def test_parse_columns_without_x87_reads_writer_files_as_before(
        tmp_path, monkeypatch):
    """With the extended-precision gate off the same files load bit for
    bit through numpy's loadtxt, and the '%.16e' reader does not run."""
    values = np.array(_E16_FIXED + [float(t) for t in _E16_GUARDED])
    path = tmp_path / "pair.csv"
    write_pair(str(path), SeriesPair.from_increments(values, -values),
               comment="gate")
    monkeypatch.setattr(series, "_X87", False)
    monkeypatch.setattr(series, "_read_e16", _refuse)
    monkeypatch.setattr(series, "_parse_lines", _refuse)
    got = _parse_columns(str(path))
    assert got.tobytes() == np.stack((values, -values), axis=1).tobytes()
