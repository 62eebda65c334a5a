import math
import struct

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
    "# c\nx y\n# d\n1 2\n",
    "x,y\nu,v\n1,2\n",
    "x,y\n# c\n",
    ",,\n1,2\n",
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


@pytest.mark.parametrize("text", [
    "1,2\n   # indented\n3,4\n",
    "1 2\n\t# indented\n3 4\n",
    "x,y\n1,2\n \t\n3,4 # c\n",
])
def test_parse_columns_skips_blank_looking_lines_in_numpy(tmp_path,
                                                          monkeypatch, text):
    """Whitespace-only and indented-comment lines keep a file off the
    line-by-line reader, with the array it gives."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    expected = _parse_lines(str(path))

    def refuse(path):
        raise AssertionError("line-by-line reader used")

    monkeypatch.setattr(series, "_parse_lines", refuse)
    assert _parse_columns(str(path)).tobytes() == expected.tobytes()


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
