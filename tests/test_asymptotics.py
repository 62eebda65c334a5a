import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dccatest import asymptotics
from dccatest.asymptotics import (DEFAULT_GRID, DEFAULT_N_TAB,
                                  DEFAULT_RATIOS, CovTable,
                                  _binomial_gram, _cross_cov_disp_batch,
                                  _far_sum, _hurwitz_scaled,
                                  f2_cross_scale_corr, f2_variance_limit,
                                  fluct_mean_exact, load_covtab,
                                  loads_covtab, ratio_window_sizes,
                                  rho_null_cov, save_covtab, tabulate,
                                  tabulate_pair, worst_case_cov)
from dccatest.fluctuation import poly_basis
from oracles import cross_cov_reference, fbm_auto_cov, fluct_cov_exact


def test_mean_hand_computation():
    # n=2, d=0, H=0.5: Sigma=[[1,1],[1,2]], mean projection leaves 0.25.
    assert fluct_mean_exact(2, 0.5, 0) == pytest.approx(0.25, abs=1e-12)


def test_mean_matches_dense_trace(rng):
    for (n, h, d) in [(16, 0.7, 1), (50, 0.9, 2), (128, 0.55, 1)]:
        t = np.arange(1, n + 1, dtype=float)
        sigma = np.asarray(fbm_auto_cov(t[:, None], t[None, :], h))
        basis = poly_basis(n, d)
        dense = (np.trace(sigma) - np.trace(basis.T @ sigma @ basis)) / n
        assert fluct_mean_exact(n, h, d) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("n", [3, 10, 257, 4096, 50_000])
def test_mean_brownian_closed_forms(n):
    # H = 1/2 (Sigma_ab = min(a, b)): removing the mean leaves
    # (n^2 - 1) / (6n), removing a line (n^2 - 4) / (15n); n = 50,000 is
    # far beyond the reach of the dense oracle.
    assert fluct_mean_exact(n, 0.5, 0) == pytest.approx(
        (n * n - 1) / (6 * n), rel=1e-12)
    assert fluct_mean_exact(n, 0.5, 1) == pytest.approx(
        (n * n - 4) / (15 * n), rel=1e-12)


def test_mean_self_similarity_scaling():
    # fluct_mean_exact(2n)/fluct_mean_exact(n) approaches 2^{2H}.
    h = 0.7
    for n in (128, 256):
        ratio = fluct_mean_exact(2 * n, h, 1) / fluct_mean_exact(n, h, 1)
        assert abs(ratio / 2 ** (2 * h) - 1.0) < 0.02


def test_mean_loglog_slope_is_2h():
    for h in (0.55, 0.7, 0.9):
        ns = np.array([64, 128, 256])
        means = np.array([fluct_mean_exact(int(n), h, 1) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        assert abs(slope - 2 * h) < 0.05


def test_mean_scaled_stability():
    # mean / n^{2H} approximately constant between n=256 and n=1024.
    h = 0.8
    a = fluct_mean_exact(256, h, 1) / 256 ** (2 * h)
    b = fluct_mean_exact(1024, h, 1) / 1024 ** (2 * h)
    assert abs(a / b - 1.0) < 0.05


def test_mean_simulation_oracle(rng):
    # Sample mean of the per-window DFA statistic over simulated fBm
    # windows matches the exact trace within 3 MC standard errors.
    n, h, d = 64, 0.6, 1
    t = np.arange(1, n + 1, dtype=float)
    sigma = np.asarray(fbm_auto_cov(t[:, None], t[None, :], h))
    factor = np.linalg.cholesky(sigma + 1e-12 * np.eye(n))
    reps = 100_000
    windows = factor @ rng.standard_normal((n, reps))
    basis = poly_basis(n, d)
    res = windows - basis @ (basis.T @ windows)
    stats = np.mean(res ** 2, axis=0)
    se = stats.std() / np.sqrt(reps)
    assert abs(stats.mean() - fluct_mean_exact(n, h, d)) <= 3 * se


def test_cov_auto_is_twice_cross_when_equal():
    for j in (0, 1, 3):
        cross = fluct_cov_exact(32, 32, j, 0.7, 0.7, 1, "cross")
        auto = fluct_cov_exact(32, 32, j, 0.7, 0.7, 1, "auto")
        assert auto == pytest.approx(2.0 * cross, rel=1e-12)


def test_cov_offset_decay_rate():
    h, g, n = 0.7, 0.7, 32
    alpha = 2 * h + 2 * g - 8
    c = {j: fluct_cov_exact(n, n, j, h, g, 1) for j in (0, 1, 4, 8, 16, 64)}
    # Log-log slope over offsets with clean signal matches the rate.
    js = np.array([4.0, 8.0, 16.0])
    slope = np.polyfit(np.log(js), np.log([abs(c[int(j)]) for j in js]), 1)[0]
    assert abs(slope - alpha) < 0.4
    # Far-offset magnitude check, with a round-off floor added to the
    # bound.
    floor = 1e-10 * abs(c[0])
    assert abs(c[64]) <= 10.0 * 64.0 ** alpha * abs(c[1]) + floor


_EXACT_CASES = [(n, m, h, g, degree) for degree in (1, 2)
                for h, g in ((0.7, 0.8), (0.9, 0.96))
                for n, m in ((16, 16), (16, 8))] + [(64, 3, 0.98, 0.98, 1),
                                                   (3, 64, 0.98, 0.98, 1)]


@pytest.mark.parametrize(
    "n, m, h, g, degree", _EXACT_CASES,
    ids=[f"{d}-{h}-{g}-{n}-{m}" for n, m, h, g, d in _EXACT_CASES])
def test_cross_cov_matches_exact_arithmetic(n, m, h, g, degree):
    # The reference evaluates the full fBm blocks with exact projectors
    # and 50-digit powers, so it checks the lag-only identity as well as
    # the rounding of the kernel out to 16 windows.  The short window
    # (m = 3 at n = 64) needs both lag blocks projected: against one
    # unprojected block the contraction cancels most of its digits.
    js = np.array([0, 1, 4, 16])
    exact = np.array([cross_cov_reference(n, m, int(j) * n, h, g, degree)
                      for j in js])
    got = _cross_cov_disp_batch(n, m, js * n, h, g, degree)
    assert np.abs(got - exact).max() <= 1e-9 * abs(exact[0])


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 2), n=st.integers(2, 24), m=st.integers(2, 24),
       offsets=st.lists(st.integers(-60, 60), min_size=1, max_size=6),
       hurst=st.sampled_from([(0.7, 0.8), (0.98, 0.98), (0.55, 0.9)]))
@example(degree=1, n=24, m=24, offsets=[1], hurst=(0.98, 0.98))
@example(degree=1, n=23, m=23, offsets=[7], hurst=(0.98, 0.98))
@example(degree=0, n=2, m=2, offsets=[55], hurst=(0.98, 0.98))
def test_cross_cov_offset_sets_match_single_offsets(degree, n, m, offsets,
                                                    hurst):
    # Offsets may come unsorted, negative, repeated or alone; the shared
    # lag rows of one call give what one call per offset gives, and
    # exchanging the windows negates the offset.  The examples, equal
    # windows at H = G = 0.98, break the exchange by up to 3.6 times the
    # tolerance unless c(n, n, delta) is taken at |delta|.
    assume(min(n, m) >= degree + 2)
    offsets = np.array(offsets)
    got = _cross_cov_disp_batch(n, m, offsets, *hurst, degree)
    single = [_cross_cov_disp_batch(n, m, [off], *hurst, degree)[0]
              for off in offsets]
    swapped = _cross_cov_disp_batch(m, n, -offsets, *hurst, degree)
    tol = 1e-12 * abs(_cross_cov_disp_batch(n, m, [0], *hurst, degree)[0])
    assert np.abs(got - single).max() <= tol
    assert np.abs(got - swapped).max() <= tol


@pytest.mark.parametrize("n, m, h, g, degree", [
    (16, 16, 0.7, 0.8, 1), (16, 8, 0.9, 0.96, 2), (64, 3, 0.98, 0.98, 1),
    (12, 5, 0.6, 0.7, 0)])
def test_far_series_matches_exact_arithmetic(n, m, h, g, degree):
    # Two far-zone sums that start one lattice step apart differ by the
    # covariances at +-D.  From D = 2 max(n, m) (two windows of the larger
    # scale) on, the binomial series reproduces them to round-off.
    step = math.gcd(n, m)
    first = 2 * max(n, m) // step
    for j in (first, first + 3):
        series = _far_sum(n, m, step, j, h, g, degree)[0] \
            - _far_sum(n, m, step, j + 1, h, g, degree)[0]
        exact = sum(cross_cov_reference(n, m, sign * j * step, h, g, degree)
                    for sign in (1, -1))
        assert series == pytest.approx(exact, rel=1e-9), j
    with pytest.raises(ValueError, match="2 max"):
        _far_sum(n, m, step, first - 1, h, g, degree)


@pytest.mark.parametrize("first", [2, 7, 100])
def test_hurwitz_zeta_matches_scipy(first):
    # Euler-Maclaurin in numpy against scipy's Hurwitz zeta, from just
    # above the pole at 1 to the steep orders of the far series.
    from scipy.special import zeta
    sigma = np.linspace(1.01, 40.0, 30)
    ref = zeta(sigma, first) * float(first) ** sigma
    assert np.allclose(_hurwitz_scaled(sigma, first), ref, rtol=1e-13, atol=0)


def test_cov_errors():
    with pytest.raises(ValueError):
        fluct_cov_exact(16, 16, -1, 0.7, 0.7, 1)
    with pytest.raises(ValueError):
        fluct_cov_exact(16, 16, 0, 0.7, 0.7, 1, kind="bogus")


def test_dfa_dcca_uncorrelated_check(rng):
    # Independent fBm pairs: the DFA F2 of component 1 and the DCCA
    # F2_cross are uncorrelated, on the same window (j = 0) and one
    # window apart (j = 1); sample covariance within 3 SE of 0.
    n, h, g, d = 16, 0.7, 0.8, 1
    t = np.arange(1, 2 * n + 1, dtype=float)
    reps = 20_000
    paths = []
    for hurst in (h, g):
        factor = np.linalg.cholesky(np.asarray(
            fbm_auto_cov(t[:, None], t[None, :], hurst))
            + 1e-12 * np.eye(2 * n))
        paths.append(factor @ rng.standard_normal((2 * n, reps)))
    basis = poly_basis(n, d)

    def residuals(x, window):
        w = x[window * n:(window + 1) * n]
        return w - basis @ (basis.T @ w)

    f2_auto1 = np.mean(residuals(paths[0], 0) ** 2, axis=0)
    for j in (0, 1):
        f2_cross = np.mean(residuals(paths[0], j) * residuals(paths[1], j),
                           axis=0)
        prod = (f2_auto1 - f2_auto1.mean()) * (f2_cross - f2_cross.mean())
        assert abs(prod.mean()) <= 3 * prod.std() / np.sqrt(reps), j


def test_dfa_dcca_uncorrelated_monte_carlo(rng):
    # Under the null, sample cov(F2_cross, F2_auto) and the cov between
    # the two DFA statistics stay within 3 SE of zero.
    n, h, g, d = 32, 0.7, 0.8, 1
    t = np.arange(1, n + 1, dtype=float)
    f1 = np.linalg.cholesky(np.asarray(
        fbm_auto_cov(t[:, None], t[None, :], h)) + 1e-12 * np.eye(n))
    f2 = np.linalg.cholesky(np.asarray(
        fbm_auto_cov(t[:, None], t[None, :], g)) + 1e-12 * np.eye(n))
    reps = 10_000
    basis = poly_basis(n, d)
    w1 = f1 @ rng.standard_normal((n, reps))
    w2 = f2 @ rng.standard_normal((n, reps))
    r1 = w1 - basis @ (basis.T @ w1)
    r2 = w2 - basis @ (basis.T @ w2)
    f2_cross = np.mean(r1 * r2, axis=0)
    f2_auto1 = np.mean(r1 ** 2, axis=0)
    f2_auto2 = np.mean(r2 ** 2, axis=0)
    for a, b in [(f2_cross, f2_auto1), (f2_auto1, f2_auto2)]:
        prod = (a - a.mean()) * (b - b.mean())
        cov = prod.mean()
        se = prod.std() / np.sqrt(reps)
        assert abs(cov) <= 3 * se


def test_variance_limit_positive_and_converged():
    assert f2_variance_limit(64, 0.7, 0.8, 1) > 0


def test_variance_limit_tail_exponent_follows_degree():
    # At degree 0 window-pair covariances decay like j^{4H-4}, far slower
    # than the j^{4H-8} of degree 1.  The reference sums 2,000 windows
    # and adds the integral of the same power law beyond them.
    n, h, j_ref = 64, 0.6, 2000
    alpha = 4.0 * h - 4.0
    total = f2_variance_limit(n, h, h, 0)
    vals = _cross_cov_disp_batch(n, n, np.arange(j_ref + 1) * n, h, h, 0)
    ref = vals[0] + 2.0 * vals[1:].sum() \
        + 2.0 * vals[-1] * j_ref / (-alpha - 1.0)
    assert abs(total - ref) <= 2e-3 * ref


def test_nan_series_bound_rejected(monkeypatch):
    # A NaN bound on the omitted orders bounds nothing: the sum is refused.
    far_sum = asymptotics._far_sum
    monkeypatch.setattr(asymptotics, "_far_sum",
                        lambda *args: (far_sum(*args)[0], math.nan))
    with pytest.raises(RuntimeError, match="bound nan"):
        f2_variance_limit(64, 0.7, 0.8, 1)


def test_divergent_offset_sum_rejected():
    # At degree 0, H + G >= 1.5 leaves a j^{>= -1} tail: no finite limit.
    with pytest.raises(ValueError, match="diverges"):
        f2_variance_limit(64, 0.8, 0.8, 0)
    with pytest.raises(ValueError, match="diverges"):
        f2_cross_scale_corr(64, 32, 0.8, 0.8, 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="diverges"):
        tabulate(grid=[0.6, 0.8], n_tab=128, ratios=[1.0], degree=0)


@pytest.mark.parametrize("h, g", [(0.98, 0.98), (0.7, 0.8)])
def test_shipped_table_matches_fresh_tabulation(full_table, h, g):
    # A fresh tabulation at a few of the shipped table's nodes and
    # ratios reproduces it.
    tab = full_table
    qs = [0, 6, 10, 20, 21]
    sizes = [int(round(tab.ratios[q] * tab.n_tab)) for q in qs]
    i = int(np.argmin(np.abs(tab.grid - h)))
    j = int(np.argmin(np.abs(tab.grid - g)))
    var, corrs = tabulate_pair(float(tab.grid[i]), float(tab.grid[j]),
                               tab.n_tab, sizes, tab.degree)
    assert var == pytest.approx(tab.variance[i, j], rel=1e-6)
    assert np.abs(corrs - tab.correlation[qs, i, j]).max() <= 1e-4
    # A variance sum takes one window on either side of zero directly.
    assert tab.offsets_used[i, j] == 1


def test_default_settings_rebuild_the_shipped_table(full_table):
    # ``tabulate`` with no settings builds the table that ships with the
    # package: the same degree, n_tab, grid and realised ratios.
    assert (full_table.degree, full_table.n_tab) == (1, DEFAULT_N_TAB)
    assert np.array_equal(full_table.grid, DEFAULT_GRID)
    sizes = ratio_window_sizes(DEFAULT_N_TAB, DEFAULT_RATIOS, 1)
    assert np.array_equal(full_table.ratios,
                          [s / DEFAULT_N_TAB for s in sizes])


def test_binomial_gram_cache_holds_a_long_sweep():
    # A tabulation cycles through its window sizes once per Hurst pair;
    # a second sweep over more keys than a bounded cache of 128 holds
    # must find every Gram matrix of the first.
    keys = [(n, m) for n in range(3, 15) for m in range(3, 15)]
    for n, m in keys:
        _binomial_gram(n, m, 1)
    misses = _binomial_gram.cache_info().misses
    for n, m in keys:
        _binomial_gram(n, m, 1)
    assert _binomial_gram.cache_info().misses == misses


def test_tabulate_tiny_grid_properties(tiny_table):
    tab = tiny_table
    # Self-correlation at ratio 1 is exactly 1 everywhere.
    assert np.allclose(tab.correlation[-1], 1.0)
    # Correlations lie in [0, 1].
    assert np.nanmin(tab.correlation) >= 0.0
    assert np.nanmax(tab.correlation) <= 1.0
    # After normalisation by the squared scaled means, the rho variance
    # grows with the Hurst exponents.
    i_lo = 0   # H = 0.5
    i_hi = 2   # H = 0.9
    lo = tab.variance[i_lo, i_lo] / tab.auto_mean[i_lo] ** 2
    hi = tab.variance[i_hi, i_hi] / tab.auto_mean[i_hi] ** 2
    assert lo < hi
    # Symmetry in (H, G).
    assert np.allclose(tab.variance, tab.variance.T, rtol=1e-12)


def test_tabulate_n_tab_convergence():
    # Doubling the tabulation scale moves each scaled variance < 2%.
    a = tabulate(grid=[0.7], n_tab=128, ratios=[1.0], degree=1)
    b = tabulate(grid=[0.7], n_tab=256, ratios=[1.0], degree=1)
    assert abs(a.variance[0, 0] / b.variance[0, 0] - 1.0) < 0.02
    # Lookups work on a single-node grid too.
    assert a.variance_at(0.7, 0.7) == pytest.approx(a.variance[0, 0])


def test_covtab_round_trip(tiny_table, tmp_path):
    path = str(tmp_path / "t.covtab")
    save_covtab(tiny_table, path)
    loaded = load_covtab(path)
    for field in ("grid", "ratios", "variance", "correlation", "auto_mean"):
        a = getattr(tiny_table, field)
        b = getattr(loaded, field)
        assert np.allclose(a, b, rtol=1e-12, atol=0)
    assert loaded.degree == tiny_table.degree
    assert loaded.n_tab == tiny_table.n_tab


@st.composite
def _covtabs(draw):
    """Tables of any shape, finite grids and entries that may be NaN or
    infinite."""
    nh, nq = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.floats()
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return CovTable(
        degree=draw(st.integers(0, 5)), n_tab=draw(st.integers(128, 4096)),
        grid=draw(arrays(float, nh, elements=finite)),
        ratios=draw(arrays(float, nq, elements=finite)),
        variance=draw(arrays(float, (nh, nh), elements=entries)),
        correlation=draw(arrays(float, (nq, nh, nh), elements=entries)),
        auto_mean=draw(arrays(float, nh, elements=entries)))


@settings(max_examples=100, deadline=None)
@given(table=_covtabs())
def test_covtab_round_trip_property(table, tmp_path_factory):
    # A table with a NaN or infinite entry is refused; every other table
    # comes back bit for bit.
    path = str(tmp_path_factory.mktemp("covtab") / "t.covtab")
    save_covtab(table, path)
    if not all(np.isfinite(block).all() for block in (
            table.variance, table.correlation, table.auto_mean)):
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_covtab(path)
        return
    loaded = load_covtab(path)
    for field in ("grid", "ratios", "variance", "correlation", "auto_mean",
                  "offsets_used"):
        a, b = getattr(table, field), getattr(loaded, field)
        assert a.shape == b.shape and a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert (loaded.degree, loaded.n_tab) == (table.degree, table.n_tab)


def test_covtab_reads_tail_tol_header(tiny_table, tmp_path):
    # Tables written while the offset sums were cut by a tolerance carry
    # a "tail_tol" header line; they still load, and it is ignored.
    path = tmp_path / "t.covtab"
    save_covtab(tiny_table, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["tail_tol 0.001\n"] + lines[3:]))
    loaded = load_covtab(str(path))
    assert np.array_equal(loaded.correlation, tiny_table.correlation)


def test_covtab_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.covtab"
    path.write_text("covtab/9\ndegree 1\n")
    with pytest.raises(ValueError, match="covtab/1"):
        load_covtab(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_covtab_rejects_non_finite_entries(tiny_table, tmp_path, value):
    bad = dataclasses.replace(tiny_table, variance=tiny_table.variance.copy())
    bad.variance[0, 1] = value
    path = str(tmp_path / "p.covtab")
    save_covtab(bad, path)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: table "
                       "contains NaN or infinite entries"):
        load_covtab(path)


def test_covtab_refuses_every_truncation_with_its_line(tiny_table,
                                                     tmp_path):
    # Every prefix of a table's text that stops short of its "end" line,
    # inside a row or between rows, is refused with a ValueError naming
    # the file and a line.
    path = tmp_path / "t.covtab"
    save_covtab(tiny_table, str(path))
    text = path.read_text()
    loads_covtab(text[:-1])
    for cut in range(len("covtab/1"), len(text) - 1):
        with pytest.raises(ValueError, match=r"^t\.covtab:\d+: "):
            loads_covtab(text[:cut], label="t.covtab")
    lines = text.splitlines(keepends=True)
    with pytest.raises(ValueError, match=f"^t.covtab:{len(lines) - 2}: "
                       "the file ends before its 'end' line"):
        loads_covtab("".join(lines[:-2]), label="t.covtab")


@pytest.mark.parametrize("row, message", [
    ("0.1 oops 0.3\n", "could not convert string to float: 'oops'"),
    ("0.1 0.2\n", "could not broadcast"),
    ("0.1 0.2 0.3 0.4\n", "could not broadcast"),
])
def test_covtab_names_the_line_of_a_malformed_row(tiny_table, tmp_path,
                                                  row, message):
    path = tmp_path / "t.covtab"
    save_covtab(tiny_table, str(path))
    lines = path.read_text().splitlines(keepends=True)
    at = lines.index("block correlation 6 3 3\n") + 4    # its fourth row
    lines[at] = row
    with pytest.raises(ValueError, match=f"^t.covtab:{at + 1}: {message}"):
        loads_covtab("".join(lines), label="t.covtab")


def test_covtab_refuses_misplaced_lines_and_unfitting_blocks(tiny_table,
                                                            tmp_path):
    path = tmp_path / "t.covtab"
    save_covtab(tiny_table, str(path))
    lines = path.read_text().splitlines(keepends=True)
    at = lines.index("block correlation 6 3 3\n")
    extra = lines[:at] + ["0.1 0.2 0.3\n"] + lines[at:]
    with pytest.raises(ValueError, match=f"^t.covtab:{at + 1}: expected a "
                       "block"):
        loads_covtab("".join(extra), label="t.covtab")
    at = lines.index("block variance 3 3\n")
    huge = lines[:at] + ["block variance 3 300000000000\n"] + lines[at + 1:]
    with pytest.raises(ValueError, match=f"^t.covtab:{at + 1}: "):
        loads_covtab("".join(huge), label="t.covtab")
    narrow = [("grid 0.5 0.7\n" if ln.startswith("grid ") else ln)
              for ln in lines]
    with pytest.raises(ValueError, match="^t.covtab: block shapes do not "
                       "fit the grid and ratios"):
        loads_covtab("".join(narrow), label="t.covtab")


def test_covtab_interrupted_save_leaves_the_previous_file(tiny_table,
                                                          tmp_path):
    # A save that fails part-way, after the variance block, leaves the
    # file it would have replaced as it was, and no other file.
    class Interrupted(Exception):
        pass

    class Unwritable:
        def __format__(self, spec):
            raise Interrupted

    path = tmp_path / "t.covtab"
    save_covtab(tiny_table, str(path))
    before = path.read_bytes()
    correlation = tiny_table.correlation.astype(object)
    correlation[2, 1, 1] = Unwritable()
    with pytest.raises(Interrupted):
        save_covtab(dataclasses.replace(tiny_table, correlation=correlation),
                    str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.covtab"]
    load_covtab(str(path))


def test_shipped_table_saves_back_byte_for_byte(full_table, tmp_path):
    import dccatest
    from dccatest.cli import DEFAULT_TABLE_RESOURCE
    shipped = os.path.join(os.path.dirname(dccatest.__file__), "data",
                           DEFAULT_TABLE_RESOURCE)
    path = tmp_path / "copy.covtab"
    save_covtab(full_table, str(path))
    assert path.read_bytes() == open(shipped, "rb").read()


def test_ratio_lookup_snaps_toward_one(tiny_table):
    tab = tiny_table
    # ratios tabulated: 0.05, 0.1, 0.2, 0.4, 0.7, 1.0 (approximately,
    # snapped to integer window sizes)
    idx = tab.ratio_index(0.35)
    assert tab.ratios[idx] >= 0.35
    # below the smallest tabulated ratio: reuse the smallest (floor rule)
    assert tab.ratio_index(0.001) == 0


@st.composite
def _grid_ranges(draw):
    """A Hurst grid and a range whose ends lie on or off it."""
    grid = np.array(sorted(draw(st.sets(st.integers(500, 990), min_size=1,
                                        max_size=8)))) / 1000.0
    ends = st.one_of(st.sampled_from(list(grid)), st.floats(0.3, 1.3))
    low, high = sorted((draw(ends), draw(ends)))
    return grid, low, high


@settings(max_examples=300, deadline=None)
@given(case=_grid_ranges())
@example(case=(np.array(DEFAULT_GRID), 0.55, 0.99))
def test_cover_cuts_a_range_to_the_grid(case):
    # The covering nodes reach [lo, hi], the range cut to the grid, and at
    # most one of them lies beyond it on either side.
    grid, low, high = case
    nh = len(grid)
    table = CovTable(degree=1, n_tab=128, grid=grid, ratios=np.ones(1),
                     variance=np.zeros((nh, nh)),
                     correlation=np.zeros((1, nh, nh)),
                     auto_mean=np.zeros(nh))
    nodes, lo, hi = table.cover(low, high)
    assert (lo, hi) == tuple(min(max(v, grid[0]), grid[-1])
                             for v in (low, high))
    assert nodes.size >= 1 and 0 <= nodes[0] and nodes[-1] < nh
    assert np.array_equal(nodes, np.arange(nodes[0], nodes[-1] + 1))
    assert grid[nodes[0]] <= lo + 1e-12 and grid[nodes[-1]] >= hi - 1e-12
    assert np.sum(grid[nodes] < lo - 1e-12) <= 1
    assert np.sum(grid[nodes] > hi + 1e-12) <= 1


def test_rho_null_cov_structure(tiny_table):
    scales = (50, 158, 500)
    cov = rho_null_cov(scales, 10_000, 0.7, 0.8, tiny_table)
    diag = np.diag(cov.matrix)
    assert np.all(diag > 0) and np.all(np.isfinite(diag))
    assert np.allclose(cov.matrix, cov.matrix.T)
    eig = np.linalg.eigvalsh(cov.matrix)
    assert eig[0] >= -1e-8 * np.trace(cov.matrix)
    # Diagonal entry is the tabulated scaled variance over the squared
    # geometric mean of the DFA means.
    vlim = tiny_table.variance_at(0.7, 0.8)
    n = scales[0]
    expected = vlim * n ** (2 * 1.5) / (
        fluct_mean_exact(n, 0.7, 1) * fluct_mean_exact(n, 0.8, 1))
    assert diag[0] == pytest.approx(expected, rel=1e-12)


def test_rho_null_cov_hurst_range_errors(tiny_table):
    with pytest.raises(ValueError):
        rho_null_cov((50, 100), 5000, 0.45, 0.7, tiny_table)
    with pytest.raises(ValueError):
        rho_null_cov((50, 100), 5000, 0.7, 0.99, tiny_table)


def test_worst_case_dominance_tiny(tiny_table):
    scales = (30, 90, 270)
    wc = worst_case_cov(scales, 8000, (0.5, 0.9), (0.5, 0.9), tiny_table)
    wc_corr = wc.matrix / np.sqrt(np.outer(np.diag(wc.matrix),
                                           np.diag(wc.matrix)))
    for h in tiny_table.grid:
        for g in tiny_table.grid:
            exact = rho_null_cov(scales, 8000, float(h), float(g), tiny_table)
            assert np.all(np.diag(wc.matrix) >= np.diag(exact.matrix) - 1e-12)
            ex_corr = exact.matrix / np.sqrt(np.outer(
                np.diag(exact.matrix), np.diag(exact.matrix)))
            assert np.all(wc_corr >= ex_corr - 1e-12)


def test_worst_case_collapsed_range_equals_exact(tiny_table):
    scales = (30, 90)
    wc = worst_case_cov(scales, 4000, (0.7, 0.7), (0.9, 0.9), tiny_table)
    exact = rho_null_cov(scales, 4000, 0.7, 0.9, tiny_table)
    assert np.allclose(wc.matrix, exact.matrix, rtol=0, atol=0)


def test_worst_case_range_validation(tiny_table):
    with pytest.raises(ValueError):
        worst_case_cov((30, 90), 4000, (0.9, 0.7), (0.5, 0.9), tiny_table)
    with pytest.raises(ValueError):
        worst_case_cov((30, 90), 4000, (0.4, 0.7), (0.5, 0.9), tiny_table)


def test_null_cov_window_counts(tiny_table):
    cov = rho_null_cov((50, 100), 1000, 0.7, 0.7, tiny_table)
    assert np.array_equal(cov.window_counts, [20, 10])
    bounds = cov.rho_bounds(2.0)
    manual = 2.0 * np.sqrt(np.diag(cov.matrix) / np.array([20, 10]))
    assert np.allclose(bounds, manual, rtol=1e-12)
