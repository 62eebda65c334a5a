import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from dccatest.asymptotics import NullCovariance, rho_null_cov
from dccatest.series import SeriesPair, make_scales
from dccatest.simulate import SimSpec, add_trend, gen_bfgn
from dccatest.fbm import FbmParams
from dccatest.testkit import (_CHUNK, GaussianTailPool, TestConfig,
                              _branch_levels, pool_normals, stat_dcca,
                              statistic_direction)
from dccatest.testkit import test_statistic as joint_statistic


def _identity_cov(r):
    return NullCovariance(matrix=np.eye(r), scales=tuple(10 * (i + 1)
                                                         for i in range(r)),
                          n_samples=1000,
                          provenance=("exact", 0.7, 0.7))


def test_statistic_trivial_cases():
    c3 = _identity_cov(3)
    assert joint_statistic(np.array([0.1, 3.0, 0.2]), c3, 1) == 3.0
    assert joint_statistic(np.array([0.5, 1.5, 2.5]), c3, 2) == 1.5
    assert joint_statistic(np.array([2.0, 2.0, 2.0]), c3, 3) == 2.0
    # Negative branch wins when all values are negative.
    assert joint_statistic(np.array([-3.0, -2.0, -4.0]), c3, 2) == 3.0


def test_statistic_uses_covariance_diagonal():
    cov = NullCovariance(matrix=np.diag([4.0, 1.0]), scales=(10, 20),
                         n_samples=400,
                         provenance=("exact", 0.7, 0.7))
    assert joint_statistic(np.array([4.0, 1.0]), cov, 2) == 1.0


def test_statistic_validation():
    c2 = _identity_cov(2)
    with pytest.raises(ValueError):
        joint_statistic(np.array([1.0]), c2, 1)
    with pytest.raises(ValueError):
        joint_statistic(np.array([1.0, 2.0]), c2, 3)


def test_statistic_rows_match_vectors(rng):
    # A (replicates, r) matrix is scored row by row, bit for bit.
    c4 = NullCovariance(matrix=np.diag([1.0, 2.0, 0.5, 3.0]),
                        scales=(10, 20, 40, 80), n_samples=1000,
                        provenance=("exact", 0.7, 0.7))
    rows = rng.standard_normal((50, 4))
    for kappa in (1, 2, 3, 4):
        stats = joint_statistic(rows, c4, kappa)
        assert stats.shape == (50,)
        assert stats.tolist() == [joint_statistic(v, c4, kappa)
                                  for v in rows]
    assert statistic_direction(np.array([-3.0, -2.0, -4.0]),
                               _identity_cov(3), 2) == "negative"


def test_exceedance_univariate_tail():
    pool = GaussianTailPool(np.eye(1), 1, 200_000, seed=7)
    p, se = pool.p_values(1.6449)
    assert abs(p - 0.10) < 4 * se + 1e-3
    # No draw lies above 20: the raw tail is 0, the p-value its floor.
    assert pool.prob_above(20.0)[0] == 0.0
    assert pool.p_values(20.0)[0] == 1.0 / 200_000


def test_exceedance_deterministic():
    a = GaussianTailPool(np.eye(2), 2, 150_000, seed=3).p_values(1.0)
    b = GaussianTailPool(np.eye(2), 2, 150_000, seed=3).p_values(1.0)
    assert a == b
    c = GaussianTailPool(np.eye(2), 2, 150_000, seed=4).p_values(1.0)
    assert a != c


def _whole_chunk_pool(matrix, kappa, samples, seed):
    """Pool values drawn and reduced one whole chunk at a time."""
    factor = np.linalg.cholesky(matrix)
    std = np.sqrt(np.diag(matrix))
    n_chunks = -(-samples // _CHUNK)
    parts = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        count = min(_CHUNK, samples - i * _CHUNK)
        draws = np.random.default_rng(child).standard_normal((count,
                                                              len(std)))
        s = (draws @ factor.T) / std
        ordered = np.sort(s, axis=1)
        parts.append(np.maximum(ordered[:, len(std) - kappa],
                                -ordered[:, kappa - 1]))
    return np.sort(np.concatenate(parts))


@pytest.mark.parametrize("r", [3, 10, 25])
def test_pool_matches_whole_chunk_draws(r):
    """Blocked filling on threads gives the values of one draw, one
    product and one sort per chunk, bit for bit, whether the pool draws
    its own normals or takes them from ``pool_normals``."""
    a = np.random.default_rng(r).standard_normal((r, r))
    matrix = a @ a.T + r * np.eye(r)
    samples = 2 * _CHUNK + 5
    normals = pool_normals(samples, r, seed=r)
    for kappa in (r, r - 1, 1):
        pool = GaussianTailPool(matrix, kappa, samples, seed=r)
        ref = _whole_chunk_pool(matrix, kappa, samples, r)
        assert np.array_equal(pool.values, ref), kappa
        shared = GaussianTailPool(matrix, kappa, samples, seed=r,
                                  normals=normals)
        assert shared.values.tobytes() == pool.values.tobytes(), kappa


_LEVEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(s=st.integers(1, 12).flatmap(lambda r: st.one_of(
           arrays(float, r, elements=_LEVEL_VALUES),
           arrays(float, st.tuples(st.integers(0, 6), st.just(r)),
                  elements=_LEVEL_VALUES))),
       top=st.booleans())
def test_branch_levels_selection_matches_sort(s, top):
    """For kappa = 1 and r the min/max selection gives the levels of the
    row sort, with ties, signed zeros, infinities and NaN, for 1-D rows
    and for matrices."""
    r = s.shape[-1]
    kappa = r if top else 1
    ordered = np.sort(s, axis=-1)
    upper, lower = _branch_levels(s, kappa)
    assert np.array_equal(upper, ordered[..., r - kappa], equal_nan=True)
    assert np.array_equal(lower, -ordered[..., kappa - 1], equal_nan=True)
    assert np.shape(upper) == np.shape(lower) == s.shape[:-1]


def test_crit_threshold_univariate():
    pool = GaussianTailPool(np.eye(1), 1, 400_000, seed=11)
    assert pool.threshold(0.05) == pytest.approx(1.96, abs=0.02)
    assert pool.threshold(0.5) == pytest.approx(0.674, abs=0.02)


def test_crit_threshold_self_consistency(tiny_table):
    cov = rho_null_cov((20, 60, 180), 4000, 0.7, 0.9, tiny_table)
    pool = GaussianTailPool(cov.matrix, 3, 300_000, seed=5)
    p, _ = pool.p_values(pool.threshold(0.05))
    assert 0.04 <= p < 0.05


def test_crit_threshold_monotone_in_level():
    pool = GaussianTailPool(np.eye(2), 2, 200_000, seed=9)
    thetas = [pool.threshold(p) for p in (0.2, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(thetas, thetas[1:]))


def test_crit_threshold_below_zero():
    # kappa = r = 10 of independent coordinates: T > 0 only when all ten
    # share a sign (probability 2^-9), so the 5 % crossing is negative.
    pool = GaussianTailPool(np.eye(10), 10, 200_000, seed=3)
    theta = pool.threshold(0.05)
    assert theta < 0.0
    assert pool.prob_above(theta)[0] <= 0.05
    assert pool.prob_above(theta - 0.01)[0] > 0.05


def test_threshold_uses_the_decisions_inequality():
    # level * M = 5,000 draws lie above a gap across the 1.01 grid line.
    # A statistic in the gap has p = level and is rejected, so theta*
    # is 1.01: the strict tail < level gave 1.02, more than one grid
    # step above the rejected statistic.
    pool = GaussianTailPool(np.eye(1), 1, 100_000, seed=0)
    pool.values = np.concatenate([np.linspace(-3.0, 1.005, 95_000),
                                  np.linspace(1.015, 4.0, 5_000)])
    theta = pool.threshold(0.05)
    assert theta == 101 * 0.01
    stat = 1.006
    assert pool.p_values(stat)[0] <= 0.05
    assert stat > theta - 0.01


@pytest.fixture(scope="module")
def decision_pools():
    a = np.random.default_rng(5).standard_normal((5, 5))
    matrix = a @ a.T + 5.0 * np.eye(5)
    return [GaussianTailPool(matrix, kappa, 100_000, seed=kappa)
            for kappa in (5, 4, 2)]


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 2), level=st.floats(0.001, 0.5),
       offset=st.floats(-0.5, 0.5))
def test_threshold_and_decision_agree(decision_pools, which, level, offset):
    # theta* is the smallest 0.01 grid point whose tail is at most the
    # level, the inequality of the decision.  For kappa = r and
    # kappa < r: T > theta* rejects, and a rejected T lies above theta*
    # less one grid step.
    pool = decision_pools[which]
    theta = pool.threshold(level)
    assert theta == round(theta / 0.01) * 0.01
    assert pool.prob_above(theta)[0] <= level
    assert pool.prob_above(theta - 0.01)[0] > level
    stat = theta + offset
    reject = pool.p_values(stat)[0] <= level
    if stat > theta:
        assert reject
    if reject:
        assert stat > theta - 0.01


def test_pvalue_kappa_r_definitional():
    pool = GaussianTailPool(np.eye(2), 2, 200_000, seed=21)
    t_obs = 1.3
    assert pool.p_values(t_obs) == pool.prob_above(t_obs)


@pytest.mark.parametrize("t_obs", [0.5, 1.0, 1.5])
def test_pvalue_kappa_below_r_closed_form(t_obs):
    # Identity C, r = 3, kappa = 2: T > t > 0 when two of the three
    # coordinates exceed t or two lie below -t, two disjoint events of
    # probability 3q^2 - 2q^3 each, with q = 1 - Phi(t).
    q = 1.0 - norm.cdf(t_obs)
    exact = 2.0 * (3.0 * q ** 2 - 2.0 * q ** 3)
    p, se = GaussianTailPool(np.eye(3), 2, 400_000, seed=2).p_values(t_obs)
    assert abs(p - exact) <= 4.0 * se


def test_pvalue_monotone_in_statistic():
    pool = GaussianTailPool(np.eye(3), 3, 200_000, seed=6)
    ps, _ = pool.p_values(np.array([0.0, 0.5, 1.0, 2.0, 3.0]))
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_pvalues_array_matches_scalars():
    # The vectorised p-values equal the scalar ones, for kappa = r and
    # kappa < r, from 1 down to the 1/samples floor.
    stats = np.array([-1.0, 0.0, 0.4, 1.0, 2.5, 30.0])
    for kappa in (3, 2):
        pool = GaussianTailPool(np.eye(3), kappa, 100_000, seed=8)
        ps, ses = pool.p_values(stats)
        scalar = [pool.p_values(float(t)) for t in stats]
        assert ps.tolist() == [p for p, _ in scalar]
        assert ses.tolist() == [se for _, se in scalar]
        assert ps.max() <= 1.0 and ps.min() == 1e-5
    assert ps[0] == 1.0  # kappa = 2 of 3: T = |median| > -1 in every draw


def test_pool_floor_and_validation():
    c1 = np.eye(1)
    with pytest.raises(ValueError):
        GaussianTailPool(c1, 1, 10_000, seed=0)  # below MC minimum
    with pytest.raises(ValueError):
        GaussianTailPool(c1, 2, 200_000, seed=0)  # kappa > r
    pool = GaussianTailPool(c1, 1, 100_000, seed=0)
    assert pool.p_values(30.0)[0] == 1e-5
    with pytest.raises(ValueError):
        pool.threshold(1e-6)  # below the 1/samples resolution
    for shape in ((100_000, 2), (100_001, 1), (1, 100_000), (100_000,)):
        with pytest.raises(ValueError, match="normals have shape"):
            GaussianTailPool(c1, 1, 100_000, seed=0, normals=np.zeros(shape))


def _test_config(scale_set, **kw):
    defaults = dict(level=0.05, hurst_mode=("known", 0.7, 0.8),
                    mc_samples=150_000, seed=0)
    defaults.update(kw)
    return TestConfig(scale_set=scale_set, **defaults)


def test_stat_dcca_identical_series(tiny_table, rng):
    y = rng.standard_normal(4000)
    pair = SeriesPair.from_increments(y, y.copy())
    ss = make_scales(4000, 20, 200, 5, 1)
    outcome = stat_dcca(pair, _test_config(ss), tiny_table)
    assert np.allclose(outcome.rho, 1.0, atol=1e-12)
    assert outcome.reject
    assert outcome.direction == "positive"
    assert outcome.p_value <= 1.0 / 150_000 + 1e-12


def test_stat_dcca_refuses_a_table_of_another_degree(tiny_table, rng):
    # A hand-built configuration whose scales are detrended at degree 2
    # cannot use the degree-1 table's covariance.
    y = rng.standard_normal((2, 4000))
    pair = SeriesPair.from_increments(*y)
    ss = make_scales(4000, 20, 200, 5, 2)
    with pytest.raises(ValueError, match="degree 1, not 2"):
        stat_dcca(pair, _test_config(ss), tiny_table)


def test_stat_dcca_decision_invariances(tiny_table):
    params = FbmParams(hurst1=0.7, hurst2=0.8, rho=0.3)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=42))
    ss = make_scales(6000, 20, 300, 6, 1)
    config = _test_config(ss)
    base = stat_dcca(pair, config, tiny_table)

    # Positive scaling of either series leaves rho and the decision alone.
    scaled = SeriesPair.from_increments(3.5 * pair.y1, pair.y2)
    out_scaled = stat_dcca(scaled, config, tiny_table)
    assert np.allclose(out_scaled.rho, base.rho, atol=1e-9)
    assert out_scaled.reject == base.reject
    assert out_scaled.statistic == pytest.approx(base.statistic, abs=1e-9)

    # Degree-d polynomial trends on the profiles change nothing.
    trended = add_trend(pair, (5.0, 0.01), (-2.0, 0.03), target="profile")
    out_trend = stat_dcca(trended, config, tiny_table)
    assert np.allclose(out_trend.rho, base.rho, atol=1e-9)
    assert out_trend.reject == base.reject

    # Negating one series flips every rho and the direction, not |T|.
    flipped = SeriesPair.from_increments(pair.y1, -pair.y2)
    out_flip = stat_dcca(flipped, config, tiny_table)
    assert np.allclose(out_flip.rho, -base.rho, atol=1e-12)
    assert out_flip.statistic == pytest.approx(base.statistic, abs=1e-12)
    assert out_flip.p_value == base.p_value
    assert out_flip.reject == base.reject
    if base.reject:
        assert {base.direction, out_flip.direction} == {"positive",
                                                        "negative"}


def test_stat_dcca_white_noise_warning(tiny_table):
    params = FbmParams(hurst1=0.5, hurst2=0.5)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=3))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, hurst_mode=("known", 0.5,
                                                           0.5)),
                        tiny_table)
    assert any("0.55" in note for note in outcome.warnings)


def test_stat_dcca_reports_ratio_floor(tiny_table):
    # Scales 10, 23, 52, 117, 265, 600: three pairs (10/265, 10/600,
    # 23/600) lie below the table's smallest ratio 6/128 and reuse it.
    params = FbmParams(hurst1=0.7, hurst2=0.8)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=5))
    ss = make_scales(6000, 10, 600, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss), tiny_table)
    notes = [note for note in outcome.warnings if "ratio" in note]
    assert len(notes) == 1
    assert notes[0].startswith("3 scale pairs lie below")
    assert "0.04688" in notes[0] and "0.01667" in notes[0]


def test_stat_dcca_reports_hurst_range_cut(tiny_table):
    # G near 0.9 has its +0.1 range cut at the grid's top node 0.9; the
    # cut of H near 0.5 at 0.5, the model's floor, is not reported.
    params = FbmParams(hurst1=0.5, hurst2=0.9)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=8))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, hurst_mode=("auto",)),
                        tiny_table)
    assert outcome.hurst1.h_hat - 0.1 < 0.5
    notes = [note for note in outcome.warnings if "range" in note]
    assert len(notes) == 1
    assert notes[0].startswith("G range") and "0.900]" in notes[0]


def test_stat_dcca_default_case_reports_no_approximation(full_table):
    # Default scales at N = 2e4 stay above the shipped table's smallest
    # ratio, and the auto ranges around H, G near 0.7, 0.8 inside its grid.
    n_samples = 20_000
    params = FbmParams(hurst1=0.7, hurst2=0.8)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=n_samples, params=params,
                            seed=1))
    ss = make_scales(n_samples, 20, n_samples // 20, 10, 1)
    for mode in (("known", 0.7, 0.8), ("auto",)):
        outcome = stat_dcca(pair, _test_config(ss, hurst_mode=mode,
                                               mc_samples=100_000),
                            full_table)
        assert outcome.warnings == ()


def test_stat_dcca_hurst_modes(tiny_table):
    # Correlated pair so the statistic lands in the right tail, where
    # the worst-case covariance must be conservative.
    params = FbmParams(hurst1=0.7, hurst2=0.9, rho=0.35)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=8))
    ss = make_scales(6000, 20, 300, 6, 1)
    known = stat_dcca(pair, _test_config(ss, hurst_mode=("known", 0.7,
                                                         0.9)), tiny_table)
    assert known.null_cov.provenance[0] == "exact"
    ranged = stat_dcca(pair, _test_config(
        ss, hurst_mode=("range", 0.6, 0.8, 0.8, 0.9)), tiny_table)
    assert ranged.null_cov.provenance[0] == "worst-case"
    auto = stat_dcca(pair, _test_config(ss, hurst_mode=("auto",)),
                     tiny_table)
    assert auto.null_cov.provenance[0] == "worst-case"
    # Worst-case covariance gives a conservative (larger) p-value in the
    # rejection-relevant tail.
    assert known.p_value < 0.05
    assert ranged.p_value >= known.p_value - 1e-9
    assert auto.p_value >= known.p_value - 1e-9


def test_stat_dcca_kappa_below_r(tiny_table):
    params = FbmParams(hurst1=0.7, hurst2=0.8, rho=0.0)
    pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=13))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, kappa=ss.r - 1), tiny_table)
    assert 0.0 < outcome.p_value <= 1.0
    # p is the kth-order pool's own floored tail, read from the pool
    # that gives the threshold.
    pool = GaussianTailPool(outcome.null_cov.matrix, ss.r - 1, 150_000,
                            seed=0)
    assert outcome.threshold == pool.threshold(0.05)
    assert outcome.p_value == pool.p_values(outcome.statistic)[0]


def test_stat_dcca_power_at_strong_correlation(full_table):
    # Correlated pairs at rho=0.4 are detected in at least 90% of
    # replicates at this length.
    from dccatest.asymptotics import rho_null_cov
    from dccatest.studies import _rho_vectors

    n_samples = 20_000
    ss = make_scales(n_samples, 20, 1000, 10, 1)
    params = FbmParams(hurst1=0.7, hurst2=0.8, rho=0.4)
    cov = rho_null_cov(ss.scales, n_samples, 0.7, 0.8, full_table)
    pool = GaussianTailPool(cov.matrix, ss.r, 200_000, seed=44)
    vectors = _rho_vectors("bfgn", params, n_samples, ss, 50, seed=909)
    p_vals, _ = pool.p_values(joint_statistic(vectors, cov, ss.r))
    assert np.sum(p_vals <= 0.05) >= 45


def test_config_validation():
    ss = make_scales(4000, 20, 200, 5, 1)
    with pytest.raises(ValueError):
        TestConfig(scale_set=ss, level=0.0)
    with pytest.raises(ValueError):
        TestConfig(scale_set=ss, kappa=9)
    with pytest.raises(ValueError):
        TestConfig(scale_set=ss, mc_samples=1000)
    with pytest.raises(ValueError):
        TestConfig(scale_set=ss, hurst_mode=("sideways",))
    # Both ranges must satisfy 0.5 <= low <= high < 1; the table grid is
    # not consulted here.
    for mode in (("range", 0.45, 0.7, 0.6, 0.8), ("range", 0.7, 0.6, 0.6, 0.8),
                 ("range", 0.6, 0.8, 0.7, 1.0), ("range", 0.6, 0.8, 0.9, 0.8),
                 ("range", 0.6, 0.8, 0.4, 0.8)):
        with pytest.raises(ValueError, match=re.escape(
                "Hurst ranges must satisfy 0.5 <= low <= high < 1")):
            TestConfig(scale_set=ss, hurst_mode=mode)
    TestConfig(scale_set=ss, hurst_mode=("range", 0.5, 0.5, 0.6, 0.999))
