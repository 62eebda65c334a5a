import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from dccatest.asymptotics import NullCovariance, rho_null_cov, worst_case_cov
from dccatest.series import SeriesPair, make_scales
from dccatest.simulate import SimSpec, add_trend, generate
from dccatest.fbm import FbmParams
from dccatest.testkit import (_CHUNK, _THETA_TOL, LATTICE_POINTS,
                              LATTICE_SHIFTS, GaussianTailPool, LatticeTail,
                              TestConfig, _branch_levels, pool_normals,
                              stat_dcca, statistic_direction)
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
    assert 0.04 <= p <= 0.05


def test_crit_threshold_monotone_in_level():
    pool = GaussianTailPool(np.eye(2), 2, 200_000, seed=9)
    thetas = [pool.threshold(p) for p in (0.2, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(thetas, thetas[1:]))


def test_crit_threshold_below_zero():
    # kappa = r = 10 of independent coordinates: T > 0 only when all ten
    # share a sign (probability 2^-9), so the 5 % theta* is negative.
    pool = GaussianTailPool(np.eye(10), 10, 200_000, seed=3)
    theta = pool.threshold(0.05)
    assert theta < 0.0
    assert pool.prob_above(theta)[0] <= 0.05
    assert pool.prob_above(np.nextafter(theta, -np.inf))[0] > 0.05


def test_threshold_uses_the_decisions_inequality():
    # level * M = 5,000 draws lie above a gap (1.005, 1.015).  A statistic
    # in the gap has p = level and is rejected, so theta* is the gap's
    # lower draw: the strict tail < level gave 1.015, above the rejected
    # statistic.
    pool = GaussianTailPool(np.eye(1), 1, 100_000, seed=0)
    pool.values = np.concatenate([np.linspace(-3.0, 1.005, 95_000),
                                  np.linspace(1.015, 4.0, 5_000)])
    theta = pool.threshold(0.05)
    assert theta == 1.005
    stat = 1.006
    assert pool.p_values(stat)[0] <= 0.05
    assert stat >= theta
    assert pool.p_values(np.nextafter(theta, -np.inf))[0] > 0.05


def test_threshold_stderr_matches_the_quantile_law():
    # r = 1 with identity covariance: the statistic is |Z|, whose density
    # at its 5 % point 1.96 is 2 phi(1.96), so the standard error of the
    # 4 * 10^5-draw quantile is sqrt(p (1 - p) / M) / (2 phi(1.96)).
    level, samples = 0.05, 400_000
    pool = GaussianTailPool(np.eye(1), 1, samples, seed=4)
    law = math.sqrt(level * (1.0 - level) / samples) \
        / (2.0 * norm.pdf(norm.isf(level / 2.0)))
    assert pool.threshold_stderr(level) == pytest.approx(law, rel=0.2)


def test_factor_falls_back_to_eigenvectors_only_for_round_off():
    # A singular covariance fails Cholesky and is factored through its
    # eigenvalues; a negative eigenvalue beyond round-off is refused.
    pool = GaussianTailPool(np.ones((2, 2)), 2, 100_000, seed=0)
    assert np.isfinite(pool.values).all()
    with pytest.raises(RuntimeError, match=re.escape(
            "covariance factorization failed (eigmin -1.000e-03)")):
        GaussianTailPool(np.array([[1.0, 1.001], [1.001, 1.0]]), 2,
                         100_000, seed=0)


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
    # theta* is the smallest value whose tail is at most the level, the
    # inequality of the decision.  For kappa = r and kappa < r: T is
    # rejected exactly when it reaches theta*.
    pool = decision_pools[which]
    theta = pool.threshold(level)
    assert pool.prob_above(theta)[0] <= level \
        < pool.prob_above(np.nextafter(theta, -np.inf))[0]
    stat = theta + offset
    assert (pool.p_values(stat)[0] <= level) == (stat >= theta)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4),
       ties=st.booleans(), data=st.data())
def test_decision_turns_at_the_crossing_draw(seed, r, ties, data):
    # p <= level holds exactly when the statistic reaches theta*: at
    # theta* and one ulp either side, also where draws tie.
    a = np.random.default_rng(seed).standard_normal((r, r))
    kappa = data.draw(st.integers(1, r))
    pool = GaussianTailPool(a @ a.T + np.eye(r), kappa, 100_000, seed)
    if ties:
        pool.values = np.round(pool.values, 2)
    levels = data.draw(st.lists(st.floats(1e-5, 0.999), min_size=8,
                                max_size=8))
    for level in levels:
        draw = pool.threshold(level)
        for t in (np.nextafter(draw, -np.inf), draw,
                  np.nextafter(draw, np.inf)):
            assert (pool.p_values(t)[0] <= level) == (t >= draw)


def _default_null(table, n_samples, mode=("known", 0.7, 0.8)):
    """The null covariance of ``analyze``'s default scales."""
    scales = make_scales(n_samples, 20, n_samples // 20, 10, 1).scales
    if mode[0] == "known":
        return rho_null_cov(scales, n_samples, *mode[1:], table).matrix
    return worst_case_cov(scales, n_samples, mode[1:3], mode[3:], table).matrix


@pytest.mark.parametrize("n_samples, t", [(20_000, 0.09),
                                          (1_000_000, -0.2)])
def test_lattice_tail_matches_the_pool(full_table, n_samples, t):
    # Near the 5 % point of the shipped table's known (0.7, 0.8) null,
    # above 0 at N = 2e4 and below it (two integrals) at N = 1e6, within
    # 3 combined standard errors; the lattice's 3 SE is at most the
    # 10^6-draw pool's SE there, 2.2e-4.
    cov = _default_null(full_table, n_samples)
    p, se = LatticeTail(cov, 0).prob_above(t)
    q, qse = GaussianTailPool(cov, 10, 400_000, seed=1).prob_above(t)
    assert 0.04 < q < 0.06
    assert abs(p - q) <= 3.0 * math.hypot(se, qse)
    assert 0.0 < 3.0 * se <= 2.2e-4


@pytest.mark.parametrize("n_samples, t", [(20_000, 0.0907),
                                          (1_000_000, -0.2)])
def test_lattice_tail_matches_genz_bretz(full_table, n_samples, t):
    # scipy's Genz-Bretz integrator at 1e-6: 2 Pr(all s_i < -t), less
    # the box (t, -t)^r below 0.
    from scipy.stats import multivariate_normal
    cov = _default_null(full_table, n_samples)
    std = np.sqrt(np.diag(cov))
    opts = dict(mean=np.zeros(10), cov=cov / np.outer(std, std),
                abseps=1e-6, releps=1e-6, rng=np.random.default_rng(0))
    upper = np.full(10, -t)
    ref = 2.0 * multivariate_normal.cdf(upper, **opts)
    if t < 0:
        ref -= multivariate_normal.cdf(upper, lower_limit=-upper, **opts)
    p, se = LatticeTail(cov, 0).prob_above(t)
    assert abs(p - ref) <= 3.0 * se + 2e-6


def test_lattice_tail_in_one_dimension():
    # r = 1: no lattice dimension; Pr(|s| > t) from the Chebyshev erfc,
    # 1 below 0, and theta* the level's two-sided normal quantile.
    tail = LatticeTail(np.eye(1) * 2.5, 3)
    for t in (0.0, 0.5, 1.96, 4.0, 8.0):
        p, se = tail.prob_above(t)
        assert p == pytest.approx(2.0 * norm.sf(t), rel=3e-7)
        assert se == 0.0
    assert tail.prob_above(-0.7)[0] == pytest.approx(1.0, abs=1e-15)
    p, se = tail.prob_above(0.3)
    theta, theta_se = tail.threshold(0.05, 0.3, (p, se))
    assert theta == pytest.approx(norm.isf(0.025), abs=2 * _THETA_TOL)
    assert theta_se == 0.0


def test_lattice_tail_refuses_a_singular_covariance():
    # A variable that the earlier ones determine has no conditional
    # spread left to integrate over: an internal error (exit 4).
    with pytest.raises(RuntimeError, match=re.escape(
            "covariance factorization failed (pivot 0.000e+00)")):
        LatticeTail(np.ones((3, 3)), 0)


@pytest.fixture(scope="module")
def lattice_nulls(full_table):
    a = np.random.default_rng(4).standard_normal((3, 3))
    return [_default_null(full_table, 20_000),
            _default_null(full_table, 1_000_000),
            _default_null(full_table, 2_000, ("range", 0.6, 0.8, 0.7, 0.9)),
            a @ a.T + np.eye(3)]


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       start=st.floats(-2.0, 3.0),
       steps=st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=5),
       level=st.floats(1e-3, 0.3),
       offset=st.one_of(st.floats(-1.0, 1.0), st.floats(-2e-6, 2e-6)))
def test_lattice_tail_is_monotone_and_decides_at_theta(
        lattice_nulls, which, seed, start, steps, level, offset):
    # On one lattice the estimate is non-increasing in t, and a
    # statistic is rejected (p <= level) exactly when it reaches theta*,
    # also inside the bracket a search from afar closed: the statistic's
    # own tail decides there.  Both searches end within the bracket
    # width of the root.
    tail = LatticeTail(lattice_nulls[which], seed)
    ps = [tail.prob_above(t)[0] for t in start + np.cumsum([0.0, *steps])]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    far, _ = tail.threshold(level, 10.0, tail.prob_above(10.0))
    stat = far + offset
    p, se = tail.prob_above(stat)
    theta, theta_se = tail.threshold(level, stat, (p, se))
    assert (p <= level) == (stat >= theta)
    assert abs(theta - far) <= _THETA_TOL
    assert theta_se > 0.0


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
    assert outcome.p_value == 1.0 / 150_000
    assert outcome.tail == {"method": "lattice", "points": LATTICE_POINTS,
                            "shifts": LATTICE_SHIFTS}


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
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
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
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=3))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, hurst_mode=("known", 0.5,
                                                           0.5)),
                        tiny_table)
    assert any("0.55" in note for note in outcome.warnings)


def test_stat_dcca_notes_an_estimate_far_below_the_floor(full_table):
    # Differenced white noise (DFA H near 0) against the G series of a
    # bfGn pair: every Hurst mode notes the estimate, which auto mode
    # would otherwise raise to 0.5 without a word.
    n_samples = 20_000
    pair = generate(SimSpec(kind="bfgn", n_samples=n_samples,
                            params=FbmParams(hurst1=0.7, hurst2=0.8),
                            seed=3))
    white = np.random.default_rng(3).standard_normal(n_samples + 1)
    pair = SeriesPair.from_increments(np.diff(white), pair.y2)
    ss = make_scales(n_samples, 20, n_samples // 20, 10, 1)
    for mode in (("known", 0.7, 0.8), ("range", 0.6, 0.8, 0.7, 0.9),
                 ("auto",)):
        outcome = stat_dcca(pair, _test_config(ss, hurst_mode=mode,
                                               mc_samples=100_000),
                            full_table)
        assert outcome.hurst1.h_hat < 0.4 < 0.6 < outcome.hurst2.h_hat
        notes = [note for note in outcome.warnings if "floor" in note]
        assert notes == [f"DFA estimate H={outcome.hurst1.h_hat:.3f} lies "
                         "more than 0.1 below the model's floor 0.5; the "
                         "null covariance assumes an exponent of at least "
                         "0.5"]


def test_stat_dcca_reports_ratio_floor(tiny_table):
    # Scales 10, 23, 52, 117, 265, 600: three pairs (10/265, 10/600,
    # 23/600) lie below the table's smallest ratio 6/128 and reuse it.
    params = FbmParams(hurst1=0.7, hurst2=0.8)
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
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
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
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
    pair = generate(SimSpec(kind="bfgn", n_samples=n_samples, params=params,
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
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
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
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=13))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, kappa=ss.r - 1), tiny_table)
    assert 0.0 < outcome.p_value <= 1.0
    # p is the kth-order pool's own floored tail, read from the pool
    # that gives the threshold.
    pool = GaussianTailPool(outcome.null_cov.matrix, ss.r - 1, 150_000,
                            seed=0)
    assert outcome.threshold == pool.threshold(0.05)
    assert outcome.threshold_stderr == pool.threshold_stderr(0.05)
    assert outcome.p_value == pool.p_values(outcome.statistic)[0]
    assert outcome.tail == {"method": "pool", "draws": 150_000}


def test_stat_dcca_kappa_r_takes_the_lattice_tail(tiny_table):
    # kappa = r reads p, its error, theta* and its error from the
    # lattice of the configured seed, with p floored at 1/mc_samples.
    params = FbmParams(hurst1=0.7, hurst2=0.8, rho=0.1)
    pair = generate(SimSpec(kind="bfgn", n_samples=6000, params=params,
                            seed=13))
    ss = make_scales(6000, 20, 300, 6, 1)
    outcome = stat_dcca(pair, _test_config(ss, seed=4), tiny_table)
    tail = LatticeTail(outcome.null_cov.matrix, 4)
    p, se = tail.prob_above(outcome.statistic)
    assert (outcome.p_value, outcome.p_stderr) == (max(p, 1 / 150_000), se)
    assert (outcome.threshold, outcome.threshold_stderr) == \
        tail.threshold(0.05, outcome.statistic, (p, se))
    assert outcome.reject == (outcome.statistic >= outcome.threshold)


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
