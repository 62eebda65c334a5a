"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS line (visible with ``pytest -s``); a failure
raises with the measured quantity.  The heavy shared inputs (null
replicate pools) are session-scoped fixtures.
"""

import time

import numpy as np
import pytest

from dccatest.asymptotics import fluct_mean_exact, rho_null_cov
from dccatest.fbm import FbmParams
from dccatest.fluctuation import fluctuation_analysis, poly_basis, rho_dcca
from dccatest.series import SeriesPair, make_scales
from dccatest.studies import (_rho_vectors, power_study,
                              shortrange_robustness, speed_study,
                              upperbound_check)
from dccatest.testkit import GaussianTailPool
from dccatest.testkit import test_statistic as joint_statistic
from oracles import dcca_coeff, fbm_auto_cov, fluct_cov_exact

LEVEL = 0.05
CAL_N = 10_000
CAL_H, CAL_G = 0.7, 0.8


@pytest.fixture(scope="module")
def cal_scales():
    return make_scales(CAL_N, 20, 500, 10, 1)


@pytest.fixture(scope="module")
def cal_cov(full_table, cal_scales):
    return rho_null_cov(cal_scales.scales, CAL_N, CAL_H, CAL_G, full_table)


@pytest.fixture(scope="module")
def cal_tail(cal_cov):
    return GaussianTailPool(cal_cov.matrix, cal_cov.r, 400_000, seed=424)


@pytest.fixture(scope="module")
def null_vectors(cal_scales):
    """10^4 scaled rho vectors of independent bfGn pairs (criteria 4, 5)."""
    params = FbmParams(hurst1=CAL_H, hurst2=CAL_G, rho=0.0)
    return _rho_vectors("bfgn", params, CAL_N, cal_scales, 10_000, seed=101)


def _rejection_rate(vectors, cov, tail, level):
    p_vals, _ = tail.p_values(joint_statistic(vectors, cov, cov.r))
    return float(np.mean(p_vals <= level))


def test_criterion_1_rho_bounds_and_identity(rng):
    trials = 10_000
    clip_events = 0
    out_of_range = 0
    for i in range(trials):
        n_samples = 60 + (i % 7) * 40
        scale = (10, 15, 20, 30)[i % 4]
        y1 = rng.standard_normal(n_samples)
        y2 = rng.standard_normal(n_samples)
        x1, x2 = np.cumsum(y1), np.cumsum(y2)
        fc = dcca_coeff(x1, x2, scale, 1)
        fa = dcca_coeff(x1, x1, scale, 1)
        fb = dcca_coeff(x2, x2, scale, 1)
        rho = rho_dcca(fc, fa, fb)  # raises on any clipping-level breach
        if not -1.0 <= rho <= 1.0:
            out_of_range += 1
    assert out_of_range == 0
    assert clip_events == 0
    worst = 0.0
    for i in range(100):
        y = rng.standard_normal(400)
        x = np.cumsum(y)
        f = dcca_coeff(x, x, 40, 1)
        worst = max(worst, abs(rho_dcca(f, f, f) - 1.0))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 1 PASS: {trials} random inputs in [-1,1], "
          f"0 clipping events; |rho(X,X)-1| <= {worst:.2e}")


def test_criterion_2_detrending_invariance(rng):
    trials_per_degree = 34
    worst = 0.0
    n_samples = 2000
    t = np.arange(1, n_samples + 1, dtype=float)
    for d in (1, 2, 3):
        ss = make_scales(n_samples, d + 9, 250, 5, d)
        for _ in range(trials_per_degree):
            pair = SeriesPair.from_increments(rng.standard_normal(n_samples),
                                              rng.standard_normal(n_samples))
            base = fluctuation_analysis(pair, ss).rho
            amp = np.abs(pair.x1).max()
            coeffs = rng.standard_normal(d + 1) * amp \
                * (3.0 / n_samples) ** np.arange(d + 1)
            q = sum(c * t ** k for k, c in enumerate(coeffs))
            which = rng.integers(2)
            trended = SeriesPair.from_profiles(
                pair.x1 + (q if which == 0 else 0.0),
                pair.x2 + (q if which == 1 else 0.0))
            moved = fluctuation_analysis(trended, ss).rho
            worst = max(worst, float(np.max(np.abs(moved - base))))
    assert worst < 1e-9
    print(f"\nACCEPTANCE 2 PASS: degree-d trends move rho by at most "
          f"{worst:.2e} (tolerance 1e-9, 102 trials)")


def test_criterion_3_trace_formula_oracle(rng):
    n, h, g, d = 32, 0.7, 0.8, 1
    reps = 20_000
    path_len = 5 * n  # covers window offsets 0, 1, 4
    t = np.arange(1, path_len + 1, dtype=float)
    basis = poly_basis(n, d)

    def residual_windows(hurst):
        sigma = np.asarray(fbm_auto_cov(t[:, None], t[None, :], hurst))
        factor = np.linalg.cholesky(sigma + 1e-10 * np.eye(path_len))
        paths = factor @ rng.standard_normal((path_len, reps))
        wins = paths.reshape(5, n, reps)
        return wins - np.einsum("ap,pb,wbr->war", basis, basis.T, wins)

    res1 = residual_windows(h)
    res2 = residual_windows(g)
    f2_cross = np.mean(res1 * res2, axis=1)   # (5, reps)
    f2_auto = np.mean(res1 ** 2, axis=1)

    lines = []
    for j in (0, 1, 4):
        a, b = f2_cross[0], f2_cross[j]
        prod = (a - a.mean()) * (b - b.mean())
        sample_cov = prod.mean()
        se = prod.std() / np.sqrt(reps)
        theory = fluct_cov_exact(n, n, j, h, g, d, "cross")
        assert abs(sample_cov - theory) <= 3 * se, (j, sample_cov, theory, se)
        lines.append(f"cov(j={j}) dev {abs(sample_cov - theory) / se:.2f} SE")
    mean_se = f2_auto[0].std() / np.sqrt(reps)
    mean_theory = fluct_mean_exact(n, h, d)
    assert abs(f2_auto[0].mean() - mean_theory) <= 3 * mean_se
    lines.append(
        f"mean dev {abs(f2_auto[0].mean() - mean_theory) / mean_se:.2f} SE")
    print("\nACCEPTANCE 3 PASS: " + "; ".join(lines)
          + f" (3 SE bound, {reps} replicates)")


def test_criterion_4_null_calibration(null_vectors, cal_cov, cal_tail):
    rate = _rejection_rate(null_vectors[:2000], cal_cov, cal_tail, LEVEL)
    assert 0.03 <= rate <= 0.08, rate
    print(f"\nACCEPTANCE 4 PASS: Type I rate {rate:.4f} in [0.03, 0.08] "
          f"(level {LEVEL}, 2000 replicates, N={CAL_N})")


def test_kappa_below_r_null_calibration(null_vectors, cal_cov):
    # For kappa = r - 1 the p-value is the kth-order pool's own tail,
    # calibrated like kappa = r on criterion 4's replicates.
    kappa = cal_cov.r - 1
    pool = GaussianTailPool(cal_cov.matrix, kappa, 400_000, seed=424)
    stats = joint_statistic(null_vectors[:2000], cal_cov, kappa)
    rate = float(np.mean(pool.p_values(stats)[0] <= LEVEL))
    assert 0.03 <= rate <= 0.08, rate


def test_criterion_5_tail_agreement(null_vectors, cal_cov, cal_tail):
    theta = cal_tail.threshold(0.03)
    theoretical = cal_tail.p_values(theta)[0]
    stats = joint_statistic(null_vectors, cal_cov, cal_cov.r)
    simulated = float(np.mean(stats > theta))
    assert abs(simulated - theoretical) <= 0.01, (simulated, theoretical)
    print(f"\nACCEPTANCE 5 PASS: tail frequency {simulated:.4f} vs "
          f"theoretical {theoretical:.4f} (|diff| <= 0.01, 10^4 replicates)")


def test_criterion_6_non_gaussian_invariance(null_vectors, cal_cov, cal_tail,
                                             cal_scales):
    gauss_rate = _rejection_rate(null_vectors[:2000], cal_cov, cal_tail,
                                 LEVEL)
    params = FbmParams(hurst1=CAL_H, hurst2=CAL_G, rho=0.0)
    ng_vectors = _rho_vectors("nongaussian", params, CAL_N, cal_scales,
                              2000, seed=202, phi=3.0)
    ng_rate = _rejection_rate(ng_vectors, cal_cov, cal_tail, LEVEL)
    assert abs(ng_rate - gauss_rate) <= 0.03, (ng_rate, gauss_rate)
    print(f"\nACCEPTANCE 6 PASS: non-Gaussian Type I rate {ng_rate:.4f} vs "
          f"Gaussian {gauss_rate:.4f} (|diff| <= 0.03)")


def test_criterion_7_short_range_robustness(full_table):
    result = shortrange_robustness(full_table, n_samples=20_000,
                                   replicates=500, level=LEVEL, seed=303)
    joint = result["joint_rate"]
    bonf = result["bonferroni_rate"]
    assert joint <= 0.12, joint
    assert bonf >= 3.0 * joint, (bonf, joint)
    print(f"\nACCEPTANCE 7 PASS: joint test rejects {joint:.3f} <= 0.12; "
          f"Bonferroni baseline {bonf:.3f} >= 3x joint")


def test_criterion_8_worst_case_dominance(full_table):
    result = upperbound_check(full_table, n_samples=CAL_N, level=LEVEL,
                              mc_samples=400_000, seed=505)
    assert result["violations"] == 0
    n_nodes = len(full_table.grid) ** 2
    print(f"\nACCEPTANCE 8 PASS: worst-case boundary dominates exact "
          f"boundaries at all {n_nodes} grid nodes (0 violations)")


def test_criterion_9_power(full_table):
    result = power_study(full_table, rhos=(0.0, 0.05, 0.1, 0.2),
                         n_samples=40_000, replicates=100, level=LEVEL,
                         seed=606)
    rates = result["rates"]
    assert rates[0.1] > 0.5, rates
    values = [rates[k] for k in (0.0, 0.05, 0.1, 0.2)]
    mc_slack = 2.0 * np.sqrt(0.25 / 100)  # two binomial SE at p=0.5
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - mc_slack, values
    print(f"\nACCEPTANCE 9 PASS: power at rho=0.10 is {rates[0.1]:.2f} > 0.5;"
          f" rates {values} nondecreasing within MC error")


def test_criterion_10_mc_stability_and_speed(full_table):
    scales = make_scales(20_000, 20, 2000, 25, 1)
    assert scales.r == 25
    cov = rho_null_cov(scales.scales, 20_000, CAL_H, CAL_G, full_table)
    # Threshold calibrated by a 10^7-sample oracle pool, then checked
    # for stability with repeated 10^6-sample runs.
    theta = GaussianTailPool(cov.matrix, 25, 10_000_000,
                             seed=1).threshold(LEVEL)

    estimates = []
    worst_time = 0.0
    for k in range(20):
        t0 = time.perf_counter()
        p, _ = GaussianTailPool(cov.matrix, 25, 1_000_000,
                                seed=1000 + k).p_values(theta)
        worst_time = max(worst_time, time.perf_counter() - t0)
        estimates.append(p)
    spread = float(np.std(estimates))
    assert spread <= 0.001, spread
    assert worst_time <= 10.0, worst_time

    speed = speed_study(full_table, n_samples=20_000, surrogates=1000,
                        mc_samples=100_000, seed=707)
    assert speed["speedup"] >= 100.0, speed["speedup"]
    print(f"\nACCEPTANCE 10 PASS: 20 runs of 10^6-sample MC spread "
          f"{spread:.5f} <= 0.001, slowest run {worst_time:.2f}s <= 10s; "
          f"tabulated p-value {speed['speedup']:.0f}x faster than 1000 "
          f"surrogates")
