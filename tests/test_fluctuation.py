import numpy as np
import pytest

from dccatest.fluctuation import (fluctuation_analysis, hurst_estimate,
                                  rho_dcca, sign_log)
from dccatest.series import SeriesPair, make_scales
from dccatest.fbm import FbmParams
from dccatest.simulate import SimSpec, gen_bfgn
from oracles import dcca_coeff, detrend_window


def test_detrend_trivial():
    assert np.allclose(detrend_window(np.array([3.0, 3, 3, 3]), 1), 0,
                       atol=1e-12)
    assert np.allclose(detrend_window(np.array([1.0, 2, 3, 4]), 1), 0,
                       atol=1e-12)


def test_detrend_orthogonality_oracle(rng):
    # Residuals solve the normal equations: orthogonal to every monomial.
    n, d = 37, 2
    w = rng.standard_normal(n) * 5.0
    res = detrend_window(w, d)
    t = np.arange(1, n + 1, dtype=float)
    norm = np.linalg.norm(w)
    for k in range(d + 1):
        assert abs(np.dot(res, t ** k)) < 1e-9 * norm * np.linalg.norm(t ** k)
    # Cross-check the fit itself against explicit normal equations.
    vand = np.vander(t, d + 1, increasing=True)
    beta = np.linalg.solve(vand.T @ vand, vand.T @ w)
    assert np.allclose(res, w - vand @ beta, atol=1e-9 * norm)


def test_detrend_errors():
    with pytest.raises(ValueError):
        detrend_window(np.array([1.0, 2.0]), 1)


def test_dcca_identity_and_sign(rng):
    x = np.cumsum(rng.standard_normal(1000))
    f_auto = dcca_coeff(x, x, 40, 1)
    assert f_auto > 0
    assert dcca_coeff(x, -x, 40, 1) == -f_auto
    y = np.cumsum(rng.standard_normal(1000))
    assert dcca_coeff(x, y, 40, 1) == dcca_coeff(y, x, 40, 1)


def test_dcca_normalization_convention(rng):
    # Per-window mean residual product, then mean over windows.
    y = rng.standard_normal(128)
    x = np.cumsum(y)
    n = 64
    res1 = detrend_window(x[:n], 1)
    res2 = detrend_window(x[n:], 1)
    by_hand = 0.5 * (np.mean(res1 ** 2) + np.mean(res2 ** 2))
    assert np.isclose(dcca_coeff(x, x, n, 1), by_hand, rtol=1e-12)
    # Tail samples beyond n[N/n] are discarded.
    x_tail = np.concatenate([x, [1e6, -1e6, 3e6]])
    assert dcca_coeff(x_tail, x_tail, n, 1) == dcca_coeff(x, x, n, 1)


def test_dcca_scale_feasibility(rng):
    x = np.cumsum(rng.standard_normal(100))
    with pytest.raises(ValueError):
        dcca_coeff(x, x, 60, 1)


def test_detrending_invariance(rng):
    # Trend coefficients are scaled so the trend magnitude stays within a
    # few orders of the profile; degree-d terms are then removed exactly
    # up to round-off.
    n_samples = 2000
    x = np.cumsum(rng.standard_normal(n_samples))
    y = np.cumsum(rng.standard_normal(n_samples))
    t = np.arange(1, n_samples + 1, dtype=float)
    amp = np.abs(x).max()
    for d in (1, 2, 3):
        base = dcca_coeff(x, y, 50, d)
        coeffs = rng.standard_normal(d + 1) * amp * (3.0 / n_samples) ** \
            np.arange(d + 1)
        q = sum(c * t ** k for k, c in enumerate(coeffs))
        shifted = dcca_coeff(x + q, y, 50, d)
        assert abs(shifted - base) < 1e-9 * max(abs(base), 1.0)


def test_cauchy_schwarz_bound(rng):
    for _ in range(50):
        x = np.cumsum(rng.standard_normal(400))
        y = np.cumsum(rng.standard_normal(400))
        fc = dcca_coeff(x, y, 25, 1)
        fa = dcca_coeff(x, x, 25, 1)
        fb = dcca_coeff(y, y, 25, 1)
        assert abs(fc) <= np.sqrt(fa * fb)
        assert -1.0 <= rho_dcca(fc, fa, fb) <= 1.0


def test_rho_trivial_cases(rng):
    y = rng.standard_normal(600)
    pair = SeriesPair.from_increments(y, y.copy())
    ss = make_scales(600, 10, 100, 4, 1)
    fl = fluctuation_analysis(pair, ss)
    assert np.allclose(fl.rho, 1.0, atol=1e-12)
    # Negative scaling flips the sign exactly.
    pair_neg = SeriesPair.from_profiles(pair.x1, -3.0 * pair.x2)
    fl_neg = fluctuation_analysis(pair_neg, ss)
    assert np.allclose(fl_neg.rho, -1.0, atol=1e-12)


def test_rho_affine_invariance(rng):
    y1 = rng.standard_normal(1200)
    y2 = rng.standard_normal(1200)
    pair = SeriesPair.from_increments(y1, y2)
    ss = make_scales(1200, 20, 200, 4, 2)
    base = fluctuation_analysis(pair, ss).rho
    t = np.arange(1, 1201, dtype=float)
    q1 = 3.0 - 0.2 * t + 0.001 * t ** 2
    q2 = -1.0 + 0.5 * t
    scaled = SeriesPair.from_profiles(2.5 * pair.x1 + q1,
                                      -0.75 * pair.x2 + q2)
    flipped = fluctuation_analysis(scaled, ss).rho
    assert np.allclose(flipped, -base, atol=1e-9)


def test_rho_errors():
    with pytest.raises(ValueError):
        rho_dcca(0.5, 0.0, 1.0)
    with pytest.raises(RuntimeError):
        rho_dcca(2.0, 1.0, 1.0)


def test_sign_log():
    assert sign_log(np.e) == pytest.approx(1.0)
    assert sign_log(-np.e) == pytest.approx(-1.0)
    assert sign_log(0.0) == 0.0


def test_hurst_exact_power_law():
    scales = np.array([10.0, 100.0, 1000.0])
    est = hurst_estimate(scales ** 1.4, scales)
    assert est.h_hat == pytest.approx(0.7, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-9)
    # Scale invariance: constants do not move the slope.
    est2 = hurst_estimate(17.3 * scales ** 1.0, scales)
    assert est2.h_hat == pytest.approx(0.5, abs=1e-12)


def test_hurst_errors():
    with pytest.raises(ValueError):
        hurst_estimate(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
    with pytest.raises(ValueError):
        hurst_estimate(np.array([1.0, -2.0, 3.0]),
                       np.array([10.0, 20.0, 40.0]))


def test_hurst_monte_carlo_oracle():
    # fGn with H = 0.8: the DFA regression recovers H within 0.05 in at
    # least 95% of replicates at this size.
    spec_params = FbmParams(hurst1=0.8, hurst2=0.8)
    ss = make_scales(40_000, 20, 2000, 10, 1)
    hits = 0
    reps = 60
    for i in range(reps):
        pair = gen_bfgn(SimSpec(kind="bfgn", n_samples=40_000,
                                params=spec_params, seed=321), replicate=i)
        fl = fluctuation_analysis(pair, ss)
        est = hurst_estimate(fl.f2_auto1, fl.scales)
        hits += (0.75 <= est.h_hat <= 0.85)
    assert hits >= 0.9 * reps
