import numpy as np
import pytest

from dccatest.fbm import FbmParams, fgn_autocov, fgn_cross_cov
from oracles import fbm_auto_cov, fbm_cross_cov, fgn_cross_cov_reference


def _params(h, g, rho=1.0, eta=0.0):
    return FbmParams(hurst1=h, hurst2=g, rho=rho, eta=eta)


def _times(n, offset=0):
    return offset + np.arange(1, n + 1, dtype=float)


def _window_cov(n, m, offset, hurst):
    """E(X(a) X(offset + b)) for a = 1..n, b = 1..m."""
    return fbm_auto_cov(_times(n)[:, None], _times(m, offset)[None, :], hurst)


def test_params_validation():
    with pytest.raises(ValueError):
        FbmParams(hurst1=0.0, hurst2=0.7)
    with pytest.raises(ValueError):
        FbmParams(hurst1=0.7, hurst2=1.0)
    with pytest.raises(ValueError):
        FbmParams(hurst1=0.7, hurst2=0.7, rho=1.5)
    with pytest.raises(ValueError):
        FbmParams(hurst1=0.7, hurst2=0.7, sigma1=0.0)
    assert not FbmParams(hurst1=0.45, hurst2=0.8).is_long_range


def test_cross_kernel_brownian_min():
    # H = G = 0.5, rho = 1: standard Brownian motion, E X(s)X(t) = min(s, t).
    p = _params(0.5, 0.5)
    assert fbm_cross_cov(2.0, 3.0, p) == pytest.approx(2.0, abs=1e-12)
    assert fbm_cross_cov(7.0, 4.0, p) == pytest.approx(4.0, abs=1e-12)


def test_cross_kernel_variance():
    for h in (0.5, 0.6, 0.75, 0.9):
        p = _params(h, h)
        tau = 2.5
        assert fbm_cross_cov(tau, tau, p) == pytest.approx(
            tau ** (2 * h), rel=1e-12)


def test_cross_kernel_reduces_to_auto():
    p = _params(0.7, 0.7)
    s, t = 3.0, 11.0
    assert fbm_cross_cov(s, t, p) == pytest.approx(
        float(fbm_auto_cov(s, t, 0.7)), rel=1e-12)


def test_cross_kernel_branch_limit():
    # The log branch at H+G = 1 is the limit of the power branch for the
    # symmetric part of the kernel (the antisymmetric eta term scales
    # away at the boundary and is a separate parametrization there).
    eps = 1e-4
    s, t = 2.0, 5.0
    at = fbm_cross_cov(s, t, FbmParams(0.6, 0.4 + eps, rho=0.3,
                                       sigma1=1.2, sigma2=0.8))
    below = fbm_cross_cov(s, t, FbmParams(0.6, 0.4 - eps, rho=0.3,
                                          sigma1=1.2, sigma2=0.8))
    exact = fbm_cross_cov(s, t, FbmParams(0.6, 0.4, rho=0.3,
                                          sigma1=1.2, sigma2=0.8))
    assert abs(0.5 * (at + below) - exact) < 1e-6
    assert abs(at - exact) < 1e-3


def test_cross_kernel_self_similarity():
    p = FbmParams(0.7, 0.85, rho=0.4, eta=0.1)
    hg = p.hurst1 + p.hurst2
    for c in (0.5, 2.0, 7.5):
        lhs = fbm_cross_cov(c * 2.0, c * 5.0, p)
        rhs = c ** hg * fbm_cross_cov(2.0, 5.0, p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_cross_kernel_null_is_zero():
    p = FbmParams(0.7, 0.8, rho=0.0, eta=0.0)
    s = np.linspace(0.0, 10.0, 7)
    assert np.allclose(fbm_cross_cov(s, s[::-1], p), 0.0, atol=1e-15)


def test_cross_kernel_rejects_negative_times():
    with pytest.raises(ValueError):
        fbm_cross_cov(-1.0, 2.0, _params(0.7, 0.7))


def test_fgn_autocov_values():
    assert fgn_autocov(0, 0.7, sigma=1.5) == pytest.approx(2.25)
    assert fgn_autocov(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        fgn_autocov(1, 1.0)


def test_fgn_autocov_summation_oracle():
    # Partial sums of the autocovariance grow like K^{2H-1} for H > 1/2,
    # and every term is positive.
    h = 0.7
    k = np.arange(0, 10_001)
    gamma = np.asarray(fgn_autocov(k, h))
    assert np.all(gamma > 0)
    partial = gamma[0] + 2 * np.cumsum(gamma[1:])
    # E (X(K))^2 = K^{2H} exactly, so the two-sided sum tracks K^{2H-1}.
    for cap in (100, 1000, 10_000):
        expected = cap ** (2 * h - 1)
        ratio = partial[cap - 1] / expected
        assert 0.5 < ratio < 2.0


def test_fgn_cross_cov_even_when_eta_zero():
    p = FbmParams(0.7, 0.8, rho=0.4)
    ks = np.arange(-6, 7)
    vals = np.asarray(fgn_cross_cov(ks, p))
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    assert vals[6] == pytest.approx(0.4)  # lag 0: rho sigma1 sigma2


def test_fgn_cross_cov_second_difference_of_kernel():
    p = FbmParams(0.7, 0.8, rho=0.3, eta=0.15)
    t0 = 10.0
    for k in (0, 1, 3, -2):
        direct = (fbm_cross_cov(t0 + 1, t0 + k + 1, p)
                  - fbm_cross_cov(t0 + 1, t0 + k, p)
                  - fbm_cross_cov(t0, t0 + k + 1, p)
                  + fbm_cross_cov(t0, t0 + k, p))
        assert fgn_cross_cov(k, p) == pytest.approx(direct, rel=1e-9)


# Lags on both sides of the series switch at 16, up to the 10^6 of the
# long-series embedding.
_FAR_LAGS = [2, 3, 7, 15, 16, 17, 100, 1234, 10**4, 65537, 10**5, 654321,
             10**6]


@pytest.mark.parametrize("h", [0.55, 0.7, 0.98, 0.99])
def test_fgn_autocov_matches_exact_arithmetic(h):
    # The plain second difference cancels about log10(k^2) digits: 1e-3
    # relative at k = 10^6 and H = 0.55.
    want = [fgn_cross_cov_reference(k, _params(h, h)) for k in _FAR_LAGS]
    np.testing.assert_allclose(fgn_autocov(np.array(_FAR_LAGS), h), want,
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("params", [
    FbmParams(0.7, 0.8, rho=0.3, eta=0.1),
    FbmParams(0.55, 0.99, rho=-0.4, eta=0.2),
    FbmParams(0.6, 0.4, rho=0.3, eta=0.1, sigma1=1.5),    # log branch
])
def test_fgn_cross_cov_matches_exact_arithmetic(params):
    lags = _FAR_LAGS + [-k for k in _FAR_LAGS]
    want = [fgn_cross_cov_reference(k, params) for k in lags]
    np.testing.assert_allclose(fgn_cross_cov(np.array(lags), params), want,
                               rtol=1e-9, atol=0.0)


def test_window_block_brownian_grid():
    assert np.allclose(_window_cov(2, 2, 0, 0.5), [[1.0, 1.0], [1.0, 2.0]])


def test_window_block_fbm_diagonal():
    mat = _window_cov(3, 3, 0, 0.7)
    assert np.allclose(np.diag(mat), [1.0, 2 ** 1.4, 3 ** 1.4], rtol=1e-12)
    assert np.allclose(mat, mat.T)


def test_window_block_offsets_and_kinds():
    # Window 1 of size 4 against a size-6 window j = 2 windows later:
    # entry (a, b) is the kernel at times (a, j*n + b).
    mat = _window_cov(4, 6, 2 * 4, 0.9)
    assert mat.shape == (4, 6)
    assert mat[1, 2] == pytest.approx(float(fbm_auto_cov(2.0, 11.0, 0.9)))
    # Under the null the cross kernel vanishes on the same grid.
    null = FbmParams(0.7, 0.9, rho=0.0)
    assert np.allclose(fbm_cross_cov(_times(4)[:, None],
                                     _times(4, 4)[None, :], null), 0.0)


def test_window_block_psd_grid():
    for h in (0.5, 0.66, 0.8, 0.98):
        for n in (4, 16, 64):
            mat = _window_cov(n, n, 0, h)
            eigmin = np.linalg.eigvalsh(mat)[0]
            assert eigmin >= -1e-8 * np.trace(mat)


def test_window_block_simulation_oracle(rng):
    # Covariance block between window 1 and window 3 (j=2) of fBm H=0.8
    # matches the sample covariance over many simulated paths.
    n, j, h = 16, 2, 0.8
    path_len = (j + 1) * n
    full = _window_cov(path_len, path_len, 0, h)
    factor = np.linalg.cholesky(full + 1e-12 * np.eye(path_len))
    reps = 100_000
    paths = factor @ rng.standard_normal((path_len, reps))
    w1 = paths[:n]
    w2 = paths[j * n:(j + 1) * n]
    sample = (w1 @ w2.T) / reps
    theory = _window_cov(n, n, j * n, h)
    # Entrywise 3 MC standard errors; the entry std is estimated per cell.
    prod = w1[:, None, :] * w2[None, :, :]
    se = prod.std(axis=2) / np.sqrt(reps)
    assert np.all(np.abs(sample - theory) <= 3.0 * se + 1e-12)


def test_auto_block_negative_offset_consistency():
    # The two-sided kernel at negative times: raw entries follow the
    # kernel orientation, and increments from a common origin have the
    # same covariance as the same windows shifted to positive times.
    h = 0.7
    mat = _window_cov(3, 3, -10, h)
    assert mat[0, 0] == pytest.approx(float(fbm_auto_cov(1.0, -9.0, h)))

    def increment_cov(shift):
        t = np.concatenate([_times(3, shift), _times(3, shift - 10)])
        origin = shift - 12.0
        k = fbm_auto_cov(t[:, None], t[None, :], h)
        k0 = fbm_auto_cov(t, origin, h)
        return k - k0[:, None] - k0[None, :] + fbm_auto_cov(origin, origin, h)

    assert np.allclose(increment_cov(0.0), increment_cov(20.0), rtol=1e-9)
