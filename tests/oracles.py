"""Reference implementations that only the tests use.

Each computes one quantity directly from its definition, window by
window or entry by entry, so the tests can check the vectorised code of
the package against it.
"""

import numpy as np

from dccatest.asymptotics import (_cross_cov_disp_batch, rho_null_cov,
                                  worst_case_cov)
from dccatest.fbm import _LOG_BRANCH_TOL, FbmParams, _xlogx
from dccatest.fluctuation import _window_residuals, poly_basis
from dccatest.series import make_scales
from dccatest.testkit import GaussianTailPool


def detrend_window(w: np.ndarray, degree: int) -> np.ndarray:
    """Residual of the degree-d least-squares polynomial fit at 1..n."""
    w = np.asarray(w, dtype=float)
    basis = poly_basis(len(w), degree)
    return w - basis @ (basis.T @ w)


def dcca_coeff(xa: np.ndarray, xb: np.ndarray, n: int, degree: int) -> float:
    """Signed cross-fluctuation F2 of two profiles at scale n."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if len(xa) != len(xb):
        raise ValueError("profiles must have equal length")
    if len(xa) < 2 * n:
        raise ValueError(
            f"scale {n} leaves fewer than 2 windows in {len(xa)} samples"
        )
    ra = _window_residuals(xa, n, degree)
    rb = _window_residuals(xb, n, degree)
    return float(np.sum(ra * rb) / ra.size)


def fluct_cov_exact(n: int, m: int, j: int, hurst1: float, hurst2: float,
                    degree: int, kind: str = "cross") -> float:
    """Exact covariance between fluctuation statistics of two windows.

    Window 1 has size n at the origin; window 2 has size m and starts j
    row-windows (j*n samples) later.  ``kind`` 'cross' is the DCCA
    statistic under the null of independent components with Hurst
    exponents (hurst1, hurst2); 'auto' is the DFA statistic of the first
    component, which carries the Gaussian factor 2.
    """
    if j < 0:
        raise ValueError("window offset must be non-negative")
    if kind == "cross":
        return float(_cross_cov_disp_batch(
            n, m, np.array([j * n]), hurst1, hurst2, degree)[0])
    if kind == "auto":
        return 2.0 * float(_cross_cov_disp_batch(
            n, m, np.array([j * n]), hurst1, hurst1, degree)[0])
    raise ValueError(f"unknown covariance kind {kind!r}")


def fbm_auto_cov(s, t, hurst: float, sigma: float = 1.0) -> np.ndarray:
    """E(X(s)X(t)) for fBm with the given Hurst exponent (any real s, t)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * sigma * sigma * (
        np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2
    )


def fbm_cross_cov(s, t, params: FbmParams) -> float | np.ndarray:
    """E(X1(s)X2(t)) of bivariate fBm at non-negative times.

    Selects the power-law branch when hurst1 + hurst2 differs from 1 and
    the logarithmic branch inside a 1e-9 band around hurst1 + hurst2 = 1.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("cross kernel is defined for non-negative times")
    hg = params.hurst1 + params.hurst2
    rho, eta = params.rho, params.eta
    amp = 0.5 * params.sigma1 * params.sigma2
    if abs(hg - 1.0) < _LOG_BRANCH_TOL:
        val = amp * (
            rho * (np.abs(s) + np.abs(t) - np.abs(t - s))
            + eta * (_xlogx(t) + _xlogx(s) - _xlogx(t - s))
        )
    else:
        val = amp * (
            (rho + eta * np.sign(s)) * np.abs(s) ** hg
            + (rho - eta * np.sign(t)) * np.abs(t) ** hg
            - (rho - eta * np.sign(t - s)) * np.abs(t - s) ** hg
        )
    if val.ndim == 0:
        return float(val)
    return val


def upperbound_rows(table, *, n_samples: int, level: float, n_min: int,
                    n_max: int, r: int, degree: int, mc_samples: int,
                    seed: int) -> list[dict]:
    """Rows of ``studies.upperbound_check`` with one freshly drawn, seeded
    Monte Carlo pool per grid node and one for the worst case."""
    scales = make_scales(n_samples, n_min, n_max, r, degree).scales
    grid = table.grid

    def row(h, g, cov):
        theta = GaussianTailPool(cov.matrix, len(scales), mc_samples,
                                 seed).threshold(level)
        out = {"hurst1": h, "hurst2": g, "theta_star": theta}
        return out, cov.rho_bounds(theta)

    worst, wc_bounds = row(float("nan"), float("nan"), worst_case_cov(
        scales, n_samples, (grid[0], grid[-1]), (grid[0], grid[-1]), table,
        degree))
    worst["violation"] = 0
    worst.update({f"bound_n{n}": b for n, b in zip(scales, wc_bounds)})
    rows = []
    for h in grid:
        for g in grid:
            node, bounds = row(float(h), float(g), rho_null_cov(
                scales, n_samples, float(h), float(g), table, degree))
            node["violation"] = int(np.any(bounds > wc_bounds + 1e-12))
            node.update({f"bound_n{n}": b for n, b in zip(scales, bounds)})
            rows.append(node)
    return rows + [worst]
