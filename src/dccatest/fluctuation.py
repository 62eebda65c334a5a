"""Detrended fluctuation and cross-fluctuation statistics.

Profiles are split into [N/n] non-overlapping windows per scale n; the
degree-d least-squares polynomial is removed in every window and the
statistics are averages of residual products.  Normalisation convention:
per-window mean residual product, then mean over windows, i.e.

    F2(n) = (1 / ([N/n] n)) sum_windows sum_t r1(t) r2(t)

The cross statistic is signed; with identical inputs it reduces to the
detrended variance used by DFA.  The correlation coefficient

    rho(n) = F2_cross(n) / sqrt(F2_auto1(n) F2_auto2(n))

lies in [-1, 1] by the Cauchy-Schwarz inequality and is never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import ScaleSet, SeriesPair


@lru_cache(maxsize=256)
def poly_basis(n: int, degree: int) -> np.ndarray:
    """Orthonormal basis (n x (d+1)) of degree-d polynomials on 1..n.

    Built by QR of a Vandermonde matrix on centered, scaled abscissae so
    the fit stays well conditioned for large n and degrees up to ~5.
    """
    if n < degree + 2:
        raise ValueError(f"window of length {n} too small for degree {degree}")
    t = np.arange(1, n + 1, dtype=float)
    x = (t - t.mean()) / (0.5 * (n - 1) if n > 1 else 1.0)
    vand = np.vander(x, degree + 1, increasing=True)
    q, _ = np.linalg.qr(vand)
    return q


def _window_residuals(x: np.ndarray, n: int, degree: int) -> np.ndarray:
    """Residual matrix ([N/n] x n) of all complete windows of a profile."""
    m = len(x) // n
    w = x[: m * n].reshape(m, n)
    basis = poly_basis(n, degree)
    return w - (w @ basis) @ basis.T


def rho_dcca(f2_cross: float, f2_auto1: float, f2_auto2: float) -> float:
    """DCCA correlation coefficient; raises on zero or invalid inputs."""
    if f2_auto1 <= 0 or f2_auto2 <= 0:
        raise ValueError(
            "auto fluctuations must be positive (profile exactly polynomial "
            "in every window?)"
        )
    rho = f2_cross / np.sqrt(f2_auto1 * f2_auto2)
    if abs(rho) > 1.0 + 1e-9:
        raise RuntimeError(
            f"rho={rho!r} violates the Cauchy-Schwarz bound; inputs corrupt"
        )
    return float(rho)


def sign_log(value: float) -> float:
    """Display transform sign(F2) * log|F2| used for log-scale plots."""
    if value == 0.0:
        return 0.0
    return float(np.sign(value) * np.log(np.abs(value)))


@dataclass(frozen=True)
class FluctuationSet:
    """Per-scale fluctuation statistics of a series pair."""

    scale_set: ScaleSet
    f2_cross: np.ndarray
    f2_auto1: np.ndarray
    f2_auto2: np.ndarray
    rho: np.ndarray

    @property
    def scales(self) -> np.ndarray:
        return np.asarray(self.scale_set.scales)


def fluctuation_analysis(pair: SeriesPair, scale_set: ScaleSet) -> FluctuationSet:
    """Compute F2_cross, both F2_auto and rho at every scale."""
    f2c = np.empty(scale_set.r)
    f2a1 = np.empty(scale_set.r)
    f2a2 = np.empty(scale_set.r)
    scale_set.window_counts(pair.n_samples)  # validates feasibility
    for i, n in enumerate(scale_set.scales):
        ra = _window_residuals(pair.x1, n, scale_set.degree)
        rb = _window_residuals(pair.x2, n, scale_set.degree)
        f2c[i] = np.sum(ra * rb) / ra.size
        f2a1[i] = np.sum(ra * ra) / ra.size
        f2a2[i] = np.sum(rb * rb) / rb.size
    rho = np.array([
        rho_dcca(c, a1, a2) for c, a1, a2 in zip(f2c, f2a1, f2a2)
    ])
    return FluctuationSet(scale_set=scale_set, f2_cross=f2c,
                          f2_auto1=f2a1, f2_auto2=f2a2, rho=rho)


@dataclass(frozen=True)
class HurstEstimate:
    """DFA regression estimate of a Hurst exponent."""

    h_hat: float
    stderr: float
    n_min: int
    n_max: int


def hurst_estimate(f2_auto: np.ndarray, scales: np.ndarray) -> HurstEstimate:
    """Hurst exponent from the log-log slope of the detrended variances.

    log F2(n) against log n has slope 2H in the limit, so the OLS slope
    is halved; the regression standard error is propagated the same way.
    """
    f2_auto = np.asarray(f2_auto, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if len(f2_auto) < 3:
        raise ValueError("Hurst regression needs at least 3 scales")
    if np.any(f2_auto <= 0):
        raise ValueError("detrended variances must be positive")
    lx = np.log(scales)
    ly = np.log(f2_auto)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(lx) - 2
    sxx = np.sum((lx - lx.mean()) ** 2)
    se_slope = np.sqrt(np.sum(resid ** 2) / dof / sxx) if dof > 0 else np.nan
    return HurstEstimate(
        h_hat=float(slope / 2.0),
        stderr=float(se_slope / 2.0),
        n_min=int(scales[0]),
        n_max=int(scales[-1]),
    )
