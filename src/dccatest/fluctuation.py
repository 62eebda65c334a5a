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

# The fluctuation stage detrends blocks of whole windows of at most this
# many samples (one window where a window is longer), so that its
# residual temporaries stay small at any N; a series of up to BLOCK
# samples is one block and keeps the whole-series sums bit for bit.
BLOCK = 1 << 16


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


def _residual_sums(xa: np.ndarray, xb: np.ndarray, n: int,
                   degree: int) -> tuple[float, float, float]:
    """Sums of the residual products ra rb, ra ra and rb rb over the
    complete windows of two profile stretches."""
    ra = _window_residuals(xa, n, degree)
    rb = _window_residuals(xb, n, degree)
    return np.sum(ra * rb), np.sum(ra * ra), np.sum(rb * rb)


def rho_dcca(f2_cross, f2_auto1, f2_auto2, scales=None):
    """DCCA correlation coefficient, elementwise (a float for scalar
    input); raises on zero or invalid inputs, naming the first breach
    by its entry of ``scales`` where given."""
    if np.min(f2_auto1) <= 0 or np.min(f2_auto2) <= 0:
        raise ValueError(
            "auto fluctuations must be positive (profile exactly polynomial "
            "in every window?)"
        )
    rho = f2_cross / np.sqrt(f2_auto1 * f2_auto2)
    breach = np.ravel(np.abs(rho) > 1.0 + 1e-9)
    if breach.any():
        i = breach.argmax()
        where = "" if scales is None else f" at scale {scales[i]}"
        raise RuntimeError(f"rho={float(np.ravel(rho)[i])!r}{where} violates "
                           "the Cauchy-Schwarz bound; inputs corrupt")
    return rho if np.ndim(rho) else float(rho)


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
    # F2_auto of each series as the Hurst fit reads it: the values above
    # where they are normal doubles, else those of the series scaled as
    # in ``SeriesPair.unit_profiles`` (a constant factor leaves the slope).
    hurst_f2: tuple[np.ndarray, np.ndarray]

    @property
    def scales(self) -> np.ndarray:
        return np.asarray(self.scale_set.scales)


def fluctuation_analysis(pair: SeriesPair, scale_set: ScaleSet) -> FluctuationSet:
    """Compute F2_cross, both F2_auto and rho at every scale, from the
    profiles of the series scaled by powers of two (``unit_profiles``);
    the fluctuations are scaled back, rho needs no scaling back."""
    f2c = np.empty(scale_set.r)
    f2a1 = np.empty(scale_set.r)
    f2a2 = np.empty(scale_set.r)
    scale_set.window_counts(pair.n_samples)  # validates feasibility
    (x1, k1), (x2, k2) = pair.unit_profiles
    with np.errstate(over="ignore", invalid="ignore"):
        for i, n in enumerate(scale_set.scales):
            m = pair.n_samples // n
            step = n * max(1, BLOCK // n)
            sums = np.array([_residual_sums(x1[a:a + step], x2[a:a + step],
                                            n, scale_set.degree)
                             for a in range(0, m * n, step)]).sum(axis=0)
            f2c[i], f2a1[i], f2a2[i] = sums / (m * n)
        product = f2a1 * f2a2
    # Within 2^-40 of the profile's magnitude a fluctuation is round-off
    # (a constant column reads 4e-16; unit noise drifting by 10^4 per
    # sample, which detrending resolves, 6e-10 at N = 2 * 10^5).
    for k, (x, f2a) in enumerate(((x1, f2a1), (x2, f2a2)), 1):
        if np.any(np.sqrt(f2a) <= 2.0 ** -40 * np.max(np.abs(x))):
            raise ValueError(
                f"series {k} is constant or polynomial to round-off: its "
                "detrended fluctuation is at most 2^-40 of its profile's "
                "largest magnitude")
    # rho divides by sqrt(F2_auto1 F2_auto2): positive factors must give
    # a finite product that keeps double precision (a normal number).  On
    # series scaled into [1, 2) this is an internal-error net only.
    over = ~(np.isfinite(f2c) & np.isfinite(product))
    bad = over | (product < np.finfo(float).tiny)
    if bad.any():
        i = bad.argmax()
        raise RuntimeError(f"fluctuations at scale {scale_set.scales[i]} "
                           f"{'over' if over[i] else 'under'}flowed double "
                           "precision")
    rho = rho_dcca(f2c, f2a1, f2a2, scale_set.scales)
    with np.errstate(over="ignore", under="ignore"):
        back = [np.ldexp(f2, -k) for f2, k in ((f2c, k1 + k2),
                                                (f2a1, 2 * k1), (f2a2, 2 * k2))]
    fit = [b if np.all((b >= np.finfo(float).tiny) & (b < np.inf)) else f2
           for b, f2 in zip(back[1:], (f2a1, f2a2))]
    return FluctuationSet(scale_set=scale_set, f2_cross=back[0],
                          f2_auto1=back[1], f2_auto2=back[2], rho=rho,
                          hurst_f2=tuple(fit))


@dataclass(frozen=True)
class HurstEstimate:
    """DFA regression estimate of a Hurst exponent."""

    h_hat: float
    stderr: float


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
    )
