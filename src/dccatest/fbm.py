"""Covariance kernels of (bivariate) fractional Gaussian noise, the
increments of (bivariate) fractional Brownian motion.

The cross kernel has two branches depending on whether the sum of the
two Hurst exponents equals 1; the branch switch happens inside a 1e-9
band around 1, where the logarithmic form applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Branch-switch tolerance on |H + G - 1|.
_LOG_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class FbmParams:
    """Parameters of a bivariate fractional Brownian motion.

    ``hurst1``/``hurst2`` are the marginal Hurst exponents, ``rho`` the
    instantaneous cross-correlation, ``eta`` the antisymmetric cross
    parameter.  The null configuration of the independence test has
    rho == eta == 0.
    """

    hurst1: float
    hurst2: float
    rho: float = 0.0
    eta: float = 0.0
    sigma1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        # Kernel-level validity; the long-range model domain [0.5, 1) is
        # enforced by the surfaces that assume it (simulators, tables).
        if not (0.0 < self.hurst1 < 1.0 and 0.0 < self.hurst2 < 1.0):
            raise ValueError("Hurst exponents must lie in (0, 1)")
        if abs(self.rho) > 1.0:
            raise ValueError("|rho| must not exceed 1")
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValueError("scale parameters must be positive")

    @property
    def is_long_range(self) -> bool:
        return self.hurst1 >= 0.5 and self.hurst2 >= 0.5


def _xlogx(u: np.ndarray) -> np.ndarray:
    """u * log|u| with the convention 0 * log 0 = 0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    nz = u != 0
    out[nz] = u[nz] * np.log(np.abs(u[nz]))
    return out


def fgn_autocov(k, hurst: float, sigma: float = 1.0) -> float | np.ndarray:
    """Autocovariance of fractional Gaussian noise at integer lag k.

    gamma(k) = (sigma^2/2) (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    k = np.abs(np.asarray(k, dtype=float))
    h2 = 2.0 * hurst
    val = 0.5 * sigma * sigma * (
        (k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2
    )
    if val.ndim == 0:
        return float(val)
    return val


def fgn_cross_cov(k, params: FbmParams) -> float | np.ndarray:
    """Cross-covariance of the increment pair at integer lag k.

    gamma12(k) = E(dX1(t) dX2(t+k)), the second difference of the cross
    kernel; reduces to (rho sigma1 sigma2 / 2) d2|k|^{H+G} when eta = 0.
    """
    k = np.asarray(k, dtype=float)
    hg = params.hurst1 + params.hurst2
    rho, eta = params.rho, params.eta
    amp = 0.5 * params.sigma1 * params.sigma2

    if abs(hg - 1.0) < _LOG_BRANCH_TOL:
        def psi(u):
            return rho * np.abs(u) + eta * _xlogx(u)
    else:
        def psi(u):
            return (rho - eta * np.sign(u)) * np.abs(u) ** hg

    val = amp * (psi(k + 1.0) - 2.0 * psi(k) + psi(k - 1.0))
    if val.ndim == 0:
        return float(val)
    return val
