"""Covariance kernels of (bivariate) fractional Gaussian noise, the
increments of (bivariate) fractional Brownian motion.

The cross kernel has two branches depending on whether the sum of the
two Hurst exponents equals 1; the branch switch happens inside a 1e-9
band around 1, where the logarithmic form applies.  Far from lag 0
the second differences are summed as series in 1/k^2 rather than
differenced, so they keep their relative precision at every lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Branch-switch tolerance on |H + G - 1|.
_LOG_BRANCH_TOL = 1e-9

# Second differences at lags |k| >= _SERIES_LAG are summed as series in
# 1/k^2 whose terms shrink by more than 1/k^2 each, so seven terms leave
# less than 256^-7 of the first; below it the plain form loses at most
# about 4 eps k^2 / |a (a - 1)| relative (1e-12 at H = 0.55).
_SERIES_LAG = 16
_SERIES_TERMS = 7
# Coefficients 1 / ((j + 1)(2j + 1)) of the series of the u log|u|
# second difference times k.
_XLOGX_D2 = [1.0 / ((j + 1) * (2 * j + 1)) for j in range(_SERIES_TERMS)]


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


def _even_series(k: np.ndarray, coeffs) -> np.ndarray:
    """sum_j coeffs[j] k^(-2j), by Horner's rule in 1/k^2."""
    y = 1.0 / (k * k)
    out = np.full_like(k, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= y
        out += c
    return out


def _pow_second_diff_far(k: np.ndarray, a: float) -> np.ndarray:
    """(k+1)^a - 2 k^a + (k-1)^a at lags k >= _SERIES_LAG, as
    2 k^(a-2) sum_j C(a, 2j+2) k^(-2j): the plain form cancels about
    log10(k^2) digits, the series none."""
    coeffs = [0.5 * a * (a - 1.0)]
    for j in range(1, _SERIES_TERMS):
        coeffs.append(coeffs[-1] * (a - 2 * j) * (a - 2 * j - 1)
                      / ((2 * j + 1) * (2 * j + 2)))
    return 2.0 * k ** (a - 2.0) * _even_series(k, coeffs)


def _second_diff(psi, far, k: np.ndarray) -> np.ndarray:
    """psi(k+1) - 2 psi(k) + psi(k-1), taken from ``far(k)`` at
    |k| >= _SERIES_LAG, where the stencil does not cross zero; ``far``
    gets a copy of those lags and may overwrite it."""
    out = np.empty_like(k)
    near = np.abs(k) < _SERIES_LAG
    kn = k[near]
    out[near] = psi(kn + 1.0) - 2.0 * psi(kn) + psi(kn - 1.0)
    out[~near] = far(k[~near])
    return out


def fgn_autocov(k, hurst: float, sigma: float = 1.0) -> float | np.ndarray:
    """Autocovariance of fractional Gaussian noise at integer lag k.

    gamma(k) = (sigma^2/2) (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}), the
    cross-covariance of a component with itself (rho = 1, H = G).
    """
    params = FbmParams(hurst, hurst, rho=1.0, sigma1=sigma, sigma2=sigma)
    return fgn_cross_cov(np.abs(np.asarray(k, dtype=float)), params)


def fgn_cross_cov(k, params: FbmParams) -> float | np.ndarray:
    """Cross-covariance of the increment pair at integer lag k.

    gamma12(k) = E(dX1(t) dX2(t+k)), the second difference of the cross
    kernel; reduces to (rho sigma1 sigma2 / 2) d2|k|^{H+G} when eta = 0.
    """
    k = np.asarray(k, dtype=float)
    hg = params.hurst1 + params.hurst2
    rho, eta = params.rho, params.eta
    amp = 0.5 * params.sigma1 * params.sigma2

    # Far from lag 0 the sign of u is that of k over the whole stencil,
    # so rho |u| drops out of the log branch, u log|u| is odd, and the
    # power branch keeps a constant factor.
    if abs(hg - 1.0) < _LOG_BRANCH_TOL:
        def psi(u):
            return rho * np.abs(u) + eta * _xlogx(u)

        def far(u):
            # (k+1) log(k+1) - 2 k log k + (k-1) log(k-1) at k = |u|.
            a = np.abs(u)
            return eta * np.sign(u) / a * _even_series(a, _XLOGX_D2)
    else:
        def psi(u):
            return (rho - eta * np.sign(u)) * np.abs(u) ** hg

        def far(u):
            # |u| is taken in place and, with eta = 0, no per-lag factor
            # is formed: each would be 8 MB at 10^6 lags.
            factor = rho - eta * np.sign(u) if eta else rho
            return factor * _pow_second_diff_far(np.abs(u, out=u), hg)

    val = amp * _second_diff(psi, far, k)
    if val.ndim == 0:
        return float(val)
    return val
