"""Computations made apart from the program, used to check its outputs.

Nothing here imports ``dccatest``.  The bivariate fGn generator makes
the benchmark's own inputs (exact circulant embedding, Wood and Chan
1994), the DCCA reference detrends with a windowed ``np.polyfit``, and
the Gaussian tail probabilities come from the Genz-Bretz integrator in
``scipy.stats.multivariate_normal``.
"""

from __future__ import annotations

import math

import numpy as np


def default_scales(n_samples: int, degree: int = 1) -> tuple[int, ...]:
    """Scales ``dccatest analyze`` uses without ``--scales``: 10
    log-spaced integers from 20 to N/20."""
    n_max = max(n_samples // 20, degree + 3)
    n_min = min(20, n_max - 1)
    raw = np.exp(np.linspace(math.log(n_min), math.log(n_max), 10))
    return tuple(int(n) for n in np.unique(np.rint(raw).astype(int)))


def _fgn_lag_cov(lags: np.ndarray, exponent: float) -> np.ndarray:
    """0.5 (|k+1|^e - 2|k|^e + |k-1|^e): fGn autocovariance for e = 2H,
    and the eta = 0 cross-covariance per unit rho for e = H + G."""
    k = lags.astype(float)
    return 0.5 * (np.abs(k + 1) ** exponent - 2 * np.abs(k) ** exponent
                  + np.abs(k - 1) ** exponent)


def bfgn(n: int, hurst1: float, hurst2: float, rho: float,
         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance bivariate fGn with cross-correlation ``rho`` (eta = 0).

    The 2x2 covariance sequence is embedded in a circulant of length
    L >= 2n; its per-frequency blocks are real symmetric, and the real
    part of FFT(sqrt(block) xi) / sqrt(L) with complex normal xi has
    exactly the target covariance.
    """
    length = 1 << max(4, math.ceil(math.log2(2 * n)))
    lags = np.minimum(np.arange(length), length - np.arange(length))
    seqs = np.stack([
        np.stack([_fgn_lag_cov(lags, 2 * hurst1),
                  rho * _fgn_lag_cov(lags, hurst1 + hurst2)]),
        np.stack([rho * _fgn_lag_cov(lags, hurst1 + hurst2),
                  _fgn_lag_cov(lags, 2 * hurst2)]),
    ])
    blocks = np.fft.fft(seqs, axis=-1).real.transpose(2, 0, 1)
    vals, vecs = np.linalg.eigh(blocks)
    if vals.min() < -1e-9 * vals.max():
        raise ValueError("circulant embedding is not positive semidefinite")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) \
        @ vecs.transpose(0, 2, 1)
    xi = rng.standard_normal((length, 2)) + 1j * rng.standard_normal(
        (length, 2))
    series = np.fft.fft(np.einsum("kab,kb->ka", root, xi), axis=0) \
        / math.sqrt(length)
    return series.real[:n, 0].copy(), series.real[:n, 1].copy()


def dcca(y1: np.ndarray, y2: np.ndarray, scales, degree: int = 1) -> dict:
    """Fluctuation functions, DCCA coefficients and DFA Hurst slopes.

    Profiles are cumulative sums; each scale n is split into [N/n]
    non-overlapping windows, each detrended by its own degree-d
    ``np.polyfit``; F2 is the mean residual product over all kept
    samples.
    """
    x1, x2 = np.cumsum(y1), np.cumsum(y2)
    f2c, f2a1, f2a2 = [], [], []
    for n in scales:
        m = len(x1) // n
        t = np.arange(1, n + 1, dtype=float)
        vand = np.vander(t, degree + 1)
        res = []
        for x in (x1, x2):
            windows = x[: m * n].reshape(m, n).T
            res.append(windows - vand @ np.polyfit(t, windows, degree))
        r1, r2 = res
        size = m * n
        f2c.append(float(np.sum(r1 * r2)) / size)
        f2a1.append(float(np.sum(r1 * r1)) / size)
        f2a2.append(float(np.sum(r2 * r2)) / size)
    f2c, f2a1, f2a2 = (np.array(v) for v in (f2c, f2a1, f2a2))
    log_n = np.log(np.asarray(scales, dtype=float))
    return {
        "f2_cross": f2c,
        "rho": f2c / np.sqrt(f2a1 * f2a2),
        "h1": float(np.polyfit(log_n, np.log(f2a1), 1)[0] / 2),
        "h2": float(np.polyfit(log_n, np.log(f2a2), 1)[0] / 2),
    }


# Absolute and relative error requested from the Genz-Bretz integrator.
GENZ_BRETZ_EPS = 1e-6


def joint_tail(corr: np.ndarray, t: float, seed: int = 0) -> float:
    """Genz-Bretz Pr(all s_i > t or all s_i < -t) for s ~ N(0, corr).

    This is Pr(T > t) for the kappa = r statistic.  The two orthants
    have equal probability by symmetry; for t < 0 they overlap in the
    box (t, -t)^r, which inclusion-exclusion removes.
    """
    from scipy.stats import multivariate_normal

    r = corr.shape[0]
    rng = np.random.default_rng(seed)
    upper = np.full(r, -t)
    opts = dict(mean=np.zeros(r), cov=corr, abseps=GENZ_BRETZ_EPS,
                releps=GENZ_BRETZ_EPS, rng=rng)
    both = 2.0 * multivariate_normal.cdf(upper, **opts)
    if t < 0:
        both -= multivariate_normal.cdf(upper, lower_limit=-upper, **opts)
    return float(both)
