"""Reference implementations that only the tests use.

Each computes one quantity directly from its definition, window by
window or entry by entry, so the tests can check the vectorised code of
the package against it.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from dccatest.asymptotics import (_cross_cov_disp_batch, rho_null_cov,
                                  worst_case_cov)
from dccatest.fbm import (_LOG_BRANCH_TOL, FbmParams, _xlogx, fgn_autocov,
                         fgn_cross_cov)
from dccatest.fluctuation import _window_residuals, poly_basis
from dccatest.series import SeriesPair, make_scales
from dccatest.simulate import (_EMBED_TOL, DENSE_N_CAP, SimSpec, _bfgn_exists,
                               _embedding_length, _gen_bfgn_dense, _highpass,
                               _signed_power_std, add_trend, replicate_rng)
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


def _residual_projector(n: int, degree: int) -> list[list[Fraction]]:
    """Exact I - V (V^T V)^{-1} V^T for V[a, p] = a^p on a = 1..n."""
    size = degree + 1
    vand = [[Fraction(a) ** p for p in range(size)] for a in range(1, n + 1)]
    # Gauss-Jordan on [V^T V | I]; the Gram matrix is positive definite.
    aug = [[sum(row[p] * row[q] for row in vand) for q in range(size)]
           + [Fraction(int(p == q)) for q in range(size)]
           for p in range(size)]
    for p in range(size):
        pivot = aug[p][p]
        aug[p] = [v / pivot for v in aug[p]]
        for q in range(size):
            if q != p:
                factor = aug[q][p]
                aug[q] = [v - factor * w for v, w in zip(aug[q], aug[p])]
    inv = [row[size:] for row in aug]
    coef = [[sum(row[p] * inv[p][q] for p in range(size))
             for q in range(size)] for row in vand]
    return [[int(a == b) - sum(x * y for x, y in zip(coef[a], vand[b]))
             for b in range(n)] for a in range(n)]


def cross_cov_reference(n: int, m: int, offset: int, hurst1: float,
                        hurst2: float, degree: int) -> float:
    """cov(F2_cross of window [1..n], F2_cross of window
    [offset+1..offset+m]) under the null, from the full fBm kernel.

    trace(Q_n A_H Q_m A_G^T) / (n m) with the exact rational residual
    projectors and 50-digit powers, so the rank-one parts of the fBm
    blocks cancel without loss; uses the standard library only.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        q_n, q_m = ([[Decimal(v.numerator) / Decimal(v.denominator)
                      for v in row]
                     for row in _residual_projector(size, degree)]
                    for size in (n, m))
        half = Decimal(1) / 2

        def fbm_block(hurst):
            power = {}

            def pw(x):
                x = abs(x)
                if x not in power:
                    power[x] = Decimal(x) ** Decimal(2.0 * hurst)
                return power[x]

            return [[half * (pw(a) + pw(b + offset) - pw(a - b - offset))
                     for b in range(1, m + 1)] for a in range(1, n + 1)]

        a_h, a_g = fbm_block(hurst1), fbm_block(hurst2)
        left = [[sum(q_n[a][c] * a_h[c][b] for c in range(n))
                 for b in range(m)] for a in range(n)]
        proj = [[sum(left[a][c] * q_m[c][b] for c in range(m))
                 for b in range(m)] for a in range(n)]
        trace = sum(proj[a][b] * a_g[a][b]
                    for a in range(n) for b in range(m))
        return float(trace / (n * m))


def fgn_cross_cov_reference(k: int, params: FbmParams) -> float:
    """gamma12(k) of bivariate fGn: the second difference at integer lag
    k of the cross kernel psi(u) = (rho - eta sign u)|u|^{H+G}, or
    rho|u| + eta u log|u| on the H + G = 1 branch, in 50-digit decimal
    arithmetic (standard library only).  With H = G, rho = 1 and eta = 0
    it is the fGn autocovariance."""
    with localcontext() as ctx:
        ctx.prec = 50
        hg = params.hurst1 + params.hurst2
        rho, eta = Decimal(params.rho), Decimal(params.eta)

        def psi(u):
            if u == 0:
                return Decimal(0)
            a = Decimal(abs(u))
            if abs(hg - 1.0) < _LOG_BRANCH_TOL:
                return rho * a + eta * Decimal(u) * a.ln()
            return (rho - eta * (1 if u > 0 else -1)) * a ** Decimal(hg)

        d2 = psi(k + 1) - 2 * psi(k) + psi(k - 1)
        return float(Decimal(params.sigma1) * Decimal(params.sigma2) * d2 / 2)


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


def bfgn_joint_cov(n: int, params: FbmParams) -> np.ndarray:
    """Covariance of the stacked increments (y1(0..n-1), y2(0..n-1)) of
    bivariate fGn, entry by entry: E[y1(i) y2(j)] = gamma12(j - i)."""
    i, j = np.indices((n, n))
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = fgn_autocov(j - i, params.hurst1, params.sigma1)
    cov[n:, n:] = fgn_autocov(j - i, params.hurst2, params.sigma2)
    cov[:n, n:] = fgn_cross_cov(j - i, params)
    cov[n:, :n] = cov[:n, n:].T
    return cov


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
        scales, n_samples, (grid[0], grid[-1]), (grid[0], grid[-1]), table))
    worst["violation"] = 0
    worst.update({f"bound_n{n}": b for n, b in zip(scales, wc_bounds)})
    rows = []
    for h in grid:
        for g in grid:
            node, bounds = row(float(h), float(g), rho_null_cov(
                scales, n_samples, float(h), float(g), table))
            node["violation"] = int(np.any(bounds > wc_bounds + 1e-12))
            node.update({f"bound_n{n}": b for n, b in zip(scales, bounds)})
            rows.append(node)
    return rows + [worst]


# The whole-array circulant generator: every covariance sequence, row,
# spectrum, draw block and inverse transform at full length.  The
# package's chunked generator must give the same bytes.

def _embed(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    return np.concatenate([pos, neg[-2:0:-1]])


def _whole_auto_spectrum(length: int, hurst: float,
                         sigma: float) -> np.ndarray:
    x = np.asarray(fgn_autocov(np.arange(length // 2 + 1), hurst, sigma))
    return np.fft.rfft(_embed(x, x)).real.copy()


def whole_array_root(n: int, params: FbmParams):
    """Embedding length and the 2x2 spectral root (b11, b22, b12)."""
    length = _embedding_length(n)
    lam11 = _whole_auto_spectrum(length, params.hurst1, params.sigma1)
    lam22 = _whole_auto_spectrum(length, params.hurst2, params.sigma2)
    lags = np.arange(length // 2 + 1)
    lam12 = np.fft.rfft(_embed(np.asarray(fgn_cross_cov(-lags, params)),
                               np.asarray(fgn_cross_cov(lags, params))))
    scale = max(lam11.max(), lam22.max())
    if lam11.min() < -_EMBED_TOL * scale or lam22.min() < -_EMBED_TOL * scale:
        raise ValueError("circulant embedding has negative auto spectrum")
    np.clip(lam11, 0.0, None, out=lam11)
    np.clip(lam22, 0.0, None, out=lam22)
    det = lam11 * lam22
    det -= np.abs(lam12) ** 2
    if det.min() < -_EMBED_TOL * scale ** 2:
        raise ValueError("circulant embedding is not positive semidefinite")
    np.clip(det, 0.0, None, out=det)
    sq_det = np.sqrt(det, out=det)
    denom = lam11 + lam22
    denom += 2.0 * sq_det
    np.sqrt(np.clip(denom, 1e-300, None, out=denom), out=denom)
    for block in (lam11, lam22):
        block += sq_det
    for block in (lam11, lam22, lam12):
        block /= denom
    return length, lam11, lam22, lam12


def _whole_array_circulant(n, params, rng):
    length, b11, b22, b12 = whole_array_root(n, params)
    half = length // 2
    z = rng.standard_normal((2, length))
    xi = z[:, :half + 1].astype(complex)
    xi.imag[:, 1:half] = z[:, half + 1:]
    xi[:, 1:half] *= math.sqrt(0.5)
    xi1, xi2 = xi
    w1 = b11 * xi1
    w1 += b12 * xi2
    w2 = np.conj(b12) * xi1
    w2 += b22 * xi2
    y1 = np.fft.irfft(w1, length, norm="ortho")
    y2 = np.fft.irfft(w2, length, norm="ortho")
    return y1[:n], y2[:n]


def _whole_array_bfgn(n, params, rng) -> SeriesPair:
    try:
        y1, y2 = _whole_array_circulant(n, params, rng)
    except ValueError:
        if not _bfgn_exists(params) or n > DENSE_N_CAP:
            raise
        y1, y2 = _gen_bfgn_dense(n, params, rng)
    return SeriesPair.from_increments(y1, y2)


def highpass_kept_fraction(n: int, cutoff: float) -> float:
    """Variance fraction of a flat spectrum that the hard high-pass at
    ``cutoff`` keeps, from a weight per real-FFT bin: bins 0 and Nyquist
    (even n) carry single weight, interior bins double."""
    freqs = np.fft.rfftfreq(n)
    weights = np.full(len(freqs), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return float(weights[freqs >= cutoff].sum() / n)


def whole_array_generate(spec: SimSpec, replicate: int = 0) -> SeriesPair:
    """``simulate.generate`` on the whole-array circulant generator."""
    rng = replicate_rng(spec.seed, replicate)
    p = spec.params
    uncorrelated = FbmParams(hurst1=p.hurst1, hurst2=p.hurst2)
    if spec.kind == "nongaussian":
        length, gain1, gain2, _ = whole_array_root(spec.n_samples,
                                                   uncorrelated)
        g = rng.standard_normal((2, length))
        g[1] = p.rho * g[0] + math.sqrt(1.0 - p.rho ** 2) * g[1]
        w = np.sign(g) * np.abs(g) ** spec.phi
        y = np.fft.irfft(np.fft.rfft(w) * (gain1, gain2), length)
        y = y[:, :spec.n_samples] / _signed_power_std(spec.phi)
        return SeriesPair.from_increments(p.sigma1 * y[0], p.sigma2 * y[1])
    if spec.kind == "mixture":
        lr = _whole_array_bfgn(spec.n_samples, uncorrelated, rng)
        z1 = rng.standard_normal(spec.n_samples)
        z2 = spec.sr_rho * z1 + math.sqrt(1.0 - spec.sr_rho ** 2) \
            * rng.standard_normal(spec.n_samples)
        hp1, _ = _highpass(z1, spec.cutoff)
        hp2, _ = _highpass(z2, spec.cutoff)
        frac = highpass_kept_fraction(spec.n_samples, spec.cutoff)
        w_lr = math.sqrt(1.0 - spec.weight)
        w_sr = math.sqrt(spec.weight / frac)
        return SeriesPair.from_increments(
            p.sigma1 * (w_lr * lr.y1 + w_sr * hp1),
            p.sigma2 * (w_lr * lr.y2 + w_sr * hp2))
    pair = _whole_array_bfgn(spec.n_samples, p, rng)
    if spec.kind == "trended":
        pair = add_trend(pair, spec.trend_coeffs1, spec.trend_coeffs2,
                         spec.trend_target)
    return pair


def _long_double_basis(n: int, degree: int) -> np.ndarray:
    """Orthonormal basis of degree-d polynomials on 1..n in long double:
    modified Gram-Schmidt, run twice, on centred powers."""
    t = np.arange(1, n + 1, dtype=np.longdouble)
    x = t - t.mean()
    q = np.empty((n, degree + 1), dtype=np.longdouble)
    for p in range(degree + 1):
        v = x ** p
        for _ in range(2):
            for j in range(p):
                v = v - (q[:, j] @ v) * q[:, j]
        q[:, p] = v / np.sqrt(v @ v)
    return q


def long_double_fluctuations(x1: np.ndarray, x2: np.ndarray, scales,
                             degree: int) -> np.ndarray:
    """(F2_cross, F2_auto1, F2_auto2) per scale, one row each, from
    residuals and sums taken in long double on the given profiles."""
    out = []
    for n in scales:
        m = len(x1) // n
        q = _long_double_basis(n, degree)
        ra, rb = (w - (w @ q) @ q.T for w in (
            x[:m * n].astype(np.longdouble).reshape(m, n) for x in (x1, x2)))
        out.append([np.sum(ra * rb) / (m * n), np.sum(ra * ra) / (m * n),
                    np.sum(rb * rb) / (m * n)])
    return np.array(out, dtype=np.longdouble)
