"""Synthetic processes for validation studies.

Exact bivariate fractional Gaussian noise is generated either by dense
factorisation of the joint 2N x 2N increment covariance (reference
path, small N) or by multivariate circulant embedding on the smallest
even 5-smooth length L >= 2N (fast path); the embedding is accepted
only when every per-frequency 2x2 spectral block is positive
semidefinite, otherwise the generator falls back to the dense path
where bivariate fBm with those parameters exists, or fails.  The
embedding works on the Hermitian half spectrum (Wood & Chan 1994; Chan
& Wood 1999): L real normals per component fill the L/2 + 1
non-negative frequencies, the 2x2 block roots mix the two components
bin by bin, and one real inverse FFT per component gives the pair.
Non-Gaussian fractional noise applies a sign(x)|x|^phi marginal
transform to white noise and then shapes its spectrum to the fGn target
with a linear circular filter, so the output shares the second-order
structure of fGn while keeping positive excess kurtosis.
Short-range-contaminated mixtures superpose an independent long-range
pair with a correlated, hard high-pass-filtered white pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fbm import _LOG_BRANCH_TOL, FbmParams, fgn_autocov, fgn_cross_cov
from .series import SeriesPair

DENSE_N_CAP = 4096
_EMBED_TOL = 1e-9


def replicate_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Generator for one replicate, derived from (master seed, index) so
    parallel schedules reproduce identical streams."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one synthetic series pair."""

    kind: str                      # bfgn | nongaussian | mixture | trended
    n_samples: int
    params: FbmParams
    phi: float = 3.0               # nonlinearity exponent (nongaussian)
    cutoff: float = 0.45           # high-pass cutoff fraction (mixture)
    weight: float = 0.5            # white-noise variance share (mixture)
    sr_rho: float = 0.5            # white-pair correlation (mixture)
    trend_coeffs1: tuple[float, ...] = ()
    trend_coeffs2: tuple[float, ...] = ()
    trend_target: str = "profile"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("bfgn", "nongaussian", "mixture", "trended"):
            raise ValueError(f"unknown simulation kind {self.kind!r}")
        if self.n_samples < 16:
            raise ValueError("need at least 16 samples")
        if not self.params.is_long_range:
            raise ValueError(
                "simulated processes require Hurst exponents in [0.5, 1)"
            )
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if not 0.0 < self.cutoff <= 0.5:
            raise ValueError("cutoff fraction must lie in (0, 0.5]")
        if not 0.0 <= self.weight < 1.0:
            raise ValueError("mixture weight must lie in [0, 1)")
        if abs(self.sr_rho) > 1.0:
            raise ValueError("|sr_rho| must not exceed 1")
        if self.trend_target not in ("profile", "increments"):
            raise ValueError("trend target must be 'profile' or 'increments'")


# ---------------------------------------------------------------------------
# Bivariate fractional Gaussian noise
# ---------------------------------------------------------------------------

def _increment_cov_sequences(n_lags: int, params: FbmParams):
    lags = np.arange(n_lags)
    g11 = np.asarray(fgn_autocov(lags, params.hurst1, params.sigma1))
    g22 = np.asarray(fgn_autocov(lags, params.hurst2, params.sigma2))
    g12_pos = np.asarray(fgn_cross_cov(lags, params))
    g12_neg = np.asarray(fgn_cross_cov(-lags, params))
    return g11, g22, g12_pos, g12_neg


def _gen_bfgn_dense(n: int, params: FbmParams,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if n > DENSE_N_CAP:
        raise ValueError(
            f"dense factorization capped at N={DENSE_N_CAP} (asked {n})"
        )
    g11, g22, g12_pos, g12_neg = _increment_cov_sequences(n, params)
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None]          # j - i
    dist = np.abs(lag)
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = g11[dist]
    cov[n:, n:] = g22[dist]
    cross = np.where(lag >= 0, g12_pos[dist], g12_neg[dist])
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "joint increment covariance is not positive definite; "
            "the (rho, eta, H, G) combination is invalid"
        ) from None
    z = factor @ rng.standard_normal(2 * n)
    return z[:n], z[n:]


def _embedding_length(n: int) -> int:
    """Smallest even 5-smooth (2^a 3^b 5^c) circulant length at least 2n
    and 16: the embedding needs an even length >= 2(n - 1), and
    pocketfft transforms such lengths about as fast per point as powers
    of two."""
    half = max(8, n)
    best = 1 << (half - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches half.
            best = min(best, p35 << (-(-half // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return 2 * best


def _embed(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Circulant first row: lags 0..h from ``pos``, then lags
    -(h-1)..-1 from ``neg``, both of length h + 1."""
    return np.concatenate([pos, neg[-2:0:-1]])


def _auto_spectrum(length: int, hurst: float,
                   sigma: float = 1.0) -> np.ndarray:
    """Spectrum of the length-L circulant embedding of the fGn
    autocovariance on its L/2 + 1 non-negative frequencies (real: the
    row is symmetric)."""
    # One name for every stage, so that each frees the one before.
    x = np.asarray(fgn_autocov(np.arange(length // 2 + 1), hurst, sigma))
    x = _embed(x, x)
    x = np.fft.rfft(x)
    return x.real.copy()


@lru_cache(maxsize=4)
def _circulant_root(n: int, params: FbmParams):
    """Embedding length and the per-frequency 2x2 square root (b11, b22,
    b12) of the circulant embedding's spectral blocks on the L/2 + 1
    non-negative frequencies, after checking that every block is
    positive semidefinite.  Cached per (n, params) and read-only, since
    every replicate of a study shares them.  Covariance sequences,
    circulant rows and spectra are dropped as soon as they are used and
    the root is formed in place: each is 8-16 MB at N = 10^6."""
    length = _embedding_length(n)
    lam11 = _auto_spectrum(length, params.hurst1, params.sigma1)
    lam22 = _auto_spectrum(length, params.hurst2, params.sigma2)
    # Cross block oriented so that E[eps1(t) eps2(t+k)] = gamma12(k).
    lags = np.arange(length // 2 + 1)
    lam12 = np.fft.rfft(_embed(np.asarray(fgn_cross_cov(-lags, params)),
                               np.asarray(fgn_cross_cov(lags, params))))
    del lags
    # The L/2 + 1 bins cover all L: lam11 and lam22 are symmetric and
    # lam12 at L - k is conj(lam12 at k), so the block at L - k is the
    # conjugate of the block at k, with the same eigenvalues.
    scale = max(lam11.max(), lam22.max())
    if lam11.min() < -_EMBED_TOL * scale or lam22.min() < -_EMBED_TOL * scale:
        raise ValueError("circulant embedding has negative auto spectrum")
    np.clip(lam11, 0.0, None, out=lam11)
    np.clip(lam22, 0.0, None, out=lam22)
    det = lam11 * lam22
    det -= np.abs(lam12) ** 2
    if det.min() < -_EMBED_TOL * scale ** 2:
        raise ValueError(
            f"circulant embedding of length {length} is not positive "
            "semidefinite"
        )
    np.clip(det, 0.0, None, out=det)

    # sqrt(M) = (M + sqrt(det) I) / sqrt(trace + 2 sqrt(det)) for 2x2 PSD.
    sq_det = np.sqrt(det, out=det)
    denom = lam11 + lam22
    denom += 2.0 * sq_det
    np.sqrt(np.clip(denom, 1e-300, None, out=denom), out=denom)
    for block in (lam11, lam22):
        block += sq_det
    for block in (lam11, lam22, lam12):
        block /= denom
        block.setflags(write=False)
    return length, lam11, lam22, lam12


def _gen_bfgn_circulant(n: int, params: FbmParams,
                        rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    length, b11, b22, b12 = _circulant_root(n, params)
    # One (2, L) block of normals: entries 0..L/2 of each row are the
    # real parts of bins 0..L/2, the other L/2 - 1 the imaginary parts of
    # bins 1..L/2 - 1.  Bins 0 and L/2 stay real with unit variance;
    # interior bins are scaled to E|xi|^2 = 1.
    half = length // 2
    z = rng.standard_normal((2, length))
    xi = z[:, :half + 1].astype(complex)
    xi.imag[:, 1:half] = z[:, half + 1:]
    del z
    xi[:, 1:half] *= math.sqrt(0.5)
    xi1, xi2 = xi
    # Mixed in place and freed as soon as used (16-32 MB at N = 10^6).
    w1 = b11 * xi1
    w1 += b12 * xi2
    w2 = np.conj(b12) * xi1
    w2 += b22 * xi2
    del xi, xi1, xi2
    # The Hermitian extension of w makes the inverse transform real;
    # norm="ortho" is sqrt(L) * irfft.
    y1 = np.fft.irfft(w1, length, norm="ortho")
    del w1
    y2 = np.fft.irfft(w2, length, norm="ortho")
    return y1[:n], y2[:n]


def gen_bfgn(spec: SimSpec, replicate: int = 0) -> SeriesPair:
    """Draw one bivariate fGn pair with the marginal Hurst exponents and
    instantaneous cross-correlation of ``spec.params``."""
    rng = replicate_rng(spec.seed, replicate)
    return _bfgn_from_rng(spec.n_samples, spec.params, rng)


def _bfgn_exists(params: FbmParams) -> bool:
    """Whether bivariate fBm with these parameters exists: for
    H + G != 1, rho^2 sin^2(pi (H+G)/2) + eta^2 cos^2(pi (H+G)/2) <=
    Gamma(2H+1) Gamma(2G+1) sin(pi H) sin(pi G) / Gamma(H+G+1)^2
    (Lavancier, Philippe & Surgailis 2009; Amblard & Coeurjolly 2011),
    with a 1e-9 relative margin for the boundary; H + G = 1 is taken as
    existing."""
    h, g = params.hurst1, params.hurst2
    hg = h + g
    if abs(hg - 1.0) < _LOG_BRANCH_TOL:
        return True
    lhs = (params.rho * math.sin(0.5 * math.pi * hg)) ** 2 \
        + (params.eta * math.cos(0.5 * math.pi * hg)) ** 2
    rhs = math.gamma(2 * h + 1) * math.gamma(2 * g + 1) \
        * math.sin(math.pi * h) * math.sin(math.pi * g) \
        / math.gamma(hg + 1) ** 2
    return lhs <= rhs * (1.0 + _EMBED_TOL)


def _bfgn_from_rng(n: int, params: FbmParams,
                   rng: np.random.Generator) -> SeriesPair:
    """Circulant embedding, or the dense Cholesky factor up to
    ``DENSE_N_CAP`` samples where the minimal embedding is not PSD but
    the process exists.  A refusal says which of the two holds: the
    process does not exist, or it does and N is above the cap."""
    try:
        y1, y2 = _gen_bfgn_circulant(n, params, rng)
    except ValueError as exc:
        if not _bfgn_exists(params):
            raise ValueError(
                f"{exc}; the (rho, eta, H, G) combination is invalid"
            ) from None
        if n > DENSE_N_CAP:
            raise ValueError(
                f"the (rho, eta, H, G) process exists, but its {exc}, and "
                f"the dense factor is capped at N={DENSE_N_CAP}"
            ) from None
        y1, y2 = _gen_bfgn_dense(n, params, rng)
    return SeriesPair.from_increments(y1, y2)


# ---------------------------------------------------------------------------
# Non-Gaussian fractional noise
# ---------------------------------------------------------------------------

def _signed_power_std(phi: float) -> float:
    """Standard deviation of sign(g)|g|^phi for g ~ N(0, 1)."""
    return math.sqrt(2.0 ** phi * math.gamma(phi + 0.5) / math.sqrt(math.pi))


@lru_cache(maxsize=4)
def _fgn_filter_gains(n: int, hurst: float) -> tuple[int, np.ndarray]:
    """Nonnegative circulant spectrum of fGn on a length >= 2n grid, on
    its L/2 + 1 non-negative frequencies (the spectrum is symmetric);
    cached and read-only like ``_circulant_root``."""
    length = _embedding_length(n)
    gain = np.sqrt(np.clip(_auto_spectrum(length, hurst), 0.0, None))
    gain.setflags(write=False)
    return length, gain


def _fgn_filter(w: np.ndarray, n: int, hurst: float) -> np.ndarray:
    """First n samples of the circular filtering of the length-L series
    ``w`` by the fGn gain."""
    length, gain = _fgn_filter_gains(n, hurst)
    return np.fft.irfft(np.fft.rfft(w) * gain, length)[:n]


def gen_nongaussian(spec: SimSpec, replicate: int = 0) -> SeriesPair:
    """Fractional noise with fGn second-order structure and a
    sign(g)|g|^phi marginal driving noise.

    The transformed white noise is passed through the linear circular
    filter whose gain matches the fGn spectrum, so lag covariances up to
    the series length are exact while higher-order statistics stay
    non-Gaussian (positive excess kurtosis for phi > 1).  ``rho`` of the
    parameters sets the correlation of the pre-transform Gaussian whites.
    """
    rng = replicate_rng(spec.seed, replicate)
    p = spec.params
    sigma_w = _signed_power_std(spec.phi)

    def one(hurst: float, white: np.ndarray) -> np.ndarray:
        w = np.sign(white) * np.abs(white) ** spec.phi
        return _fgn_filter(w, spec.n_samples, hurst) / sigma_w

    length = _fgn_filter_gains(spec.n_samples, p.hurst1)[0]
    g1 = rng.standard_normal(length)
    g2 = p.rho * g1 + math.sqrt(1.0 - p.rho ** 2) * rng.standard_normal(length)
    y1 = p.sigma1 * one(p.hurst1, g1)
    y2 = p.sigma2 * one(p.hurst2, g2)
    return SeriesPair.from_increments(y1, y2)


# ---------------------------------------------------------------------------
# Short-range-contaminated mixture
# ---------------------------------------------------------------------------

def _highpass(x: np.ndarray, cutoff: float) -> tuple[np.ndarray, float]:
    """Hard spectral truncation keeping frequencies >= cutoff (cycles per
    sample); returns the filtered series and the kept variance fraction."""
    n = len(x)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n)
    keep = freqs >= cutoff
    spec[~keep] = 0.0
    # Flat-spectrum variance fraction: real-FFT bins at 0 and Nyquist
    # carry single weight, interior bins double.
    weights = np.full(len(freqs), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    frac = float(weights[keep].sum() / n)
    return np.fft.irfft(spec, n=n), frac


def gen_mixture(spec: SimSpec, replicate: int = 0) -> SeriesPair:
    """Independent long-range pair plus correlated high-passed white pair.

    The long-range component is bivariate fGn with the requested Hurst
    exponents and rho = 0; the short-range component is a correlated
    white pair hard high-pass filtered at the cutoff fraction.  The
    weight sets the white component's share of the total variance.
    """
    rng = replicate_rng(spec.seed, replicate)
    null_params = FbmParams(hurst1=spec.params.hurst1,
                            hurst2=spec.params.hurst2,
                            rho=0.0, eta=0.0)
    lr = _bfgn_from_rng(spec.n_samples, null_params, rng)

    z1 = rng.standard_normal(spec.n_samples)
    z2 = spec.sr_rho * z1 + math.sqrt(1.0 - spec.sr_rho ** 2) \
        * rng.standard_normal(spec.n_samples)
    hp1, frac = _highpass(z1, spec.cutoff)
    hp2, _ = _highpass(z2, spec.cutoff)
    if frac <= 0:
        raise ValueError("high-pass cutoff leaves no spectral content")

    w_lr = math.sqrt(1.0 - spec.weight)
    w_sr = math.sqrt(spec.weight / frac)
    y1 = w_lr * lr.y1 + w_sr * hp1
    y2 = w_lr * lr.y2 + w_sr * hp2
    return SeriesPair.from_increments(y1, y2)


# ---------------------------------------------------------------------------
# Polynomial trends
# ---------------------------------------------------------------------------

def add_trend(pair: SeriesPair, coeffs1, coeffs2,
              target: str = "profile") -> SeriesPair:
    """Add polynomial trends (ascending coefficients, evaluated at
    t = 1..N) to the chosen representation of each series; the other
    representation is recomputed consistently."""
    if target not in ("profile", "increments"):
        raise ValueError("target must be 'profile' or 'increments'")
    t = np.arange(1, pair.n_samples + 1, dtype=float)
    q1 = np.polynomial.polynomial.polyval(t, list(coeffs1) or [0.0])
    q2 = np.polynomial.polynomial.polyval(t, list(coeffs2) or [0.0])
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        raise ValueError("trend coefficients produce non-finite values")
    if target == "profile":
        return SeriesPair.from_profiles(pair.x1 + q1, pair.x2 + q2)
    return SeriesPair.from_increments(pair.y1 + q1, pair.y2 + q2)


def generate(spec: SimSpec, replicate: int = 0) -> SeriesPair:
    """Dispatch on the simulation kind; ``replicate`` selects an
    independent stream derived from (seed, replicate)."""
    if spec.kind == "bfgn":
        return gen_bfgn(spec, replicate=replicate)
    if spec.kind == "nongaussian":
        return gen_nongaussian(spec, replicate=replicate)
    if spec.kind == "mixture":
        return gen_mixture(spec, replicate=replicate)
    pair = _bfgn_from_rng(spec.n_samples, spec.params,
                          replicate_rng(spec.seed, replicate))
    return add_trend(pair, spec.trend_coeffs1, spec.trend_coeffs2,
                     spec.trend_target)
