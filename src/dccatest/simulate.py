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

import numpy as np

from .fbm import _LOG_BRANCH_TOL, FbmParams, fgn_autocov, fgn_cross_cov
from .series import SeriesPair

DENSE_N_CAP = 4096
_EMBED_TOL = 1e-9


def replicate_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Generator for one replicate, derived from (master seed, index), so
    that a replicate's stream does not depend on which others are drawn."""
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
        # The high-pass filter keeps the bins with rfftfreq >= cutoff; for
        # odd N the top bin lies below 0.5.
        if self.kind == "mixture" \
                and np.fft.rfftfreq(self.n_samples)[-1] < self.cutoff:
            raise ValueError("high-pass cutoff leaves no spectral content")


# ---------------------------------------------------------------------------
# Bivariate fractional Gaussian noise
# ---------------------------------------------------------------------------

def _gen_bfgn_dense(n: int, params: FbmParams,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if n > DENSE_N_CAP:
        raise ValueError(
            f"dense factorization capped at N={DENSE_N_CAP} (asked {n})"
        )
    # Each kernel is evaluated at the n lags and indexed by distance.
    idx = np.arange(n)
    lag = idx[None, :] - idx[:, None]          # j - i
    dist = np.abs(lag)
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = fgn_autocov(idx, params.hurst1, params.sigma1)[dist]
    cov[n:, n:] = fgn_autocov(idx, params.hurst2, params.sigma2)[dist]
    cross = np.where(lag >= 0, fgn_cross_cov(idx, params)[dist],
                     fgn_cross_cov(-idx, params)[dist])
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


# Lags, normals and spectral bins are handled this many at a time, so
# that temporaries stay small next to the length-L buffers (16 MB each
# at N = 10^6).
_CHUNK = 1 << 16


def _chunks(start: int, stop: int):
    """Bounds (a, b) of consecutive chunks of range(start, stop)."""
    return ((a, min(a + _CHUNK, stop)) for a in range(start, stop, _CHUNK))


def _fill_row(row: np.ndarray, first, mirror=None) -> None:
    """Circulant first row of length L in place: entry k is first(k) at
    lags k = 0..L/2 and entry L - k is mirror(k) at k = 1..L/2 - 1, or
    entry k where ``mirror`` is None (a symmetric row).  The kernels
    see one chunk of lags at a time."""
    length = len(row)
    half = length // 2
    for a, b in _chunks(0, half + 1):
        row[a:b] = first(np.arange(a, b))
    if mirror is None:
        row[half + 1:] = row[half - 1:0:-1]
    else:
        for a, b in _chunks(1, half):
            row[length - b + 1:length - a + 1] = mirror(np.arange(a, b))[::-1]


def _circulant_root(n: int, params: FbmParams):
    """Embedding length and the per-frequency 2x2 square root (b11, b22,
    b12) of the circulant embedding's spectral blocks on the L/2 + 1
    non-negative frequencies, after checking that every block is
    positive semidefinite.  Read-only, since the replicates of a study
    share it (``spectral_root``).  One length-L row holds each
    circulant row in turn and one half spectrum each transform; the
    kernels and the root run chunk by chunk, in place."""
    length = _embedding_length(n)
    row = np.empty(length)
    _fill_row(row, lambda k: fgn_autocov(k, params.hurst1, params.sigma1))
    spectrum = np.fft.rfft(row)
    lam11 = spectrum.real.copy()
    _fill_row(row, lambda k: fgn_autocov(k, params.hurst2, params.sigma2))
    lam22 = np.fft.rfft(row, out=spectrum).real.copy()
    # Cross block oriented so that E[eps1(t) eps2(t+k)] = gamma12(k).
    _fill_row(row, lambda k: fgn_cross_cov(-k, params),
              lambda k: fgn_cross_cov(k, params))
    lam12 = np.fft.rfft(row, out=spectrum)
    del row, spectrum
    # The L/2 + 1 bins cover all L: lam11 and lam22 are symmetric and
    # lam12 at L - k is conj(lam12 at k), so the block at L - k is the
    # conjugate of the block at k, with the same eigenvalues.
    scale = max(lam11.max(), lam22.max())
    if lam11.min() < -_EMBED_TOL * scale or lam22.min() < -_EMBED_TOL * scale:
        raise ValueError("circulant embedding has negative auto spectrum")
    np.clip(lam11, 0.0, None, out=lam11)
    np.clip(lam22, 0.0, None, out=lam22)
    for a, b in _chunks(0, len(lam11)):
        b11, b22, b12 = lam11[a:b], lam22[a:b], lam12[a:b]
        det = b11 * b22
        det -= np.abs(b12) ** 2
        if det.min() < -_EMBED_TOL * scale ** 2:
            raise ValueError(
                f"circulant embedding of length {length} is not positive "
                "semidefinite"
            )
        np.clip(det, 0.0, None, out=det)
        # sqrt(M) = (M + sqrt(det) I) / sqrt(trace + 2 sqrt(det)) for
        # 2x2 PSD M.
        sq_det = np.sqrt(det, out=det)
        denom = b11 + b22
        denom += 2.0 * sq_det
        np.sqrt(np.clip(denom, 1e-300, None, out=denom), out=denom)
        for block in (b11, b22):
            block += sq_det
        for block in (b11, b22, b12):
            block /= denom
    for block in (lam11, lam22, lam12):
        block.setflags(write=False)
    return length, lam11, lam22, lam12


def _half_spectra(rngs, half: int) -> np.ndarray:
    """One component's half spectra of a block, a row per generator: each
    draws L = 2 half normals on its L/2 + 1 bins, the first L/2 + 1 the
    real parts of bins 0..L/2, the other L/2 - 1 the imaginary parts of
    bins 1..L/2 - 1.  Bins 0 and L/2 stay real with unit variance;
    interior bins are scaled to E|xi|^2 = 1."""
    xi = np.empty((len(rngs), half + 1), dtype=complex)
    for row, rng in zip(xi, rngs):
        for a, b in _chunks(0, half + 1):
            row.real[a:b] = rng.standard_normal(b - a)
        row.imag[[0, half]] = 0.0
        for a, b in _chunks(1, half):
            row.imag[a:b] = rng.standard_normal(b - a)
    xi[:, 1:half] *= math.sqrt(0.5)
    return xi


def _gen_bfgn_circulant(n: int, params: FbmParams, rngs, root=None
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One pair per generator of ``rngs``, from ``root``, or from the root
    of (n, params), which is then dropped before the inverse transforms.
    The block's half spectra are mixed and transformed as (B, L/2 + 1)
    arrays, so a block of one holds what a single pair needs."""
    length, b11, b22, b12 = root or _circulant_root(n, params)
    half = length // 2
    xi1 = _half_spectra(rngs, half)
    xi2 = _half_spectra(rngs, half)
    # The two half spectra are mixed bin by bin, in place.
    for a, b in _chunks(0, half + 1):
        x1, x2 = xi1[:, a:b], xi2[:, a:b]
        w2 = np.conj(b12[a:b]) * x1
        w2 += b22[a:b] * x2
        np.multiply(b11[a:b], x1, out=x1)
        x1 += b12[a:b] * x2
        x2[:] = w2
    del b11, b22, b12, x1, x2, w2
    # The Hermitian extension of xi makes the inverse transform real;
    # norm="ortho" is sqrt(L) * irfft.  Only the first n samples of each
    # row are kept, in arrays of their own.
    y1 = [row[:n].copy() for row in np.fft.irfft(xi1, length, norm="ortho")]
    del xi1
    y2 = [row[:n].copy() for row in np.fft.irfft(xi2, length, norm="ortho")]
    return list(zip(y1, y2))


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


def _bfgn_from_rng(n: int, params: FbmParams, rng: np.random.Generator,
                   root=None) -> SeriesPair:
    """Circulant embedding, or the dense Cholesky factor up to
    ``DENSE_N_CAP`` samples where the minimal embedding is not PSD but
    the process exists.  A refusal says which of the two holds: the
    process does not exist, or it does and N is above the cap."""
    try:
        (y1, y2), = _gen_bfgn_circulant(n, params, [rng], root)
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


def _nongaussian(spec: SimSpec, rng: np.random.Generator,
                 root=None) -> SeriesPair:
    """Fractional noise with fGn second-order structure and a
    sign(g)|g|^phi marginal driving noise.

    The transformed white noise is passed through the linear circular
    filter whose gain matches the fGn spectrum, so lag covariances up to
    the series length are exact while higher-order statistics stay
    non-Gaussian (positive excess kurtosis for phi > 1).  The gains are
    the diagonal of the bfGn root of an uncorrelated pair; its cross
    block, 0, is dropped.  ``rho`` of the parameters sets the
    correlation of the pre-transform Gaussian whites, which are mixed
    and transformed in place, then filtered one at a time.
    """
    p, n = spec.params, spec.n_samples
    length, gain1, gain2 = (root or _circulant_root(n, _root_params(spec)))[:3]
    whites = [rng.standard_normal(length), rng.standard_normal(length)]
    for a, b in _chunks(0, length):
        g1, g2 = whites[0][a:b], whites[1][a:b]
        g2 *= math.sqrt(1.0 - p.rho ** 2)
        g2 += p.rho * g1
        for g in (g1, g2):
            g[:] = np.copysign(np.abs(g) ** spec.phi, g)
    std = _signed_power_std(spec.phi)
    for i, gain in enumerate((gain1, gain2)):
        spectrum = np.fft.rfft(whites[i])
        spectrum *= gain
        np.fft.irfft(spectrum, length, out=whites[i])
        del spectrum
        whites[i] = whites[i][:n] / std
    return SeriesPair.from_increments(p.sigma1 * whites[0],
                                      p.sigma2 * whites[1])


# ---------------------------------------------------------------------------
# Short-range-contaminated mixture
# ---------------------------------------------------------------------------

def _highpass(x: np.ndarray, cutoff: float) -> tuple[np.ndarray, float]:
    """Hard spectral truncation keeping frequencies >= cutoff > 0 (cycles
    per sample); returns the filtered series and kept variance fraction."""
    n = len(x)
    spec = np.fft.rfft(x)
    keep = np.fft.rfftfreq(n) >= cutoff
    spec[~keep] = 0.0
    # Flat-spectrum variance fraction: the kept bins are the top ones,
    # each of double weight but Nyquist (even n), of single weight.
    kept = int(keep.sum())
    frac = (2 * kept - (kept > 0 and n % 2 == 0)) / n
    return np.fft.irfft(spec, n=n), frac


def _mixture(spec: SimSpec, rng: np.random.Generator,
             root=None) -> SeriesPair:
    """Independent long-range pair plus correlated high-passed white pair.

    The long-range component is bivariate fGn with the requested Hurst
    exponents and rho = 0; the short-range component is a correlated
    white pair hard high-pass filtered at the cutoff fraction.  The
    weight sets the white component's share of the unit variance, which
    sigma1 and sigma2 then scale.
    """
    p = spec.params
    lr = _bfgn_from_rng(spec.n_samples, _root_params(spec), rng, root)

    z1 = rng.standard_normal(spec.n_samples)
    z2 = spec.sr_rho * z1 + math.sqrt(1.0 - spec.sr_rho ** 2) \
        * rng.standard_normal(spec.n_samples)
    hp1, frac = _highpass(z1, spec.cutoff)
    hp2, _ = _highpass(z2, spec.cutoff)

    w_lr = math.sqrt(1.0 - spec.weight)
    w_sr = math.sqrt(spec.weight / frac)
    y1 = w_lr * lr.y1 + w_sr * hp1
    y2 = w_lr * lr.y2 + w_sr * hp2
    return SeriesPair.from_increments(p.sigma1 * y1, p.sigma2 * y2)


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


def _root_params(spec: SimSpec) -> FbmParams:
    """Parameters of the circulant root a simulation kind draws from:
    the non-Gaussian filter and the mixture's long-range pair take an
    uncorrelated unit-scale pair."""
    p = spec.params
    if spec.kind in ("nongaussian", "mixture"):
        return FbmParams(hurst1=p.hurst1, hurst2=p.hurst2)
    return p


def spectral_root(spec: SimSpec):
    """The circulant root that every replicate of ``spec`` shares, to be
    handed to ``generate``; None where the embedding is not positive
    semidefinite, so that each replicate takes its own path (the dense
    fallback or the refusal)."""
    try:
        return _circulant_root(spec.n_samples, _root_params(spec))
    except ValueError:
        return None


def generate_block(spec: SimSpec, replicates, root=None) -> list[SeriesPair]:
    """``generate(spec, i, root)`` for each i of ``replicates``, in order.
    bfGn pairs from a shared ``root`` are drawn as one block: each from
    its own stream, mixed and transformed together."""
    if spec.kind != "bfgn" or root is None:
        return [generate(spec, i, root) for i in replicates]
    rngs = [replicate_rng(spec.seed, i) for i in replicates]
    return [SeriesPair.from_increments(y1, y2) for y1, y2 in
            _gen_bfgn_circulant(spec.n_samples, spec.params, rngs, root)]


def generate(spec: SimSpec, replicate: int = 0, root=None) -> SeriesPair:
    """Draw one pair of ``spec.kind``; ``replicate`` selects an
    independent stream derived from (seed, replicate).  ``root`` is
    ``spectral_root(spec)`` where a caller draws several replicates;
    without it the root is computed for this pair alone."""
    rng = replicate_rng(spec.seed, replicate)
    if spec.kind == "nongaussian":
        return _nongaussian(spec, rng, root)
    if spec.kind == "mixture":
        return _mixture(spec, rng, root)
    pair = _bfgn_from_rng(spec.n_samples, spec.params, rng, root)
    if spec.kind == "trended":
        pair = add_trend(pair, spec.trend_coeffs1, spec.trend_coeffs2,
                         spec.trend_target)
    return pair
