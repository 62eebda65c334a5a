"""Joint-exceedance test for long-range cross-correlation.

The observed statistic is the largest standardisation level lambda such
that at least kappa of the r scaled coefficients sqrt([N/n_i]) rho(n_i)
exceed lambda * sqrt(C_ii) simultaneously, on the better of the two sign
branches; equivalently the kappa-th largest standardised value.

For kappa < r its null distribution lives in :class:`GaussianTailPool`,
built from Monte Carlo draws of N(0, C): each draw is scored with the
same statistic, so the pool's tail above an observed value is that
value's p-value.  The critical threshold theta* is the smallest value
whose pool tail is at most the level, a draw.  For kappa = r the tail
is a Gaussian orthant probability, which :class:`LatticeTail`
integrates on a randomised lattice; theta* closes a bracket around the
level on that fixed lattice.  Either way the p-value is floored at the
1/mc_samples resolution, rejection is decided from it, and reject iff
p <= level iff T >= theta* holds exactly.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import CovTable, NullCovariance, rho_null_cov, worst_case_cov
from .fluctuation import FluctuationSet, HurstEstimate, fluctuation_analysis, \
    hurst_estimate
from .series import ScaleSet, SeriesPair

_CHUNK = 1 << 17
# Chunks are filled on this many threads; numpy's generators, products
# and sorts release the interpreter lock.
_POOL_THREADS = 2
# Rows of one block: at most 2**18 multiply-adds per matrix product, a
# size OpenBLAS runs on the calling thread rather than on its own worker
# threads, which would spin on the cores the pool's threads use.
_BLOCK_MADDS = 1 << 18
MIN_MC_SAMPLES = 100_000

# Default half-width of the Hurst range around DFA estimates in 'auto'
# mode; the covariance may be recomputed with a tighter range when the
# exponents are known more precisely.
AUTO_HURST_MARGIN = 0.1

# The consecutive stages of :func:`stat_dcca` timed in ``stage_s``; the
# statistic is timed with the null covariance.  At kappa = r, ``pool``
# times the lattice's set-up and ``threshold`` the statistic's tail and
# the search.
STAGES = ("fluctuations", "hurst", "null_cov", "pool", "threshold",
          "p_value")


def _factor_cov(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular-like factor L with L L^T = C; eigenvalue fallback
    tolerates round-off level negativity only."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(matrix)
        if vals[0] < -1e-8 * float(np.trace(matrix)):
            raise RuntimeError(
                f"covariance factorization failed (eigmin {vals[0]:.3e})"
            ) from None
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _chunk_generators(samples: int, seed: int) -> list:
    """One generator per _CHUNK rows of a pool's draws, spawned from
    ``seed``: the streams every pool of that seed and size draws."""
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(n_chunks)]


def pool_normals(samples: int, r: int, seed: int) -> np.ndarray:
    """The standard normals a ``GaussianTailPool`` of dimension r draws,
    as one (samples, r) matrix of samples * r * 8 bytes; pools of any
    covariance take it as ``normals`` and skip their draws."""
    out = np.empty((samples, r))
    for i, rng in enumerate(_chunk_generators(samples, seed)):
        rng.standard_normal(out=out[i * _CHUNK:(i + 1) * _CHUNK])
    return out


class GaussianTailPool:
    """Monte Carlo null of the joint statistic under N(0, C).

    Holds the sorted kappa-th order statistic (the better of the two sign
    branches) of ``samples`` draws, which gives the p-values and the
    thresholds at which they cross each level.  Chunked generation with
    seeds derived from a SeedSequence keeps results reproducible and
    independent of chunk scheduling, so the chunks of a pool with more
    than one are filled on two threads; a pool rebuilt from the same
    arguments gives the same numbers.

    Given ``normals = pool_normals(samples, r, seed)``, the pool takes
    its blocks from that matrix instead of drawing them and is the same
    pool bit for bit; without it no samples x r matrix is held.  For
    kappa = 1 and kappa = r the levels are selected without a sort.
    """

    def __init__(self, matrix: np.ndarray, kappa: int, samples: int,
                 seed: int, normals: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=float)
        r = matrix.shape[0]
        if not 1 <= kappa <= r:
            raise ValueError(f"kappa must lie in 1..{r}")
        if samples < MIN_MC_SAMPLES:
            raise ValueError(f"need at least {MIN_MC_SAMPLES} MC samples")
        if normals is not None and np.shape(normals) != (samples, r):
            raise ValueError(
                f"normals have shape {np.shape(normals)}, the pool needs "
                f"({samples}, {r})"
            )
        factor = _factor_cov(matrix)
        std = np.sqrt(np.diag(matrix))

        rngs = _chunk_generators(samples, seed)
        rows = max(1, _BLOCK_MADDS // r ** 2)
        values = np.empty(samples)

        def fill(i):
            # Chunk i block by block: its generator gives the same stream
            # whether drawn at once or in consecutive blocks.
            stop = min((i + 1) * _CHUNK, samples)
            for start in range(i * _CHUNK, stop, rows):
                end = min(start + rows, stop)
                draws = rngs[i].standard_normal((end - start, r)) \
                    if normals is None else normals[start:end]
                s = draws @ factor.T
                s /= std
                np.maximum(*_branch_levels(s, kappa), out=values[start:end])

        if len(rngs) == 1:
            fill(0)
        else:
            with ThreadPoolExecutor(_POOL_THREADS) as executor:
                list(executor.map(fill, range(len(rngs))))
        values.sort()
        self.values = values
        self.samples = samples

    def prob_above(self, theta):
        """(estimate, binomial standard error) of Pr(statistic > theta),
        elementwise when ``theta`` is an array."""
        count = self.samples - np.searchsorted(self.values, theta,
                                               side="right")
        p = count / self.samples
        return p, np.sqrt(p * (1.0 - p) / self.samples)

    def _threshold_index(self, level: float) -> int:
        """Index of theta*, the (c+1)-th largest draw: c the largest count
        with c / M <= level in the decision's float comparison."""
        if not 1.0 / self.samples <= level < 1.0:
            raise ValueError(
                f"level must lie in [1/{self.samples}, 1): the Monte Carlo "
                "resolution of the p-value is 1/samples")
        c = math.floor(level * self.samples)
        c = max(k for k in (c - 1, c, c + 1) if k / self.samples <= level)
        return self.samples - 1 - c

    def threshold(self, level: float) -> float:
        """theta*, the draw a statistic reaches exactly when its p-value
        is at most ``level``."""
        return float(self.values[self._threshold_index(level)])

    def threshold_stderr(self, level: float) -> float:
        """Monte Carlo standard error of theta*: half the gap between the
        draws s = ceil(sqrt(M level (1 - level))) positions either side of
        it (the binomial SD of the count above it), clipped to the pool."""
        i = self._threshold_index(level)
        s = math.ceil(math.sqrt(self.samples * level * (1.0 - level)))
        return float(self.values[min(i + s, self.samples - 1)]
                     - self.values[max(i - s, 0)]) / 2.0

    def p_values(self, stats):
        """(p-value, standard error) of observed statistics, elementwise
        for an array: the pool's tail above each, floored at the
        1/samples Monte Carlo resolution."""
        p, se = self.prob_above(stats)
        p = np.maximum(p, 1.0 / self.samples)
        if np.ndim(stats) == 0:
            return float(p), float(se)
        return p, se


# The kappa = r tail's lattice: Richtmyer points per random shift, each
# with its antithetic twin, and the bracket width that closes theta*.
# Then, highest order first, the Chebyshev fit of erfc (relative error
# below 1.2e-7; Numerical Recipes' erfcc) and Acklam's rational Phi^-1
# (below 1.2e-9): central numerator and denominator, then the tails'.
LATTICE_POINTS, LATTICE_SHIFTS, _THETA_TOL = 512, 8, 1e-6
_ERFC = (0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
         -0.18628806, 0.09678418, 0.37409196, 1.00002368, -1.26551223)
_PPF = ((-39.69683028665376, 220.9460984245205, -275.9285104469687,
         138.3577518672690, -30.66479806614716, 2.506628277459239),
        (-54.47609879822406, 161.5858368580409, -155.6989798598866,
         66.80131188771972, -13.28068155288572, 1.0),
        (-7.784894002430293e-03, -0.3223964580411365, -2.400758277161838,
         -2.549732539343734, 4.374664141464968, 2.938163982698783),
        (7.784695709041462e-03, 0.3224671290700398, 2.445134137142996,
         3.754408661907416, 1.0))


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """np.polyval(coefs, x) in one buffer, in half its time."""
    out = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _ncdf(x: np.ndarray) -> np.ndarray:
    """Phi, elementwise."""
    z = np.abs(x) * math.sqrt(0.5)
    t = 1.0 / (1.0 + 0.5 * z)
    tail = 0.5 * t * np.exp(_horner(_ERFC, t) - z * z)   # Phi(-|x|)
    return np.where(x < 0, tail, 1.0 - tail)


def _nppf(u: np.ndarray) -> np.ndarray:
    """Phi^-1 on (0, 1), elementwise."""
    q = u - 0.5
    x = q * _horner(_PPF[0], q * q) / _horner(_PPF[1], q * q)
    tails = np.flatnonzero(np.abs(q) > 0.5 - 0.02425)
    s = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)[tails]))
    x[tails] = np.copysign(_horner(_PPF[2], s) / _horner(_PPF[3], s),
                           q[tails])
    return x


class LatticeTail:
    """Pr(T > t) at kappa = r under N(0, C), by Genz's separation of
    variables (Genz 1992; Genz and Bretz 2009): 2 Pr(all s_i < -t) for the
    standardised draw s, less the box Pr(t < s_i < -t for all i) where the
    two orthants overlap (t < 0).  Each is a mean over one seeded rank-1
    lattice (Richtmyer vectors, the baker's transform, random shifts and
    antithetic pairs), with the standard error of the per-shift means.
    The variables take Genz-Bretz order for the orthant below 0 once, so
    the estimate is one smooth function of t; no BLAS call sees the
    lattice."""

    def __init__(self, matrix: np.ndarray, seed: int):
        std = np.sqrt(np.diag(matrix))
        corr, r = matrix / np.outer(std, std), len(matrix)
        low, y, order, rest = np.zeros((r, r)), np.zeros(r), [], list(range(r))
        # Genz-Bretz order: each step takes the variable least likely to
        # lie below 0, given the earlier ones at their truncated means y.
        for i in range(r):
            sd = np.sqrt(np.maximum(1.0 - np.sum(low[rest, :i] ** 2, axis=1),
                                    0.0))
            b = -(low[rest, :i] @ y[:i]) / np.maximum(sd, 1e-300)
            k = int(np.argmin(b))
            if not sd[k] > 0:
                raise RuntimeError(f"covariance factorization failed (pivot "
                                   f"{sd[k] ** 2:.3e})")
            order.append(rest.pop(k))
            low[order[-1], i] = sd[k]
            low[rest, i] = (corr[rest, order[-1]]
                            - low[rest, :i] @ low[order[-1], :i]) / sd[k]
            y[i] = -math.exp(-b[k] ** 2 / 2) / math.sqrt(2 * math.pi) \
                / max(0.5 * math.erfc(-b[k] * math.sqrt(0.5)), 1e-300)
        self.factor = low[order]
        primes = [p for p in range(2, 16 * r)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        x = np.sqrt(primes[:r - 1])[:, None, None] \
            * np.arange(1, LATTICE_POINTS + 1)
        # The stdlib generator: numpy.random would add its import, about
        # 10 ms, to every cold kappa = r analysis.
        rng = random.Random(seed)
        shifts = np.array([rng.random() for _ in range(
            (r - 1) * LATTICE_SHIFTS)]).reshape(r - 1, LATTICE_SHIFTS, 1)
        w = np.abs(2.0 * ((x + shifts) % 1.0) - 1.0)
        self.w = np.concatenate([w, 1.0 - w], axis=2).reshape(
            r - 1, 2 * LATTICE_SHIFTS * LATTICE_POINTS)

    def _box(self, a: float, b: float) -> np.ndarray:
        """Per-shift means of Pr(a < s_i < b for all i)."""
        low = self.factor
        s, f = np.zeros((len(low), 2 * LATTICE_SHIFTS * LATTICE_POINTS)), 1.0
        for i in range(len(low)):
            d = _ncdf((a - s[i]) / low[i, i]) if a > -math.inf else 0.0
            e = _ncdf((b - s[i]) / low[i, i]) - d
            f = f * e
            if i < len(low) - 1:
                u = np.clip(d + self.w[i] * e, 1e-300, 1.0 - 2.0 ** -53)
                s[i + 1:] += low[i + 1:, i, None] * _nppf(u)
        return f.reshape(LATTICE_SHIFTS, -1).mean(axis=1)

    def prob_above(self, t: float) -> tuple[float, float]:
        """(estimate, standard error) of Pr(T > t)."""
        per = 2.0 * self._box(-math.inf, -t)
        if t < 0:
            per -= self._box(t, -t)
        return float(per.mean()), \
            float(per.std(ddof=1) / math.sqrt(LATTICE_SHIFTS))

    def threshold(self, level: float, t_obs: float,
                  tail_obs: tuple[float, float]) -> tuple[float, float]:
        """(theta*, its standard error): the upper end of a bracket
        [lo, hi], p(lo) > level >= p(hi), of width at most _THETA_TOL, and
        the SE of p there over the bracket's slope of p.  The statistic
        and its ``prob_above`` open the bracket and every later point lies
        inside it, so p(t_obs) <= level iff t_obs >= theta*.  Each next
        point is the secant root through the last two points in
        g = Phi^-1(p) - Phi^-1(level), else the midpoint of the bracket,
        or, while one end is open, a step of g (the slope for r = 1)."""
        lo, hi, prev = -math.inf, math.inf, None
        x, (p, se) = t_obs, tail_obs
        while True:
            if p > level:
                lo, p_lo = x, p
            else:
                hi, p_hi, se_hi = x, p, se
            if hi - lo <= _THETA_TOL:
                return hi, se_hi * (hi - lo) / max(p_lo - p_hi, 1e-300)
            g = float(np.subtract(*_nppf(np.clip([p, level], 1e-300,
                                                 1.0 - 2.0 ** -53))))
            step = math.nan if prev is None or g == prev[1] \
                else x - g * (x - prev[0]) / (g - prev[1])
            if not lo < step < hi:
                step = x + g if math.isinf(hi - lo) else (lo + hi) / 2
            prev, x = (x, g), min(max(step, lo + _THETA_TOL / 2),
                                  hi - _THETA_TOL / 2)
            p, se = self.prob_above(x)


def scaled_rho(rho: np.ndarray, window_counts: np.ndarray) -> np.ndarray:
    """Map raw coefficients to the sqrt([N/n_i]) rho(n_i) convention."""
    return np.asarray(rho, dtype=float) * np.sqrt(window_counts)


def _branch_levels(s: np.ndarray, kappa: int):
    """(kappa-th largest, minus kappa-th smallest) of standardised values
    along the last axis: the levels of the positive and negative branch.

    For kappa = 1 and kappa = r these are the row minimum and maximum,
    taken by a running ``np.fmin``/``np.maximum`` over the r columns:
    faster than a sort, and the sort's values (NaN sorts last, so the
    minimum skips it and the maximum is NaN).  Other kappa take one sort
    along the last axis, which for r <= 64 is faster than either one or
    two ``np.partition`` calls.
    """
    r = s.shape[-1]
    if kappa in (1, r):
        low, high = s[..., 0].copy(), s[..., 0].copy()
        for j in range(1, r):
            np.fmin(low, s[..., j], out=low)
            np.maximum(high, s[..., j], out=high)
        return (low, -high) if kappa == r else (high, -low)
    ordered = np.sort(s, axis=-1)
    return ordered[..., r - kappa], -ordered[..., kappa - 1]


def _standardised(rho_scaled, cov: NullCovariance, kappa: int) -> np.ndarray:
    rho_scaled = np.asarray(rho_scaled, dtype=float)
    r = cov.r
    if rho_scaled.shape[-1:] != (r,):
        raise ValueError(
            f"rho vectors have shape {rho_scaled.shape}, covariance is "
            f"{r}x{r}"
        )
    if not 1 <= kappa <= r:
        raise ValueError(f"kappa must lie in 1..{r}")
    diag = np.diag(cov.matrix)
    if np.any(diag <= 0):
        raise ValueError("covariance diagonal must be positive")
    return rho_scaled / np.sqrt(diag)


def test_statistic(rho_scaled: np.ndarray, cov: NullCovariance, kappa: int):
    """kappa-th largest standardised value over the better sign branch;
    one value per row when ``rho_scaled`` is a (replicates, r) matrix."""
    stat = np.maximum(*_branch_levels(_standardised(rho_scaled, cov, kappa),
                                      kappa))
    return float(stat) if stat.ndim == 0 else stat


def statistic_direction(rho_scaled: np.ndarray, cov: NullCovariance,
                        kappa: int) -> str:
    """Sign branch achieving the statistic ('positive' or 'negative')."""
    upper, lower = _branch_levels(_standardised(rho_scaled, cov, kappa),
                                  kappa)
    return "positive" if upper >= lower else "negative"


# ---------------------------------------------------------------------------
# Full test procedure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestConfig:
    """Configuration of the joint-exceedance test."""

    __test__ = False  # not a pytest class despite the name

    scale_set: ScaleSet
    level: float = 0.05
    kappa: int | None = None          # None is resolved to r
    hurst_mode: tuple = ("auto",)     # ("known", H, G) | ("range", hl, hh,
                                      #  gl, gh) | ("auto",)
    mc_samples: int = 1_000_000       # kappa < r pool draws; p floor 1/M
    seed: int = 0

    def __post_init__(self):
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.scale_set.r)
        if not 1 <= self.kappa <= self.scale_set.r:
            raise ValueError(f"kappa must lie in 1..{self.scale_set.r}")
        if self.mc_samples < MIN_MC_SAMPLES:
            raise ValueError(f"mc_samples must be >= {MIN_MC_SAMPLES}")
        if not 1.0 / self.mc_samples <= self.level < 1.0:
            raise ValueError(
                f"level must lie in [1/{self.mc_samples}, 1): the p-value "
                "is floored at 1/mc_samples")
        mode = self.hurst_mode[0]
        if mode not in ("known", "range", "auto"):
            raise ValueError(f"unknown Hurst mode {mode!r}")
        ranges = (self.hurst_mode[1:3], self.hurst_mode[3:5])
        if mode == "range" and not all(0.5 <= lo <= hi < 1.0
                                       for lo, hi in ranges):
            raise ValueError("Hurst ranges must satisfy 0.5 <= low <= high"
                             " < 1")


@dataclass(frozen=True)
class TestOutcome:
    """Result of the joint-exceedance test on one series pair."""

    __test__ = False  # not a pytest class despite the name

    statistic: float
    threshold: float                # theta*: reject iff statistic >= it
    threshold_stderr: float         # its Monte Carlo standard error
    p_value: float
    p_stderr: float
    tail: dict                      # the tail method and its size
    reject: bool
    direction: str                  # 'positive' | 'negative' | 'none'
    rho: np.ndarray
    rho_bounds: np.ndarray          # theta* sqrt(C_ii/[N/n_i]) on rho scale
    fluctuations: FluctuationSet
    null_cov: NullCovariance
    hurst1: HurstEstimate
    hurst2: HurstEstimate
    config: TestConfig
    discarded: np.ndarray
    warnings: tuple[str, ...] = field(default_factory=tuple)
    stage_s: dict[str, float] = field(default_factory=dict)

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "not-reject"


def build_null_cov(config: TestConfig, n_samples: int, table: CovTable,
                   est1: HurstEstimate | None = None,
                   est2: HurstEstimate | None = None) -> NullCovariance:
    """Null covariance per the configured Hurst mode, at the table's
    degree, which must be the scales' degree."""
    scales, degree = config.scale_set.scales, config.scale_set.degree
    if degree != table.degree:
        raise ValueError(f"table was tabulated for degree {table.degree}, "
                         f"not {degree}")
    mode = config.hurst_mode[0]
    if mode == "known":
        _, h, g = config.hurst_mode
        return rho_null_cov(scales, n_samples, h, g, table)
    if mode == "range":
        return worst_case_cov(scales, n_samples, config.hurst_mode[1:3],
                              config.hurst_mode[3:5], table)
    if est1 is None or est2 is None:
        raise ValueError("auto Hurst mode needs DFA estimates")
    # Ends below 0.5, the model's floor, are raised to it; stat_dcca
    # notes an estimate whose whole range lies below it.
    return worst_case_cov(scales, n_samples, *[
        (max(est.h_hat - AUTO_HURST_MARGIN, 0.5),
         max(est.h_hat + AUTO_HURST_MARGIN, 0.5)) for est in (est1, est2)],
        table)


def stat_dcca(pair: SeriesPair, config: TestConfig,
              table: CovTable) -> TestOutcome:
    """Run the full test: profiles, rho vector, null covariance,
    statistic, threshold and conservative p-value, timing each of the
    consecutive STAGES."""
    clock = [time.perf_counter()]
    fluct = fluctuation_analysis(pair, config.scale_set)
    clock.append(time.perf_counter())
    est1, est2 = (hurst_estimate(f2, fluct.scales) for f2 in fluct.hurst_f2)
    clock.append(time.perf_counter())

    notes = []
    if est1.h_hat < 0.55 and est2.h_hat < 0.55:
        notes.append(
            f"DFA estimates H={est1.h_hat:.3f}, G={est2.h_hat:.3f} are both "
            "below 0.55; the long-range-dependence premise of the test is "
            "doubtful for this pair"
        )
    notes += [f"DFA estimate {name}={est.h_hat:.3f} lies more than "
              f"{AUTO_HURST_MARGIN} below the model's floor 0.5; the null "
              "covariance assumes an exponent of at least 0.5"
              for name, est in (("H", est1), ("G", est2))
              if est.h_hat + AUTO_HURST_MARGIN < 0.5]

    cov = build_null_cov(config, pair.n_samples, table, est1, est2)
    notes.extend(cov.notes)
    kappa = config.kappa
    counts = config.scale_set.window_counts(pair.n_samples)
    rho_sc = scaled_rho(fluct.rho, counts)
    t_obs = test_statistic(rho_sc, cov, kappa)
    clock.append(time.perf_counter())

    if kappa == cov.r:
        lattice = LatticeTail(cov.matrix, config.seed)
        tail = {"method": "lattice", "points": LATTICE_POINTS,
                "shifts": LATTICE_SHIFTS}
        clock.append(time.perf_counter())
        p_value, p_stderr = lattice.prob_above(t_obs)
        theta_star, theta_stderr = lattice.threshold(
            config.level, t_obs, (p_value, p_stderr))
        clock.append(time.perf_counter())
        p_value = min(max(p_value, 1.0 / config.mc_samples), 1.0)
    else:
        pool = GaussianTailPool(cov.matrix, kappa, config.mc_samples,
                                config.seed)
        tail = {"method": "pool", "draws": config.mc_samples}
        clock.append(time.perf_counter())
        theta_star = pool.threshold(config.level)
        theta_stderr = pool.threshold_stderr(config.level)
        clock.append(time.perf_counter())
        p_value, p_stderr = pool.p_values(t_obs)

    reject = p_value <= config.level
    direction = statistic_direction(rho_sc, cov, kappa) if reject else "none"
    clock.append(time.perf_counter())
    return TestOutcome(
        statistic=t_obs,
        threshold=theta_star,
        threshold_stderr=theta_stderr,
        p_value=p_value,
        p_stderr=p_stderr,
        tail=tail,
        reject=reject,
        direction=direction,
        rho=fluct.rho,
        rho_bounds=cov.rho_bounds(theta_star),
        fluctuations=fluct,
        null_cov=cov,
        hurst1=est1,
        hurst2=est2,
        config=config,
        discarded=config.scale_set.discarded_samples(pair.n_samples),
        warnings=tuple(notes),
        stage_s=dict(zip(STAGES, np.diff(clock).tolist())),
    )
