"""Joint-exceedance test for long-range cross-correlation.

The observed statistic is the largest standardisation level lambda such
that at least kappa of the r scaled coefficients sqrt([N/n_i]) rho(n_i)
exceed lambda * sqrt(C_ii) simultaneously, on the better of the two sign
branches; equivalently the kappa-th largest standardised value.

Its null distribution lives in one object, :class:`GaussianTailPool`,
built from Monte Carlo draws of N(0, C): each draw is scored with the
same statistic, so for every kappa the pool's tail above an observed
value is that value's p-value, floored at the 1/samples Monte Carlo
resolution.  The critical threshold theta* is read from the same sorted
pool.

Rejection is decided from the p-value (reject iff p <= level).  This
agrees with the critical-region rule T > theta* up to the 0.01 grid
resolution of the threshold.
"""

from __future__ import annotations

import math
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
_THETA_STEP = 0.01
MIN_MC_SAMPLES = 100_000

# Default half-width of the Hurst range around DFA estimates in 'auto'
# mode; the covariance may be recomputed with a tighter range when the
# exponents are known more precisely.
AUTO_HURST_MARGIN = 0.1

# The consecutive stages of :func:`stat_dcca` timed in ``stage_s``; the
# statistic is timed with the null covariance.
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
    branches) of ``samples`` draws, which gives the critical threshold
    and the p-values.  Chunked generation with seeds derived from a
    SeedSequence keeps results reproducible and independent of chunk
    scheduling, so the chunks of a pool with more than one are filled on
    two threads; a pool rebuilt from the same arguments gives the same
    numbers.

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

    def threshold(self, level: float) -> float:
        """Smallest theta on the 0.01 grid with Pr-hat(> theta) <= level,
        the inequality of the decision p <= level.

        At most c of the M draws may lie above theta, c the largest
        count with c / M <= level in the decision's float comparison, so
        theta must reach the (c+1)-th largest draw; that draw is rounded
        up to the grid.  The grid point is compared as the product
        k * 0.01, the value returned.
        """
        if not 1.0 / self.samples <= level < 1.0:
            raise ValueError(
                f"level must lie in [1/{self.samples}, 1): the Monte Carlo "
                "resolution of the p-value is 1/samples"
            )
        c = math.floor(level * self.samples)
        c = max(k for k in (c - 1, c, c + 1) if k / self.samples <= level)
        crossing = self.values[self.samples - 1 - c]
        k = math.ceil(crossing / _THETA_STEP)
        while k * _THETA_STEP < crossing:
            k += 1
        while (k - 1) * _THETA_STEP >= crossing:
            k -= 1
        return k * _THETA_STEP

    def p_values(self, stats):
        """(p-value, standard error) of observed statistics, elementwise
        for an array: the pool's tail above each, floored at the
        1/samples Monte Carlo resolution."""
        p, se = self.prob_above(stats)
        p = np.maximum(p, 1.0 / self.samples)
        if np.ndim(stats) == 0:
            return float(p), float(se)
        return p, se


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
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.kappa is None:
            object.__setattr__(self, "kappa", self.scale_set.r)
        if not 1 <= self.kappa <= self.scale_set.r:
            raise ValueError(f"kappa must lie in 1..{self.scale_set.r}")
        if self.mc_samples < MIN_MC_SAMPLES:
            raise ValueError(f"mc_samples must be >= {MIN_MC_SAMPLES}")
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
    threshold: float
    p_value: float
    p_stderr: float
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
    # Ends below 0.5, the model's floor, are raised to it without a note.
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
    est1 = hurst_estimate(fluct.f2_auto1, fluct.scales)
    est2 = hurst_estimate(fluct.f2_auto2, fluct.scales)
    clock.append(time.perf_counter())

    notes = []
    if est1.h_hat < 0.55 and est2.h_hat < 0.55:
        notes.append(
            f"DFA estimates H={est1.h_hat:.3f}, G={est2.h_hat:.3f} are both "
            "below 0.55; the long-range-dependence premise of the test is "
            "doubtful for this pair"
        )

    cov = build_null_cov(config, pair.n_samples, table, est1, est2)
    notes.extend(cov.notes)
    kappa = config.kappa
    counts = config.scale_set.window_counts(pair.n_samples)
    rho_sc = scaled_rho(fluct.rho, counts)
    t_obs = test_statistic(rho_sc, cov, kappa)
    clock.append(time.perf_counter())

    pool = GaussianTailPool(cov.matrix, kappa, config.mc_samples,
                            config.seed)
    clock.append(time.perf_counter())
    theta_star = pool.threshold(config.level)
    clock.append(time.perf_counter())
    p_value, p_stderr = pool.p_values(t_obs)

    reject = p_value <= config.level
    direction = statistic_direction(rho_sc, cov, kappa) if reject else "none"
    clock.append(time.perf_counter())
    return TestOutcome(
        statistic=t_obs,
        threshold=theta_star,
        p_value=p_value,
        p_stderr=p_stderr,
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
