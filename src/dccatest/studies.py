"""Validation studies: null calibration, short-range robustness, the
worst-case bound check, test power, and the speed comparison.

Each study returns a dict with a ``rows`` list (one record per
replicate or grid node, suitable for CSV export) plus summary fields.
Replicates derive their random streams from (seed, index).  The
settings no caller varies are the module constants below; the white
pair of the short-range mixtures takes the ``SimSpec`` defaults.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist

import numpy as np

from .asymptotics import CovTable, rho_null_cov, worst_case_cov
from .fbm import FbmParams
from .fluctuation import BLOCK, rho_block
from .series import make_scales
from .simulate import SimSpec, generate_block, spectral_root
from .testkit import THREADS, GaussianTailPool, LatticeTail, floored_p, \
    pool_normals, scaled_rho, test_statistic

STUDY_NAMES = ("calibration", "nongaussian", "shortrange", "upperbound",
               "power", "speed")

# Every study uses R log-spaced scales, detrended at the table's degree;
# the simulated pairs have Hurst exponents HURST, or SHORTRANGE_HURST in
# the short-range study.
R = 10
HURST = (0.7, 0.8)
SHORTRANGE_HURST = (0.9, 0.9)
# Scale ranges (n_min, n_max); nongaussian and upperbound use calibration's.
CALIBRATION_SCALES = (20, 500)
SHORTRANGE_SCALES = (10, 1000)
POWER_SCALES = (20, 2000)
SPEED_SCALES = (20, 1000)


def _block_replicates(n_samples: int) -> int:
    """Replicates per block: as many as hold at most BLOCK / 2 samples
    per series (3 at N = 10^4, 1 from N = 16,385 on), so that a block's
    arrays stay near 2.3 MiB at N = 10^4 and a calibration process stays
    below the peak of an upperbound one."""
    return max(1, BLOCK // (2 * n_samples))


def _rho_vectors(kind: str, params: FbmParams, n_samples: int, scale_set,
                 replicates: int, seed: int, phi: float = 3.0,
                 progress=None) -> np.ndarray:
    """Scaled rho vectors of simulated pairs, one row per replicate; the
    replicate streams derive from (seed, index) and share one spectral
    root.  Replicates are drawn and detrended in blocks
    (``_block_replicates``), THREADS blocks at a time; each row is bit for
    bit the one a replicate alone would give, and ``progress`` sees 1..R
    in order, from the calling thread, as each block completes."""
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    counts = scale_set.window_counts(n_samples)
    spec = SimSpec(kind=kind, n_samples=n_samples, params=params, phi=phi,
                   seed=seed)
    root = spectral_root(spec)
    size = _block_replicates(n_samples)
    blocks = [range(a, min(a + size, replicates))
              for a in range(0, replicates, size)]

    def block_rho(block):
        return rho_block(generate_block(spec, block, root), scale_set)

    out = np.empty((replicates, scale_set.r))
    with ThreadPoolExecutor(THREADS) as executor:
        for block, rho in zip(blocks, executor.map(block_rho, blocks)):
            out[block.start:block.stop] = scaled_rho(rho, counts)
            if progress is not None:
                for i in block:
                    progress(i + 1, replicates)
    return out


def _known_null(table: CovTable, n_samples: int, scale_range, hurst):
    """Scales and exact null covariance of a study whose Hurst exponents
    are known by construction.  The studies build their Monte Carlo pool
    after their replicates, so that the two do not hold memory at once."""
    scale_set = make_scales(n_samples, *scale_range, R, table.degree)
    return scale_set, rho_null_cov(scale_set.scales, n_samples, *hurst,
                                   table)


def _scored_rows(pool: GaussianTailPool, vectors: np.ndarray, cov,
                 level: float, reject: str = "reject", **lead):
    """One row per replicate (the ``lead`` fields, then its index,
    statistic, p-value and ``reject`` flag) and the rejections."""
    stats = test_statistic(vectors, cov, cov.r)
    p_vals, _ = pool.p_values(stats)
    rejected = p_vals <= level
    rows = [{**lead, "replicate": i, "statistic": t, "p_value": p,
             reject: int(x)}
            for i, (t, p, x) in enumerate(zip(stats.tolist(),
                                              p_vals.tolist(), rejected))]
    return rows, rejected


def null_calibration(table: CovTable, *, kind: str = "bfgn",
                     n_samples: int = 10_000, replicates: int = 2000,
                     level: float = 0.05, phi: float = 3.0,
                     mc_samples: int = 400_000, seed: int = 0,
                     progress=None) -> dict:
    """Type I error rate of the test (kappa = r) on independent simulated
    pairs.

    The null covariance and threshold are computed once (the Hurst
    exponents are known by construction), then all replicates are scored
    against the shared Monte Carlo null in one call.
    """
    scale_set, cov = _known_null(table, n_samples, CALIBRATION_SCALES,
                                 HURST)
    vectors = _rho_vectors(kind, FbmParams(*HURST), n_samples, scale_set,
                           replicates, seed, phi=phi, progress=progress)
    pool = GaussianTailPool(cov.matrix, cov.r, mc_samples, seed)
    rows, reject = _scored_rows(pool, vectors, cov, level)
    return {
        "study": "calibration" if kind == "bfgn" else kind,
        "rows": rows,
        "rejection_rate": int(reject.sum()) / replicates,
        "theta_star": pool.threshold(level),
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def shortrange_robustness(table: CovTable, *, n_samples: int = 20_000,
                          replicates: int = 500, level: float = 0.05,
                          mc_samples: int = 400_000, seed: int = 0,
                          progress=None) -> dict:
    """Joint test versus per-scale Bonferroni on long-range-null mixtures.

    The mixtures are long-range independent but short-range correlated;
    the per-scale baseline tests each |rho(n_i)| at level/r against the
    univariate normal quantile and rejects when any scale fires.
    """
    scale_set, cov = _known_null(table, n_samples, SHORTRANGE_SCALES,
                                 SHORTRANGE_HURST)
    z_bonf = NormalDist().inv_cdf(1.0 - level / (2.0 * scale_set.r))
    diag_std = np.sqrt(np.diag(cov.matrix))

    vectors = _rho_vectors("mixture", FbmParams(*SHORTRANGE_HURST),
                           n_samples, scale_set, replicates, seed,
                           progress=progress)
    pool = GaussianTailPool(cov.matrix, cov.r, mc_samples, seed)
    rows, joint = _scored_rows(pool, vectors, cov, level,
                               reject="reject_joint")
    bonf = np.any(np.abs(vectors) / diag_std > z_bonf, axis=1)
    for row, b in zip(rows, bonf):
        row["reject_bonferroni"] = int(b)
    return {
        "study": "shortrange",
        "rows": rows,
        "joint_rate": int(joint.sum()) / replicates,
        "bonferroni_rate": int(bonf.sum()) / replicates,
        "theta_star": pool.threshold(level),
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def upperbound_check(table: CovTable, *, n_samples: int = 10_000,
                     level: float = 0.05, mc_samples: int = 400_000,
                     seed: int = 0, progress=None) -> dict:
    """Exact-(H, G) rejection boundaries versus the worst-case boundary.

    For every tabulated grid node the per-scale boundary is
    theta* sqrt(C_ii / [N/n_i]) on the raw rho scale; the worst-case
    boundary over the full grid range must dominate all of them.  The
    exact null covariance at (H, G) equals that at (G, H), so each
    unordered pair of nodes is computed once and serves both rows.

    Every pool uses the same standard normals (common random numbers
    across nodes), drawn once: the draws each node's own seeded pool
    would make, so every theta* is that pool's.
    """
    scales = make_scales(n_samples, *CALIBRATION_SCALES, R,
                         table.degree).scales
    grid = table.grid
    normals = pool_normals(mc_samples, len(scales), seed)

    def boundary(cov):
        theta = GaussianTailPool(cov.matrix, len(scales), mc_samples, seed,
                                 normals=normals).threshold(level)
        return theta, cov.rho_bounds(theta)

    def row(h, g, theta, violation, bounds):
        return {"hurst1": h, "hurst2": g, "theta_star": theta,
                "violation": violation,
                **{f"bound_n{n}": b for n, b in zip(scales, bounds)}}

    wc_theta, wc_bounds = boundary(worst_case_cov(
        scales, n_samples, (grid[0], grid[-1]), (grid[0], grid[-1]), table))
    nodes = {}
    pairs = len(grid) * (len(grid) + 1) // 2
    rows = []
    for i, h in enumerate(grid):
        for j, g in enumerate(grid):
            if j < i:
                theta, bounds = nodes[j, i]
            else:
                theta, bounds = nodes[i, j] = boundary(rho_null_cov(
                    scales, n_samples, float(h), float(g), table))
                if progress is not None:
                    progress(len(nodes), pairs)
            exceed = int(np.any(bounds > wc_bounds + 1e-12))
            rows.append(row(float(h), float(g), theta, exceed, bounds))
    return {
        "study": "upperbound",
        "rows": rows + [row(float("nan"), float("nan"), wc_theta, 0,
                            wc_bounds)],
        "violations": sum(entry["violation"] for entry in rows),
        "worst_case_theta": wc_theta,
        "scales": list(scales),
        "level": level,
    }


def power_study(table: CovTable, *, rhos=(0.0, 0.05, 0.1, 0.2),
                n_samples: int = 40_000, replicates: int = 100,
                level: float = 0.05, mc_samples: int = 400_000,
                seed: int = 0, progress=None) -> dict:
    """Rejection rate as a function of the cross-correlation parameter.

    Replicate streams are shared across rho values (common random
    numbers), which smooths the power curve comparison.
    """
    scale_set, cov = _known_null(table, n_samples, POWER_SCALES, HURST)
    total = len(rhos) * replicates
    vectors = []
    for k, rho in enumerate(rhos):
        def tick(i, _reps, base=k * replicates):
            if progress is not None:
                progress(base + i, total)

        vectors.append(_rho_vectors(
            "bfgn", FbmParams(*HURST, rho=float(rho)), n_samples, scale_set,
            replicates, seed, progress=tick))
    pool = GaussianTailPool(cov.matrix, cov.r, mc_samples, seed)
    rows = []
    rates = {}
    for rho, rho_vectors in zip(rhos, vectors):
        rho_rows, reject = _scored_rows(pool, rho_vectors, cov, level,
                                        rho=float(rho))
        rows += rho_rows
        rates[float(rho)] = int(reject.sum()) / replicates
    return {
        "study": "power",
        "rows": rows,
        "rates": rates,
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def speed_study(table: CovTable, *, n_samples: int = 20_000,
                surrogates: int = 1000, mc_samples: int = 100_000,
                seed: int = 0, progress=None) -> dict:
    """Wall time of the tabulated-asymptotics p-value versus a
    surrogate-simulation p-value for the same observed pair.

    Both sides start from the observed rho vector; the tabulated side
    assembles the null covariance and takes the p-value as ``analyze``
    does at kappa = r (the lattice tail, floored at 1/mc_samples), the
    surrogate side simulates full pairs and recomputes their statistics.
    """
    # The observed pair is simulated first, so both sides are timed in a
    # warm process.
    scale_set = make_scales(n_samples, *SPEED_SCALES, R, table.degree)
    params = FbmParams(*HURST)
    observed = _rho_vectors("bfgn", params, n_samples, scale_set, 1, seed)[0]

    t0 = time.perf_counter()
    _, cov = _known_null(table, n_samples, SPEED_SCALES, HURST)
    t_obs = test_statistic(observed, cov, cov.r)
    p_tab = floored_p(LatticeTail(cov.matrix, seed + 1).prob_above(t_obs),
                      mc_samples)[0]
    tabulated_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vectors = _rho_vectors("bfgn", params, n_samples, scale_set, surrogates,
                           seed + 1, progress=progress)
    p_surr = float(np.mean(test_statistic(vectors, cov, cov.r) > t_obs))
    surrogate_s = time.perf_counter() - t0

    return {
        "study": "speed",
        "rows": [
            {"method": "tabulated", "seconds": tabulated_s, "p_value": p_tab},
            {"method": "surrogate", "seconds": surrogate_s, "p_value": p_surr},
        ],
        "speedup": surrogate_s / tabulated_s,
        "surrogates": surrogates,
        "scales": list(scale_set.scales),
    }
