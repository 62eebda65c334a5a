"""Validation studies: null calibration, short-range robustness, the
worst-case bound check, test power, and the speed comparison.

Each study returns a dict with a ``rows`` list (one record per
replicate or grid node, suitable for CSV export) plus summary fields.
Replicates derive their random streams from (seed, index) so results do
not depend on scheduling.
"""

from __future__ import annotations

import time
from functools import partial
from statistics import NormalDist

import numpy as np

from .asymptotics import CovTable, rho_null_cov, worst_case_cov
from .fbm import FbmParams
from .fluctuation import fluctuation_analysis
from .series import make_scales
from .simulate import SimSpec, generate
from .testkit import GaussianTailPool, pool_normals, scaled_rho, \
    test_statistic

STUDY_NAMES = ("calibration", "nongaussian", "shortrange", "upperbound",
               "power", "speed")


def _one_rho_vector(spec: SimSpec, scale_set, counts, index: int):
    pair = generate(spec, replicate=index)
    fl = fluctuation_analysis(pair, scale_set)
    return scaled_rho(fl.rho, counts)


def _rho_vectors(kind: str, params: FbmParams, n_samples: int, scale_set,
                 replicates: int, seed: int, phi: float = 3.0,
                 weight: float = 0.5, cutoff: float = 0.45,
                 sr_rho: float = 0.5, progress=None,
                 mapper=map) -> np.ndarray:
    """Scaled rho vectors of simulated pairs, one row per replicate.

    Replicate streams derive from (seed, index), so any order-preserving
    ``mapper`` (the built-in ``map`` or a process pool's ``map``)
    reproduces the serial output exactly.
    """
    counts = scale_set.window_counts(n_samples)
    spec = SimSpec(kind=kind, n_samples=n_samples, params=params, phi=phi,
                   weight=weight, cutoff=cutoff, sr_rho=sr_rho, seed=seed)
    work = partial(_one_rho_vector, spec, scale_set, counts)
    out = np.empty((replicates, scale_set.r))
    for i, vec in enumerate(mapper(work, range(replicates))):
        out[i] = vec
        if progress is not None:
            progress(i + 1, replicates)
    return out


def _score(pool: GaussianTailPool, vectors: np.ndarray, cov, level: float):
    """Statistics, p-values (as lists) and rejections of all replicates."""
    stats = test_statistic(vectors, cov, cov.r)
    p_vals, _ = pool.p_values(stats)
    return stats.tolist(), p_vals.tolist(), p_vals <= level


def null_calibration(table: CovTable, *, kind: str = "bfgn",
                     hurst1: float = 0.7, hurst2: float = 0.8,
                     n_samples: int = 10_000, replicates: int = 2000,
                     level: float = 0.05, n_min: int = 20, n_max: int = 500,
                     r: int = 10, degree: int = 1, phi: float = 3.0,
                     mc_samples: int = 400_000, seed: int = 0,
                     progress=None, mapper=map) -> dict:
    """Type I error rate of the test (kappa = r) on independent simulated
    pairs.

    The null covariance and threshold are computed once (the Hurst
    exponents are known by construction), then all replicates are scored
    against the shared Monte Carlo null in one call.
    """
    scale_set = make_scales(n_samples, n_min, n_max, r, degree)
    params = FbmParams(hurst1=hurst1, hurst2=hurst2, rho=0.0)
    cov = rho_null_cov(scale_set.scales, n_samples, hurst1, hurst2, table,
                       degree)
    pool = GaussianTailPool(cov.matrix, scale_set.r, mc_samples, seed)
    theta_star = pool.threshold(level)

    vectors = _rho_vectors(kind, params, n_samples, scale_set, replicates,
                           seed, phi=phi, progress=progress, mapper=mapper)
    stats, p_vals, reject = _score(pool, vectors, cov, level)
    rows = [{"replicate": i, "statistic": t, "p_value": p, "reject": int(x)}
            for i, (t, p, x) in enumerate(zip(stats, p_vals, reject))]
    return {
        "study": "calibration" if kind == "bfgn" else kind,
        "rows": rows,
        "rejection_rate": int(reject.sum()) / replicates,
        "theta_star": theta_star,
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def shortrange_robustness(table: CovTable, *, hurst: float = 0.9,
                          n_samples: int = 20_000, replicates: int = 500,
                          level: float = 0.05, n_min: int = 10,
                          n_max: int = 1000, r: int = 10, degree: int = 1,
                          weight: float = 0.5, cutoff: float = 0.45,
                          sr_rho: float = 0.5, mc_samples: int = 400_000,
                          seed: int = 0, progress=None, mapper=map) -> dict:
    """Joint test versus per-scale Bonferroni on long-range-null mixtures.

    The mixtures are long-range independent but short-range correlated;
    the per-scale baseline tests each |rho(n_i)| at level/r against the
    univariate normal quantile and rejects when any scale fires.
    """
    scale_set = make_scales(n_samples, n_min, n_max, r, degree)
    params = FbmParams(hurst1=hurst, hurst2=hurst, rho=0.0)
    cov = rho_null_cov(scale_set.scales, n_samples, hurst, hurst, table,
                       degree)
    pool = GaussianTailPool(cov.matrix, scale_set.r, mc_samples, seed)
    theta_star = pool.threshold(level)
    z_bonf = NormalDist().inv_cdf(1.0 - level / (2.0 * scale_set.r))
    diag_std = np.sqrt(np.diag(cov.matrix))

    vectors = _rho_vectors("mixture", params, n_samples, scale_set,
                           replicates, seed, weight=weight, cutoff=cutoff,
                           sr_rho=sr_rho, progress=progress, mapper=mapper)
    stats, p_vals, joint = _score(pool, vectors, cov, level)
    bonf = np.any(np.abs(vectors) / diag_std > z_bonf, axis=1)
    rows = [{"replicate": i, "statistic": t, "p_value": p,
             "reject_joint": int(x), "reject_bonferroni": int(b)}
            for i, (t, p, x, b) in enumerate(zip(stats, p_vals, joint, bonf))]
    return {
        "study": "shortrange",
        "rows": rows,
        "joint_rate": int(joint.sum()) / replicates,
        "bonferroni_rate": int(bonf.sum()) / replicates,
        "theta_star": theta_star,
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def upperbound_check(table: CovTable, *, n_samples: int = 10_000,
                     level: float = 0.05, n_min: int = 20, n_max: int = 500,
                     r: int = 10, degree: int = 1,
                     mc_samples: int = 400_000, seed: int = 0,
                     progress=None) -> dict:
    """Exact-(H, G) rejection boundaries versus the worst-case boundary.

    For every tabulated grid node the per-scale boundary is
    theta* sqrt(C_ii / [N/n_i]) on the raw rho scale; the worst-case
    boundary over the full grid range must dominate all of them.

    Every pool uses the same standard normals (common random numbers
    across nodes), drawn once: the draws each node's own seeded pool
    would make, so every theta* is that pool's.
    """
    scale_set = make_scales(n_samples, n_min, n_max, r, degree)
    scales = scale_set.scales
    grid = table.grid
    normals = pool_normals(mc_samples, scale_set.r, seed)

    def theta_star(cov):
        return GaussianTailPool(cov.matrix, scale_set.r, mc_samples, seed,
                                normals=normals).threshold(level)

    wc = worst_case_cov(scales, n_samples, (grid[0], grid[-1]),
                        (grid[0], grid[-1]), table, degree)
    wc_theta = theta_star(wc)
    wc_bounds = wc.rho_bounds(wc_theta)

    rows = []
    violations = 0
    done = 0
    for h in grid:
        for g in grid:
            cov = rho_null_cov(scales, n_samples, float(h), float(g), table,
                               degree)
            theta = theta_star(cov)
            bounds = cov.rho_bounds(theta)
            exceed = int(np.any(bounds > wc_bounds + 1e-12))
            violations += exceed
            row = {"hurst1": float(h), "hurst2": float(g),
                   "theta_star": theta, "violation": exceed}
            row.update({f"bound_n{n}": b for n, b in zip(scales, bounds)})
            rows.append(row)
            done += 1
            if progress is not None:
                progress(done, len(grid) ** 2)
    worst_row = {"hurst1": float("nan"), "hurst2": float("nan"),
                 "theta_star": wc_theta, "violation": 0}
    worst_row.update({f"bound_n{n}": b for n, b in zip(scales, wc_bounds)})
    return {
        "study": "upperbound",
        "rows": rows + [worst_row],
        "violations": violations,
        "worst_case_theta": wc_theta,
        "scales": list(scales),
        "level": level,
    }


def power_study(table: CovTable, *, rhos=(0.0, 0.05, 0.1, 0.2),
                hurst1: float = 0.7, hurst2: float = 0.8,
                n_samples: int = 40_000, replicates: int = 100,
                level: float = 0.05, n_min: int = 20, n_max: int = 2000,
                r: int = 10, degree: int = 1, mc_samples: int = 400_000,
                seed: int = 0, progress=None, mapper=map) -> dict:
    """Rejection rate as a function of the cross-correlation parameter.

    Replicate streams are shared across rho values (common random
    numbers), which smooths the power curve comparison.
    """
    scale_set = make_scales(n_samples, n_min, n_max, r, degree)
    cov = rho_null_cov(scale_set.scales, n_samples, hurst1, hurst2, table,
                       degree)
    pool = GaussianTailPool(cov.matrix, scale_set.r, mc_samples, seed)

    rows = []
    rates = {}
    total = len(rhos) * replicates
    done = 0
    for rho in rhos:
        params = FbmParams(hurst1=hurst1, hurst2=hurst2, rho=float(rho))

        def tick(i, _reps, base=done):
            if progress is not None:
                progress(base + i, total)

        vectors = _rho_vectors("bfgn", params, n_samples, scale_set,
                               replicates, seed, progress=tick, mapper=mapper)
        done += replicates
        stats, p_vals, reject = _score(pool, vectors, cov, level)
        rows += [{"rho": float(rho), "replicate": i, "statistic": t,
                  "p_value": p, "reject": int(x)}
                 for i, (t, p, x) in enumerate(zip(stats, p_vals, reject))]
        rates[float(rho)] = int(reject.sum()) / replicates
    return {
        "study": "power",
        "rows": rows,
        "rates": rates,
        "level": level,
        "scales": list(scale_set.scales),
        "replicates": replicates,
    }


def speed_study(table: CovTable, *, hurst1: float = 0.7, hurst2: float = 0.8,
                n_samples: int = 20_000, surrogates: int = 1000,
                level: float = 0.05, n_min: int = 20, n_max: int = 1000,
                r: int = 10, degree: int = 1, mc_samples: int = 100_000,
                seed: int = 0, progress=None) -> dict:
    """Wall time of the tabulated-asymptotics p-value versus a
    surrogate-simulation p-value for the same observed pair.

    Both sides start from the observed rho vector; the tabulated side
    assembles the null covariance and draws Gaussian samples, the
    surrogate side simulates full pairs and recomputes their statistics.
    """
    scale_set = make_scales(n_samples, n_min, n_max, r, degree)
    params = FbmParams(hurst1=hurst1, hurst2=hurst2, rho=0.0)
    observed = _rho_vectors("bfgn", params, n_samples, scale_set, 1, seed)[0]
    kappa = scale_set.r

    t0 = time.perf_counter()
    cov = rho_null_cov(scale_set.scales, n_samples, hurst1, hurst2, table,
                       degree)
    t_obs = test_statistic(observed, cov, kappa)
    p_tab = GaussianTailPool(cov.matrix, kappa, mc_samples,
                             seed + 1).p_values(t_obs)[0]
    tabulated_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    vectors = _rho_vectors("bfgn", params, n_samples, scale_set, surrogates,
                           seed + 1, progress=progress)
    p_surr = float(np.mean(test_statistic(vectors, cov, kappa) > t_obs))
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
