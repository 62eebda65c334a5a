"""Checks of every session output.

Each check returns a list of problems, empty when the output is right.
Outputs are compared with ``reference`` (computed apart from the
program) and with properties the method must have.  ``dccatest`` is
imported only to rebuild the known-mode null covariance whose Monte
Carlo tail is compared with Genz-Bretz, and to read and write tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

import reference

THRESHOLD_STEP = 0.01     # grid of the program's threshold search
RHO_TOL = 1e-9            # reference DCCA coefficients and Hurst slopes
BOUND_TOL = 1e-12
MC_SIGMAS = 5.0           # Monte Carlo error allowed against Genz-Bretz
CALIBRATION_SIGMAS = 4.0  # binomial error allowed on the calibration rate
TABLE_RESOURCE = "default_d1.covtab"
# Start of the one problem the kept kappa < r fault is allowed to show.
KNOWN_FAULT = "kappa < r:"


def read_pair(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return data[:, 0], data[:, 1]


def read_csv_rows(path: Path) -> tuple[list[str], list[dict]]:
    """Comment lines (without '# ') and rows of a study CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, [
        {k: float(v) for k, v in row.items()} for row in csv.DictReader(body)
    ]


# -- analyze ---------------------------------------------------------------

def analysis_problems(report: dict, y1: np.ndarray, y2: np.ndarray
                      ) -> list[str]:
    """Decision rule, p-value range, statistic against threshold, and the
    per-scale rho and Hurst slopes against the numpy reference."""
    out, cfg = report["outcome"], report["config"]
    level, draws = cfg["level"], cfg["mc_samples"]
    p, stat, theta = out["p_value"], out["statistic"], out["threshold"]
    reject = out["decision"] == "reject"
    problems = []
    if reject != (p <= level):
        problems.append(f"decision {out['decision']} but p {p} at level "
                        f"{level}")
    if not 1.0 / draws <= p <= 1.0:
        problems.append(f"p {p} outside [1/{draws}, 1]")
    scales = [row["n"] for row in report["per_scale"]]
    if cfg["kappa"] == len(scales):
        # theta* is the first 0.01 grid point with tail below the level.
        if reject and stat <= theta - THRESHOLD_STEP + BOUND_TOL:
            problems.append(f"reject with statistic {stat} below threshold "
                            f"{theta} less one grid step")
        if not reject and stat > theta + BOUND_TOL:
            problems.append(f"not-reject with statistic {stat} above "
                            f"threshold {theta}")
    elif reject != (stat > theta):
        problems.append(f"{KNOWN_FAULT} decision {out['decision']} "
                        f"contradicts statistic {stat} against threshold "
                        f"{theta}")

    expected = reference.default_scales(len(y1), cfg["degree"])
    if tuple(scales) != expected:
        problems.append(f"scales {scales}, expected {list(expected)}")
        return problems
    ref = reference.dcca(y1, y2, scales, cfg["degree"])
    rho = np.array([row["rho"] for row in report["per_scale"]])
    err = float(np.max(np.abs(rho - ref["rho"])))
    if not err <= RHO_TOL:
        problems.append(f"rho differs from the reference by {err:.3g}")
    for key in ("h1", "h2"):
        diff = abs(report["hurst"][key] - ref[key])
        if not diff <= RHO_TOL:
            problems.append(f"{key} differs from the reference by {diff:.3g}")
    return problems


def fault_problems(report: dict, statistic: float,
                   threshold: float) -> list[str]:
    """The kept kappa < r case gives the statistic and threshold recorded
    for it: the statistic to 1e-6, the Monte Carlo threshold to one grid
    step (another draw stream may move it by one)."""
    out = report["outcome"]
    problems = []
    if not abs(out["statistic"] - statistic) <= 1e-6:
        problems.append(f"fault case statistic {out['statistic']}, "
                        f"recorded {statistic}")
    if not abs(out["threshold"] - threshold) <= THRESHOLD_STEP + BOUND_TOL:
        problems.append(f"fault case threshold {out['threshold']}, "
                        f"recorded {threshold}")
    return problems


def unexplained(problems: list[str], known_fault: bool) -> list[str]:
    """The problems of an operation that its kept fault does not explain:
    all of them, except the kappa < r contradiction of the kept case."""
    if not known_fault:
        return problems
    return [p for p in problems if not p.startswith(KNOWN_FAULT)]


def shipped_table():
    """The package's default table and its SHA-256."""
    from dccatest.asymptotics import loads_covtab

    raw = resources.files("dccatest").joinpath(
        "data", TABLE_RESOURCE).read_bytes()
    return loads_covtab(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def known_covariance(report: dict, n_samples: int) -> np.ndarray:
    """The program's exact-(H, G) null covariance for a known-mode report."""
    from dccatest.asymptotics import rho_null_cov

    table, sha = shipped_table()
    if report["table"]["sha256"] != sha:
        raise ValueError("report was not made with the shipped table")
    _, h, g = report["config"]["hurst_mode"]
    return rho_null_cov(report["config"]["scales"], n_samples, h, g,
                        table).matrix


def tail_problems(report: dict, cov: np.ndarray) -> list[str]:
    """kappa = r, known mode: the pool's tail at theta* and at the
    statistic against Genz-Bretz, and the reported rho bounds."""
    out, cfg = report["outcome"], report["config"]
    level, draws = cfg["level"], cfg["mc_samples"]
    theta, stat, p = out["threshold"], out["statistic"], out["p_value"]
    std = np.sqrt(np.diag(cov))
    corr = cov / np.outer(std, std)

    def slack(q):
        return MC_SIGMAS * math.sqrt(max(q * (1 - q), 0.0) / draws) \
            + 2 * reference.GENZ_BRETZ_EPS

    problems = []
    tail = reference.joint_tail(corr, theta)
    if tail > level + slack(level):
        problems.append(f"Genz-Bretz tail {tail:.6g} at threshold {theta} "
                        f"is above the level")
    if theta > 0:
        below = reference.joint_tail(corr, theta - THRESHOLD_STEP)
        if below < level - slack(level):
            problems.append(f"Genz-Bretz tail {below:.6g} one step below "
                            f"threshold {theta} is under the level")
    exact = reference.joint_tail(corr, stat)
    expected = min(1.0, max(exact, 1.0 / draws))
    if abs(p - expected) > slack(exact) + 1.0 / draws:
        problems.append(f"p {p} against Genz-Bretz {exact:.6g}")
    windows = np.array([row["windows"] for row in report["per_scale"]])
    bounds = np.array([row["rho_bound"] for row in report["per_scale"]])
    if not np.allclose(bounds, theta * std / np.sqrt(windows), rtol=1e-9,
                       atol=0.0):
        problems.append("rho bounds differ from theta* sqrt(C_ii/windows)")
    return problems


def dominance_problems(known: dict, wider: dict) -> list[str]:
    """range and auto rho bounds dominate the known ones scale by scale."""
    kb = np.array([row["rho_bound"] for row in known["per_scale"]])
    wb = np.array([row["rho_bound"] for row in wider["per_scale"]])
    if np.all(wb >= kb - BOUND_TOL):
        return []
    worst = int(np.argmin(wb - kb))
    return [f"rho bound {wb[worst]:.6g} at n={known['per_scale'][worst]['n']}"
            f" below the known-mode bound {kb[worst]:.6g}"]


# -- simulate --------------------------------------------------------------

def simulate_problems(y1: np.ndarray, y2: np.ndarray, n: int,
                      rho: float) -> list[str]:
    """Length, finiteness, unit variances and the cross-correlation."""
    if len(y1) != n:
        return [f"{len(y1)} rows, expected {n}"]
    if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))):
        return ["non-finite values"]
    problems = []
    for name, y in (("first", y1), ("second", y2)):
        if abs(float(np.var(y)) - 1.0) > 0.1:
            problems.append(f"{name} column variance {np.var(y):.4f}")
    corr = float(np.corrcoef(y1, y2)[0, 1])
    if abs(corr - rho) > 0.05:
        problems.append(f"sample correlation {corr:.4f}, expected {rho}")
    return problems


# -- tabulate --------------------------------------------------------------

def parse_covtab(text: str) -> dict:
    """Header fields and blocks of a covtab/1 file, read apart from the
    program's loader."""
    lines = text.splitlines()
    if not lines or lines[0] != "covtab/1" or lines[-1] != "end":
        raise ValueError("not a complete covtab/1 file")
    fields, blocks, pos = {}, {}, 1
    while not lines[pos].startswith("block "):
        key, _, val = lines[pos].partition(" ")
        fields[key] = val
        pos += 1
    while lines[pos] != "end":
        _, name, *dims = lines[pos].split()
        dims = [int(d) for d in dims]
        count = dims[0] * (dims[1] if len(dims) == 3 else 1)
        rows = [[float(v) for v in ln.split()]
                for ln in lines[pos + 1:pos + 1 + count]]
        blocks[name] = np.array(rows).reshape(dims)
        pos += 1 + count
    return {"fields": fields, "blocks": blocks}


def table_problems(path: Path, grid: str, n_tab: int, ratios: str,
                   scratch: Path) -> list[str]:
    """Round trip through ``load_covtab``; positive symmetric variances,
    correlations in [0, 1], ratio-1 correlations equal to 1."""
    from dccatest.asymptotics import load_covtab, save_covtab

    try:
        table = load_covtab(str(path))
    except ValueError as exc:
        return [f"load_covtab refused the table: {exc}"]
    own = parse_covtab(path.read_text(encoding="utf-8"))
    problems = []
    lo, hi, step = (float(v) for v in grid.split(":"))
    want_grid = np.round(np.arange(lo, hi + step / 2, step), 10)
    sizes = sorted({min(max(round(float(r) * n_tab), 3), n_tab)
                    for r in ratios.split(",")})
    want_ratios = np.array(sizes) / n_tab
    read_grid = np.array([float(v) for v in own["fields"]["grid"].split()])
    if not (np.allclose(read_grid, want_grid, rtol=0, atol=1e-12)
            and np.array_equal(table.grid, read_grid)):
        problems.append("grid differs from the requested one")
    if not np.allclose(table.ratios, want_ratios, rtol=0, atol=1e-12):
        problems.append("ratios differ from the requested window sizes")
    for name, got in (("variance", table.variance),
                      ("correlation", table.correlation),
                      ("auto_mean", table.auto_mean[None, :])):
        if not np.array_equal(own["blocks"][name], got):
            problems.append(f"load_covtab {name} differs from the file")
    copy = scratch / "roundtrip.covtab"
    save_covtab(table, str(copy))
    again = load_covtab(str(copy))
    copy.unlink()
    if not all(np.array_equal(getattr(table, k), getattr(again, k))
               for k in ("grid", "ratios", "variance", "correlation",
                         "auto_mean", "offsets_used")):
        problems.append("save_covtab/load_covtab round trip changed values")
    var, corr = table.variance, table.correlation
    if not (np.all(var > 0) and np.array_equal(var, var.T)):
        problems.append("variances not positive and symmetric")
    if not (np.all((corr >= 0) & (corr <= 1))
            and np.array_equal(corr, corr.transpose(0, 2, 1))):
        problems.append("correlations not symmetric in [0, 1]")
    if not np.all(corr[table.ratios == 1.0] == 1.0):
        problems.append("ratio-1 correlations differ from 1")
    if not np.all(table.auto_mean > 0):
        problems.append("auto means not positive")
    return problems


# -- study -----------------------------------------------------------------

def upperbound_problems(path: Path, grid_size: int) -> list[str]:
    """Every grid node's bounds lie under the worst-case row; the
    violation flags agree with the bounds; the summary says 0."""
    comments, rows = read_csv_rows(path)
    problems = []
    if "violations 0" not in comments:
        problems.append(f"summary {comments[-1:]} is not 'violations 0'")
    nodes, worst = rows[:-1], rows[-1]
    if len(nodes) != grid_size ** 2 or not math.isnan(worst["hurst1"]):
        return problems + [f"{len(nodes)} node rows for a {grid_size}-node "
                           "grid, or no worst-case row last"]
    keys = [k for k in worst if k.startswith("bound_n")]
    worst_bounds = np.array([worst[k] for k in keys])
    for row in nodes:
        above = bool(np.any(np.array([row[k] for k in keys])
                            > worst_bounds + BOUND_TOL))
        if above or row["violation"] != 0:
            problems.append(f"node H={row['hurst1']} G={row['hurst2']}: "
                            f"violation {row['violation']:g}, bounds above "
                            f"the worst case: {above}")
    return problems


def calibration_problems(path: Path, replicates: int,
                         level: float) -> list[str]:
    """Per-replicate decisions follow the p-values; the rejection rate
    matches its summary and lies within binomial error of the level."""
    comments, rows = read_csv_rows(path)
    if len(rows) != replicates:
        return [f"{len(rows)} replicate rows, expected {replicates}"]
    p = np.array([row["p_value"] for row in rows])
    rejects = np.array([row["reject"] for row in rows])
    problems = []
    if not np.all((p >= 0) & (p <= 1)):
        problems.append("p-values outside [0, 1]")
    if not np.array_equal(rejects, (p <= level).astype(float)):
        problems.append("reject flags disagree with p <= level")
    rate = float(np.mean(rejects))
    if f"rejection rate {rate:.4f}" not in comments:
        problems.append(f"summary {comments[-1:]} disagrees with rate {rate}")
    band = CALIBRATION_SIGMAS * math.sqrt(level * (1 - level) / replicates)
    if abs(rate - level) > band:
        problems.append(f"rejection rate {rate} outside {level} +- {band:.4f}")
    return problems


# -- one session -----------------------------------------------------------

def _op_problems(op, pair, reports: dict, scratch: Path) -> list[str]:
    from workloads import LEVEL

    if op.kind == "analyze":
        report = json.loads(op.out.read_text(encoding="utf-8"))
        reports[op.name] = report
        y1, y2 = pair(op.meta["input"])
        found = analysis_problems(report, y1, y2)
        if op.meta.get("expect_reject") and \
                report["outcome"]["decision"] != "reject":
            found.append("correlated pair not rejected")
        if op.meta["mode"] == "known" and op.meta["kappa"] == "r":
            found += tail_problems(report, known_covariance(report, len(y1)))
        if op.known_fault:
            found += fault_problems(report, op.meta["statistic"],
                                    op.meta["threshold"])
        return found
    if op.kind == "simulate":
        return simulate_problems(*pair(op.out), op.meta["n"], op.meta["rho"])
    if op.kind == "tabulate":
        return table_problems(op.out, op.meta["grid"], op.meta["n_tab"],
                              op.meta["ratios"], scratch)
    if op.kind == "upperbound":
        from dccatest.asymptotics import load_covtab
        grid = load_covtab(str(op.meta["table"])).grid
        return upperbound_problems(op.out, len(grid))
    if op.kind == "calibration":
        return calibration_problems(op.out, op.meta["replicates"], LEVEL)
    raise ValueError(f"no check for operation kind {op.kind!r}")


def session_problems(ops, scratch: Path) -> dict[str, list[str]]:
    """Problems of every operation of one session, by operation name."""
    pairs, reports = {}, {}

    def pair(path):
        if path not in pairs:
            pairs[path] = read_pair(path)
        return pairs[path]

    problems = {}
    for op in ops:
        try:
            problems[op.name] = _op_problems(op, pair, reports, scratch)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems[op.name] = [f"unreadable output: {exc!r}"]

    for op in ops:
        if op.kind != "analyze" or op.meta["mode"] == "known":
            continue
        known = f"{op.meta['pair']}-known-{op.meta['kappa']}"
        if known in reports and op.name in reports:
            problems[op.name] += dominance_problems(reports[known],
                                                    reports[op.name])
    return problems
