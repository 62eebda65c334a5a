"""Run the session benchmark on a parent commit and on the working tree
in alternating pairs, and write the result as one ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent c49e246 --label 23

Run from the root of a git checkout.  Each side runs in its own copy of
its tree in a temporary directory that is deleted on exit: the parent
from ``git archive``, the change from the working tree's tracked and
unignored files.  The parent's copy gets the change's ``sessionbench/``
and ``BENCHMARK.json``, so both sides run identical benchmark code.  For
each workload of ``BENCHMARK.json``, in its order, and seed 1..10 the
benchmark command runs once per side for its ``run_seconds``; odd seeds
run the parent first, even seeds the change first.  Then the tier-1
suite runs on both sides, the change first.

The file holds, per workload and end-to-end metric, each side's runs,
median and quartiles, the pairs the change won, and the no-regression
verdict against the metric's bound; per workload, side and operation,
the median wall time and the largest peak RSS of its processes; per
side, the tier-1 counts, wall time and five slowest items
(``--durations=5``); and the ``wc -l`` of ``src/dccatest/*.py`` in both
trees and their difference.
With ``--claim WORKLOAD:METRIC`` it also holds the claim rule's verdict:
the change wins at least nine tenths of the pairs and its median beats
the parent's by more than the parent's interquartile range, with no
larger share of failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=5"]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--label", required=True,
                        help="writes BENCH_<label>.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims "
                                        "to improve (default: none)")
    return parser.parse_args(argv)


def git(*args: str, root: Path) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def copy_trees(root: Path, parent: str, work: Path) -> dict:
    """The two copies, parent first; both with the change's benchmark."""
    trees = {side: work / side for side in SIDES}
    archive = subprocess.run(["git", "archive", "--format=tar", parent],
                             cwd=root, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"])
    files = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard", root=root).split("\0")
    for name in filter(None, files):
        if (root / name).is_file():
            (trees["change"] / name).parent.mkdir(parents=True,
                                                  exist_ok=True)
            shutil.copy2(root / name, trees["change"] / name)
    shutil.rmtree(trees["parent"] / "sessionbench", ignore_errors=True)
    shutil.copytree(trees["change"] / "sessionbench",
                    trees["parent"] / "sessionbench")
    shutil.copy2(trees["change"] / "BENCHMARK.json",
                 trees["parent"] / "BENCHMARK.json")
    return trees


def src_lines(tree: Path) -> int:
    """``wc -l`` of the package's modules, ``src/dccatest/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "dccatest").glob("*.py"))


def run_session(tree: Path, command: list, workload: str, seed: int,
                seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run's stdout,
    with the ``rounds`` of per-operation results the run wrote to
    ``sessionbench/results``."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    record = tree / "sessionbench" / "results" / \
        f"{workload}-seed{seed}-trace0.json"
    return {**json.loads(out.strip().splitlines()[-1]),
            "rounds": json.loads(record.read_text("utf-8"))["rounds"]}


def operations(runs: list) -> dict:
    """Per operation of a side's runs: the median ``seconds`` and the max
    ``peak_rss_mb`` over every round, and the number of rounds; so a
    BENCH file shows which process sets the session's peak RSS."""
    ops = {}
    for run in runs:
        for rnd in run["rounds"]:
            for op in rnd:
                ops.setdefault(op["name"], []).append(op)
    return {name: {"rounds": len(rs),
                   "seconds_median": statistics.median(
                       r["seconds"] for r in rs),
                   "peak_rss_mb_max": max(r["peak_rss_mb"] for r in rs)}
            for name, rs in ops.items()}


def run_tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                          text=True)
    return tier1_result(proc.stdout)


def tier1_result(stdout: str) -> dict:
    """Counts, wall time and the five slowest items (phase and seconds)
    of a tier-1 run's pytest output."""
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    wall = re.search(r" in ([\d.]+)s", summary)
    slowest = [{"item": item, "phase": phase, "seconds": float(seconds)}
               for seconds, phase, item in re.findall(
                   r"^([\d.]+)s (setup|call|teardown) +(.+?) *$", stdout,
                   re.MULTILINE)]
    return {"summary": summary, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "wall_s": float(wall.group(1)) if wall else None,
            "slowest": slowest}


def spread(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"runs": runs, "median": statistics.median(runs), "q1": q1,
            "q3": q3, "iqr": q3 - q1}


def signed(metric: dict, parent: dict, change: dict):
    """Parent and change runs signed so that lower reads better, and the
    number of pairs the change won (ties count for neither)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p = [sign * v for v in parent["runs"]]
    c = [sign * v for v in change["runs"]]
    return p, c, sum(b < a for a, b in zip(p, c))


def verdict(metric: dict, parent: dict, change: dict) -> dict:
    """The change against the parent on one metric.  It is unresolved
    where the parent's own spread exceeds the bound, unless every run of
    the change reads better than every run of the parent."""
    p, c, wins = signed(metric, parent, change)
    rel = (change["median"] - parent["median"]) / parent["median"]
    worse = (statistics.median(c) - statistics.median(p)) / parent["median"]
    parent_iqr_rel = parent["iqr"] / parent["median"]
    return {
        "median_change_rel": rel,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
        "parent_iqr_rel": parent_iqr_rel,
        f"change_{metric['better']}_in_pairs": f"{wins}/{len(p)}",
        "resolved": parent_iqr_rel <= metric["bound"] or max(c) < min(p),
    }


def claim_verdict(metric: dict, result: dict) -> dict:
    parent = result["parent"][metric["name"]]
    change = result["change"][metric["name"]]
    p, c, wins = signed(metric, parent, change)
    gain = statistics.median(p) - statistics.median(c)
    failed = {side: sum(result[side]["failed"]) /
              max(1, sum(result[side]["attempted"])) for side in SIDES}
    return {"wins": f"{wins}/{len(p)}", "median_gain": gain,
            "parent_iqr": parent["iqr"],
            "holds": len(p) >= PAIRS and wins >= 0.9 * len(p)
            and gain > parent["iqr"]
            and failed["change"] <= failed["parent"]}


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v, "unset")
                             for v in BLAS_THREAD_VARS},
            "cpu": cpu, "os": f"{platform.system()} {platform.machine()}"}


def run_pairs(trees: dict, bench: dict, workload: str) -> dict:
    """One workload's alternating pairs and the verdict on each metric."""
    metrics = bench["end_to_end"]
    seeds = list(range(1, PAIRS + 1))
    runs = {side: [] for side in SIDES}
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            print(f"{workload} seed {seed} {side}", file=sys.stderr,
                  flush=True)
            runs[side].append(run_session(trees[side], bench["command"],
                                          workload, seed,
                                          bench["run_seconds"]))
    result = {"seeds": seeds, "trace": 0,
              "order": "odd seeds ran the parent first, even seeds "
                       "the change first"}
    for side in SIDES:
        result[side] = {key: [r[key] for r in runs[side]]
                        for key in ("correct", "failed", "attempted")}
        for metric in metrics:
            result[side][metric["name"]] = spread(
                [r["metrics"][metric["name"]]["value"] for r in runs[side]])
        result[side]["operations"] = operations(runs[side])
    result["verdict"] = {m["name"]: verdict(m, result["parent"][m["name"]],
                                            result["change"][m["name"]])
                         for m in metrics}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    claim = None
    if args.claim:
        claim_workload, _, name = args.claim.partition(":")
        claim = next((m for m in metrics if m["name"] == name), None)
        if claim_workload not in workloads or claim is None:
            print(f"error: --claim names no workload and end-to-end metric "
                  f"of BENCHMARK.json: {args.claim!r}", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = copy_trees(root, args.parent, Path(work))
        lines = {side: src_lines(trees[side]) for side in SIDES}
        results = {w: run_pairs(trees, bench, w) for w in workloads}
        tier1 = {"command": "PYTHONPATH=src " + " ".join(
            ["python", *TIER1[1:]]), "order": "change first, then parent"}
        for side in SIDES[::-1]:
            print(f"tier-1 {side}", file=sys.stderr, flush=True)
            tier1[side] = run_tier1(trees[side])

    beyond, unresolved, more_failed = [], [], []
    for workload, result in results.items():
        for name, v in result["verdict"].items():
            if not v["within_bound"]:
                beyond.append(f"{workload} {name}")
            if not v["resolved"]:
                unresolved.append(f"{workload} {name}")
        if sum(result["change"]["failed"]) > sum(result["parent"]["failed"]):
            more_failed.append(workload)
    head = git("rev-parse", "HEAD", root=root).strip()
    dirty = bool(git("status", "--porcelain", root=root).strip())
    out = {
        "label": f"BENCH_{args.label}",
        "written_by": "tools/bench_pairs.py",
        "command": " ".join(bench["command"]) + " --workload W --seed S "
                   f"--seconds {bench['run_seconds']} --trace 0",
        "order": "alternating within each seed: odd seeds ran the parent "
                 "first, even seeds the change first; batches in this "
                 "order: " + ", ".join(f"{w} 1-{PAIRS}" for w in workloads)
                 + ", then the tier-1 suite of both sides",
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "environment": environment(),
        "commits": {
            "parent": git("rev-parse", args.parent, root=root).strip(),
            "change": f"the working tree on top of {head}" if dirty
            else head,
        },
        "claim": None if claim is None else {
            "workload": claim_workload, "metric": claim["name"],
            **claim_verdict(claim, results[claim_workload])},
        "no_regression": {
            "holds": not beyond and not more_failed,
            "beyond_bound": beyond,
            "unresolved_by_spread": unresolved,
            "more_failed_operations": more_failed,
        },
        "src_lines": {**lines, "delta": lines["change"] - lines["parent"]},
        "tier1": tier1,
        "workloads": results,
    }
    path = root / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
