"""Each check passes on a real output and fails on a corrupted copy.

    python3 -m pytest sessionbench -q

Inputs are small, so the module runs in seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dccatest import cli  # noqa: E402
from dccatest.asymptotics import load_covtab, save_covtab  # noqa: E402

SMALL_N = 4000
DRAWS = "100000"


def run_cli(*args):
    assert cli.main([str(a) for a in args]) == 0


def analyze(pair: Path, out: Path, hurst: str, kappa: str = "r",
            draws: str = DRAWS, seed: int = 1) -> dict:
    run_cli("analyze", pair, "--hurst", hurst, "--kappa", kappa,
            "--mc-samples", draws, "--seed", seed, "--out", out)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An independent pair, its known and range reports, a small table."""
    d = tmp_path_factory.mktemp("small")
    y1, y2 = reference.bfgn(SMALL_N, *workloads.HURST, 0.0,
                            np.random.default_rng(5))
    workloads.write_pair(d / "pair.csv", y1, y2)
    known = analyze(d / "pair.csv", d / "known.json", workloads.KNOWN)
    wide = analyze(d / "pair.csv", d / "range.json", workloads.RANGE)
    run_cli("tabulate", "--grid", "0.7:0.72:0.02", "--n-tab", "128",
            "--ratios", "0.5,1.0", "--out", d / "t.covtab")
    return {"dir": d, "y": (y1, y2), "known": known, "range": wide}


def with_outcome(report: dict, **changes) -> dict:
    bad = copy.deepcopy(report)
    bad["outcome"].update(changes)
    return bad


def test_analysis_checks_pass_on_program_output(small):
    y1, y2 = small["y"]
    for report in (small["known"], small["range"]):
        assert checks.analysis_problems(report, y1, y2) == []
    cov = checks.known_covariance(small["known"], SMALL_N)
    assert checks.tail_problems(small["known"], cov) == []
    assert checks.dominance_problems(small["known"], small["range"]) == []


def test_flipped_decision_fails(small):
    report = small["known"]
    flipped = "not-reject" if report["outcome"]["decision"] == "reject" \
        else "reject"
    found = checks.analysis_problems(with_outcome(report, decision=flipped),
                                     *small["y"])
    assert any("decision" in p for p in found)


def test_p_value_below_monte_carlo_floor_fails(small):
    found = checks.analysis_problems(with_outcome(small["known"], p_value=0.0,
                                                  decision="reject"),
                                     *small["y"])
    assert any("outside" in p for p in found)


def test_statistic_above_threshold_without_rejection_fails(small):
    out = small["known"]["outcome"]
    bad = with_outcome(small["known"], statistic=out["threshold"] + 0.5,
                       p_value=0.5, decision="not-reject")
    found = checks.analysis_problems(bad, *small["y"])
    assert any("above threshold" in p for p in found)


def test_perturbed_rho_and_hurst_fail(small):
    bad = copy.deepcopy(small["known"])
    bad["per_scale"][3]["rho"] += 1e-6
    bad["hurst"]["h2"] += 1e-6
    found = checks.analysis_problems(bad, *small["y"])
    assert any("rho differs" in p for p in found)
    assert any("h2 differs" in p for p in found)


def test_tail_against_genz_bretz_fails_on_moved_p_and_threshold(small):
    report = small["known"]
    cov = checks.known_covariance(report, SMALL_N)
    out = report["outcome"]
    moved_p = with_outcome(report, p_value=min(1.0, out["p_value"] + 0.02))
    assert any("Genz-Bretz" in p for p in checks.tail_problems(moved_p, cov))
    moved_theta = with_outcome(report, threshold=out["threshold"] + 0.3)
    found = checks.tail_problems(moved_theta, cov)
    assert any("one step below" in p for p in found)
    assert any("rho bounds" in p for p in found)


def test_shrunk_range_bounds_fail_dominance(small):
    bad = copy.deepcopy(small["range"])
    bad["per_scale"][0]["rho_bound"] = \
        small["known"]["per_scale"][0]["rho_bound"] * 0.5
    assert checks.dominance_problems(small["known"], bad)


def test_kept_fault_case_is_flagged(tmp_path):
    workloads.write_fault_input(tmp_path / "fault.csv")
    report = analyze(tmp_path / "fault.csv", tmp_path / "fault.json",
                     workloads.KNOWN, kappa="r-1", draws="1000000", seed=0)
    found = checks.analysis_problems(
        report, *checks.read_pair(tmp_path / "fault.csv"))
    found += checks.fault_problems(report, workloads.FAULT_STATISTIC,
                                   workloads.FAULT_THRESHOLD)
    assert len(found) == 1 and found[0].startswith(checks.KNOWN_FAULT)
    assert checks.unexplained(found, known_fault=True) == []
    assert checks.unexplained(found, known_fault=False) == found
    moved = with_outcome(report, statistic=report["outcome"]["statistic"]
                         + 1e-4, threshold=0.45)
    assert len(checks.fault_problems(moved, workloads.FAULT_STATISTIC,
                                     workloads.FAULT_THRESHOLD)) == 2


def test_kept_fault_explains_only_its_own_problem():
    other = ["rho differs from the reference by 1e-06",
             "exit code 1: Traceback (most recent call last)"]
    fault = [checks.KNOWN_FAULT + " decision not-reject contradicts ..."]
    assert checks.unexplained(fault + other, known_fault=True) == other


def test_simulate_check(tmp_path):
    out = tmp_path / "sim.csv"
    run_cli("simulate", "--kind", "bfgn", "--N", "20000", "--rho", "0.5",
            "--seed", "3", "--out", out)
    y1, y2 = checks.read_pair(out)
    assert checks.simulate_problems(y1, y2, 20000, 0.5) == []
    assert checks.simulate_problems(y1[:-1], y2[:-1], 20000, 0.5)
    assert checks.simulate_problems(y1, 3 * y2, 20000, 0.5)
    assert checks.simulate_problems(y1, y2[::-1], 20000, 0.5)


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: t.variance.__setitem__((0, 0), -1.0), "variances"),
    (lambda t: t.variance.__setitem__((0, 1), 2 * t.variance[0, 1]),
     "variances"),
    (lambda t: t.correlation.__setitem__((0, 0, 0), 1.2), "correlations"),
    (lambda t: t.correlation.__setitem__((-1, 1, 1), 0.9), "ratio-1"),
])
def test_table_check(small, tmp_path, corrupt, message):
    args = ("0.7:0.72:0.02", 128, "0.5,1.0", tmp_path)
    good = small["dir"] / "t.covtab"
    assert checks.table_problems(good, *args) == []
    table = load_covtab(str(good))
    corrupt(table)
    save_covtab(table, str(tmp_path / "bad.covtab"))
    found = checks.table_problems(tmp_path / "bad.covtab", *args)
    assert any(message in p for p in found)


def rewrite_rows(src: Path, dst: Path, edit):
    """Copy a study CSV, passing each data row (as a list) through edit."""
    lines = src.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    keys = lines[header].split(",")
    rows = [ln.split(",") for ln in lines[header + 1:]]
    edit(keys, rows)
    dst.write_text("\n".join(lines[:header + 1]
                             + [",".join(r) for r in rows]) + "\n")


def test_upperbound_check(small, tmp_path):
    out = tmp_path / "ub.csv"
    run_cli("study", "--study", "upperbound", "--table",
            small["dir"] / "t.covtab", "--mc-samples", DRAWS, "--out", out)
    assert checks.upperbound_problems(out, 2) == []

    def flag(keys, rows):
        rows[0][keys.index("violation")] = "1"

    def raise_bound(keys, rows):
        k = next(i for i, key in enumerate(keys) if key.startswith("bound_n"))
        rows[1][k] = repr(float(rows[-1][k]) * 1.01)

    for edit in (flag, raise_bound):
        rewrite_rows(out, tmp_path / "bad.csv", edit)
        assert checks.upperbound_problems(tmp_path / "bad.csv", 2)
    assert checks.upperbound_problems(out, 3)


def test_calibration_check(tmp_path):
    out = tmp_path / "cal.csv"
    run_cli("study", "--study", "calibration", "--replicates", "40", "--N",
            SMALL_N, "--seed", "1", "--out", out)
    assert checks.calibration_problems(out, 40, workloads.LEVEL) == []

    def flip(keys, rows):
        k = keys.index("reject")
        rows[0][k] = "0" if rows[0][k] == "1" else "1"

    rewrite_rows(out, tmp_path / "flip.csv", flip)
    found = checks.calibration_problems(tmp_path / "flip.csv", 40,
                                        workloads.LEVEL)
    assert any("disagree" in p for p in found)

    def reject_all(keys, rows):
        for row in rows:
            row[keys.index("p_value")], row[keys.index("reject")] = "0.0", "1"

    rewrite_rows(out, tmp_path / "all.csv", reject_all)
    text = (tmp_path / "all.csv").read_text().splitlines()
    text[1] = "# rejection rate 1.0000"
    (tmp_path / "all.csv").write_text("\n".join(text) + "\n")
    found = checks.calibration_problems(tmp_path / "all.csv", 40,
                                        workloads.LEVEL)
    assert found and all("outside" in p for p in found)


def test_tracer_records_and_restores(small, tmp_path):
    from dccatest import testkit

    original = testkit.stat_dcca
    tracer = spans.Tracer()
    tracer.install()
    try:
        analyze(small["dir"] / "pair.csv", tmp_path / "r.json",
                workloads.KNOWN, kappa="r-1")
    finally:
        tracer.uninstall()
    assert testkit.stat_dcca is original and cli.stat_dcca is original
    values = spans.layer_metrics(tracer.spans, 1, [1.0], 1.0, 0, 0.0)
    assert values["testkit.pools_per_analysis"] == 2
    assert values["testkit.draws_per_analysis"] == int(DRAWS) * (10 + 9)
    assert values["series.load_pair_s"] > 0
    assert set(values) == set(spans.METRICS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "sessionbench", tmp_path / "sessionbench",
                    ignore=shutil.ignore_patterns("results", "_work",
                                                  "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "sessionbench/run.py", "--workload", "desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert out.returncode != 0 and out.stdout == ""
