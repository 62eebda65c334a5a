"""The verdicts ``tools/bench_pairs.py`` writes into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SESSION = {"name": "session_s", "better": "lower", "bound": 0.25}


def test_verdict_counts_wins_and_checks_the_bound(bench):
    parent = bench.spread([4.0, 4.1, 3.9, 4.0, 4.2, 3.8, 4.0, 4.1, 3.9, 4.0])
    change = bench.spread([4.4, 4.0, 4.5, 4.6, 4.2, 4.3, 4.5, 4.4, 4.6, 4.5])
    v = bench.verdict(SESSION, parent, change)
    assert v["change_lower_in_pairs"] == "1/10"   # 4.0 < 4.1; 4.2 ties
    assert v["within_bound"] and v["resolved"]
    slower = bench.spread([5.1 * x / 4.0 for x in parent["runs"]])
    assert not bench.verdict(SESSION, parent, slower)["within_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved(bench):
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}
    parent = bench.spread([100.0, 120.0] * 5)
    same = bench.spread([110.0] * 10)
    assert not bench.verdict(rss, parent, same)["resolved"]
    lower = bench.spread([99.0] * 10)
    assert bench.verdict(rss, parent, lower)["resolved"]


def test_claim_needs_nine_wins_and_a_gap_beyond_the_parent_iqr(bench):
    runs = [4.0, 4.1, 3.9, 4.0, 4.2, 3.8, 4.0, 4.1, 3.9, 4.0]
    result = {"parent": {"session_s": bench.spread(runs), "failed": [0],
                         "attempted": [9]},
              "change": {"session_s": bench.spread([x - 0.5 for x in runs]),
                         "failed": [0], "attempted": [9]}}
    assert bench.claim_verdict(SESSION, result)["holds"]
    result["change"]["session_s"] = bench.spread([x - 0.05 for x in runs])
    claim = bench.claim_verdict(SESSION, result)
    assert claim["wins"] == "10/10" and not claim["holds"]
    result["change"]["session_s"] = bench.spread([x - 0.5 for x in runs])
    result["change"]["failed"] = [1]
    assert not bench.claim_verdict(SESSION, result)["holds"]
    # Three wins of three pairs are too few pairs for the rule.
    result["parent"]["session_s"] = bench.spread(runs[:3])
    result["change"]["session_s"] = bench.spread([x - 0.5 for x in runs[:3]])
    result["change"]["failed"] = [0]
    claim = bench.claim_verdict(SESSION, result)
    assert claim["wins"] == "3/3" and not claim["holds"]


def test_main_judges_the_claimed_workload(bench, tmp_path, monkeypatch):
    # The claim names a workload that is not the last one run: only there
    # does the change read faster.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "sessionbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": w} for w in ("desk", "long", "study")],
        "end_to_end": [SESSION]}))

    def run_session(tree, command, workload, seed, seconds):
        value = 4.0 + 0.01 * seed
        if workload == "long" and tree.name == "change":
            value -= 1.0
        return {"correct": 1, "failed": 0, "attempted": 1,
                "metrics": {"session_s": {"value": value}}}

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "copy_trees", lambda root, parent, work: {
        side: work / side for side in bench.SIDES})
    monkeypatch.setattr(bench, "run_session", run_session)
    monkeypatch.setattr(bench, "run_tier1", lambda tree: {})
    monkeypatch.setattr(bench, "git", lambda *args, root: "abc\n")
    assert bench.main(["--parent", "p", "--label", "t",
                       "--claim", "long:session_s"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["claim"]["workload"] == "long"
    assert out["claim"]["wins"] == "10/10" and out["claim"]["holds"]
    assert out["workloads"]["study"]["verdict"]["session_s"][
        "change_lower_in_pairs"] == "0/10"
