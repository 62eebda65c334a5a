"""The verdicts ``tools/bench_pairs.py`` writes into a BENCH file."""

import importlib.util
import json
import sys
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
                "metrics": {"session_s": {"value": value}},
                "rounds": [[{"name": "op", "seconds": value,
                             "peak_rss_mb": 100.0 + seed}]]}

    def copy_trees(root, parent, work):
        # Stub trees whose package modules have 3 and 2 lines.
        trees = {side: work / side for side in bench.SIDES}
        for side, text in (("parent", "a\nb\n"), ("change", "a\n")):
            package = trees[side] / "src" / "dccatest"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text("x\n")
            (package / "mod.py").write_text(text)
            (package / "notes.txt").write_text("not counted\n")
        return trees

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "copy_trees", copy_trees)
    monkeypatch.setattr(bench, "run_session", run_session)
    monkeypatch.setattr(bench, "run_tier1", lambda tree: {})
    monkeypatch.setattr(bench, "git", lambda *args, root: "abc\n")
    assert bench.main(["--parent", "p", "--label", "t",
                       "--claim", "long:session_s"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["src_lines"] == {"parent": 3, "change": 2, "delta": -1}
    assert out["claim"]["workload"] == "long"
    assert out["claim"]["wins"] == "10/10" and out["claim"]["holds"]
    assert out["workloads"]["study"]["verdict"]["session_s"][
        "change_lower_in_pairs"] == "0/10"
    ops = out["workloads"]["long"]["change"]["operations"]
    assert ops == {"op": {"rounds": 10, "peak_rss_mb_max": 110.0,
                          "seconds_median": pytest.approx(3.055)}}


# A stand-in benchmark run: it leaves the results file of one session of
# two rounds behind and prints the summary line.
FAKE_RUN = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
rounds = [[{"name": "simulate", "seconds": 1.0 + seed + r,
            "peak_rss_mb": 120.0 + seed},
           {"name": "analyze", "seconds": 2.0, "peak_rss_mb": 85.0 - seed}]
          for r in range(2)]
out = pathlib.Path("sessionbench", "results")
out.mkdir(parents=True, exist_ok=True)
(out / f"{args['--workload']}-seed{seed}-trace0.json").write_text(
    json.dumps({"rounds": rounds}))
print("environment: {}")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0}))
"""


def test_per_process_table_reads_each_runs_results(bench, tmp_path):
    runs = [bench.run_session(tmp_path, [sys.executable, "-c", FAKE_RUN],
                              "long", seed, 1) for seed in (1, 2)]
    assert runs[0]["attempted"] == 4 and len(runs[0]["rounds"]) == 2
    assert bench.operations(runs) == {
        "simulate": {"rounds": 4, "seconds_median": 3.0,
                     "peak_rss_mb_max": 122.0},
        "analyze": {"rounds": 4, "seconds_median": 2.0,
                    "peak_rss_mb_max": 84.0}}


TIER1_OUT = """\
........................................................................ [ 97%]
...........                                                              [100%]
============================= slowest 5 durations ==============================
21.91s setup    tests/test_acceptance.py::test_criterion_4_null_calibration
14.18s call     tests/test_acceptance.py::test_criterion_10_mc_stability_and_speed
8.06s call     tests/test_acceptance.py::test_criterion_8_worst_case_dominance
0.50s teardown tests/test_cli.py::test_x[a b]
0.02s call     tests/test_series.py::test_y
1 failed, 370 passed in 86.29s (0:01:26)
"""


def test_tier1_result_keeps_the_slowest_items(bench):
    result = bench.tier1_result(TIER1_OUT)
    assert (result["passed"], result["failed"], result["errors"]) == \
        (370, 1, 0)
    assert result["wall_s"] == 86.29
    assert result["slowest"][0] == {
        "item": "tests/test_acceptance.py::test_criterion_4_null_calibration",
        "phase": "setup", "seconds": 21.91}
    assert [row["phase"] for row in result["slowest"]] == \
        ["setup", "call", "call", "teardown", "call"]
    assert result["slowest"][3]["item"] == "tests/test_cli.py::test_x[a b]"
    assert "--durations=5" in bench.TIER1
    assert bench.tier1_result("")["slowest"] == []
