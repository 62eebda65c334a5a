import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dccatest
from dccatest.asymptotics import load_covtab, save_covtab
from dccatest.cli import DEFAULT_TABLE_RESOURCE, main
from dccatest.fluctuation import HurstEstimate
from dccatest.series import load_pair, make_scales
from dccatest.testkit import STAGES, TestConfig, build_null_cov


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    code = main(["tabulate", "--grid", "0.5:0.9:0.2", "--n-tab", "128",
                 "--ratios", "0.1,0.3,0.6,1.0",
                 "--out", str(tmp_path_factory.mktemp("tab") / "t.covtab")])
    assert code == 0
    # Recover the path written above.
    base = tmp_path_factory.getbasetemp()
    hits = list(base.glob("tab*/t.covtab"))
    return str(hits[0])


def _simulate(tmp_path, name="pair.csv", extra=()):
    out = str(tmp_path / name)
    code = main(["simulate", "--kind", "bfgn", "--N", "4000", "--H", "0.7",
                 "--G", "0.8", "--rho", "0.4", "--seed", "1", "--out", out,
                 *extra])
    assert code == 0
    return out


def test_simulate_deterministic(tmp_path):
    a = _simulate(tmp_path, "a.csv")
    b = _simulate(tmp_path, "b.csv")
    assert open(a).read() == open(b).read()


def test_simulate_rejects_bad_rho(tmp_path):
    code = main(["simulate", "--kind", "bfgn", "--N", "4000",
                 "--rho", "1.5", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_refusal_names_embedding_not_process(tmp_path, capsys):
    """Above DENSE_N_CAP an existing process whose minimal circulant
    embedding is not PSD is refused as such, not called invalid; one
    that does not exist is still called invalid.  Below the cap the
    dense factor draws the first."""
    out = str(tmp_path / "x.csv")
    flags = ["--H", "0.857", "--G", "0.911", "--rho", "0.249",
             "--eta", "0.315", "--out", out]
    assert main(["simulate", "--kind", "bfgn", "--N", "1000", *flags]) == 0
    os.remove(out)
    capsys.readouterr()
    code = main(["simulate", "--kind", "bfgn", "--N", "10000", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert "process exists" in err
    assert "embedding of length 20000 is not positive semidefinite" in err
    assert "capped at N=4096" in err
    assert "invalid" not in err
    assert not os.path.exists(out)
    code = main(["simulate", "--kind", "bfgn", "--N", "10000",
                 "--H", "0.55", "--G", "0.95", "--rho", "0.6", "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "combination is invalid" in err and "exists" not in err


def test_simulate_refuses_an_empty_mixture_before_drawing(tmp_path, capsys):
    # N = 17 keeps no bin at or above a cutoff of 0.5.
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--kind", "mixture", "--N", "17",
                 "--cutoff", "0.5", "--out", out]) == 2
    assert capsys.readouterr().err \
        == "error: high-pass cutoff leaves no spectral content\n"
    assert not os.path.exists(out)


def test_analyze_identical_series_rejects(tmp_path, table_file, capsys):
    data = _simulate(tmp_path)
    out = str(tmp_path / "report.json")
    code = main(["analyze", data, data, "--columns", "1,1",
                 "--scales", "20:200:5", "--table", table_file,
                 "--mc-samples", "150000", "--hurst", "known:0.7,0.7",
                 "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["outcome"]["decision"] == "reject"
    assert all(row["rho"] == pytest.approx(1.0, abs=1e-12)
               for row in report["per_scale"])
    assert report["config"]["scales"] == [20, 36, 63, 112, 200]


def test_analyze_report_round_trip(tmp_path, table_file):
    data = _simulate(tmp_path)
    out = str(tmp_path / "report.json")
    code = main(["analyze", data, "--scales", "20:200:5",
                 "--table", table_file, "--mc-samples", "150000",
                 "--hurst", "known:0.7,0.9", "--out", out])
    assert code == 0
    text = open(out).read()
    report = json.loads(text)
    # Serialising the parsed document again reproduces values exactly
    # (floats are emitted with round-trip repr).
    assert json.loads(json.dumps(report)) == report
    assert report["config"]["kappa"] == 5
    # theta* is the decision boundary; its Monte Carlo standard error is
    # a small positive number.
    out = report["outcome"]
    assert (out["decision"] == "reject") == \
        (out["statistic"] >= out["threshold"])
    assert 0.0 < out["threshold_stderr"] < 0.05
    assert out["p_floored"] is (out["p_value"] == 1 / 150_000)
    per_scale = report["per_scale"]
    for row in per_scale:
        expected = np.sign(row["f2_cross"]) * np.log(abs(row["f2_cross"]))
        assert row["signlog_f2_cross"] == pytest.approx(expected, rel=1e-12)


def test_analyze_threshold_is_the_decision_boundary(tmp_path, table_file):
    # In every Hurst mode and for kappa r, r-1 and 1, the report rejects
    # exactly when the statistic reaches theta*, also at a level equal to
    # the statistic's own p-value, where theta* is the largest draw not
    # above the statistic; each rho bound is theta* sqrt(C_ii / windows)
    # for the covariance the mode builds.
    data = _simulate(tmp_path, extra=("--rho", "0.1"))
    table = load_covtab(table_file)
    pair = load_pair(data)
    decisions = set()

    def analyze(mode, kappa, level):
        out = str(tmp_path / "rep.json")
        assert main(["analyze", data, "--scales", "20:200:5",
                     "--table", table_file, "--mc-samples", "100000",
                     "--hurst", mode, "--kappa", kappa, "--level", level,
                     "--out", out]) == 0
        report = json.loads(open(out).read())
        outcome = report["outcome"]
        decisions.add(outcome["decision"])
        assert (outcome["decision"] == "reject") == \
            (outcome["statistic"] >= outcome["threshold"])
        return report

    for mode in ("known:0.7,0.9", "range:0.5,0.7,0.7,0.9", "auto"):
        for kappa in ("r", "r-1", "1"):
            report = analyze(mode, kappa, "0.05")
            outcome = report["outcome"]
            at_p = analyze(mode, kappa, repr(outcome["p_value"]))
            assert at_p["outcome"]["decision"] == "reject"
            hurst = report["hurst"]
            config = TestConfig(
                scale_set=make_scales(pair.n_samples, 20, 200, 5,
                                      table.degree),
                hurst_mode=tuple(report["config"]["hurst_mode"]))
            cov = build_null_cov(
                config, pair.n_samples, table,
                HurstEstimate(hurst["h1"], hurst["h1_stderr"]),
                HurstEstimate(hurst["h2"], hurst["h2_stderr"]))
            for c_ii, row in zip(np.diag(cov.matrix), report["per_scale"]):
                assert row["rho_bound"] == pytest.approx(
                    outcome["threshold"] * math.sqrt(c_ii / row["windows"]),
                    rel=1e-12)
    assert decisions == {"reject", "not-reject"}


@pytest.mark.parametrize("column", ["ones", "zeros"])
def test_analyze_refuses_a_constant_column(tmp_path, capsys, column):
    # A constant column's profile is a line, which detrending removes to
    # round-off (F2_auto about 1e-24 for the ones column): there is no
    # fluctuation to score, and a DFA exponent of 0.099 would be noise.
    data = tmp_path / "flat.csv"
    noise = np.random.default_rng(0).standard_normal(5000)
    np.savetxt(data, np.column_stack([getattr(np, column)(5000), noise]))
    assert main(["analyze", str(data), "--hurst", "known:0.7,0.8",
                 "--mc-samples", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: series 1 is constant or polynomial to round-off: "
                   "its detrended fluctuation is at most 2^-40 of its "
                   "profile's largest magnitude\n")


def test_analyze_takes_a_linear_increment_column(tmp_path):
    # Linear increments give a quadratic profile (DFA exponent about 2),
    # which detrending of degree 1 leaves well above round-off.
    data = tmp_path / "ramp.csv"
    noise = np.random.default_rng(0).standard_normal(5000)
    np.savetxt(data, np.column_stack([np.arange(5000.0), noise]))
    out = str(tmp_path / "rep.json")
    assert main(["analyze", str(data), "--hurst", "known:0.7,0.8",
                 "--mc-samples", "100000", "--out", out]) == 0
    assert json.loads(open(out).read())["hurst"]["h1"] > 1.9


def test_analyze_report_times_each_stage(tmp_path, table_file):
    """stage_s names every stage of an analysis, and the stages, being
    disjoint parts of it, sum to at most timing_s."""
    data = _simulate(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["analyze", data, "--scales", "20:200:5",
                 "--table", table_file, "--mc-samples", "150000",
                 "--hurst", "auto", "--out", out]) == 0
    report = json.loads(open(out).read())
    stages = report["stage_s"]
    assert list(stages) == ["load", "table", *STAGES]
    assert min(stages.values()) >= 0
    assert sum(stages.values()) <= report["timing_s"]


def test_analyze_reports_table_checksum(tmp_path, table_file):
    # The report names the table and the SHA-256 of its bytes, for a
    # --table file and for the builtin table.
    data = _simulate(tmp_path)
    builtin = Path(dccatest.__file__).parent / "data" / DEFAULT_TABLE_RESOURCE
    for extra, source, path in (
            (["--table", table_file], table_file, table_file),
            ([], f"builtin:{DEFAULT_TABLE_RESOURCE}", builtin)):
        out = str(tmp_path / "report.json")
        assert main(["analyze", data, "--scales", "20:200:5", *extra,
                     "--mc-samples", "150000", "--hurst", "known:0.7,0.9",
                     "--out", out]) == 0
        table = json.loads(open(out).read())["table"]
        assert table["source"] == source
        assert table["sha256"] == hashlib.sha256(
            Path(path).read_bytes()).hexdigest()


def test_analyze_takes_the_degree_of_its_table(tmp_path):
    # No flag restates the table's degree: scales are detrended at it.
    table = str(tmp_path / "d0.covtab")
    assert main(["tabulate", "--grid", "0.6:0.7:0.1", "--n-tab", "128",
                 "--ratios", "0.1,0.3,0.6,1.0", "--degree", "0",
                 "--out", table]) == 0
    out = str(tmp_path / "report.json")
    assert main(["analyze", _simulate(tmp_path), "--scales", "20:200:5",
                 "--table", table, "--mc-samples", "150000",
                 "--hurst", "known:0.6,0.6", "--out", out]) == 0
    assert json.loads(open(out).read())["config"]["degree"] == 0


def test_tabulate_divergent_degree_exit_code(tmp_path, capsys):
    # At degree 0 the offset sums diverge for H + G >= 1.5: a user error.
    capsys.readouterr()
    assert main(["tabulate", "--grid", "0.6:0.8:0.2", "--n-tab", "128",
                 "--ratios", "1.0", "--degree", "0",
                 "--out", str(tmp_path / "t.covtab")]) == 2
    assert "diverges" in capsys.readouterr().err
    assert not (tmp_path / "t.covtab").exists()


def test_tabulate_correlation_above_one_exit_code(tmp_path, capsys,
                                                  monkeypatch):
    # A cross-scale correlation above 1, even by 1e-9, is never clamped:
    # it reports an inconsistent offset sum, an internal error.
    lattice_sum = dccatest.asymptotics._lattice_sum

    def inflated(n, m, *args):
        if n == m:
            return lattice_sum(n, m, *args)
        var_n, var_m = (lattice_sum(k, k, *args) for k in (n, m))
        return (1.0 + 1e-9) * math.sqrt(n * m * var_n * var_m) \
            / math.gcd(n, m)

    monkeypatch.setattr(dccatest.asymptotics, "_lattice_sum", inflated)
    capsys.readouterr()
    assert main(["tabulate", "--grid", "0.7:0.7:0.1", "--n-tab", "128",
                 "--ratios", "0.5,1.0",
                 "--out", str(tmp_path / "t.covtab")]) == 4
    assert "exceeds 1" in capsys.readouterr().err


def test_analyze_csv_format(tmp_path, table_file):
    data = _simulate(tmp_path)
    out = str(tmp_path / "report.csv")
    code = main(["analyze", data, "--scales", "20:200:5",
                 "--table", table_file, "--mc-samples", "150000",
                 "--hurst", "known:0.7,0.9", "--format", "csv",
                 "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("#")
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[:3] == ["n", "windows", "discarded"]


def test_analyze_kappa_flags(tmp_path, table_file):
    data = _simulate(tmp_path)
    for kappa, expected in (("r", 5), ("r-1", 4), ("3", 3)):
        out = str(tmp_path / f"rep_{kappa}.json")
        code = main(["analyze", data, "--scales", "20:200:5",
                     "--table", table_file, "--mc-samples", "150000",
                     "--hurst", "known:0.7,0.9", "--kappa", kappa,
                     "--out", out])
        assert code == 0
        assert json.loads(open(out).read())["config"]["kappa"] == expected


def test_analyze_exit_codes(tmp_path, table_file):
    data = _simulate(tmp_path)
    # Infeasible scale configuration -> 3.
    assert main(["analyze", data, "--scales", "20:3000:5",
                 "--table", table_file]) == 3
    # Missing input file -> 2.
    assert main(["analyze", str(tmp_path / "none.csv"),
                 "--table", table_file]) == 2
    # Unparseable hurst flag -> 2.
    assert main(["analyze", data, "--table", table_file,
                 "--hurst", "known:0.7"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["analyze", "x.csv", "--columns", "1"], "--columns expects two"),
    (["analyze", "x.csv", "--columns", "1,2,3"], "--columns expects two"),
    (["analyze", "x.csv", "--columns", "a,b"], "--columns expects two"),
    (["tabulate", "--grid", "0.6:0.8", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--grid", "0.6:0.8:0", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--grid", "0.6:0.8:-0.1", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--grid", "a:b:c", "--out", "t.covtab"], "--grid"),
    # Steps that would allocate 14.6 TiB or run for minutes.
    (["tabulate", "--grid", "0.6:0.8:1e-13", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--grid", "0.6:0.8:1e-9", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--grid", "0.6:0.8:inf", "--out", "t.covtab"], "--grid"),
    (["tabulate", "--ratios", "abc", "--out", "t.covtab"], "--ratios"),
    (["tabulate", "--ratios", "2.0,1.0", "--out", "t.covtab"], "--ratios"),
    (["analyze", "x.csv", "--kappa", "x"], "--kappa expects"),
    (["analyze", "x.csv", "--scales", "1:2"], "--scales expects"),
    (["analyze", "x.csv", "--hurst", "known:0.7,abc"], "--hurst expects"),
    (["study", "--study", "power", "--rhos", "oops"], "--rhos expects"),
    (["simulate", "--kind", "trended", "--N", "100", "--trend-coeffs1", "a",
      "--out", "s.csv"], "--trend-coeffs1 expects"),
])
def test_malformed_flags_are_usage_errors(capsys, argv, message):
    # Refused before any input is read or output written, naming the flag.
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("error, code, prefix", [
    (RuntimeError("covariance factorization failed"), 4, "internal error:"),
    (ValueError("bad input"), 2, "error:"),
])
def test_analyze_internal_failure_exit_code(tmp_path, table_file, capsys,
                                            monkeypatch, error, code,
                                            prefix):
    # A numerical failure inside the test is told apart from user error.
    data = _simulate(tmp_path)

    def fail(*_args):
        raise error

    monkeypatch.setattr("dccatest.cli.stat_dcca", fail)
    capsys.readouterr()
    assert main(["analyze", data, "--table", table_file]) == code
    assert capsys.readouterr().err.startswith(f"{prefix} {error}")


def test_analyze_white_noise_warns(tmp_path, table_file, capsys):
    out_file = str(tmp_path / "wn.csv")
    main(["simulate", "--kind", "bfgn", "--N", "6000", "--H", "0.5",
          "--G", "0.5", "--seed", "3", "--out", out_file])
    capsys.readouterr()
    code = main(["analyze", out_file, "--scales", "20:300:5",
                 "--table", table_file, "--mc-samples", "150000",
                 "--hurst", "known:0.5,0.5"])
    assert code == 0
    err = capsys.readouterr().err
    assert "0.55" in err and "warning" in err


def test_analyze_range_reports_its_cut_to_the_grid(tmp_path, capsys):
    # The shipped grid's top node is 0.98: the H range is cut there, the
    # cut is named on stderr, and the provenance holds the covered range.
    data = _simulate(tmp_path)
    out = str(tmp_path / "rep.json")
    assert main(["analyze", data, "--hurst", "range:0.55,0.99,0.7,0.9",
                 "--mc-samples", "100000", "--out", out]) == 0
    assert ("warning: H range [0.550, 0.990] cut to the table grid: "
            "[0.550, 0.980]\n") in capsys.readouterr().err
    report = json.loads(open(out).read())
    assert report["outcome"]["covariance_provenance"] == [
        "worst-case", 0.55, 0.98, 0.7, 0.9]


def test_tabulate_tiny_grid_under_a_minute(tmp_path):
    import time
    t0 = time.perf_counter()
    out = str(tmp_path / "tiny.covtab")
    code = main(["tabulate", "--grid", "0.5:0.7:0.2", "--n-tab", "128",
                 "--ratios", "0.1,0.5,1.0", "--out", out])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0, elapsed
    load_covtab(out)


def test_analyze_refuses_a_truncated_table(tmp_path, table_file, capsys):
    # A table cut short is an input error that names the file and the
    # line, not an uncaught exception.
    text = open(table_file).read()
    cut = tmp_path / "cut.covtab"
    cut.write_text(text[:len(text) // 2])
    pair = _simulate(tmp_path)
    assert main(["analyze", pair, "--table", str(cut)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"^error: {re.escape(str(cut))}:\d+: ", err), err


def test_analyze_refuses_a_table_with_an_infinite_entry(tmp_path,
                                                       table_file, capsys):
    # A non-finite entry is refused on load, before any lookup reads it.
    table = load_covtab(table_file)
    table.correlation[1, 0, 2] = np.inf
    bad = str(tmp_path / "inf.covtab")
    save_covtab(table, bad)
    assert main(["analyze", _simulate(tmp_path), "--table", bad]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [
    (1e200, 1e200), (1e160, 1.0), (1e100, 1e100), (1e150, 1e150),
    (1e-150, 1e-150), (1e-200, 1e-200)],
    ids=["1e200", "1e160,1", "1e100", "1e150", "1e-150", "1e-200"])
def test_analyze_scores_tiny_and_huge_inputs(tmp_path, capsys, scale):
    # Each series is scaled by a power of two into [1, 2) before its
    # profile is built, so input whose fluctuations, or their product in
    # rho, would overflow or underflow double precision gets the report
    # of the unscaled pair: the same decision, with rho, the statistic,
    # the p-value and the Hurst estimates equal to rounding.  The
    # reported fluctuations are scaled back, to inf or 0 where a double
    # cannot hold them, and numpy warns of nothing (the suite makes a
    # RuntimeWarning an error).
    x = np.random.default_rng(0).standard_normal((5000, 2))
    reports = []
    for name, data in (("unit", x), ("scaled", x * scale)):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        np.savetxt(path, data)
        assert main(["analyze", str(path), "--hurst", "auto",
                     "--mc-samples", "100000", "--out", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err
        reports.append(json.loads(out.read_text()))
    unit, scaled = reports
    assert scaled["outcome"]["decision"] == unit["outcome"]["decision"]
    for key in ("statistic", "p_value", "threshold"):
        assert scaled["outcome"][key] == pytest.approx(
            unit["outcome"][key], rel=1e-9, abs=1e-12)
    for key in ("h1", "h2"):
        assert scaled["hurst"][key] == pytest.approx(unit["hurst"][key],
                                                     rel=1e-9)
    s1, s2 = scale
    for a, b in zip(unit["per_scale"], scaled["per_scale"]):
        assert b["rho"] == pytest.approx(a["rho"], abs=1e-12)
        with np.errstate(over="ignore", under="ignore"):
            for key, factor in (("f2_auto1", np.float64(s1) ** 2),
                                ("f2_auto2", np.float64(s2) ** 2),
                                ("f2_cross", np.float64(s1) * s2)):
                assert b[key] == pytest.approx(a[key] * factor, rel=1e-9)


def test_fluctuations_scale_exactly_by_powers_of_two(rng):
    # Scaling a series by 2^k moves its fluctuations by exact powers of
    # two and leaves rho bit for bit; so does the scaling inside.
    from dccatest.fluctuation import fluctuation_analysis
    from dccatest.series import SeriesPair
    y1, y2 = rng.standard_normal((2, 3000))
    ss = make_scales(3000, 20, 150, 5, 1)
    base = fluctuation_analysis(SeriesPair.from_increments(y1, y2), ss)
    moved = fluctuation_analysis(
        SeriesPair.from_increments(np.ldexp(y1, 90), np.ldexp(y2, -70)), ss)
    assert moved.rho.tobytes() == base.rho.tobytes()
    assert np.array_equal(moved.f2_auto1, np.ldexp(base.f2_auto1, 180))
    assert np.array_equal(moved.f2_auto2, np.ldexp(base.f2_auto2, -140))
    assert np.array_equal(moved.f2_cross, np.ldexp(base.f2_cross, 20))


def test_cli_import_loads_no_scipy(tmp_path):
    # A cold kappa = r analysis, not only the import, leaves scipy
    # unloaded: its tail integrator evaluates Phi and Phi^-1 itself.  It
    # draws no numpy random numbers, and its scales need no numpy.ma
    # (np.unique imports it): each would add 10 ms to a cold process.
    data = _simulate(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, dccatest.cli; "
             f"assert dccatest.cli.main(['analyze', {data!r}, '--hurst', "
             "'known:0.7,0.8', '--kappa', 'r', '--out', sys.argv[1]]) == 0; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == "
             "'scipy' or m in ('numpy.random', 'numpy.ma')))")
    out = subprocess.run([sys.executable, "-c", probe,
                          str(tmp_path / "rep.json")], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["outcome"]["tail"]["method"] == "lattice"


def test_cli_import_skips_importlib_resources():
    # Without the interpreter's site hooks, which may import it on their
    # own, importing the CLI does not load importlib.resources.
    src = Path(__file__).resolve().parents[1] / "src"
    numpy_home = Path(np.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{numpy_home}")
    probe = ("import sys, dccatest.cli; "
             "print('importlib.resources' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_study_power_plumbing(tmp_path, table_file):
    out = str(tmp_path / "power.csv")
    code = main(["study", "--study", "power", "--replicates", "5",
                 "--N", "4000", "--rhos", "0,0.9", "--table", table_file,
                 "--mc-samples", "120000", "--seed", "7", "--out", out])
    assert code == 0
    lines = [ln for ln in open(out) if not ln.startswith("#")]
    assert lines[0].strip().split(",") == ["rho", "replicate", "statistic",
                                           "p_value", "reject"]
    assert len(lines) == 11


def test_study_speed_plumbing(tmp_path, table_file):
    out = str(tmp_path / "speed.csv")
    code = main(["study", "--study", "speed", "--replicates", "20",
                 "--N", "4000", "--table", table_file,
                 "--mc-samples", "100000", "--out", out])
    assert code == 0
    rows = [ln for ln in open(out) if not ln.startswith("#")]
    assert "tabulated" in rows[1] and "surrogate" in rows[2]


def test_study_stdout_is_csv_only(capsys):
    # Without --out, stdout holds the comment lines and the CSV alone;
    # progress goes to stderr.
    assert main(["study", "--study", "calibration", "--replicates", "40",
                 "--N", "2000"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert lines[:len(lines) - len(body)] == [
        ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(body))
    assert rows[0] == ["replicate", "statistic", "p_value", "reject"]
    assert len(rows) == 41
    assert [int(row[0]) for row in rows[1:]] == list(range(40))
    for row in rows[1:]:
        assert len(row) == 4 and 0.0 < float(row[2]) <= 1.0
    assert "[40/40]" in captured.err and "ETA" in captured.err


@pytest.mark.parametrize("argv", [
    ["tabulate", "--out", "t.covtab"],
    ["study", "--study", "calibration"],
])
def test_jobs_is_an_unknown_argument(capsys, argv):
    # Every command runs in the one process it starts.
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_upperbound_refuses_a_non_psd_envelope(tmp_path, capsys):
    # With ratios down to 1/16, the entrywise envelope over the whole grid
    # is not a covariance; the study stops with an internal error rather
    # than project it.  A Hurst-range null built from node p-values would
    # have no envelope to refuse.
    table = str(tmp_path / "fine.covtab")
    assert main(["tabulate", "--grid", "0.6:0.8:0.02", "--n-tab", "128",
                 "--ratios", "0.0625,0.125,0.25,0.5,0.75,1.0",
                 "--out", table]) == 0
    capsys.readouterr()
    assert main(["study", "--study", "upperbound", "--table", table,
                 "--mc-samples", "100000", "--seed", "1",
                 "--out", str(tmp_path / "ub.csv")]) == 4
    assert capsys.readouterr().err == (
        "internal error: worst_case_cov: covariance not positive "
        "semidefinite (eigmin -3.398e-03); refusing to project\n")


def test_study_bad_rhos_is_usage_error(tmp_path):
    assert main(["study", "--study", "power", "--rhos", "oops"]) == 2


@pytest.mark.parametrize("study", ["calibration", "nongaussian",
                                   "shortrange", "power", "speed"])
def test_study_zero_replicates_is_usage_error(table_file, capsys, study):
    assert main(["study", "--study", study, "--replicates", "0", "--N",
                 "4000", "--table", table_file, "--mc-samples",
                 "100000"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: replicates must be at least 1, got 0\n")


def test_study_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--study", "nonesuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _study_rows(path):
    return list(csv.reader(ln for ln in open(path) if not ln.startswith("#")))


@pytest.mark.parametrize("study, header", [
    ("nongaussian", ["replicate", "statistic", "p_value", "reject"]),
    ("shortrange", ["replicate", "statistic", "p_value", "reject_joint",
                    "reject_bonferroni"]),
])
def test_study_replicate_plumbing(tmp_path, table_file, study, header):
    out = str(tmp_path / f"{study}.csv")
    assert main(["study", "--study", study, "--replicates", "4", "--N",
                 "2000", "--table", table_file, "--mc-samples", "100000",
                 "--out", out]) == 0
    rows = _study_rows(out)
    assert rows[0] == header
    assert [int(row[0]) for row in rows[1:]] == [0, 1, 2, 3]


def test_study_upperbound_plumbing(tmp_path, table_file):
    out = str(tmp_path / "upperbound.csv")
    assert main(["study", "--study", "upperbound", "--N", "2000",
                 "--table", table_file, "--mc-samples", "100000",
                 "--out", out]) == 0
    header, *rows = _study_rows(out)
    assert header[:4] == ["hurst1", "hurst2", "theta_star", "violation"]
    grid = ["0.5", "0.7", "0.9"]
    assert [row[:2] for row in rows[:-1]] == [[h, g] for h in grid
                                              for g in grid]
    assert rows[-1][:2] == ["nan", "nan"]
    # A mirrored node (G, H) repeats the threshold and bounds of (H, G).
    node = {tuple(row[:2]): row[2:] for row in rows[:-1]}
    assert all(node[h, g] == node[g, h] for h in grid for g in grid)


def test_simulate_all_kinds(tmp_path):
    for kind, extra in [("bfgn", []), ("nongaussian", ["--phi", "3"]),
                        ("mixture", ["--weight", "0.5"]),
                        ("trended", ["--trend-coeffs1", "0,0.01"])]:
        out = str(tmp_path / f"{kind}.csv")
        code = main(["simulate", "--kind", kind, "--N", "2048",
                     "--H", "0.8", "--G", "0.8", "--seed", "2",
                     "--out", out, *extra])
        assert code == 0, kind
        body = [ln for ln in open(out) if not ln.startswith("#")]
        assert len(body) == 2048
