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
from dccatest.cli import DEFAULT_TABLE_RESOURCE, _mapper, main
from dccatest.testkit import STAGES


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
    that does not exist is still called invalid."""
    out = str(tmp_path / "x.csv")
    code = main(["simulate", "--kind", "bfgn", "--N", "10000",
                 "--H", "0.857", "--G", "0.911", "--rho", "0.249",
                 "--eta", "0.315", "--out", out])
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
    per_scale = report["per_scale"]
    for row in per_scale:
        expected = np.sign(row["f2_cross"]) * np.log(abs(row["f2_cross"]))
        assert row["signlog_f2_cross"] == pytest.approx(expected, rel=1e-12)


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
    assert load_covtab(out).is_complete()


def test_tabulate_resume_noop(tmp_path, table_file):
    text = open(table_file).read()
    target = tmp_path / "copy.covtab"
    target.write_text(text)
    code = main(["tabulate", "--grid", "0.5:0.9:0.2", "--n-tab", "128",
                 "--ratios", "0.1,0.3,0.6,1.0", "--resume",
                 "--out", str(target)])
    assert code == 0
    after = load_covtab(str(target))
    before = load_covtab(table_file)
    assert np.array_equal(after.variance, before.variance)
    assert np.array_equal(after.correlation, before.correlation)


def test_tabulate_resume_completes_partial(tmp_path, table_file):
    import dataclasses
    table = load_covtab(table_file)
    partial = dataclasses.replace(table, variance=table.variance.copy(),
                                  correlation=table.correlation.copy())
    partial.variance[1, 2] = np.nan
    partial.variance[2, 1] = np.nan
    partial.correlation[:, 1, 2] = np.nan
    partial.correlation[:, 2, 1] = np.nan
    target = tmp_path / "partial.covtab"
    save_covtab(partial, str(target))
    code = main(["tabulate", "--grid", "0.5:0.9:0.2", "--n-tab", "128",
                 "--ratios", "0.1,0.3,0.6,1.0", "--resume",
                 "--out", str(target)])
    assert code == 0
    fixed = load_covtab(str(target))
    assert fixed.is_complete()
    assert fixed.variance[1, 2] == pytest.approx(table.variance[1, 2],
                                                 rel=1e-12)


def test_tabulate_jobs_resume_on_new_grid_starts_fresh(tmp_path, capsys):
    # A partial table on another grid is not resumed, in parallel as in
    # serial, and the message says so; the parallel table is
    # byte-identical to the serial one.
    common = ["--n-tab", "128", "--ratios", "0.25,0.5,1.0"]
    old = str(tmp_path / "t.covtab")
    assert main(["tabulate", "--grid", "0.6:0.62:0.02", *common,
                 "--out", old]) == 0
    capsys.readouterr()
    assert main(["tabulate", "--grid", "0.6:0.66:0.02", *common,
                 "--resume", "--jobs", "2", "--out", old]) == 0
    out = capsys.readouterr().out
    assert "starting fresh" in out and "resuming" not in out
    serial = str(tmp_path / "serial.covtab")
    assert main(["tabulate", "--grid", "0.6:0.66:0.02", *common,
                 "--out", serial]) == 0
    assert open(old, "rb").read() == open(serial, "rb").read()
    assert load_covtab(serial).is_complete()


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


def test_tabulate_resume_starts_fresh_on_a_truncated_table(tmp_path,
                                                           capsys):
    # A table cut short at the output path is not resumed, and the run
    # writes the table a fresh run writes.
    common = ["--grid", "0.6:0.62:0.02", "--n-tab", "128",
              "--ratios", "0.5,1.0"]
    out = tmp_path / "t.covtab"
    assert main(["tabulate", *common, "--out", str(out)]) == 0
    whole = out.read_bytes()
    lines = whole.splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:len(lines) // 2]))
    capsys.readouterr()
    assert main(["tabulate", *common, "--resume", "--out", str(out)]) == 0
    assert "no usable partial table found; starting fresh" in \
        capsys.readouterr().out
    assert out.read_bytes() == whole


def test_mapper_workers_run_one_blas_thread(monkeypatch):
    # Each pool worker runs one BLAS thread, so --jobs does not
    # oversubscribe the cores; the parent's environment comes back.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    with _mapper(2) as mapper:
        assert list(mapper(os.getenv, names)) == ["1"] * 3
    assert dict(os.environ) == before


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, dccatest.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_study_jobs_2_writes_the_serial_csv(tmp_path):
    # Replicates run in a process pool give the serial study's CSV.
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["study", "--study", "calibration", "--replicates", "40",
                     "--N", "2000", "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_study_bad_rhos_is_usage_error(tmp_path):
    assert main(["study", "--study", "power", "--rhos", "oops"]) == 2


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
