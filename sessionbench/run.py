"""Run one workload as a user session of cold ``dccatest`` processes.

    python3 sessionbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is taken from its
``src``.  One client runs the session's commands one at a time, each as
a new interpreter (a closed loop).  Whole sessions repeat until
``--seconds`` of session time have passed; then every output is checked.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of the same
sessions run in this interpreter under the tracer.  Spans and per-run
details are written under ``sessionbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# The console-script entry point of the package, run by each process.
LAUNCH = "import sys; from dccatest.cli import main; sys.exit(main())"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "long", "study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(src: Path) -> dict:
    # BLAS gets min(2, nproc) threads, whatever the caller's environment says.
    threads = str(min(2, len(os.sched_getaffinity(0))))
    return dict(os.environ, PYTHONPATH=str(src),
                **{var: threads for var in BLAS_THREAD_VARS})


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def run_process(args: list[str], env: dict, log: Path) -> dict:
    """One cold ``dccatest`` process: exit code, wall time, peak RSS."""
    with open(log, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *args],
                                env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = log.read_text(encoding="utf-8").strip().splitlines()[-1:]
    return {"returncode": proc.returncode, "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": tail[0] if tail else ""}


def run_in_process(args: list[str]) -> dict:
    """One command in this interpreter, its caches cleared first so that it
    matches a cold process."""
    from dccatest import asymptotics, cli, fluctuation

    fluctuation.poly_basis.cache_clear()
    asymptotics.fluct_mean_exact.cache_clear()
    start = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(args)
    return {"returncode": code, "seconds": time.perf_counter() - start,
            "poly_basis_misses": fluctuation.poly_basis.cache_info().misses}


def check_round(ops, results, work: Path) -> None:
    """Attach each operation's problems to its result."""
    import checks

    ran = [op for op, res in zip(ops, results) if res["returncode"] == 0]
    found = checks.session_problems(ran, work)
    for op, res in zip(ops, results):
        if res["returncode"] != 0:
            res["problems"] = [f"exit code {res['returncode']}: "
                               f"{res.get('stderr', '')}"]
        else:
            res["problems"] = found[op.name]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dccatest" / "cli.py").is_file():
        print(f"error: no dccatest source under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = env[var]      # before numpy loads in this process
    sys.path[:0] = [str(src), str(BENCH)]
    import checks
    import spans as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    ops = workload.ops(work, args.seed)

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.make_inputs(work, args.seed)
        run_process(["--version"], env, work / "warmup.log")
        setups.append(time.perf_counter() - start)

    tracer = None
    import_s = []
    if args.trace:
        probe = ("import time; t = time.perf_counter(); import dccatest.cli; "
                 "print(time.perf_counter() - t)")
        for _ in range(IMPORT_REPEATS):
            out = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, check=True)
            import_s.append(float(out.stdout))
        import dccatest.cli  # noqa: F401  (loads every layer to be traced)
        tracer = tracing.Tracer()
        tracer.install()

    rounds, sessions, attempted, failed, unexpected = [], [], 0, 0, []
    poly_misses = 0
    try:
        while not sessions or sum(sessions) < args.seconds:
            for op in ops:
                op.out.unlink(missing_ok=True)
            results = []
            start = time.perf_counter()
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = len(rounds) * len(ops) + i
                    results.append(run_in_process(op.args))
                    poly_misses += results[-1]["poly_basis_misses"]
                else:
                    results.append(run_process(op.args, env,
                                               work / f"{op.name}.log"))
            sessions.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
            check_round(ops, results, work)
            if tracer:
                tracer.install()
            for op, res in zip(ops, results):
                attempted += 1
                if res["problems"]:
                    failed += 1
                    bad = checks.unexplained(res["problems"], op.known_fault)
                    if bad:
                        unexpected.append((op.name, bad))
            rounds.append([dict(res, name=op.name)
                           for op, res in zip(ops, results)])
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        per_span = tracing.span_overhead()
        values = tracing.layer_metrics(tracer.spans, len(rounds), import_s,
                                       sum(sessions), poly_misses, per_span)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.METRICS.items()}
        (RESULTS / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({
                "spans": [[s.name, s.start, s.end, s.parent, s.op, s.info]
                          for s in tracer.spans],
                "self_s": tracing.self_times(tracer.spans),
                "span_overhead_s": per_span,
            }) + "\n", encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "session_s": {"value": statistics.median(sessions), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for rnd in rounds
                                         for r in rnd), "unit": "MiB"},
        }
    env_record = environment(root)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "environment": env_record, "workload": args.workload,
         "seed": args.seed, "setups_s": setups, "sessions_s": sessions,
         "rounds": rounds, "metrics": metrics,
     }, indent=1, default=str) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for name, problems in unexpected:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    print("environment: " + json.dumps(env_record))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
