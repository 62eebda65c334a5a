"""Command-line front end.

Subcommands: ``analyze`` runs the test on data files and emits a
machine-readable report; ``simulate`` writes synthetic pairs;
``tabulate`` builds and persists covariance tables; ``study`` executes
the validation studies and writes CSV results.

Exit codes: 0 success, 2 usage or input error, 3 infeasible scale
configuration, 4 internal numerical failure (a covariance that is not
positive semidefinite, a failed factorisation, an offset-sum series
bound out of tolerance or a correlation above 1, a Cauchy-Schwarz
breach).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import __version__
from .asymptotics import (CovTable, DEFAULT_GRID, DEFAULT_N_TAB,
                          DEFAULT_RATIOS, load_covtab, loads_covtab,
                          matches_tabulation, save_covtab, tabulate)
from .fbm import FbmParams
from .fluctuation import sign_log
from .series import InfeasibleScalesError, load_pair, make_scales, write_pair
from .simulate import SimSpec, generate
from .testkit import TestConfig, stat_dcca
from . import studies as studies_mod

DEFAULT_TABLE_RESOURCE = "default_d1.covtab"
_DEFAULT_TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                                   DEFAULT_TABLE_RESOURCE)


# ---------------------------------------------------------------------------
# Shared option parsing
# ---------------------------------------------------------------------------

def _parse_scales_arg(value: str, n_samples: int, degree: int):
    try:
        lo, hi, r = value.split(":")
        return make_scales(n_samples, int(lo), int(hi), int(r), degree)
    except ValueError as exc:
        if isinstance(exc, InfeasibleScalesError):
            raise
        raise ValueError(
            f"--scales expects MIN:MAX:R, got {value!r}"
        ) from None


def _parse_kappa(value: str, r: int) -> int:
    if value == "r":
        return r
    if value == "r-1":
        return r - 1
    return int(value)           # TestConfig checks its range


def _parse_hurst(value: str) -> tuple:
    if value == "auto":
        return ("auto",)
    mode, _, rest = value.partition(":")
    parts = [float(v) for v in rest.split(",")] if rest else []
    if mode == "known" and len(parts) == 2:
        return ("known", *parts)
    if mode == "range" and len(parts) == 4:
        return ("range", *parts)
    raise ValueError(
        "--hurst expects known:H,G or range:HL,HH,GL,GH or auto"
    )


def _load_table(path: str | None) -> tuple[CovTable, str, str]:
    """Table plus its source name and SHA-256 checksum."""
    name = f"builtin:{DEFAULT_TABLE_RESOURCE}" if path is None else path
    with open(_DEFAULT_TABLE_PATH if path is None else path, "rb") as fh:
        raw = fh.read()
    return loads_covtab(raw.decode("utf-8"), label=name), name, \
        hashlib.sha256(raw).hexdigest()


@contextmanager
def _mapper(jobs: int, chunksize: int = 1):
    """The built-in ``map`` for one job, else a process pool's ``map``;
    both yield results in input order."""
    if jobs <= 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # Spawned workers start from a fresh import: forking a process whose
    # BLAS may already run threads is unsafe.  Workers, which may start at
    # any map call, run one BLAS thread each: the pool fills the cores.
    spawn = multiprocessing.get_context("spawn")
    saved = dict(os.environ)
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    try:
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            yield partial(pool.map, chunksize=chunksize)
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _progress_printer(reports: int | None = None):
    """Progress callback(done, total, note="") writing "[done/total]
    note rate/s, ETA" to stderr, at every multiple of total // reports
    if given.  The rate counts this run's calls, not resumed entries."""
    start = time.monotonic()
    calls = 0

    def progress(done, total, note=""):
        nonlocal calls
        calls += 1
        if reports and done % max(1, total // reports):
            return
        rate = calls / max(time.monotonic() - start, 1e-9)
        print(f"  [{done}/{total}]{note} {rate:.3g}/s, ETA "
              f"{(total - done) / rate:.0f} s", file=sys.stderr, flush=True)

    return progress


def _emit(text: str, out_path: str | None):
    """Write ``text`` to ``out_path``, or to stdout if there is none."""
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows_csv(rows: list[dict], out_path: str | None,
                    header_comment: list[str]):
    text = io.StringIO()
    text.writelines(f"# {line}\n" for line in header_comment)
    writer = csv.DictWriter(text, fieldnames=list(rows[0]) if rows else [])
    writer.writeheader()
    writer.writerows(rows)
    _emit(text.getvalue(), out_path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _build_report(outcome, table_name: str, table_checksum: str,
                  seed: int, elapsed: float, stage_s: dict) -> dict:
    fl = outcome.fluctuations
    cfg = outcome.config
    per_scale = []
    for i, n in enumerate(fl.scale_set.scales):
        per_scale.append({
            "n": int(n),
            "windows": int(outcome.null_cov.window_counts[i]),
            "discarded": int(outcome.discarded[i]),
            "f2_cross": float(fl.f2_cross[i]),
            "f2_auto1": float(fl.f2_auto1[i]),
            "f2_auto2": float(fl.f2_auto2[i]),
            "rho": float(fl.rho[i]),
            "signlog_f2_cross": float(sign_log(fl.f2_cross[i])),
            "rho_bound": float(outcome.rho_bounds[i]),
        })
    return {
        "version": __version__,
        "config": {
            "scales": [int(n) for n in cfg.scale_set.scales],
            "degree": cfg.scale_set.degree,
            "kappa": cfg.kappa,
            "level": cfg.level,
            "hurst_mode": list(outcome.config.hurst_mode),
            "mc_samples": cfg.mc_samples,
            "seed": seed,
        },
        "table": {"source": table_name, "sha256": table_checksum},
        "hurst": {
            "h1": outcome.hurst1.h_hat, "h1_stderr": outcome.hurst1.stderr,
            "h2": outcome.hurst2.h_hat, "h2_stderr": outcome.hurst2.stderr,
        },
        "per_scale": per_scale,
        "outcome": {
            "statistic": outcome.statistic,
            "threshold": outcome.threshold,
            "p_value": outcome.p_value,
            "p_stderr": outcome.p_stderr,
            "decision": outcome.decision,
            "direction": outcome.direction,
            "covariance_provenance": list(outcome.null_cov.provenance),
        },
        "warnings": list(outcome.warnings),
        "timing_s": elapsed,
        "stage_s": stage_s,
    }


def cmd_analyze(args) -> int:
    t_start = time.perf_counter()
    columns = None
    if args.columns:
        a, _, b = args.columns.partition(",")
        columns = (int(a), int(b))
    pair = load_pair(args.file_a, args.file_b, columns)
    t_load = time.perf_counter()
    table, table_name, checksum = _load_table(args.table)
    t_table = time.perf_counter()
    degree = table.degree
    if args.scales:
        scale_set = _parse_scales_arg(args.scales, pair.n_samples, degree)
    else:
        n_max = max(pair.n_samples // 20, degree + 3)
        scale_set = make_scales(pair.n_samples, min(20, n_max - 1), n_max,
                                10, degree)
    config = TestConfig(
        scale_set=scale_set,
        level=args.level,
        kappa=_parse_kappa(args.kappa, scale_set.r),
        hurst_mode=_parse_hurst(args.hurst),
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    outcome = stat_dcca(pair, config, table)
    elapsed = time.perf_counter() - t_start
    stage_s = {"load": t_load - t_start, "table": t_table - t_load,
               **outcome.stage_s}
    report = _build_report(outcome, table_name, checksum, args.seed, elapsed,
                           stage_s)

    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        _write_rows_csv(report["per_scale"], args.out, header_comment=[
            f"dccatest {__version__}",
            f"decision {outcome.decision} p_value {outcome.p_value!r} "
            f"statistic {outcome.statistic!r} threshold {outcome.threshold!r}",
        ])
    for note in outcome.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(
        f"p-value {outcome.p_value:.6g} -> {outcome.decision} "
        f"(statistic {outcome.statistic:.4f}, threshold "
        f"{outcome.threshold:.4f}, direction {outcome.direction})",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    params = FbmParams(hurst1=args.hurst1, hurst2=args.hurst2, rho=args.rho,
                       eta=args.eta, sigma1=args.sigma1, sigma2=args.sigma2)
    spec = SimSpec(
        kind=args.kind,
        n_samples=args.n_samples,
        params=params,
        phi=args.phi,
        cutoff=args.cutoff,
        weight=args.weight,
        sr_rho=args.sr_rho,
        trend_coeffs1=tuple(float(v) for v in args.trend_coeffs1.split(","))
        if args.trend_coeffs1 else (),
        trend_coeffs2=tuple(float(v) for v in args.trend_coeffs2.split(","))
        if args.trend_coeffs2 else (),
        trend_target=args.trend_target,
        seed=args.seed,
    )
    pair = generate(spec, replicate=args.replicate)
    comment = (f"dccatest simulate kind={spec.kind} N={spec.n_samples} "
               f"H={params.hurst1} G={params.hurst2} rho={params.rho} "
               f"seed={spec.seed} replicate={args.replicate}")
    write_pair(args.out, pair, comment)
    print(f"wrote {args.out} (seed {spec.seed}, replicate {args.replicate})")
    return 0


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------

def _parse_grid(value: str) -> np.ndarray:
    lo, hi, step = (float(v) for v in value.split(":"))
    return np.round(np.arange(lo, hi + step / 2, step), 10)


def cmd_tabulate(args) -> int:
    grid = DEFAULT_GRID if args.grid is None else _parse_grid(args.grid)
    ratios = DEFAULT_RATIOS if args.ratios == "default" else \
        tuple(float(v) for v in args.ratios.split(","))
    resume_from = None
    if args.resume:
        try:
            resume_from = load_covtab(args.out, allow_partial=True)
        except (OSError, ValueError):
            pass
        if resume_from is not None and matches_tabulation(
                resume_from, grid, args.n_tab, ratios, args.degree):
            done = int(np.sum(~np.isnan(resume_from.variance)))
            print(f"resuming: {done} grid entries already tabulated")
        else:
            resume_from = None
            print("no usable partial table found; starting fresh")

    report = _progress_printer()

    def progress(done, total, h, g):
        report(done, total, f" H={h:.2f} G={g:.2f}")

    state = {"last_save": time.monotonic()}

    def checkpoint(snapshot):
        if time.monotonic() - state["last_save"] > 60:
            save_covtab(snapshot, args.out)
            state["last_save"] = time.monotonic()

    with _mapper(args.jobs) as mapper:
        table = tabulate(grid=grid, n_tab=args.n_tab, ratios=ratios,
                         degree=args.degree, resume_from=resume_from,
                         progress=progress, checkpoint=checkpoint,
                         mapper=mapper)
    save_covtab(table, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def cmd_study(args) -> int:
    table, _, _ = _load_table(args.table)
    with _mapper(args.jobs, chunksize=16) as mapper:
        result, summary = _run_study(args, table, mapper)
    meta = [f"dccatest {__version__} study={args.study} seed={args.seed}",
            summary]
    _write_rows_csv(result["rows"], args.out, header_comment=meta)
    print(f"{args.study}: {summary}", file=sys.stderr)
    return 0


def _run_study(args, table, mapper) -> tuple[dict, str]:
    """Result and one-line summary of the requested study."""
    run = dict(n_samples=args.n_samples, mc_samples=args.mc_samples,
               seed=args.seed, progress=_progress_printer(reports=20))
    if args.study == "speed":
        result = studies_mod.speed_study(table, surrogates=args.replicates,
                                         **run)
        return result, f"speedup {result['speedup']:.1f}x"
    run["level"] = args.level
    if args.study == "upperbound":
        result = studies_mod.upperbound_check(table, **run)
        return result, f"violations {result['violations']}"
    run.update(replicates=args.replicates, mapper=mapper)
    if args.study == "shortrange":
        result = studies_mod.shortrange_robustness(table, **run)
        return result, (f"joint {result['joint_rate']:.4f} vs bonferroni "
                        f"{result['bonferroni_rate']:.4f}")
    if args.study == "power":
        rhos = tuple(float(v) for v in args.rhos.split(","))
        result = studies_mod.power_study(table, rhos=rhos, **run)
        return result, " ".join(f"rho={k}:{v:.3f}" for k, v in
                                result["rates"].items())
    if args.study == "nongaussian":
        run.update(kind="nongaussian", phi=args.phi)
    result = studies_mod.null_calibration(table, **run)
    return result, f"rejection rate {result['rejection_rate']:.4f}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dccatest",
        description="Statistical test for power-law cross-correlation "
                    "between two time series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the test on data files")
    pa.add_argument("file_a")
    pa.add_argument("file_b", nargs="?", default=None)
    pa.add_argument("--columns", help="1-based columns, e.g. 1,2")
    pa.add_argument("--scales", help="MIN:MAX:R log-spaced window sizes")
    pa.add_argument("--kappa", default="r", help="integer, r, or r-1")
    pa.add_argument("--level", type=float, default=0.05)
    pa.add_argument("--hurst", default="auto",
                    help="known:H,G | range:HL,HH,GL,GH | auto")
    pa.add_argument("--table", help="covariance table path (default "
                    "builtin); its degree is the detrending degree")
    pa.add_argument("--mc-samples", type=int, default=1_000_000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", help="write report here instead of stdout")
    pa.add_argument("--format", choices=("json", "csv"), default="json")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="write a synthetic series pair")
    ps.add_argument("--kind", required=True,
                    choices=("bfgn", "nongaussian", "mixture", "trended"))
    ps.add_argument("--N", dest="n_samples", type=int, required=True)
    ps.add_argument("--H", dest="hurst1", type=float, default=0.7)
    ps.add_argument("--G", dest="hurst2", type=float, default=0.8)
    ps.add_argument("--rho", type=float, default=0.0)
    ps.add_argument("--eta", type=float, default=0.0)
    ps.add_argument("--sigma1", type=float, default=1.0)
    ps.add_argument("--sigma2", type=float, default=1.0)
    ps.add_argument("--phi", type=float, default=3.0)
    ps.add_argument("--cutoff", type=float, default=0.45)
    ps.add_argument("--weight", type=float, default=0.5)
    ps.add_argument("--sr-rho", dest="sr_rho", type=float, default=0.5)
    ps.add_argument("--trend-coeffs1", help="ascending, e.g. 0,0.1")
    ps.add_argument("--trend-coeffs2")
    ps.add_argument("--trend-target", default="profile",
                    choices=("profile", "increments"))
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--replicate", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("tabulate", help="build a covariance table")
    pt.add_argument("--grid", help="MIN:MAX:STEP (default: shipped grid)")
    pt.add_argument("--n-tab", dest="n_tab", type=int, default=DEFAULT_N_TAB)
    pt.add_argument("--ratios", default="default",
                    help="'default' or comma-separated values in (0,1]")
    pt.add_argument("--degree", type=int, default=1)
    pt.add_argument("--resume", action="store_true")
    pt.add_argument("--jobs", type=int, default=1)
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=cmd_tabulate)

    pu = sub.add_parser("study", help="run a validation study")
    pu.add_argument("--study", required=True, choices=studies_mod.STUDY_NAMES)
    pu.add_argument("--replicates", type=int, default=200)
    pu.add_argument("--N", dest="n_samples", type=int, default=10_000)
    pu.add_argument("--level", type=float, default=0.05)
    pu.add_argument("--rhos", default="0,0.05,0.1,0.2")
    pu.add_argument("--phi", type=float, default=3.0)
    pu.add_argument("--table", help="covariance table path (default builtin)")
    pu.add_argument("--mc-samples", type=int, default=400_000)
    pu.add_argument("--seed", type=int, default=0)
    pu.add_argument("--jobs", type=int, default=1)
    pu.add_argument("--out", help="CSV output path (default stdout)")
    pu.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleScalesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
