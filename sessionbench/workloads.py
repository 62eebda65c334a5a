"""The three user sessions the benchmark runs, and the inputs they see.

A session is a fixed list of ``dccatest`` commands (operations).  The
workload seed makes the inputs: the benchmark's own bivariate fGn pairs
for ``desk``, and the ``--seed`` values handed to ``simulate``, ``study``
and the Monte Carlo pools.  The program sees nothing else of the seed.

Inputs are chosen so that every check holds on every seed, except the
one kappa < r case kept on ``desk``, whose input does not depend on the
seed and which fails the same way on every run (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

LEVEL = 0.05
HURST = (0.7, 0.8)
KNOWN = f"known:{HURST[0]},{HURST[1]}"
RANGE = "range:0.6,0.8,0.7,0.9"

DESK_N = 20_000
# A clearly correlated pair: the statistic sits far above every threshold,
# so it is rejected in every mode on every seed.
DESK_RHO = 0.5
# Input of the kept kappa < r fault: bfGn with rho = 0.08 from a fixed
# stream.  Its report gives statistic > threshold and 'not-reject'; the
# statistic and threshold it gives at pool seed 0 are recorded here.
FAULT_RHO = 0.08
FAULT_STREAM = 7
FAULT_STATISTIC = 0.5347082960117566
FAULT_THRESHOLD = 0.42

LONG_N = 1_000_000
LONG_RHO = 0.5

STUDY_GRID = "0.6:0.8:0.02"
STUDY_N_TAB = "128"
STUDY_RATIOS = "0.125,0.25,0.5,1.0"
STUDY_UPPERBOUND_DRAWS = "100000"
STUDY_REPLICATES = 400
STUDY_N = 10_000


@dataclass
class Op:
    """One ``dccatest`` command of a session and what its checks need."""

    name: str
    kind: str                  # analyze | simulate | tabulate | upperbound
    #                            | calibration
    args: list[str]            # command line after ``dccatest``
    out: Path                  # the output the checks read
    meta: dict = field(default_factory=dict)
    known_fault: bool = False  # fails on every run until the program is fixed


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[Path, int], None]
    ops: Callable[[Path, int], list[Op]]


def write_pair(path: Path, y1: np.ndarray, y2: np.ndarray):
    np.savetxt(path, np.column_stack([y1, y2]), fmt="%.17g", delimiter=",")


def write_fault_input(path: Path):
    """The fixed input of the kept kappa < r fault."""
    rng = np.random.default_rng(FAULT_STREAM)
    write_pair(path, *reference.bfgn(DESK_N, *HURST, FAULT_RHO, rng))


def _analyze(name: str, work: Path, pair: str, mode: str, kappa: str,
             seed: int, **meta) -> Op:
    hurst = {"known": KNOWN, "range": RANGE, "auto": "auto"}[mode]
    out = work / f"{name}.json"
    return Op(name=name, kind="analyze",
              args=["analyze", str(work / f"{pair}.csv"), "--hurst", hurst,
                    "--kappa", kappa, "--seed", str(seed), "--out", str(out)],
              out=out,
              meta=dict(input=work / f"{pair}.csv", pair=pair, mode=mode,
                        kappa=kappa, **meta))


# -- desk ------------------------------------------------------------------

def desk_inputs(work: Path, seed: int):
    for pair, rho, stream in (("indep", 0.0, 1), ("corr", DESK_RHO, 2)):
        rng = np.random.default_rng([seed, stream])
        write_pair(work / f"{pair}.csv",
                   *reference.bfgn(DESK_N, *HURST, rho, rng))
    write_fault_input(work / "fault.csv")


def desk_ops(work: Path, seed: int) -> list[Op]:
    ops = []
    # kappa = r-1 on the independent pair is left out: there the same
    # threshold/decision fault as in the kept case shows on some seeds
    # only, so the share of failed operations would vary between runs.
    for pair, kappas in (("indep", ("r",)), ("corr", ("r", "r-1"))):
        for kappa in kappas:
            for mode in ("known", "range", "auto"):
                ops.append(_analyze(
                    f"{pair}-{mode}-{kappa}", work, pair, mode, kappa, seed,
                    expect_reject=pair == "corr"))
    fault = _analyze("fault-known-r-1", work, "fault", "known", "r-1", 0,
                     statistic=FAULT_STATISTIC, threshold=FAULT_THRESHOLD)
    fault.known_fault = True
    ops.append(fault)
    return ops


# -- long ------------------------------------------------------------------

def long_inputs(work: Path, seed: int):
    """The session writes its own pair with ``dccatest simulate``."""


def long_ops(work: Path, seed: int) -> list[Op]:
    csv = work / "long.csv"
    simulate = Op(
        name="simulate", kind="simulate",
        args=["simulate", "--kind", "bfgn", "--N", str(LONG_N),
              "--H", str(HURST[0]), "--G", str(HURST[1]),
              "--rho", str(LONG_RHO), "--seed", str(seed),
              "--out", str(csv)],
        out=csv, meta=dict(n=LONG_N, rho=LONG_RHO))
    # One analysis: a known-mode one would add about 10 s to every run,
    # and 22 runs of each workload are meant to fit in an hour.
    return [simulate,
            _analyze("long-auto-r", work, "long", "auto", "r", seed,
                     expect_reject=True)]


# -- study -----------------------------------------------------------------

def study_inputs(work: Path, seed: int):
    """The session's inputs are its command-line seeds."""


def study_ops(work: Path, seed: int) -> list[Op]:
    table = work / "study.covtab"
    upper = work / "upperbound.csv"
    calib = work / "calibration.csv"
    return [
        Op(name="tabulate", kind="tabulate",
           args=["tabulate", "--grid", STUDY_GRID, "--n-tab", STUDY_N_TAB,
                 "--ratios", STUDY_RATIOS, "--out", str(table)],
           out=table,
           meta=dict(grid=STUDY_GRID, n_tab=int(STUDY_N_TAB),
                     ratios=STUDY_RATIOS)),
        # On the session's own table: the shipped 25-node grid would make
        # this one command 626 pools long and dominate the session.
        Op(name="upperbound", kind="upperbound",
           args=["study", "--study", "upperbound", "--table", str(table),
                 "--mc-samples", STUDY_UPPERBOUND_DRAWS, "--seed", str(seed),
                 "--out", str(upper)],
           out=upper, meta=dict(table=table)),
        Op(name="calibration", kind="calibration",
           args=["study", "--study", "calibration", "--replicates",
                 str(STUDY_REPLICATES), "--N", str(STUDY_N), "--seed",
                 str(seed), "--out", str(calib)],
           out=calib, meta=dict(replicates=STUDY_REPLICATES)),
    ]


WORKLOADS = {
    "desk": Workload(desk_inputs, desk_ops),
    "long": Workload(long_inputs, long_ops),
    "study": Workload(study_inputs, study_ops),
}
