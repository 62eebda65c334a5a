"""Spans and counts around the calls into each ``dccatest`` layer.

A traced run replaces the public functions named in ``LAYERS`` by
wrappers that record a span (name, start, end, parent, operation) per
call, keeps the spans in memory and turns them into per-layer metrics at
the end.  The modules import each other's names directly, so a function
is replaced in every module namespace that holds it.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = {
    "series": ("load_pair", "write_pair", "make_scales"),
    "fluctuation": ("fluctuation_analysis", "hurst_estimate"),
    "fbm": ("fgn_autocov", "fgn_cross_cov"),
    "asymptotics": ("load_covtab", "loads_covtab", "save_covtab",
                    "rho_null_cov", "worst_case_cov", "fluct_mean_exact",
                    "tabulate", "tabulate_pair", "f2_variance_limit",
                    "f2_cross_scale_corr"),
    "testkit": ("stat_dcca", "build_null_cov", "test_statistic",
                "statistic_direction", "GaussianTailPool.__init__",
                "GaussianTailPool.threshold", "GaussianTailPool.prob_above"),
    "simulate": ("generate",),
    "studies": ("null_calibration", "upperbound_check"),
    "cli": ("cmd_analyze", "cmd_simulate", "cmd_tabulate", "cmd_study"),
}

# (unit, better) of every per-layer metric, in BENCHMARK.json order.
METRICS = {
    "cli.import_s": ("s", "lower"),
    "asymptotics.loads_covtab_s": ("s", "lower"),
    "series.load_pair_s": ("s", "lower"),
    "series.parse_mb_per_s": ("MB/s", "higher"),
    "series.write_pair_s": ("s", "lower"),
    "fluctuation.analysis_s": ("s", "lower"),
    "fluctuation.poly_basis_misses": ("count", "lower"),
    "fbm.kernel_s": ("s", "lower"),
    "asymptotics.null_cov_s": ("s", "lower"),
    "asymptotics.fluct_mean_exact_calls": ("count", "lower"),
    "asymptotics.fluct_mean_exact_max_s": ("s", "lower"),
    "asymptotics.tabulate_pair_s": ("s", "lower"),
    "testkit.pool_s": ("s", "lower"),
    "testkit.pools_per_analysis": ("count", "lower"),
    "testkit.draws_per_analysis": ("count", "lower"),
    "testkit.threshold_s": ("s", "lower"),
    "testkit.score_s": ("s", "lower"),
    "testkit.stat_dcca_s": ("s", "lower"),
    "simulate.generate_s": ("s", "lower"),
    "studies.calibration_replicates_per_s": ("1/s", "higher"),
    "studies.upperbound_nodes_per_s": ("1/s", "higher"),
    "studies.pools_built": ("count", "lower"),
    "trace.session_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    parent: int               # index of the enclosing span, -1 at the top
    op: int                   # operation the span belongs to
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _pool_info(bound: inspect.BoundArguments) -> dict:
    args = bound.arguments
    dim = args["matrix"].shape[0] if args.get("mode", "kth") == "kth" \
        else args["kappa"]
    return {"draws": int(args["samples"]) * int(dim)}


def _load_info(bound: inspect.BoundArguments) -> dict:
    paths = [bound.arguments["path_a"], bound.arguments.get("path_b")]
    return {"bytes": sum(os.path.getsize(p) for p in paths if p)}


def _replicates_info(bound: inspect.BoundArguments) -> dict:
    return {"replicates": int(bound.arguments["replicates"])}


INFO = {
    "testkit.GaussianTailPool.__init__": _pool_info,
    "series.load_pair": _load_info,
    "studies.null_calibration": _replicates_info,
}


class Tracer:
    """Records spans while installed; ``op`` names the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, cache=None):
        sig = inspect.signature(fn) if before else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            if before:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = before(bound)
            misses = cache.cache_info().misses if cache else 0
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if cache:
                    span.info["miss"] = cache.cache_info().misses > misses
        if cache:
            traced.cache_info, traced.cache_clear = (cache.cache_info,
                                                     cache.cache_clear)
        return traced

    def install(self):
        mods = {name: sys.modules[f"dccatest.{name}"] for name in LAYERS}
        everywhere = [m for k, m in sys.modules.items()
                      if k == "dccatest" or k.startswith("dccatest.")]
        for layer, names in LAYERS.items():
            home = mods[layer]
            for dotted in names:
                full = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._set(cls, attr, self.wrap(full, orig, INFO.get(full)))
                    continue
                orig = getattr(home, dotted)
                cache = orig if hasattr(orig, "cache_info") else None
                wrapped = self.wrap(full, orig, INFO.get(full), cache)
                for mod in everywhere:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def span_overhead(calls: int = 20_000) -> float:
    """Traced-minus-untraced seconds per call of an empty function."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = []
    for fn in (noop, traced, noop, traced, noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append((time.perf_counter() - start) / calls)
    return max(0.0, min(best[1::2]) - min(best[0::2]))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time (duration minus child spans) per span name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    out: dict[str, float] = {}
    for span, inner in zip(spans, child):
        out[span.name] = out.get(span.name, 0.0) + span.seconds - inner
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: list[Span], rounds: int, import_s: list[float],
                  session_s: float, poly_misses: int,
                  overhead_per_span: float) -> dict[str, float]:
    """Per-layer metrics per session; 0 where the layer does not run."""
    def under(i: int, names: set[str]) -> bool:
        i = spans[i].parent
        while i >= 0:
            if spans[i].name in names:
                return True
            i = spans[i].parent
        return False

    def named(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    analyses = len(named("testkit.stat_dcca"))
    pools = [i for i, s in enumerate(spans)
             if s.name == "testkit.GaussianTailPool.__init__"]
    in_analysis = [i for i in pools if under(i, {"testkit.stat_dcca"})]
    study_names = {"studies.null_calibration", "studies.upperbound_check"}
    misses = [s for s in named("asymptotics.fluct_mean_exact")
              if s.info.get("miss")]
    # prob_above calls made by the threshold search are not scoring.
    scores = [s for s in named("testkit.GaussianTailPool.prob_above")
              if s.parent < 0 or spans[s.parent].name
              != "testkit.GaussianTailPool.threshold"]
    scores += named("testkit.test_statistic")
    loads = named("series.load_pair")
    calib = named("studies.null_calibration")
    nodes = [i for i, s in enumerate(spans) if s.name ==
             "asymptotics.rho_null_cov" and under(i, {
                 "studies.upperbound_check"})]
    per = 1.0 / rounds
    return {
        "cli.import_s": statistics.median(import_s),
        "asymptotics.loads_covtab_s": total("asymptotics.loads_covtab") * per,
        "series.load_pair_s": total("series.load_pair") * per,
        "series.parse_mb_per_s": ratio(
            sum(s.info["bytes"] for s in loads) / 1e6,
            total("series.load_pair")),
        "series.write_pair_s": total("series.write_pair") * per,
        "fluctuation.analysis_s": total(
            "fluctuation.fluctuation_analysis") * per,
        "fluctuation.poly_basis_misses": poly_misses * per,
        "fbm.kernel_s": total("fbm.fgn_autocov", "fbm.fgn_cross_cov") * per,
        "asymptotics.null_cov_s": total("asymptotics.rho_null_cov",
                                        "asymptotics.worst_case_cov") * per,
        "asymptotics.fluct_mean_exact_calls": len(misses) * per,
        "asymptotics.fluct_mean_exact_max_s": max(
            (s.seconds for s in misses), default=0.0),
        "asymptotics.tabulate_pair_s": ratio(
            total("asymptotics.tabulate_pair"),
            len(named("asymptotics.tabulate_pair"))),
        "testkit.pool_s": total("testkit.GaussianTailPool.__init__") * per,
        "testkit.pools_per_analysis": ratio(len(in_analysis), analyses),
        "testkit.draws_per_analysis": ratio(
            sum(spans[i].info["draws"] for i in in_analysis), analyses),
        "testkit.threshold_s": total("testkit.GaussianTailPool.threshold")
        * per,
        "testkit.score_s": ratio(sum(s.seconds for s in scores),
                                 len(named("testkit.test_statistic"))),
        "testkit.stat_dcca_s": total("testkit.stat_dcca") * per,
        "simulate.generate_s": ratio(total("simulate.generate"),
                                     len(named("simulate.generate"))),
        "studies.calibration_replicates_per_s": ratio(
            sum(s.info["replicates"] for s in calib),
            total("studies.null_calibration")),
        "studies.upperbound_nodes_per_s": ratio(
            len(nodes), total("studies.upperbound_check")),
        "studies.pools_built": sum(under(i, study_names) for i in pools)
        * per,
        "trace.session_s": session_s * per,
        "trace.overhead_s": len(spans) * overhead_per_span * per,
    }
