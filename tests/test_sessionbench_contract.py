"""The names of ``dccatest`` that the benchmark in ``sessionbench/``
relies on: the functions its tracer wraps, the caches its runner clears
and the table attribute its checks read.  The benchmark's files are only
read here."""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "sessionbench" / "spans.py"

# Arguments the tracer's INFO hooks read by name.
BOUND_ARGUMENTS = {
    "testkit.GaussianTailPool.__init__": {"matrix", "samples"},
    "series.load_pair": {"path_a", "path_b"},
    "studies.null_calibration": {"replicates"},
}


def _layers() -> dict:
    """``LAYERS`` of spans.py, read without running the module."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py defines no LAYERS")


def test_every_traced_name_resolves():
    traced = set()
    for layer, names in _layers().items():
        module = importlib.import_module(f"dccatest.{layer}")
        for dotted in names:
            target = module
            for attr in dotted.split("."):
                target = getattr(target, attr)
            assert callable(target), f"{layer}.{dotted}"
            traced.add(f"{layer}.{dotted}")
            params = set(inspect.signature(target).parameters)
            missing = BOUND_ARGUMENTS.get(f"{layer}.{dotted}", set()) - params
            assert not missing, (f"{layer}.{dotted}", missing)
    assert set(BOUND_ARGUMENTS) <= traced


def test_cleared_caches_and_checked_attributes_exist():
    from dccatest import asymptotics, fluctuation
    for cached in (fluctuation.poly_basis, asymptotics.fluct_mean_exact):
        assert callable(cached.cache_clear) and callable(cached.cache_info)
    assert isinstance(asymptotics.CovTable.offsets_used, property)
