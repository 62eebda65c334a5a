import numpy as np

from dccatest import studies
from dccatest.studies import upperbound_check
from oracles import upperbound_rows


def _same_row(a: dict, b: dict) -> bool:
    return list(a) == list(b) and np.array_equal(
        list(a.values()), list(b.values()), equal_nan=True)


def test_upperbound_check_matches_per_node_pools(tiny_table):
    """Nodes that share one draw matrix give the rows of one freshly
    seeded pool per node: theta*, every bound and the violations."""
    settings = dict(n_samples=10_000, level=0.05, mc_samples=100_000, seed=9)
    result = upperbound_check(tiny_table, **settings)
    oracle = upperbound_rows(tiny_table, n_min=20, n_max=500, r=10,
                             degree=1, **settings)
    assert len(result["rows"]) == len(tiny_table.grid) ** 2 + 1
    assert len(oracle) == len(result["rows"])
    for got, want in zip(result["rows"], oracle):
        assert _same_row(got, want), (got, want)
    assert result["violations"] == sum(row["violation"] for row in oracle)


def test_upperbound_check_builds_one_pool_per_unordered_pair(tiny_table,
                                                             monkeypatch):
    """The null covariance is symmetric in (H, G): nh nodes take one pool
    per unordered pair plus the worst case's, 7 for 3 nodes (not 10)."""
    built = []

    class CountingPool(studies.GaussianTailPool):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(studies, "GaussianTailPool", CountingPool)
    result = upperbound_check(tiny_table, mc_samples=100_000, seed=9)
    nh = len(tiny_table.grid)
    assert len(result["rows"]) == nh * nh + 1
    assert len(built) == 1 + nh * (nh + 1) // 2 == 7
