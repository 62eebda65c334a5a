import threading
import tracemalloc

import numpy as np
import pytest

from dccatest import studies
from dccatest.fbm import FbmParams
from dccatest.fluctuation import fluctuation_analysis, rho_block
from dccatest.series import make_scales
from dccatest.simulate import SimSpec, generate, generate_block, \
    spectral_root
from dccatest.studies import _rho_vectors, upperbound_check
from dccatest.testkit import scaled_rho
from oracles import upperbound_rows

# A process that exists but whose minimal embedding at N = 1000 is not
# positive semidefinite: its replicates take the dense fallback.
DENSE = FbmParams(hurst1=0.857, hurst2=0.911, rho=0.249, eta=0.315)


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


def _one_at_a_time(kind, params, n_samples, scale_set, replicates, seed):
    """Scaled rho vectors of ``fluctuation_analysis(generate(...))``, one
    replicate at a time."""
    spec = SimSpec(kind=kind, n_samples=n_samples, params=params, seed=seed)
    root = spectral_root(spec)
    counts = scale_set.window_counts(n_samples)
    return np.array([scaled_rho(fluctuation_analysis(
        generate(spec, i, root), scale_set).rho, counts)
        for i in range(replicates)])


@pytest.mark.parametrize("replicates", [2, 7])
@pytest.mark.parametrize("kind, params", [
    ("bfgn", FbmParams(hurst1=0.7, hurst2=0.8, rho=0.3)),
    ("nongaussian", FbmParams(hurst1=0.7, hurst2=0.8)),
    ("mixture", FbmParams(hurst1=0.9, hurst2=0.9)),
])
def test_rho_vectors_match_one_replicate_at_a_time(kind, params, replicates):
    # Blocks of 3 at N = 10^4: fewer replicates than a block, and a count
    # that leaves a partial block.
    n = 10_000
    assert studies._block_replicates(n) == 3
    scale_set = make_scales(n, 20, 500, 10, 1)
    got = _rho_vectors(kind, params, n, scale_set, replicates, seed=12)
    want = _one_at_a_time(kind, params, n, scale_set, replicates, seed=12)
    assert got.shape == (replicates, 10)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("replicates", [1, 5])
def test_rho_vectors_of_the_dense_fallback(monkeypatch, replicates):
    # Blocks of 2 of dense-fallback pairs at N = 1000.
    monkeypatch.setattr(studies, "_block_replicates", lambda n: 2)
    n = 1000
    scale_set = make_scales(n, 10, 100, 5, 1)
    assert spectral_root(SimSpec(kind="bfgn", n_samples=n,
                                 params=DENSE)) is None
    got = _rho_vectors("bfgn", DENSE, n, scale_set, replicates, seed=3)
    want = _one_at_a_time("bfgn", DENSE, n, scale_set, replicates, seed=3)
    assert np.abs(got - want).max() <= 1e-13


def test_rho_vectors_same_on_one_and_two_threads(monkeypatch):
    # Progress arrives for every replicate, in order, on the calling
    # thread, whatever the thread count.
    n, replicates = 10_000, 8
    scale_set = make_scales(n, 20, 500, 10, 1)
    params = FbmParams(hurst1=0.7, hurst2=0.8)
    out = {}
    for threads in (1, 2):
        monkeypatch.setattr(studies, "THREADS", threads)
        calls = []
        out[threads] = _rho_vectors(
            "bfgn", params, n, scale_set, replicates, seed=5,
            progress=lambda done, total: calls.append(
                (done, total, threading.get_ident())))
        assert calls == [(i, replicates, threading.get_ident())
                         for i in range(1, replicates + 1)]
    assert out[1].tobytes() == out[2].tobytes()


def test_one_block_at_ten_thousand_samples_stays_small():
    # numpy's buffers for one block of 3 replicates at N = 10^4 (L =
    # 20,000) peak at 2.3 MiB: draws, spectra, transforms, profiles and
    # residuals; a block of 4 would reach 3.1 MiB.  Two threads hold two
    # blocks at once.
    n = 10_000
    size = studies._block_replicates(n)
    spec = SimSpec(kind="bfgn", n_samples=n,
                   params=FbmParams(hurst1=0.7, hurst2=0.8), seed=4)
    root = spectral_root(spec)
    scale_set = make_scales(n, 20, 500, 10, 1)
    rho_block(generate_block(spec, range(size), root), scale_set)
    tracemalloc.start()
    try:
        rho = rho_block(generate_block(spec, range(size), root), scale_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.shape == (size, 10)
    assert peak < 2.75 * 2**20, peak / 2**20
