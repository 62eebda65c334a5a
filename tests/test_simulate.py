import numpy as np
import pytest
from scipy.stats import ks_2samp

from dccatest.fbm import FbmParams, fgn_autocov
from dccatest.fluctuation import fluctuation_analysis, hurst_estimate
from dccatest.series import make_scales
from dccatest.simulate import (SimSpec, _bfgn_from_rng, _circulant_root,
                               _embedding_length, _fgn_filter,
                               _fgn_filter_gains, _gen_bfgn_circulant,
                               _highpass, _signed_power_std, add_trend,
                               gen_bfgn, gen_mixture, gen_nongaussian,
                               generate, replicate_rng)
from oracles import bfgn_joint_cov


def _spec(kind="bfgn", n=4096, h=0.7, g=0.8, rho=0.0, seed=0, **kw):
    return SimSpec(kind=kind, n_samples=n,
                   params=FbmParams(hurst1=h, hurst2=g, rho=rho), seed=seed,
                   **kw)


def test_determinism_and_replicates():
    a = generate(_spec(seed=5), replicate=3)
    b = generate(_spec(seed=5), replicate=3)
    c = generate(_spec(seed=5), replicate=4)
    assert np.array_equal(a.y1, b.y1) and np.array_equal(a.y2, b.y2)
    assert not np.array_equal(a.y1, c.y1)


def test_spectral_roots_cached_read_only():
    # Replicates share one circulant root and one filter gain per
    # (n, params); no caller can change them for the next replicate.
    params = _spec().params
    root = _circulant_root(4096, params)
    assert _circulant_root(4096, params) is root
    gains = _fgn_filter_gains(4096, 0.7)
    assert _fgn_filter_gains(4096, 0.7) is gains
    # Both live on the L/2 + 1 non-negative frequencies only.
    half = _embedding_length(4096) // 2 + 1
    for block in (*root[1:], gains[1]):
        assert len(block) == half
        assert not block.flags.writeable


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(kind="bogus")
    with pytest.raises(ValueError):
        _spec(n=4)
    with pytest.raises(ValueError):
        _spec(phi=-1.0)
    with pytest.raises(ValueError):
        _spec(cutoff=0.6)
    with pytest.raises(ValueError):
        _spec(weight=1.0)
    with pytest.raises(ValueError):
        _spec(h=0.4)  # long-range model domain


def test_bfgn_white_noise_case():
    pair = gen_bfgn(_spec(h=0.5, g=0.5, n=10_000, seed=2))
    for y in (pair.y1, pair.y2):
        lag1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(lag1) < 3.0 / np.sqrt(10_000)


def test_bfgn_marginal_autocovariance_oracle():
    # Sample autocovariances at lags 0..10 match fgn_autocov within 3 SE
    # over 500 replicates.
    h, n, reps = 0.8, 512, 500
    acc = np.zeros((reps, 11))
    for i in range(reps):
        pair = gen_bfgn(_spec(h=h, g=0.6, n=n, seed=77), replicate=i)
        y = pair.y1
        for k in range(11):
            acc[i, k] = np.dot(y[:n - k], y[k:]) / (n - k)
    mean = acc.mean(axis=0)
    se = acc.std(axis=0) / np.sqrt(reps)
    theory = np.asarray(fgn_autocov(np.arange(11), h))
    assert np.all(np.abs(mean - theory) <= 3 * se)


def test_bfgn_cross_correlation_oracle():
    # Lag-0 sample cross-correlation concentrates around rho.
    rho, n, reps = 0.4, 4096, 100
    vals = np.empty(reps)
    for i in range(reps):
        pair = gen_bfgn(_spec(rho=rho, n=n, seed=31), replicate=i)
        vals[i] = np.corrcoef(pair.y1, pair.y2)[0, 1]
    se = vals.std() / np.sqrt(reps)
    assert abs(vals.mean() - rho) <= 3 * se


def test_bfgn_dense_and_circulant_agree_in_distribution():
    # Two-sample KS test on the first-sample values across replicates.
    params = FbmParams(hurst1=0.75, hurst2=0.85, rho=0.3)
    reps, n = 1000, 64
    dense = np.empty(reps)
    circ = np.empty(reps)
    for i in range(reps):
        dense[i] = _bfgn_from_rng(n, params, replicate_rng(1, i),
                                  method="dense").y1[0]
        circ[i] = _bfgn_from_rng(n, params, replicate_rng(2, i),
                                 method="circulant").y1[0]
    assert ks_2samp(dense, circ).pvalue > 0.01


class _UnitDraws:
    """Stand-in generator: its k-th ``standard_normal`` call returns the
    k-th unit vector of the requested shape."""

    def __init__(self):
        self.calls = 0

    def standard_normal(self, shape):
        z = np.zeros(shape)
        z.flat[self.calls] = 1.0
        self.calls += 1
        return z


@pytest.mark.parametrize("n, params", [
    (37, FbmParams(hurst1=0.7, hurst2=0.8, rho=0.3, eta=0.05)),
    (64, FbmParams(hurst1=0.6, hurst2=0.9, rho=-0.4, eta=-0.1)),
    (50, FbmParams(hurst1=0.75, hurst2=0.75, rho=0.5)),
])
def test_circulant_embedding_exact_covariance(n, params):
    # The generator is linear in its draws: feeding unit vectors gives
    # the columns of the map M from the 2L draws to the 2n outputs, and
    # the output covariance is M M^T.  It must be the exact bfGn target
    # (eta != 0 makes the cross block asymmetric), and every draw must
    # reach the output.
    length = _embedding_length(n)
    stub = _UnitDraws()
    cols = [np.concatenate(_gen_bfgn_circulant(n, params, stub))
            for _ in range(2 * length)]
    m = np.column_stack(cols)
    target = bfgn_joint_cov(n, params)
    assert np.abs(m @ m.T - target).max() <= 1e-10 * np.abs(target).max()
    assert np.all(np.abs(m).max(axis=0) > 0)


def test_nongaussian_filter_matches_complex_fft_form(rng):
    # The half-spectrum filter equals ifft(fft(w) * gain).real with the
    # full symmetric fGn gain built from the autocovariance.
    n, hurst = 1000, 0.8
    length = _embedding_length(n)
    g = np.asarray(fgn_autocov(np.arange(length // 2 + 1), hurst))
    lam = np.fft.fft(np.concatenate([g, g[-2:0:-1]])).real
    gain = np.sqrt(np.clip(lam, 0.0, None))
    w = rng.standard_normal(length)
    full = np.fft.ifft(np.fft.fft(w) * gain).real[:n]
    assert np.abs(_fgn_filter(w, n, hurst) - full).max() <= 1e-12


def test_bfgn_rejects_invalid_combination():
    # rho = 1 with distinct Hurst exponents is not a valid bivariate fBm.
    with pytest.raises(ValueError):
        gen_bfgn(_spec(h=0.55, g=0.95, rho=1.0, n=256), method="circulant")


def test_bfgn_dfa_slope_oracle():
    spec = _spec(h=0.8, g=0.8, n=40_000, seed=19)
    hits = 0
    reps = 40
    ss = make_scales(40_000, 20, 2000, 10, 1)
    for i in range(reps):
        pair = gen_bfgn(spec, replicate=i)
        fl = fluctuation_analysis(pair, ss)
        est = hurst_estimate(fl.f2_auto1, fl.scales)
        hits += (0.75 <= est.h_hat <= 0.85)
    assert hits >= 0.9 * reps


def test_signed_power_std_quadrature():
    # E|g|^{2 phi} for phi = 3 is the 6th moment of a standard normal.
    assert _signed_power_std(3.0) == pytest.approx(np.sqrt(15.0), rel=1e-12)
    assert _signed_power_std(1.0) == pytest.approx(1.0, rel=1e-12)


def test_nongaussian_phi1_is_gaussian():
    pair = gen_nongaussian(_spec(kind="nongaussian", n=20_000, phi=1.0,
                                 seed=4))
    y = pair.y1
    kurt = np.mean((y - y.mean()) ** 4) / np.var(y) ** 2
    assert abs(kurt - 3.0) < 3 * np.sqrt(24.0 / 20_000) + 0.15


def test_nongaussian_phi3_heavy_tails():
    # The transformed white noise has large excess kurtosis before
    # filtering (moment oracle: E g^12 / (E g^6)^2 - 3 = 43.2), and the
    # filtered output keeps a positive excess.
    g = replicate_rng(9, 0).standard_normal(20_000)
    w = np.sign(g) * np.abs(g) ** 3
    kurt_w = np.mean(w ** 4) / np.var(w) ** 2
    assert kurt_w - 3.0 > 1.0
    pair = gen_nongaussian(_spec(kind="nongaussian", n=20_000, phi=3.0,
                                 seed=9))
    y = pair.y1
    kurt_y = np.mean((y - y.mean()) ** 4) / np.var(y) ** 2
    assert kurt_y > 3.0


def test_nongaussian_matches_fgn_spectrum():
    # Second-order structure follows the target fGn autocovariance.
    h, n, reps = 0.8, 2048, 200
    acc = np.zeros((reps, 6))
    for i in range(reps):
        pair = gen_nongaussian(_spec(kind="nongaussian", h=h, n=n, phi=3.0,
                                     seed=21), replicate=i)
        y = pair.y1
        for k in range(6):
            acc[i, k] = np.dot(y[:n - k], y[k:]) / (n - k)
    mean = acc.mean(axis=0)
    se = acc.std(axis=0) / np.sqrt(reps)
    theory = np.asarray(fgn_autocov(np.arange(6), h))
    assert np.all(np.abs(mean - theory) <= 4 * se)


def test_nongaussian_dfa_slope():
    spec = _spec(kind="nongaussian", h=0.8, g=0.8, n=20_000, phi=3.0,
                 seed=30)
    ss = make_scales(20_000, 20, 1000, 8, 1)
    hits = 0
    reps = 30
    for i in range(reps):
        fl = fluctuation_analysis(gen_nongaussian(spec, replicate=i), ss)
        est = hurst_estimate(fl.f2_auto1, fl.scales)
        hits += (0.72 <= est.h_hat <= 0.88)
    assert hits >= 0.9 * reps


def test_highpass_hard_truncation(rng):
    x = rng.standard_normal(4096)
    filtered, frac = _highpass(x, 0.45)
    spec = np.abs(np.fft.rfft(filtered)) ** 2
    freqs = np.fft.rfftfreq(4096)
    below = spec[freqs < 0.45].sum()
    assert below < 1e-10 * spec.sum()
    assert 0.0 < frac < 0.25


def test_mixture_weight_zero_is_pure_bfgn():
    spec = _spec(kind="mixture", h=0.9, g=0.9, n=2048, weight=0.0, seed=6)
    pair = gen_mixture(spec)
    lr = _bfgn_from_rng(2048, FbmParams(hurst1=0.9, hurst2=0.9, rho=0.0),
                        replicate_rng(6, 0))
    assert np.allclose(pair.y1, lr.y1, rtol=1e-12)


def test_mixture_short_range_only_cross_correlation():
    # Positive lag-0 cross-correlation, but rho_dcca at the largest scale
    # stays near zero over replicates (no long-range cross-correlation).
    spec = _spec(kind="mixture", h=0.9, g=0.9, n=8192, weight=0.5,
                 sr_rho=0.5, seed=14)
    reps = 100
    lag0 = np.empty(reps)
    rho_large = np.empty(reps)
    ss = make_scales(8192, 16, 512, 6, 1)
    for i in range(reps):
        pair = gen_mixture(spec, replicate=i)
        lag0[i] = np.corrcoef(pair.y1, pair.y2)[0, 1]
        fl = fluctuation_analysis(pair, ss)
        rho_large[i] = fl.rho[-1]
    assert lag0.mean() > 5 * lag0.std() / np.sqrt(reps)
    assert abs(rho_large.mean()) <= 3 * rho_large.std() / np.sqrt(reps)


def test_add_trend_identity_and_consistency(rng):
    pair = gen_bfgn(_spec(n=1024, seed=1))
    same = add_trend(pair, (), ())
    assert np.allclose(same.y1, pair.y1, atol=0)
    trended = add_trend(pair, (1.0, 0.5), (0.0, -0.25), target="profile")
    t = np.arange(1, 1025.0)
    assert np.allclose(trended.x1, pair.x1 + 1.0 + 0.5 * t, rtol=1e-12)
    # Profiles and increments stay mutually consistent.
    assert np.allclose(np.cumsum(trended.y1), trended.x1, rtol=1e-9)
    inc = add_trend(pair, (0.5,), (), target="increments")
    assert np.allclose(inc.y1, pair.y1 + 0.5, atol=1e-12)


def test_add_trend_detrending_interaction(rng):
    pair = gen_bfgn(_spec(n=4096, seed=22))
    ss = make_scales(4096, 20, 200, 5, 1)
    base = fluctuation_analysis(pair, ss).rho
    # Degree-1 trend on profiles: invisible to d=1 detrending.
    lin = add_trend(pair, (2.0, 0.05), (1.0, -0.02), target="profile")
    assert np.allclose(fluctuation_analysis(lin, ss).rho, base, atol=1e-9)
    # Degree-2 trend: not removed by d=1, rho must move.
    quad = add_trend(pair, (0.0, 0.0, 1e-4), (), target="profile")
    assert not np.allclose(fluctuation_analysis(quad, ss).rho, base,
                           atol=1e-9)
