"""Statistical test for power-law cross-correlation between time series.

Built on detrended cross-correlation analysis: fluctuation statistics
and DCCA correlation coefficients across window scales, their joint
Gaussian null distribution derived from fractional-Brownian-motion
covariance kernels, and conservative p-values for the null hypothesis
of long-range independence.
"""

__version__ = "0.1.0"

from .series import (InfeasibleScalesError, ScaleSet, SeriesPair,
                     integrate_profile, load_pair, make_scales, write_pair)
from .fluctuation import (FluctuationSet, HurstEstimate,
                          fluctuation_analysis, hurst_estimate, rho_dcca,
                          sign_log)
from .fbm import FbmParams, fgn_autocov, fgn_cross_cov
from .asymptotics import (CovTable, NullCovariance, fluct_mean_exact,
                          load_covtab, rho_null_cov, save_covtab, tabulate,
                          worst_case_cov)
from .testkit import (GaussianTailPool, TestConfig, TestOutcome, stat_dcca,
                      test_statistic)
from .simulate import SimSpec, add_trend, generate

__all__ = [
    "__version__",
    "InfeasibleScalesError", "ScaleSet", "SeriesPair", "integrate_profile",
    "load_pair", "make_scales", "write_pair",
    "FluctuationSet", "HurstEstimate", "fluctuation_analysis",
    "hurst_estimate", "rho_dcca", "sign_log",
    "FbmParams", "fgn_autocov", "fgn_cross_cov",
    "CovTable", "NullCovariance", "fluct_mean_exact", "load_covtab",
    "rho_null_cov", "save_covtab", "tabulate", "worst_case_cov",
    "GaussianTailPool", "TestConfig", "TestOutcome", "stat_dcca",
    "test_statistic",
    "SimSpec", "add_trend", "generate",
]
