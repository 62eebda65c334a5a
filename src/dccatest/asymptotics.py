"""Exact moments of the fluctuation statistics and the null covariance
of the DCCA correlation coefficients.

Everything here rests on two trace identities for Gaussian profiles.
With Q = I - P the residual projector of the degree-d polynomial fit and
A_H, A_G the fBm covariance blocks of the two (independent) components
between the participating windows,

    E F2_auto(n)                  = trace(Q Sigma) / n
    cov(F2_cross(n), F2_cross(m)) = trace(Q_n A_H Q_m A_G^T) / (n m)

and the auto-statistic covariance carries an extra factor 2.  Because
the residual projector annihilates constants, only the lag term
-|a - b|^{2H} / 2 of the fBm kernel survives in either trace: both
moments are computed from lag powers alone, at any integer displacement
of the windows, including negative ones.

Asymptotics per scale are sums of the window-pair covariance c(delta)
over the displacements delta in g Z, g = gcd(n, m), that the two window
grids realise (g = n for the variance limit of one scale).  Each sum is
split at |delta| = 2 max(n, m).  Inside, c(delta) is summed directly, from
lag rows projected once for all offsets.  Beyond, |a - b - delta|^{2H} is
a binomial series in (a - b) / delta that converges at least like 2^{-k};
the projectors remove its orders below 2d + 2, and the remaining orders
sum over the lattice in closed form through Hurwitz zeta values, with
Hurst-free Gram matrices of the projected lag powers.  Nothing is
truncated but the series, whose omitted orders carry a computed bound.

An offline :class:`CovTable` stores, on a Hurst grid, the scale-free
variance limit, cross-scale correlations at tabulated scale ratios, and
scaled auto-statistic means.  :func:`rho_null_cov` assembles from it the
covariance matrix of (sqrt([N/n_1]) rho(n_1), ..., sqrt([N/n_r]) rho(n_r))
under independence, using exact trace means at the instance scales;
:func:`worst_case_cov` takes node-wise maxima over a Hurst range instead
of interpolating, which keeps the result an upper envelope.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fluctuation import poly_basis

DEFAULT_GRID = tuple(np.round(np.arange(0.50, 0.9801, 0.02), 10))
DEFAULT_N_TAB = 256
# The shipped table's window sizes: dense near 1, a few below 1/8.
DEFAULT_RATIOS = tuple(size / DEFAULT_N_TAB for size in (
    3, 5, 10, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 179, 192,
    208, 224, 230, 240, 243, 256))

_PSD_RTOL = 1e-8
# Highest binomial order kept in each lag block of the far-zone series,
# and the largest admissible bound on the omitted orders, relative to
# the whole lattice sum.
_SERIES_ORDER = 80
_SERIES_RTOL = 1e-10
# Elements of one (orders, rows, columns) block of the far-zone Gram
# matrices; about three blocks of this size are live at once.
_BLOCK_ELEMENTS = 1 << 17
# Bernoulli numbers B_2, B_4, ..., B_12 for Euler-Maclaurin.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


# ---------------------------------------------------------------------------
# Exact trace moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _basis_lag_sums(n: int, degree: int) -> np.ndarray:
    """c_l = sum_a P_{a,a+l} for l = 1..n-1: the summed lag-l
    autocorrelation of the fit basis columns, from one real FFT."""
    # Padding to at least 2n - 1 keeps the circular lags 1..n-1 exact.
    size = 1 << (2 * n - 2).bit_length()
    spec = np.fft.rfft(poly_basis(n, degree), size, axis=0)
    power = (spec.real ** 2 + spec.imag ** 2).sum(axis=1)
    sums = np.fft.irfft(power, size)[1:n]
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=4096)
def fluct_mean_exact(n: int, hurst: float, degree: int) -> float:
    """Exact mean of the detrended variance F2_auto(n) for fBm.

    Computed as trace((I - P) Sigma) / n without materialising Sigma.
    The residual projector annihilates constants, so of
    Sigma_ab = (a^{2H} + b^{2H} - |a-b|^{2H}) / 2 only the lag term
    survives: trace((I - P) Sigma) = sum_{l=1}^{n-1} l^{2H} c_l, where
    the lag sums c_l of the fit basis are shared by every Hurst value.
    """
    if n < degree + 2:
        raise ValueError(f"scale {n} too small for degree {degree}")
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    lags = np.arange(1, n, dtype=float)
    # einsum, not a BLAS dot: OpenBLAS splits a dot of over 10^4 elements
    # across its threads, which took 8.4 ms at n = 50,000 on two threads
    # (0.013 ms on one, 0.019 ms for einsum on two; 2-core Xeon).
    return float(np.einsum("i,i->", _basis_lag_sums(n, degree),
                           lags ** (2.0 * hurst))) / n


def _cross_cov_disp_batch(n: int, m: int, offsets: np.ndarray,
                          hurst1: float, hurst2: float,
                          degree: int) -> np.ndarray:
    """cov(F2 of window [1..n], F2 of window [off+1..off+m]) per offset.

    Pure cross-statistic covariance under the null (no factor 2); the
    offsets are sample displacements and may be negative.  Q_n and Q_m
    annihilate the rank-one parts of A_H and A_G, so the trace reduces
    to <Q_n T_H Q_m, Q_n T_G Q_m> / (4 n m) with the lag blocks
    T[a, b] = |a - b - offset|^{2H}, n rows of one lag matrix that all
    offsets share.  Each row is projected by Q_m once; Q_n enters through
    <Q_n X, Q_n Y> = <X, Y> - <B^T X, B^T Y>, B the fit basis.  That
    subtraction cancels the digits the fit explains, so the shorter
    window is projected entry by entry: c(n, m, delta) = c(m, n, -delta),
    and c(n, n, delta) is taken at |delta|, where it is exactly even.
    """
    offsets = np.asarray(offsets, dtype=int)
    if m > n:
        return _cross_cov_disp_batch(m, n, -offsets, hurst1, hurst2, degree)
    offsets = np.abs(offsets) if m == n else offsets
    basis_n = poly_basis(n, degree)
    basis_m = poly_basis(m, degree)
    low, top = int(offsets.min()), int(offsets.max())
    step = int(np.gcd.reduce(offsets - low)) or 1
    lags = np.abs(np.arange(1 - m - top, n - low, dtype=float))
    # Row i holds |i - top - b|^{2H} at column b, so the block of offset
    # delta is rows top - delta .. top - delta + n - 1.
    rows, moments = {}, {}
    for h in {hurst1, hurst2}:
        lag_rows = sliding_window_view(lags ** (2.0 * h), m)[:, ::-1]
        rows[h] = lag_rows - (lag_rows @ basis_m) @ basis_m.T
        moments[h] = sliding_window_view(rows[h], n, axis=0)[::step] \
            @ basis_n
    row_dots = np.einsum("ib,ib->i", rows[hurst1], rows[hurst2])
    inner = sliding_window_view(row_dots, n)[::step].sum(axis=1) \
        - np.einsum("wbk,wbk->w", moments[hurst1], moments[hurst2])
    return inner[(top - offsets) // step] / (4.0 * n * m)


# ---------------------------------------------------------------------------
# Asymptotic displacement sums
# ---------------------------------------------------------------------------

def _check_convergence(hurst1: float, hurst2: float, degree: int):
    """Refuse offset sums whose window-pair covariances decay like
    j^alpha, alpha = 2H + 2G - 4(d+1), with alpha >= -1: they diverge."""
    alpha = 2.0 * hurst1 + 2.0 * hurst2 - 4.0 * (degree + 1)
    if alpha >= -1.0:
        raise ValueError(
            f"window-offset sum diverges for H={hurst1}, G={hurst2} at "
            f"degree {degree}: covariances decay like j^{alpha:g}; "
            "use a higher degree"
        )


def _hurwitz_scaled(sigma: np.ndarray, first: int) -> np.ndarray:
    """sum_{j >= first} (first / j)^sigma, i.e. first^sigma times the
    Hurwitz zeta value zeta(sigma, first), for each sigma > 1.

    The first 32 terms are summed directly and the rest by
    Euler-Maclaurin from a = first + 32 with six Bernoulli corrections.
    The remainder is below |B_14| / 14! sigma^(13) a^{-13} (first/a)^sigma
    (rising factorial), under 1e-16 of the sum for every sigma the far
    series asks for.
    """
    sigma = np.asarray(sigma, dtype=float)
    a = float(first + 32)
    direct = ((first / np.arange(first, a)) ** sigma[:, None]).sum(axis=1)
    edge = (first / a) ** sigma
    tail = a * edge / (sigma - 1.0) + edge / 2.0
    rising, factorial = sigma.copy(), 2.0
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        tail += bernoulli / factorial * rising * edge / a ** (2 * k - 1)
        rising *= (sigma + 2 * k - 1) * (sigma + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
    return direct + tail


def _binomial_coefs(alpha: float, count: int) -> np.ndarray:
    """C(alpha, k) for k = 0..count-1."""
    k = np.arange(count - 1)
    return np.concatenate([[1.0], np.cumprod((alpha - k) / (k + 1))])


@cache
def _binomial_gram(n: int, m: int, degree: int) -> np.ndarray:
    """M[k, l] = <Q_n Y_k Q_m, Q_n Y_l Q_m> with Y_k[a, b] = ((a - b)/s)^k,
    s = max(n, m), for the orders 2d+2 <= k, l <= ``_SERIES_ORDER``.

    No Hurst exponent enters.  The projected powers are formed in row
    blocks: Q_m acts within a row, and Q_n needs only the (d+1) x m
    moments basis_n^T Y_k Q_m, accumulated in a first pass.
    """
    orders = np.arange(2 * degree + 2, _SERIES_ORDER + 1)
    basis_n = poly_basis(n, degree)
    basis_m = poly_basis(m, degree)
    step = max(1, _BLOCK_ELEMENTS // (len(orders) * m))
    starts = range(0, n, step)

    def rows_projected_in_b(start: int) -> np.ndarray:
        """Rows a of Y_k Q_m from ``start`` on, laid out (k, a, b)."""
        ratio = (np.arange(start, min(start + step, n))[:, None]
                 - np.arange(m)) / max(n, m)
        powers = np.repeat(ratio[None], len(orders), axis=0)
        powers[0] **= orders[0]
        np.cumprod(powers, axis=0, out=powers)
        flat = powers.reshape(-1, m)
        flat -= (flat @ basis_m) @ basis_m.T
        return powers

    moments = sum(basis_n[start:start + step].T @ rows_projected_in_b(start)
                  for start in starts)
    gram = np.zeros((len(orders), len(orders)))
    for start in starts:
        block = rows_projected_in_b(start)
        block -= basis_n[start:start + step] @ moments
        flat = block.reshape(len(orders), -1)
        gram += flat @ flat.T
    gram.flags.writeable = False
    return gram


def _far_sum(n: int, m: int, step: int, first: int, hurst1: float,
             hurst2: float, degree: int) -> tuple[float, float]:
    """sum_{j >= first} c(j step) + c(-j step) as a binomial series, and
    a bound on the orders it omits; needs first * step >= 2 max(n, m).

    With D = j step, s = max(n, m) and x = a - b, |x| < s <= D / 2, so
    |x -+ D|^{2H} = D^{2H} sum_k C(2H, k) (-+x / D)^k converges at least
    like 2^{-k}.  Q_n and Q_m remove every order below 2d + 2, odd
    orders of k + l cancel between D and -D, and the lattice sum of
    D^{2H+2G-k-l} is a Hurwitz zeta value:

        far = 2 / (4 n m) sum_{k+l even} C(2H, k) C(2G, l) M_kl
              (s / g)^{k+l} g^{2H+2G} zeta(k + l - 2H - 2G, first)

    with g = ``step`` and M the Gram matrix of :func:`_binomial_gram`.
    Orders k, l <= K = ``_SERIES_ORDER`` are kept.  Since |C(2H, k)| <= 1
    for k >= 2, |M_kl| <= nu_k nu_l with nu_k = sqrt(M_kk) <= sqrt(n m),
    and rho = s / D <= 1/2, the omitted orders add at most

        2 / sqrt(n m) (g first)^{2H+2G} [sum_{l <= K} nu_l rho^{K+1+l}
            zeta~(K+1+l) + 2 sqrt(n m) rho^{2K+2} zeta~(2K+2)]

    with rho = s / (g first) and zeta~(q) = sum_{j >= first}
    (first / j)^{q - 2H - 2G}.
    """
    size = max(n, m)
    if first * step < 2 * size:
        raise ValueError("far series needs offsets of at least 2 max(n, m)")
    gram = _binomial_gram(n, m, degree)
    low, top = 2 * degree + 2, _SERIES_ORDER
    exponent = 2.0 * hurst1 + 2.0 * hurst2
    # rho^p zeta~(p) for the total orders p = 2 low .. 2 top + 2.
    totals = np.arange(2 * low, 2 * top + 3)
    weights = (size / (step * first)) ** totals \
        * _hurwitz_scaled(totals - exponent, first)
    orders = np.arange(low, top + 1)
    coefs = (_binomial_coefs(2.0 * hurst1, top + 1)[low:, None]
             * _binomial_coefs(2.0 * hurst2, top + 1)[low:] * gram)
    by_total = np.bincount((orders[:, None] + orders).ravel() - 2 * low,
                           weights=coefs.ravel())
    scale = (step * first) ** exponent
    far = scale * float(by_total[::2] @ weights[:len(by_total):2]) \
        / (2.0 * n * m)
    root = math.sqrt(n * m)
    inner = np.sqrt(np.diag(gram)) @ weights[top + 1 - low:-1] \
        + 2.0 * root * weights[-1]
    return far, 2.0 / root * scale * float(inner)


def _lattice_sum(n: int, m: int, hurst1: float, hurst2: float,
                 degree: int) -> float:
    """sum_{delta in g Z} c(delta), g = gcd(n, m), direct inside
    |delta| < 2 max(n, m) and by :func:`_far_sum` beyond."""
    _check_convergence(hurst1, hurst2, degree)
    step = math.gcd(n, m)
    first = 2 * max(n, m) // step
    near = _cross_cov_disp_batch(n, m, step * np.arange(1 - first, first),
                                 hurst1, hurst2, degree)
    far, bound = _far_sum(n, m, step, first, hurst1, hurst2, degree)
    total = float(near.sum()) + far
    # Written so that a NaN bound fails too.
    if not bound <= _SERIES_RTOL * abs(total):
        raise RuntimeError(
            f"far-zone series bound {bound:.3e} exceeds {_SERIES_RTOL:g} "
            f"of the offset sum {total:.6e} at scales ({n}, {m})"
        )
    return total


def f2_variance_limit(n: int, hurst1: float, hurst2: float,
                      degree: int) -> float:
    """Limit of [N/n] var(F2_cross(n)) as a window-offset sum."""
    return _lattice_sum(n, n, hurst1, hurst2, degree)


def f2_cross_scale_corr(n: int, m: int, hurst1: float, hurst2: float,
                        degree: int, var_n: float, var_m: float) -> float:
    """Asymptotic correlation between F2_cross(n) and F2_cross(m), n != m.

    corr = (g / sqrt(n m)) sum_{delta in g Z} c(delta) / sqrt(V_n V_m)
    with g = gcd(n, m), c the window-pair covariance at sample
    displacement delta, and V_n = ``var_n``, V_m = ``var_m`` the
    single-scale variance limits of :func:`f2_variance_limit`.
    """
    total = _lattice_sum(n, m, hurst1, hurst2, degree)
    corr = math.gcd(n, m) / math.sqrt(n * m) * total \
        / math.sqrt(var_n * var_m)
    if corr > 1.0:
        raise RuntimeError(
            f"cross-scale correlation {corr} of scales ({n}, {m}) exceeds 1"
        )
    return corr


# ---------------------------------------------------------------------------
# Covariance table
# ---------------------------------------------------------------------------

@dataclass
class CovTable:
    """Tabulated asymptotic ingredients on a Hurst grid.

    ``variance[i, j]`` is the scale-free variance limit
    V(H_i, G_j) = lim [N/n] var(F2_cross(n)) / n^{2(H_i+G_j)};
    ``correlation[q, i, j]`` the asymptotic correlation between
    F2_cross(n_tab) and F2_cross(round(ratio_q * n_tab));
    ``auto_mean[i]`` the scaled mean E F2_auto(n_tab) / n_tab^{2 H_i}.
    Every entry is finite: ``tabulate`` fills them all and the loader
    refuses the rest.  ``degree`` is the detrending degree of every
    statistic the table serves; nothing else restates it.
    """

    degree: int
    n_tab: int
    grid: np.ndarray          # Hurst values, shared by both axes
    ratios: np.ndarray        # actual n'/n_tab values, increasing, last == 1
    variance: np.ndarray      # (nh, nh)
    correlation: np.ndarray   # (nq, nh, nh)
    auto_mean: np.ndarray     # (nh,)

    @property
    def offsets_used(self) -> np.ndarray:
        """Windows summed directly on either side of the zero offset per
        variance limit: 1 at every node."""
        return np.ones(self.variance.shape, dtype=int)

    @property
    def grid_min(self) -> float:
        return float(self.grid[0])

    @property
    def grid_max(self) -> float:
        return float(self.grid[-1])

    # -- lookups -----------------------------------------------------------

    def _check_hurst(self, h: float, name: str):
        if not (self.grid_min - 1e-9 <= h <= self.grid_max + 1e-9):
            raise ValueError(
                f"{name}={h} outside tabulated range "
                f"[{self.grid_min}, {self.grid_max}]"
            )

    def _cell(self, h: float) -> tuple[int, float]:
        """Grid cell index and interpolation weight for a Hurst value."""
        if len(self.grid) == 1:
            return 0, 0.0
        h = min(max(h, self.grid_min), self.grid_max)
        i = int(np.searchsorted(self.grid, h, side="right") - 1)
        i = min(max(i, 0), len(self.grid) - 2)
        w = (h - self.grid[i]) / (self.grid[i + 1] - self.grid[i])
        return i, float(min(max(w, 0.0), 1.0))

    def _bilinear(self, table2d: np.ndarray, h: float, g: float) -> float:
        i, wi = self._cell(h)
        j, wj = self._cell(g)
        i1 = min(i + 1, len(self.grid) - 1)
        j1 = min(j + 1, len(self.grid) - 1)
        sub = table2d[np.ix_((i, i1), (j, j1))]
        top = sub[0, 0] * (1 - wj) + sub[0, 1] * wj
        bot = sub[1, 0] * (1 - wj) + sub[1, 1] * wj
        return float(top * (1 - wi) + bot * wi)

    def variance_at(self, h: float, g: float) -> float:
        self._check_hurst(h, "H")
        self._check_hurst(g, "G")
        return self._bilinear(self.variance, h, g)

    def ratio_index(self, ratio: float) -> int:
        """Index of the tabulated ratio used for a scale ratio in (0, 1).

        Snaps toward 1 (smallest tabulated ratio >= requested).  That
        does not always overstate the correlation: aligned window grids
        make it irregular at simple fractions, so it can fall from one
        tabulated ratio to the next.  Ratios below the smallest tabulated
        value reuse the smallest one, mirroring the tabulation floor.  The
        ratio-1 entry is never used for distinct scales: the asymptotic
        correlation is discontinuous there (aligned window grids), so
        requests above the largest sub-1 ratio use that one instead.
        """
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must lie strictly between 0 and 1")
        sub = self.ratios[self.ratios < 1.0 - 1e-12]
        if sub.size == 0:
            raise ValueError(
                "table has no sub-unit ratios; scale pairs are outside "
                "its ratio coverage"
            )
        idx = int(np.searchsorted(sub, ratio - 1e-12, side="left"))
        return min(idx, len(sub) - 1)

    def cover(self, low: float,
              high: float) -> tuple[np.ndarray, float, float]:
        """Grid nodes covering [low, high] cut to the grid, widened
        outward to the nearest nodes, and the cut bounds."""
        lo = min(max(low, self.grid_min), self.grid_max)
        hi = min(max(high, self.grid_min), self.grid_max)
        i0 = int(np.searchsorted(self.grid, lo + 1e-12, side="right")) - 1
        i1 = int(np.searchsorted(self.grid, hi - 1e-12, side="left"))
        return np.arange(i0, i1 + 1), lo, hi


def ratio_window_sizes(n_tab: int, ratios, degree: int) -> list[int]:
    """Realisable window sizes for the requested tabulation ratios."""
    sizes = sorted(set(
        min(max(int(round(r * n_tab)), degree + 2), n_tab)
        for r in np.asarray(ratios, dtype=float)
    ))
    if sizes[-1] != n_tab:
        sizes.append(n_tab)
    return sizes


def tabulate_pair(h: float, g: float, n_tab: int, sizes, degree: int
                  ) -> tuple[float, np.ndarray]:
    """One (H, G) grid entry: scaled variance limit and correlations at
    the tabulated window sizes."""
    var_sum = f2_variance_limit(n_tab, h, g, degree)
    corrs = np.empty(len(sizes))
    for q, size in enumerate(sizes):
        if size == n_tab:
            corrs[q] = 1.0
        else:
            var_m = f2_variance_limit(size, h, g, degree)
            corrs[q] = f2_cross_scale_corr(n_tab, size, h, g, degree,
                                           var_sum, var_m)
    return var_sum / n_tab ** (2.0 * (h + g)), corrs


def tabulate(grid=DEFAULT_GRID, n_tab: int = DEFAULT_N_TAB,
             ratios=DEFAULT_RATIOS, degree: int = 1,
             progress=None) -> CovTable:
    """Tabulate variance limits, ratio correlations and scaled means.

    The (H, G) sweep exploits symmetry of the cross statistics, filling
    both triangles from one computation.  ``progress`` is an optional
    callback(done, total, h, g).
    """
    grid = np.asarray(sorted(set(float(h) for h in grid)))
    if len(grid) < 1 or grid[0] < 0.5 - 1e-12 or grid[-1] >= 1.0:
        raise ValueError("Hurst grid must lie within [0.5, 1)")
    if n_tab < 128:
        raise ValueError("n_tab must be at least 128")
    # The slowest-decaying pair sits at the top of the grid.
    _check_convergence(float(grid[-1]), float(grid[-1]), degree)

    sizes = ratio_window_sizes(n_tab, ratios, degree)
    nh = len(grid)
    variance = np.empty((nh, nh))
    correlation = np.empty((len(sizes), nh, nh))
    auto_mean = np.array([fluct_mean_exact(n_tab, float(h), degree)
                          / n_tab ** (2.0 * h) for h in grid])
    pairs = [(i, j) for i in range(nh) for j in range(i, nh)]
    for k, (i, j) in enumerate(pairs):
        scaled_var, corrs = tabulate_pair(float(grid[i]), float(grid[j]),
                                          n_tab, sizes, degree)
        variance[i, j] = variance[j, i] = scaled_var
        correlation[:, i, j] = correlation[:, j, i] = corrs
        if progress is not None:
            progress(k + 1, len(pairs), float(grid[i]), float(grid[j]))
    return CovTable(degree=degree, n_tab=n_tab, grid=grid,
                    ratios=np.array([s / n_tab for s in sizes]),
                    variance=variance, correlation=correlation,
                    auto_mean=auto_mean)


# ---------------------------------------------------------------------------
# Persistence (format covtab/1)
# ---------------------------------------------------------------------------

_COVTAB_MAGIC = "covtab/1"


def save_covtab(table: CovTable, path: str):
    """Write a table as versioned structured text, 1e-12 round-trip safe:
    header lines, then per array a ``block NAME d1 .. dk`` line and its
    d1 * ... * d(k-1) rows, then ``end``.  The text replaces ``path``
    only once written, so an interrupted save leaves the previous file.
    """
    def fmt_row(row):
        return " ".join(f"{v:.17g}" for v in row)

    blocks = (("variance", table.variance),
              ("correlation", table.correlation),
              ("auto_mean", table.auto_mean[None]),
              ("offsets", table.offsets_used))
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(f"{_COVTAB_MAGIC}\ndegree {table.degree}\n"
                     f"n_tab {table.n_tab}\ngrid {fmt_row(table.grid)}\n"
                     f"ratios {fmt_row(table.ratios)}\n")
            for name, block in blocks:
                fh.write(f"block {name} {' '.join(map(str, block.shape))}\n")
                for row in block.reshape(-1, block.shape[-1]):
                    fh.write(fmt_row(row) + "\n")
            fh.write("end\n")
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def load_covtab(path: str) -> CovTable:
    """Load a covtab/1 file; rejects other versions and non-finite
    entries."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_covtab(fh.read(), label=path)


def loads_covtab(text: str, label: str = "<string>") -> CovTable:
    """Parse covtab/1 text (see :func:`save_covtab`); a truncated or
    malformed text raises a ValueError naming ``label`` and its line,
    and so does a NaN or infinite entry."""
    lines = text.splitlines()
    first = lines[0].strip() if lines else ""
    if first != _COVTAB_MAGIC:
        raise ValueError(f"{label}: not a {_COVTAB_MAGIC} file "
                         f"(found {first!r})")
    header: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    pos = 1                     # index of the line being read
    try:
        while (line := lines[pos]) != "end":
            key, _, val = line.partition(" ")
            if key == "block":
                name, *dims = val.split()
                *outer, width = shape = [int(d) for d in dims]
                block = np.empty((math.prod(outer), width))
                for row in block:
                    pos += 1
                    row[:] = lines[pos].split()
                blocks[name] = block.reshape(shape)
            elif blocks:
                raise ValueError(f"expected a block, found {line!r}")
            else:
                header[key] = val
            pos += 1
    except IndexError:
        raise ValueError(f"{label}:{len(lines)}: the file ends before "
                         "its 'end' line") from None
    except (ValueError, MemoryError) as exc:   # MemoryError: a huge shape
        raise ValueError(f"{label}:{pos + 1}: {exc}") from None
    try:
        grid, ratios = (np.array(header[key].split(), dtype=float)
                        for key in ("grid", "ratios"))
        nh, nq = len(grid), len(ratios)
        if [blocks[name].shape for name in ("variance", "correlation",
                                            "auto_mean")] \
                != [(nh, nh), (nq, nh, nh), (1, nh)]:
            raise ValueError("block shapes do not fit the grid and ratios")
        table = CovTable(degree=int(header["degree"]),
                         n_tab=int(header["n_tab"]), grid=grid,
                         ratios=ratios, variance=blocks["variance"],
                         correlation=blocks["correlation"],
                         auto_mean=blocks["auto_mean"][0])
    except KeyError as exc:
        raise ValueError(f"{label}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None
    if not all(np.isfinite(block).all() for block in (
            table.variance, table.correlation, table.auto_mean)):
        raise ValueError(f"{label}: table contains NaN or infinite entries")
    return table


# ---------------------------------------------------------------------------
# Null covariance of the scaled rho vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullCovariance:
    """Covariance of (sqrt([N/n_i]) rho(n_i))_i under independence.

    ``provenance`` records whether the matrix is the exact-(H, G) limit
    or the worst case over the Hurst range the table covers; ``notes``
    name the approximations of the table's coverage.
    """

    matrix: np.ndarray
    scales: tuple[int, ...]
    n_samples: int
    provenance: tuple
    notes: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.scales)

    @property
    def window_counts(self) -> np.ndarray:
        return np.array([self.n_samples // n for n in self.scales])

    def rho_bounds(self, theta: float) -> np.ndarray:
        """Per-scale rejection boundary theta * sqrt(C_ii / [N/n_i]) on
        the raw rho scale."""
        return theta * np.sqrt(np.diag(self.matrix) / self.window_counts)


def _validate_null_cov(mat: np.ndarray, what: str) -> None:
    diag = np.diag(mat)
    if np.any(diag <= 0) or not np.all(np.isfinite(mat)):
        raise RuntimeError(f"{what}: invalid diagonal")
    denom = np.sqrt(np.outer(diag, diag))
    corr = mat / denom
    off = corr[~np.eye(len(mat), dtype=bool)]
    if off.size and (off.min() < -1e-9 or off.max() > 1.0 + 1e-9):
        raise RuntimeError(
            f"{what}: correlations outside [0, 1] (min {off.min():.3e})"
        )
    eigmin = float(np.linalg.eigvalsh(mat)[0])
    if eigmin < -_PSD_RTOL * float(np.trace(mat)):
        raise RuntimeError(
            f"{what}: covariance not positive semidefinite "
            f"(eigmin {eigmin:.3e}); refusing to project"
        )


def _scaled_rho_variance(n: int, hurst1: float, hurst2: float,
                         degree: int, variance_limit: float) -> float:
    """Variance of sqrt([N/n]) rho(n) from the tabulated limit and exact
    trace means at the instance scale."""
    mean1 = fluct_mean_exact(n, hurst1, degree)
    mean2 = fluct_mean_exact(n, hurst2, degree)
    return variance_limit * float(n) ** (2.0 * (hurst1 + hurst2)) \
        / (mean1 * mean2)


def _assemble_null_cov(scales, n_samples: int, table: CovTable, variance,
                       correlation, what: str, provenance: tuple,
                       notes=()) -> NullCovariance:
    """Null covariance with diagonal ``variance(n)`` per scale and each
    off-diagonal ``correlation(q)`` at the pair's tabulated ratio index q
    times the geometric mean of the two variances; the pairs below the
    table's smallest ratio are noted after ``notes``."""
    scales = tuple(int(n) for n in scales)
    diag = np.array([variance(n) for n in scales])
    mat = np.diag(diag)
    # Many pairs share a ratio index: look each one up once.
    correlation = cache(correlation)
    floor, below = float(table.ratios[0]), []
    for i in range(len(scales)):
        for j in range(i + 1, len(scales)):
            ratio = min(scales[i], scales[j]) / max(scales[i], scales[j])
            if ratio < floor - 1e-12:
                below.append(ratio)
            corr = correlation(table.ratio_index(ratio))
            mat[i, j] = mat[j, i] = corr * math.sqrt(diag[i] * diag[j])
    _validate_null_cov(mat, what)
    if below:
        notes = (*notes, f"{len(below)} scale pairs lie below the table's "
                 f"smallest ratio {floor:.4g} (down to {min(below):.4g}) "
                 "and reuse its correlation")
    return NullCovariance(matrix=mat, scales=scales, n_samples=n_samples,
                          provenance=provenance, notes=tuple(notes))


def rho_null_cov(scales, n_samples: int, hurst1: float, hurst2: float,
                 table: CovTable) -> NullCovariance:
    """Exact-(H, G) null covariance of the scaled rho vector.

    Variances come from the tabulated limit (bilinear in (H, G)) scaled
    by n^{2(H+G)} and divided by the exact auto-statistic means at each
    instance scale; off-diagonals use tabulated ratio correlations.
    """
    vlim = table.variance_at(hurst1, hurst2)
    return _assemble_null_cov(
        scales, n_samples, table,
        lambda n: _scaled_rho_variance(n, hurst1, hurst2, table.degree,
                                       vlim),
        lambda q: table._bilinear(table.correlation[q], hurst1, hurst2),
        "rho_null_cov", ("exact", hurst1, hurst2))


def worst_case_cov(scales, n_samples: int, hurst1_range, hurst2_range,
                   table: CovTable) -> NullCovariance:
    """Worst-case null covariance over a Hurst rectangle.

    Each range is cut to the table grid, once: the cut ranges make up
    the provenance, and a note names each cut.  Diagonal entries are the
    maxima of the per-scale variances over the grid nodes covering the
    cut ranges; off-diagonal correlations are the node-wise maxima, so
    the result dominates every exact covariance over the covered ranges
    entrywise on variances and correlations.
    """
    nodes, covered, notes = [], [], []
    for name, (low, high) in zip("HG", (hurst1_range, hurst2_range)):
        if not 0.5 <= low <= high:
            raise ValueError("Hurst ranges must satisfy 0.5 <= low <= high")
        idx, lo, hi = table.cover(low, high)
        if (lo, hi) != (low, high):
            notes.append(f"{name} range [{low:.3f}, {high:.3f}] cut to the "
                         f"table grid: [{lo:.3f}, {hi:.3f}]")
        nodes.append(idx)
        covered += [lo, hi]

    def variance(n: int) -> float:
        return max(_scaled_rho_variance(n, float(table.grid[ih]),
                                        float(table.grid[ig]), table.degree,
                                        float(table.variance[ih, ig]))
                   for ih in nodes[0] for ig in nodes[1])

    return _assemble_null_cov(
        scales, n_samples, table, variance,
        lambda q: float(table.correlation[q][np.ix_(*nodes)].max()),
        "worst_case_cov", ("worst-case", *covered), notes)
