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
of the windows, including negative ones.  Without the rank-one parts
nothing cancels, and the cross kernel stays within about
1e-9 |c(0)| of exact arithmetic out to 16 windows.

Asymptotics per scale n are displacement sums: the variance limit of
sqrt([N/n]) F2_cross(n) is the sum of covariances over window offsets j,
truncated once the j^{2H+2G-4(d+1)} tail bound falls below a configured
fraction of the accumulated sum.  Correlations between scales n and m
sum displacements over the gcd(n, m) lattice that the two window grids
realise.

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
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .fluctuation import poly_basis

DEFAULT_GRID = tuple(np.round(np.arange(0.50, 0.9801, 0.02), 10))
DEFAULT_N_TAB = 512
DEFAULT_RATIOS = tuple(np.round(np.arange(0.01, 1.0001, 0.01), 10))
DEFAULT_TAIL_TOL = 1e-3
OFFSET_CAP = 10_000

_PSD_RTOL = 1e-8


# ---------------------------------------------------------------------------
# Exact trace moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def fluct_mean_exact(n: int, hurst: float, degree: int) -> float:
    """Exact mean of the detrended variance F2_auto(n) for fBm.

    Computed as trace((I - P) Sigma) / n without materialising Sigma.
    The residual projector annihilates constants, so of
    Sigma_ab = (a^{2H} + b^{2H} - |a-b|^{2H}) / 2 only the lag term
    survives: trace((I - P) Sigma) = sum_{l=1}^{n-1} l^{2H} c_l, where
    c_l = sum_a P_{a,a+l} is the summed lag-l autocorrelation of the
    fit basis columns, taken with one real FFT.
    """
    if n < degree + 2:
        raise ValueError(f"scale {n} too small for degree {degree}")
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    # Padding to at least 2n - 1 keeps the circular lags 1..n-1 exact.
    size = 1 << (2 * n - 2).bit_length()
    spec = np.fft.rfft(poly_basis(n, degree), size, axis=0)
    power = (spec.real ** 2 + spec.imag ** 2).sum(axis=1)
    lag_sums = np.fft.irfft(power, size)[1:n]
    lags = np.arange(1, n, dtype=float)
    return float(lag_sums @ lags ** (2.0 * hurst)) / n


def _cross_cov_disp_batch(n: int, m: int, offsets: np.ndarray,
                          hurst1: float, hurst2: float,
                          degree: int) -> np.ndarray:
    """cov(F2 of window [1..n], F2 of window [off+1..off+m]) per offset.

    Pure cross-statistic covariance under the null (no factor 2); the
    offsets are sample displacements and may be negative.  Q_n and Q_m
    annihilate the rank-one parts of A_H and A_G, so the trace reduces
    to trace(Q_n T_H Q_m T_G^T) / (4 n m) with the lag blocks
    T[a, b] = |a - b - offset|^{2H}.  T_H is projected on both sides
    with the thin fit bases and contracted once against T_G.
    """
    offsets = np.asarray(offsets, dtype=int)
    basis_n = poly_basis(n, degree)
    basis_m = poly_basis(m, degree)
    lags = np.arange(n)[:, None] - np.arange(m)[None, :]
    lag_max = max(n - 1 - int(offsets.min()), m - 1 + int(offsets.max()))
    steps = np.arange(lag_max + 1, dtype=float)
    pow_h = steps ** (2.0 * hurst1)
    pow_g = steps ** (2.0 * hurst2)

    out = np.empty(len(offsets))
    chunk = max(1, int(4e6 // (n * m)))
    for start in range(0, len(offsets), chunk):
        offs = offsets[start:start + chunk]
        dist = np.abs(lags[None, :, :] - offs[:, None, None])
        proj = pow_h[dist]
        proj -= basis_n @ (basis_n.T @ proj)
        proj -= (proj @ basis_m) @ basis_m.T
        out[start:start + chunk] = np.einsum("kab,kab->k", proj,
                                             pow_g[dist])
    return out / (4.0 * n * m)


# ---------------------------------------------------------------------------
# Asymptotic displacement sums
# ---------------------------------------------------------------------------

def _tail_exponent(hurst1: float, hurst2: float, degree: int) -> float:
    """Exponent alpha of the window-pair covariance decay j^alpha."""
    alpha = 2.0 * hurst1 + 2.0 * hurst2 - 4.0 * (degree + 1)
    if alpha >= -1.0:
        raise ValueError(
            f"window-offset sum diverges for H={hurst1}, G={hurst2} at "
            f"degree {degree}: covariances decay like j^{alpha:g}; "
            "use a higher degree"
        )
    return alpha


def f2_variance_limit(n: int, hurst1: float, hurst2: float, degree: int,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[float, int]:
    """Limit of [N/n] var(F2_cross(n)) as a window-offset sum.

    Returns (sum, j_max) where offsets -j_max..j_max were included;
    truncation stops once the measured j^{2H+2G-4(d+1)} tail bound
    drops below ``tail_tol`` of the accumulated sum.
    """
    alpha = _tail_exponent(hurst1, hurst2, degree)
    total = float(_cross_cov_disp_batch(n, n, np.array([0]), hurst1, hurst2,
                                        degree)[0])
    j = 0
    block = 16
    prev_mag = np.inf
    while True:
        offs = np.arange(j + 1, j + block + 1)
        vals = _cross_cov_disp_batch(n, n, offs * n, hurst1, hurst2, degree)
        block_sum = float(vals.sum())
        total += 2.0 * block_sum
        j += block
        tail = 2.0 * abs(float(vals[-1])) * j / (-alpha - 1.0)
        if tail < tail_tol * abs(total):
            return total, j
        # Rising magnitudes mean the blocks reached the kernel's
        # round-off floor (about 1e-9 |c(0)|); the physical tail is
        # negligible there.
        if j > 2 * block and abs(block_sum) >= prev_mag:
            return total, j
        prev_mag = abs(block_sum)
        if j >= OFFSET_CAP:
            raise RuntimeError(
                f"offset sum did not converge within {OFFSET_CAP} windows"
            )


def _lattice_shell(k: int, width: int, g: int) -> np.ndarray:
    """Displacements on the gcd lattice with |delta| in [k*width, (k+1)*width)."""
    lo = k * width
    hi = (k + 1) * width
    first = g * math.ceil(max(lo, 1) / g)
    pos = np.arange(first, hi, g)
    if k == 0:
        return np.concatenate([[0], pos, -pos])
    return np.concatenate([pos, -pos])


def f2_cross_scale_corr(n: int, m: int, hurst1: float, hurst2: float,
                        degree: int, var_n: float, var_m: float,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Asymptotic correlation between F2_cross(n) and F2_cross(m), n != m.

    corr = (g / sqrt(n m)) sum_{delta in g Z} c(delta) / sqrt(V_n V_m)
    with g = gcd(n, m), c the window-pair covariance at sample
    displacement delta, and V_n = ``var_n``, V_m = ``var_m`` the
    single-scale variance limits of :func:`f2_variance_limit`.
    """
    g = math.gcd(n, m)
    width = max(n, m)
    alpha = _tail_exponent(hurst1, hurst2, degree)
    total = 0.0
    k = 0
    prev_mag = np.inf
    while True:
        shell = _lattice_shell(k, width, g)
        vals = _cross_cov_disp_batch(n, m, shell, hurst1, hurst2, degree)
        shell_sum = float(vals.sum())
        total += shell_sum
        if k >= 2:
            tail = abs(shell_sum) * k / (-alpha - 1.0)
            if tail < tail_tol * abs(total):
                break
            # Rising shell magnitudes mark the kernel's round-off floor
            # (about 1e-9 |c(0)|); the physical tail decayed into it and
            # further shells only accumulate round-off.
            if k >= 3 and abs(shell_sum) >= prev_mag:
                break
        prev_mag = abs(shell_sum)
        k += 1
        if k * width > OFFSET_CAP * max(g, 1):
            raise RuntimeError(
                "cross-scale displacement sum did not converge"
            )
    corr = g / math.sqrt(n * m) * total / math.sqrt(var_n * var_m)
    if corr > 1.0:
        if corr > 1.0 + 1e-6:
            raise RuntimeError(
                f"cross-scale correlation {corr} exceeds 1; "
                "truncation inconsistent"
            )
        corr = 1.0
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
    Entries may be NaN in partially tabulated files; such tables load
    only for resuming.
    """

    degree: int
    n_tab: int
    grid: np.ndarray          # Hurst values, shared by both axes
    ratios: np.ndarray        # actual n'/n_tab values, increasing, last == 1
    variance: np.ndarray      # (nh, nh)
    correlation: np.ndarray   # (nq, nh, nh)
    auto_mean: np.ndarray     # (nh,)
    offsets_used: np.ndarray  # (nh, nh) int
    tail_tol: float = DEFAULT_TAIL_TOL

    @property
    def grid_min(self) -> float:
        return float(self.grid[0])

    @property
    def grid_max(self) -> float:
        return float(self.grid[-1])

    def is_complete(self) -> bool:
        return not (np.isnan(self.variance).any()
                    or np.isnan(self.correlation).any()
                    or np.isnan(self.auto_mean).any())

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
        if np.isnan(sub).any():
            raise ValueError(
                "tabulation incomplete near requested Hurst values"
            )
        top = sub[0, 0] * (1 - wj) + sub[0, 1] * wj
        bot = sub[1, 0] * (1 - wj) + sub[1, 1] * wj
        return float(top * (1 - wi) + bot * wi)

    def variance_at(self, h: float, g: float) -> float:
        self._check_hurst(h, "H")
        self._check_hurst(g, "G")
        return self._bilinear(self.variance, h, g)

    def ratio_index(self, ratio: float) -> int:
        """Index of the tabulated ratio used for a scale ratio in (0, 1).

        Snaps toward 1 (smallest tabulated ratio >= requested), which
        overstates the correlation and is therefore the conservative
        direction; ratios below the smallest tabulated value reuse the
        smallest one, mirroring the tabulation floor.  The ratio-1 entry
        is never used for distinct scales: the asymptotic correlation is
        discontinuous there (aligned window grids), so requests above
        the largest sub-1 ratio use that one instead.
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

    def node_indices(self, low: float, high: float) -> np.ndarray:
        """Grid node indices covering [low, high], widened outward."""
        lo = max(min(low, self.grid_max), self.grid_min)
        hi = max(min(high, self.grid_max), self.grid_min)
        i0 = int(np.searchsorted(self.grid, lo + 1e-12, side="right") - 1)
        i1 = int(np.searchsorted(self.grid, hi - 1e-12, side="left"))
        i0 = min(max(i0, 0), len(self.grid) - 1)
        i1 = min(max(i1, 0), len(self.grid) - 1)
        return np.arange(i0, i1 + 1)


def ratio_window_sizes(n_tab: int, ratios, degree: int) -> list[int]:
    """Realisable window sizes for the requested tabulation ratios."""
    sizes = sorted(set(
        min(max(int(round(r * n_tab)), degree + 2), n_tab)
        for r in np.asarray(ratios, dtype=float)
    ))
    if sizes[-1] != n_tab:
        sizes.append(n_tab)
    return sizes


def tabulate_pair(h: float, g: float, n_tab: int, sizes, degree: int,
                  tail_tol: float = DEFAULT_TAIL_TOL
                  ) -> tuple[float, np.ndarray, int]:
    """One (H, G) grid entry: scaled variance limit, correlations at the
    tabulated window sizes, and the number of offsets summed."""
    var_sum, jmax = f2_variance_limit(n_tab, h, g, degree, tail_tol)
    corrs = np.empty(len(sizes))
    for q, size in enumerate(sizes):
        if size == n_tab:
            corrs[q] = 1.0
        else:
            var_m, _ = f2_variance_limit(size, h, g, degree, tail_tol)
            corrs[q] = f2_cross_scale_corr(n_tab, size, h, g, degree,
                                           var_sum, var_m, tail_tol)
    return var_sum / n_tab ** (2.0 * (h + g)), corrs, jmax


def matches_tabulation(table: CovTable, grid, n_tab: int, ratios,
                       degree: int) -> bool:
    """Whether ``tabulate`` with these settings resumes from ``table``:
    the same degree, n_tab, Hurst grid and realised window ratios."""
    sizes = ratio_window_sizes(n_tab, ratios, degree)
    return (table.degree == degree and table.n_tab == n_tab
            and np.array_equal(table.grid, sorted(set(float(h)
                                                      for h in grid)))
            and np.array_equal(table.ratios, [s / n_tab for s in sizes]))


def tabulate(grid=DEFAULT_GRID, n_tab: int = DEFAULT_N_TAB,
             ratios=DEFAULT_RATIOS, degree: int = 1,
             tail_tol: float = DEFAULT_TAIL_TOL,
             resume_from: CovTable | None = None,
             progress=None, checkpoint=None, mapper=map) -> CovTable:
    """Tabulate variance limits, ratio correlations and scaled means.

    The (H, G) sweep exploits symmetry of the cross statistics, filling
    both triangles from one computation.  ``resume_from`` supplies a
    partially filled table whose finite entries are kept; ``progress``
    is an optional callback(done, total, h, g); ``checkpoint`` receives
    a snapshot table after each newly computed entry.  The missing
    entries are computed by ``mapper(fn, hs, gs)``, the built-in ``map``
    or any order-preserving replacement such as a process pool's.
    """
    grid = np.asarray(sorted(set(float(h) for h in grid)))
    if len(grid) < 1 or grid[0] < 0.5 - 1e-12 or grid[-1] >= 1.0:
        raise ValueError("Hurst grid must lie within [0.5, 1)")
    if n_tab < 128:
        raise ValueError("n_tab must be at least 128")
    # The slowest-decaying pair sits at the top of the grid.
    _tail_exponent(float(grid[-1]), float(grid[-1]), degree)

    sizes = ratio_window_sizes(n_tab, ratios, degree)
    ratio_vals = np.array([s / n_tab for s in sizes])

    nh, nq = len(grid), len(sizes)
    if resume_from is not None and matches_tabulation(resume_from, grid,
                                                      n_tab, ratios, degree):
        variance = resume_from.variance.copy()
        correlation = resume_from.correlation.copy()
        auto_mean = resume_from.auto_mean.copy()
        offsets_used = resume_from.offsets_used.copy()
    else:
        variance = np.full((nh, nh), np.nan)
        correlation = np.full((nq, nh, nh), np.nan)
        auto_mean = np.full(nh, np.nan)
        offsets_used = np.zeros((nh, nh), dtype=int)

    for i, h in enumerate(grid):
        if np.isnan(auto_mean[i]):
            auto_mean[i] = fluct_mean_exact(n_tab, float(h), degree) \
                / n_tab ** (2.0 * h)

    def snapshot() -> CovTable:
        return CovTable(degree=degree, n_tab=n_tab, grid=grid,
                        ratios=ratio_vals, variance=variance,
                        correlation=correlation, auto_mean=auto_mean,
                        offsets_used=offsets_used, tail_tol=tail_tol)

    pairs = [(i, j) for i in range(nh) for j in range(i, nh)]
    todo = [k for k, (i, j) in enumerate(pairs)
            if np.isnan(variance[i, j])
            or np.isnan(correlation[:, i, j]).any()]
    work = partial(tabulate_pair, n_tab=n_tab, sizes=sizes, degree=degree,
                   tail_tol=tail_tol)
    results = mapper(work, [float(grid[pairs[k][0]]) for k in todo],
                     [float(grid[pairs[k][1]]) for k in todo])
    for k, (scaled_var, corrs, jmax) in zip(todo, results):
        i, j = pairs[k]
        variance[i, j] = variance[j, i] = scaled_var
        offsets_used[i, j] = offsets_used[j, i] = jmax
        correlation[:, i, j] = correlation[:, j, i] = corrs
        if progress is not None:
            progress(k + 1, len(pairs), float(grid[i]), float(grid[j]))
        if checkpoint is not None:
            checkpoint(snapshot())

    return snapshot()


# ---------------------------------------------------------------------------
# Persistence (format covtab/1)
# ---------------------------------------------------------------------------

_COVTAB_MAGIC = "covtab/1"


def save_covtab(table: CovTable, path: str):
    """Write a table as versioned structured text, 1e-12 round-trip safe."""
    def fmt_row(row):
        return " ".join(f"{v:.17g}" for v in np.atleast_1d(row))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_COVTAB_MAGIC}\n")
        fh.write(f"degree {table.degree}\n")
        fh.write(f"n_tab {table.n_tab}\n")
        fh.write(f"tail_tol {table.tail_tol:.17g}\n")
        fh.write(f"grid {fmt_row(table.grid)}\n")
        fh.write(f"ratios {fmt_row(table.ratios)}\n")
        nh, nq = len(table.grid), len(table.ratios)
        fh.write(f"block variance {nh} {nh}\n")
        for row in table.variance:
            fh.write(fmt_row(row) + "\n")
        fh.write(f"block correlation {nq} {nh} {nh}\n")
        for q in range(nq):
            for row in table.correlation[q]:
                fh.write(fmt_row(row) + "\n")
        fh.write(f"block auto_mean 1 {nh}\n")
        fh.write(fmt_row(table.auto_mean) + "\n")
        fh.write(f"block offsets {nh} {nh}\n")
        for row in table.offsets_used:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        fh.write("end\n")


def load_covtab(path: str, allow_partial: bool = False) -> CovTable:
    """Load a covtab/1 file; rejects other versions and NaN entries
    unless ``allow_partial`` (used by resumable tabulation)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_covtab(fh.read(), allow_partial=allow_partial,
                            label=path)


def loads_covtab(text: str, allow_partial: bool = False,
                 label: str = "<string>") -> CovTable:
    """Parse covtab/1 text (see :func:`load_covtab`)."""
    path = label
    lines = text.splitlines()
    if not lines or lines[0].strip() != _COVTAB_MAGIC:
        raise ValueError(
            f"{path}: not a {_COVTAB_MAGIC} file"
            + (f" (found {lines[0].strip()!r})" if lines else "")
        )
    pos = 1
    header: dict[str, str] = {}
    while pos < len(lines) and not lines[pos].startswith("block "):
        key, _, val = lines[pos].partition(" ")
        header[key] = val
        pos += 1

    def parse_rows(count):
        nonlocal pos
        rows = []
        for _ in range(count):
            rows.append([float(v) for v in lines[pos].split()])
            pos += 1
        return np.asarray(rows)

    blocks: dict[str, np.ndarray] = {}
    while pos < len(lines) and lines[pos] != "end":
        parts = lines[pos].split()
        if parts[0] != "block":
            raise ValueError(f"{path}: malformed block header {lines[pos]!r}")
        name, dims = parts[1], [int(v) for v in parts[2:]]
        pos += 1
        if len(dims) == 2:
            blocks[name] = parse_rows(dims[0]).reshape(dims)
        elif len(dims) == 3:
            blocks[name] = parse_rows(dims[0] * dims[1]).reshape(dims)
        else:
            raise ValueError(f"{path}: unsupported block rank {len(dims)}")
    try:
        table = CovTable(
            degree=int(header["degree"]),
            n_tab=int(header["n_tab"]),
            grid=np.array([float(v) for v in header["grid"].split()]),
            ratios=np.array([float(v) for v in header["ratios"].split()]),
            variance=blocks["variance"],
            correlation=blocks["correlation"],
            auto_mean=blocks["auto_mean"][0],
            offsets_used=blocks["offsets"].astype(int),
            tail_tol=float(header.get("tail_tol", DEFAULT_TAIL_TOL)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    if not allow_partial and not table.is_complete():
        raise ValueError(
            f"{path}: table contains untabulated (NaN) entries"
        )
    return table


# ---------------------------------------------------------------------------
# Null covariance of the scaled rho vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullCovariance:
    """Covariance of (sqrt([N/n_i]) rho(n_i))_i under independence.

    ``provenance`` records whether the matrix is the exact-(H, G) limit
    or the worst case over a Hurst range.
    """

    matrix: np.ndarray
    scales: tuple[int, ...]
    n_samples: int
    degree: int
    provenance: tuple

    @property
    def r(self) -> int:
        return len(self.scales)

    @property
    def window_counts(self) -> np.ndarray:
        return np.array([self.n_samples // n for n in self.scales])

    def scaled_std(self) -> np.ndarray:
        """sqrt(C_ii) in the sqrt([N/n_i]) rho convention."""
        return np.sqrt(np.diag(self.matrix))

    def rho_bounds(self, theta: float) -> np.ndarray:
        """Per-scale rejection boundary theta * sqrt(C_ii / [N/n_i]) on
        the raw rho scale."""
        return theta * self.scaled_std() / np.sqrt(self.window_counts)


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


def _assemble_null_cov(scales, n_samples: int, table: CovTable,
                       degree: int | None, variance, correlation,
                       what: str, provenance: tuple) -> NullCovariance:
    """Null covariance with diagonal ``variance(n)`` per scale and each
    off-diagonal ``correlation(q)`` at the pair's tabulated ratio index q
    times the geometric mean of the two variances."""
    scales = tuple(int(n) for n in scales)
    if degree is None:
        degree = table.degree
    if degree != table.degree:
        raise ValueError(
            f"table was tabulated for degree {table.degree}, not {degree}"
        )
    diag = np.array([variance(n) for n in scales])
    mat = np.diag(diag)
    # Many pairs share a ratio index: look each one up once.
    correlation = cache(correlation)
    for i in range(len(scales)):
        for j in range(i + 1, len(scales)):
            ratio = min(scales[i], scales[j]) / max(scales[i], scales[j])
            corr = correlation(table.ratio_index(ratio))
            mat[i, j] = mat[j, i] = corr * math.sqrt(diag[i] * diag[j])
    _validate_null_cov(mat, what)
    return NullCovariance(matrix=mat, scales=scales, n_samples=n_samples,
                          degree=degree, provenance=provenance)


def rho_null_cov(scales, n_samples: int, hurst1: float, hurst2: float,
                 table: CovTable, degree: int | None = None) -> NullCovariance:
    """Exact-(H, G) null covariance of the scaled rho vector.

    Variances come from the tabulated limit (bilinear in (H, G)) scaled
    by n^{2(H+G)} and divided by the exact auto-statistic means at each
    instance scale; off-diagonals use tabulated ratio correlations.
    """
    vlim = table.variance_at(hurst1, hurst2)
    return _assemble_null_cov(
        scales, n_samples, table, degree,
        lambda n: _scaled_rho_variance(n, hurst1, hurst2, table.degree,
                                       vlim),
        lambda q: table._bilinear(table.correlation[q], hurst1, hurst2),
        "rho_null_cov", ("exact", hurst1, hurst2))


def worst_case_cov(scales, n_samples: int, hurst1_range, hurst2_range,
                   table: CovTable, degree: int | None = None) -> NullCovariance:
    """Worst-case null covariance over a Hurst rectangle.

    Diagonal entries are the maxima of the per-scale variances over the
    grid nodes covering the ranges; off-diagonal correlations are the
    node-wise maxima, so the result dominates every exact covariance in
    range entrywise on variances and correlations.
    """
    h_low, h_high = (float(v) for v in hurst1_range)
    g_low, g_high = (float(v) for v in hurst2_range)
    if not (0.5 <= h_low <= h_high < 1.0 and 0.5 <= g_low <= g_high < 1.0):
        raise ValueError("Hurst ranges must satisfy 0.5 <= low <= high < 1")
    h_nodes = table.node_indices(h_low, h_high)
    g_nodes = table.node_indices(g_low, g_high)
    if h_nodes.size == 0 or g_nodes.size == 0:
        raise ValueError("Hurst range does not intersect the table grid")

    def in_range(block: np.ndarray) -> np.ndarray:
        sub = block[np.ix_(h_nodes, g_nodes)]
        if np.isnan(sub).any():
            raise ValueError("tabulation incomplete inside Hurst range")
        return sub

    in_range(table.variance)

    def variance(n: int) -> float:
        return max(_scaled_rho_variance(n, float(table.grid[ih]),
                                        float(table.grid[ig]), table.degree,
                                        float(table.variance[ih, ig]))
                   for ih in h_nodes for ig in g_nodes)

    return _assemble_null_cov(
        scales, n_samples, table, degree, variance,
        lambda q: float(in_range(table.correlation[q]).max()),
        "worst_case_cov", ("worst-case", h_low, h_high, g_low, g_high))
