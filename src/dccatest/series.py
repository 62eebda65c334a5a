"""Paired time-series ingestion, integrated profiles, and scale bookkeeping.

The raw inputs are two equal-length increment series y1, y2.  Every
downstream computation works on their integrated profiles
x_j(t) = sum(y_j[:t]), split into non-overlapping windows of the sizes
held by a :class:`ScaleSet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_WRITE_ROWS = 1 << 16


class InfeasibleScalesError(ValueError):
    """Requested window sizes cannot be realised for the series at hand."""


def integrate_profile(y: np.ndarray) -> np.ndarray:
    """Cumulative sum x(t) = sum_{i<=t} y(i); rejects non-finite input."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("profile integration needs a non-empty 1-d sequence")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains NaN or infinite values")
    return np.cumsum(y)


@dataclass(frozen=True)
class SeriesPair:
    """Two equal-length increment series together with their profiles."""

    y1: np.ndarray
    y2: np.ndarray
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    n_samples: int

    @classmethod
    def from_increments(cls, y1, y2) -> "SeriesPair":
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        if y1.ndim != 1 or y2.ndim != 1:
            raise ValueError("input series must be 1-dimensional")
        if len(y1) != len(y2):
            raise ValueError(
                f"series lengths differ: {len(y1)} vs {len(y2)}"
            )
        if len(y1) < 2:
            raise ValueError("need at least 2 samples per series")
        return cls(
            y1=y1,
            y2=y2,
            x1=integrate_profile(y1),
            x2=integrate_profile(y2),
            n_samples=len(y1),
        )

    @classmethod
    def from_profiles(cls, x1, x2) -> "SeriesPair":
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        y1 = np.diff(x1, prepend=0.0)
        y2 = np.diff(x2, prepend=0.0)
        return cls.from_increments(y1, y2)


@dataclass(frozen=True)
class ScaleSet:
    """Ordered window sizes n_1 < ... < n_r plus the detrending degree."""

    scales: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("detrending degree must be non-negative")
        if len(self.scales) < 1:
            raise ValueError("need at least one scale")
        arr = np.asarray(self.scales)
        if np.any(np.diff(arr) <= 0):
            raise InfeasibleScalesError("scales must be strictly increasing")
        if arr[0] < self.degree + 2:
            raise InfeasibleScalesError(
                f"smallest scale {arr[0]} cannot support a degree-"
                f"{self.degree} fit (need n >= d+2)"
            )

    @property
    def r(self) -> int:
        return len(self.scales)

    def window_counts(self, n_samples: int) -> np.ndarray:
        """Number of complete windows [N/n_i] at each scale."""
        counts = np.array([n_samples // n for n in self.scales])
        if counts[-1] < 2:
            raise InfeasibleScalesError(
                f"largest scale {self.scales[-1]} leaves fewer than 2 "
                f"windows in {n_samples} samples"
            )
        return counts

    def discarded_samples(self, n_samples: int) -> np.ndarray:
        """Tail samples beyond n_i*[N/n_i] dropped at each scale."""
        counts = self.window_counts(n_samples)
        return n_samples - counts * np.asarray(self.scales)


def make_scales(n_samples: int, n_min: int, n_max: int, r: int,
                degree: int = 1) -> ScaleSet:
    """Build r approximately log-spaced integer scales in [n_min, n_max].

    Real-valued geometric spacing is rounded to the nearest integer and
    deduplicated; endpoints are always kept.
    """
    if r < 2:
        raise InfeasibleScalesError("need at least 2 scales")
    if n_min < degree + 2:
        raise InfeasibleScalesError(
            f"n_min={n_min} too small for degree {degree} (need >= d+2)"
        )
    if n_max > n_samples // 2:
        raise InfeasibleScalesError(
            f"n_max={n_max} exceeds N/2={n_samples // 2}"
        )
    if n_max <= n_min:
        raise InfeasibleScalesError("n_max must exceed n_min")
    raw = np.exp(np.linspace(math.log(n_min), math.log(n_max), r))
    scales = np.unique(np.rint(raw).astype(int))
    if len(scales) < 2:
        raise InfeasibleScalesError(
            "fewer than 2 distinct scales after integer rounding"
        )
    return ScaleSet(scales=tuple(int(n) for n in scales), degree=degree)


def _parse_columns(path: str) -> np.ndarray:
    """Read whitespace/comma/tab separated numeric columns.

    '#'-prefixed lines are ignored; a single leading non-numeric line is
    treated as a header and skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and ln[0] != "#"]
    if lines:
        first = lines[0]
        sep = "," if "," in first else "\t" if "\t" in first else None
        # numpy's reader converts each field as float() does, and fails
        # on a header, a blank field or a line that splits differently
        # from the first.  Then, and for whitespace-separated lines with
        # tabs (split at the tabs alone below), the file is read line
        # by line.
        if sep is not None or not any("\t" in ln for ln in lines):
            try:
                return np.loadtxt(lines, delimiter=sep, comments=None,
                                  ndmin=2)
            except ValueError:
                pass
    return _parse_lines(path)


def _parse_lines(path: str) -> np.ndarray:
    """Line-by-line reader behind :func:`_parse_columns`: each line is
    split at commas if it has any, else at tabs if it has any, else at
    whitespace, and blank fields are dropped."""
    rows = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            for sep in (",", "\t"):
                if sep in line:
                    parts = [p for p in line.split(sep) if p.strip()]
                    break
            else:
                parts = line.split()
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if not rows and not header_seen:
                    header_seen = True
                    continue
                raise ValueError(
                    f"{path}:{lineno}: could not parse numeric values"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no numeric data found")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: inconsistent column count")
    return np.asarray(rows, dtype=float)


def _take_column(data: np.ndarray, col: int, path: str) -> np.ndarray:
    if not 1 <= col <= data.shape[1]:
        raise ValueError(
            f"{path}: column {col} requested but file has {data.shape[1]}"
        )
    return data[:, col - 1]


def load_pair(path_a: str, path_b: str | None = None,
              columns: tuple[int, int] | None = None) -> SeriesPair:
    """Load a series pair from one two-column file or two files.

    ``columns`` gives 1-based column numbers: both from ``path_a`` when
    ``path_b`` is None (default columns 1 and 2), otherwise one from each
    file (default column 1 of each).
    """
    data_a = _parse_columns(path_a)
    if path_b is None:
        col_a, col_b = columns if columns else (1, 2)
        y1 = _take_column(data_a, col_a, path_a)
        y2 = _take_column(data_a, col_b, path_a)
    else:
        col_a, col_b = columns if columns else (1, 1)
        data_b = _parse_columns(path_b)
        if len(data_a) != len(data_b):
            raise ValueError(
                f"sample counts differ: {path_a} has {len(data_a)}, "
                f"{path_b} has {len(data_b)}"
            )
        y1 = _take_column(data_a, col_a, path_a)
        y2 = _take_column(data_b, col_b, path_b)
    return SeriesPair.from_increments(y1, y2)


def write_pair(path: str, pair: SeriesPair, comment: str | None = None):
    """Write increments as two-column CSV readable by :func:`load_pair`."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        # Rows go out in blocks, so at most _WRITE_ROWS pairs of Python
        # floats are alive at once; repr gives the shortest round trip.
        for i in range(0, pair.n_samples, _WRITE_ROWS):
            block = slice(i, i + _WRITE_ROWS)
            fh.writelines(map("{!r},{!r}\n".format, pair.y1[block].tolist(),
                              pair.y2[block].tolist()))
