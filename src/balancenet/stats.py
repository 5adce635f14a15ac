"""Empirical statistics of agent samples: uniform-bin histograms (the
figure panels). Reductions are single-threaded numpy with a fixed order, so
results do not depend on thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Histogram1D:
    lo: float
    hi: float
    counts: np.ndarray
    clamped_low: int
    clamped_high: int

    @property
    def bins(self) -> int:
        return len(self.counts)

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])


def histogram(samples, lo: float, hi: float, bins: int) -> Histogram1D:
    """Uniform-bin histogram; out-of-range samples are clamped into the edge
    bins and counted in the report."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    width = (hi - lo) / bins
    idx = np.floor((s - lo) / width).astype(np.int64)
    clamped_low = int(np.count_nonzero(idx < 0))
    clamped_high = int(np.count_nonzero(idx > bins - 1)) - int(np.count_nonzero(s == hi))
    clamped_high = max(0, clamped_high)
    idx = np.clip(idx, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    return Histogram1D(lo=lo, hi=hi, counts=counts,
                       clamped_low=clamped_low, clamped_high=clamped_high)

