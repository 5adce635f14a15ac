"""Empirical statistics of agent samples: uniform-bin histograms (the
figure panels). Reductions are single-threaded numpy with a fixed order, so
results do not depend on thread counts.
"""

from __future__ import annotations

import numpy as np


def histogram(samples, lo: float, hi: float, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin histogram over [lo, hi]: the bin centers and counts;
    out-of-range samples are clamped into the edge bins."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    width = (hi - lo) / bins
    idx = np.clip(np.floor((s - lo) / width).astype(np.int64), 0, bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    edges = np.linspace(lo, hi, bins + 1)
    return 0.5 * (edges[:-1] + edges[1:]), counts

