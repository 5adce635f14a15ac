"""A fixed reference computation that measures a CPU's current speed.

On a shared host each CPU can run the same work 1.5x to 2x slower for a
few seconds to a minute at a time, with CPU time equal to wall time
(neighbours on the same cores, not waiting), and medians over a 30 s run
do not remove phases that long. run.py therefore pauses the worker every
PROBE_PERIOD_S, times ``probe`` on each CPU the worker's threads ran on
since the last pause while it is stopped, and reports the run's wall time
in units of the mean probe time (``wall_rel``): a slow phase stretches
both alike, a change to balancenet moves only the numerator.

The mix is compute-bound, as the slow phases are: ufunc chains on a
1024-cell grid (dispatch-bound, like ``fp_chunk``) and an interpreter loop
(Python-side bookkeeping). A memory-streaming part was tried and left out:
its speed hardly moves with the phases, so it only blurred the ratio. About
5 ms per CPU on a 2-vCPU cloud VM. It depends on nothing in balancenet, so
no change to the program changes it.
"""

from __future__ import annotations

import os
import time

import numpy as np

SMALL = np.linspace(0.0, 1.0, 1024)


def _small_ufuncs() -> float:
    x = SMALL.copy()
    for _ in range(300):
        x = np.sqrt(x * x + 1e-3) * 0.999
        x[1:] -= 0.1 * np.diff(x)
    return float(x[0])


def _interpreter() -> float:
    s = 0.0
    for i in range(15000):
        s += (i % 7) * 0.5
    return s


def probe(cpu: int) -> float:
    """Seconds for one pass of the mix on ``cpu``; the calling process is
    pinned there for the pass, then released."""
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        _small_ufuncs()
        _interpreter()
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)
