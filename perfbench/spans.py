"""In-memory spans around calls into balancenet's layers, and the per-layer
metrics computed from them.

A wrapper replaces every module binding of a target function, not just the
defining one: harness does ``from .network import simulate`` and network
and pde do ``from ._kernels import active``, so patching only the defining
module would miss those calls. A span's parent is the innermost open span
of the same thread, so sweep cells on a thread pool attribute their
children to themselves. Self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

KERNELS = ("chemical_chunk", "electrical_chunk", "fp_chunk")
NETWORK_KERNELS = ("chemical_chunk", "electrical_chunk")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self.spans: list[tuple] = []  # (name, seconds, self seconds, counts)

    def reset(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn, count=None):
        """Return fn recording one span per call; count(arguments, result)
        gives the counters of a successful call."""
        sig = inspect.signature(fn) if count is not None else None
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
            counts = count(sig.bind(*args, **kwargs).arguments, result) if count else None
            tracer.spans.append((name, seconds, seconds - frame[0], counts))
            return result

        return traced


# ---------------------------------------------------------------------------
# counters, from the call's arguments and result
# ---------------------------------------------------------------------------

def _count_draws(a, result):
    return {"draws": int(result.size)}


def _count_network_kernel(a, result):
    steps = a["noise"].shape[0]
    return {"steps": steps, "bytes": 2 * a["states"].nbytes * steps + a["noise"].nbytes}


def _count_fp_kernel(a, result):
    # per step: mu and flux read and written, the face and weight tables
    # read, one interaction value written
    per_step = (2 * a["mu"].nbytes + 2 * a["flux"].nbytes + a["f_face"].nbytes
                + a["alpha_face"].nbytes + a["beta_w"].nbytes + 8)
    return {"steps": a["nsteps"], "bytes": per_step * a["nsteps"]}


def _count_simulate_steps(a, result):
    return {"steps": int(round(a["T"] / a["dt"]))}


def _count_fp_steps(a, result):
    return {"steps": int(result.meta["n_steps"])}


def _count_ode_steps(a, result):
    return {"steps": len(result.times) - 1}


def _count_bytes_written(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# (defining module, function, span name, counter)
TARGETS = (
    ("rng", "normal_block", "rng.normal_block", _count_draws),
    ("network", "simulate", "network.simulate", _count_simulate_steps),
    ("pde", "solve_fp_1d", "pde.solve_fp_1d", _count_fp_steps),
    ("hopfcole", "epsilon_sweep", "hopfcole.epsilon_sweep", None),
    ("balance", "integrate_early_ode", "balance.integrate_early_ode", _count_ode_steps),
    ("balance", "distance_to_balance", "balance.distance_to_balance", None),
    ("harness", "write_csv", "harness.write_csv", _count_bytes_written),
    ("harness", "file_digest", "harness.file_digest", None),
    ("harness", "_network_cell", "harness.cell", None),
    ("harness", "sweep_double_limit", "harness.sweep_double_limit", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("config", "parse_config", "config.parse_config", None),
)


def _rebind(target, wrapper) -> None:
    """Point every balancenet module binding of target at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "balancenet" or mod_name.startswith("balancenet.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap each target at all of its bindings; the kernels are wrapped as
    ``_kernels.active`` hands them out. A missing target raises, so that a
    renamed layer cannot silently read as zero."""
    for mod_name, attr, span, count in TARGETS:
        mod = importlib.import_module(f"balancenet.{mod_name}")
        target = getattr(mod, attr, None)
        if target is None:
            raise RuntimeError(f"trace target balancenet.{mod_name}.{attr} not found; "
                               "update perfbench/spans.py")
        _rebind(target, tracer.wrap(span, target, count))

    kernels = importlib.import_module("balancenet._kernels")
    active = kernels.active
    wrapped = {}

    def traced_active(name):
        impl = active(name)
        if impl not in wrapped:
            count = _count_fp_kernel if name == "fp_chunk" else _count_network_kernel
            wrapped[impl] = tracer.wrap(f"kernels.{name}", impl, count)
        return wrapped[impl]

    _rebind(active, traced_active)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[tuple], threads: int) -> dict[str, float]:
    s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    cells = []
    for name, seconds, own, cnt in spans:
        s[name] += seconds
        self_s[name] += own
        calls[name] += 1
        for key, value in (cnt or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "harness.cell":
            cells.append(seconds)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "rng.normal_block.s": s["rng.normal_block"],
        "rng.normal_block.calls": calls["rng.normal_block"],
        "rng.draws": counts["rng.normal_block.draws"],
        "rng.ns_per_draw": 1e9 * ratio(s["rng.normal_block"], counts["rng.normal_block.draws"]),
    }
    for k in KERNELS:
        name = f"kernels.{k}"
        steps = counts[f"{name}.steps"]
        m[f"{name}.s"] = s[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.steps"] = steps
        m[f"{name}.us_per_step"] = 1e6 * ratio(s[name], steps)
        m[f"{name}.bytes_per_step_computed"] = ratio(counts[f"{name}.bytes"], steps)
    kernel_calls = sum(calls[f"kernels.{k}"] for k in NETWORK_KERNELS)
    m.update({
        "network.simulate.s": s["network.simulate"],
        "network.simulate.self_s": self_s["network.simulate"],
        "network.steps": counts["network.simulate.steps"],
        "network.steps_per_kernel_call": ratio(counts["network.simulate.steps"], kernel_calls),
        "pde.solve_fp_1d.s": s["pde.solve_fp_1d"],
        "pde.solve_fp_1d.self_s": self_s["pde.solve_fp_1d"],
        "pde.steps": counts["pde.solve_fp_1d.steps"],
        "hopfcole.epsilon_sweep.self_s": self_s["hopfcole.epsilon_sweep"],
        "balance.integrate_early_ode.s": s["balance.integrate_early_ode"],
        "balance.integrate_early_ode.steps": counts["balance.integrate_early_ode.steps"],
        "balance.us_per_ode_step": 1e6 * ratio(s["balance.integrate_early_ode"],
                                               counts["balance.integrate_early_ode.steps"]),
        "balance.distance_to_balance.s": s["balance.distance_to_balance"],
        "harness.write_csv.s": s["harness.write_csv"],
        "harness.bytes_written": counts["harness.write_csv.bytes"],
        "harness.file_digest.s": s["harness.file_digest"],
        "harness.cell.s.max": max(cells, default=0.0),
        "harness.cell_busy_ratio": ratio(sum(cells),
                                         threads * s["harness.sweep_double_limit"]),
        "config.parse_config.s": s["config.parse_config"],
        "trace.wall_s": s["harness.run_experiment"],
    })
    return m
