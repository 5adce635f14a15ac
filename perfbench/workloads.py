"""The benchmark's four workloads: config generators and output checks.

Each workload is one CLI experiment kind at a fixed size. A config seed
drives every input that varies (noise and initial states for the network
kinds, the initial centre for the Fokker-Planck sweep); the amount of work
does not depend on it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# float-reordering tolerance for headline metrics against the stored
# reference: the ROADMAP promises byte identity across threads and reruns,
# not across versions
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # CLI subcommand
    threads: int
    config: Callable[[int], dict]   # config seed -> experiment config
    warmup: dict                    # tiny config of the same kind and family
    check: Callable[[dict, dict, Path, dict], list]  # (config, manifest, out, probe)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def _chem_large(seed: int) -> dict:
    """Reduced-horizon C3: N = 9000, one conductance step at mid-horizon."""
    return {"kind": "network-run", "seed": seed,
            "model": {"family": "fhn-chemical", "n": 4500,
                      "g_EE": 0.3, "g_EI": 2.0, "g_IE": 1.0, "g_II": 10.0,
                      "scaling": {"kind": "scaled_linear", "coefficient": 0.2}},
            "T": 0.04, "dt": 1e-5,
            "record": {"stride": 200, "traces": 20},
            "events": [{"t": 0.02, "multipliers": {"g_EE": 1.5, "g_EI": 1.5}}]}


def _eps_sweep(seed: int) -> dict:
    """Reduced-horizon C7: four epsilons on a 1024-cell grid."""
    center = random.Random(seed).uniform(0.8, 1.2)
    return {"kind": "epsilon-sweep", "seed": seed, "model": {},
            "epsilons": [0.4, 0.2, 0.1, 0.05],
            "grid": {"L": 8.0, "cells": 1024}, "T": 0.2, "t0": 0.02,
            "init": {"center": center, "concentration": 1.0}}


def _early_ode(seed: int) -> dict:
    """C9 fixture on a shorter rescaled horizon."""
    return {"kind": "rescaled-early", "seed": seed,
            "model": {"family": "fhn-chemical", "n": 200},
            "gammas": [10, 100, 1000], "T_tilde": 0.4, "dt_tilde": 1e-3,
            "record": {"stride": 5, "traces": 0}}


def _dense_sweep(seed: int) -> dict:
    """Six direct-mode electrical cells, recorded every step."""
    return {"kind": "double-limit-sweep", "seed": seed,
            "network": {"model": {"family": "fhn-electrical"},
                        "n_values": [200, 800, 3200],
                        "scalings": [{"kind": "linear"}, {"kind": "sqrt"}],
                        "T": 0.1}}


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the outputs hold
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _check_chem_large(config, manifest, out, probe) -> list:
    problems = []
    for row in _rows(out / "series.csv"):
        if not all(math.isfinite(float(v)) for v in row.values()):
            problems.append(f"non-finite series row at t={row['t']}")
            break
    stds = manifest["metrics"].get("final_std") or []
    if len(stds) != 2 or not all(v is not None and math.isfinite(v) for v in stds):
        problems.append(f"final_std not finite: {stds}")
    return problems


def _check_eps_sweep(config, manifest, out, probe) -> list:
    problems = []
    drifts = probe.get("mass_drift", [])
    if len(drifts) != len(config["epsilons"]):
        problems.append(f"expected {len(config['epsilons'])} solver runs, saw {len(drifts)}")
    limit = 1e-10 * config["T"]
    if any(d > limit for d in drifts):
        problems.append(f"mass drift {max(drifts):.3e} above {limit:.1e}")
    statuses = [r["status"] for r in _rows(out / "sweep_summary.csv")]
    if len(statuses) != len(config["epsilons"]) or set(statuses) != {"COMPLETED"}:
        problems.append(f"sweep members not all COMPLETED: {statuses}")
    return problems


def _check_early_ode(config, manifest, out, probe) -> list:
    gaps = manifest["metrics"].get("gaps") or []
    ok = (len(gaps) == len(config["gammas"])
          and all(g is not None and math.isfinite(g) for g in gaps)
          and all(b < a for a, b in zip(gaps, gaps[1:])))
    return [] if ok else [f"early gaps not strictly decreasing: {gaps}"]


def _check_dense_sweep(config, manifest, out, probe) -> list:
    problems = []
    net = config["network"]
    n_cells = len(net["n_values"]) * len(net["scalings"])
    statuses = [c["status"] for c in manifest["metrics"].get("cells", [])]
    if len(statuses) != n_cells or not set(statuses) <= {"COMPLETED", "BLOWUP"}:
        problems.append(f"cells not all COMPLETED or BLOWUP: {statuses}")
    cells = [r["cell"] for r in _rows(out / "summary.csv")]
    if cells != [str(i) for i in range(n_cells)]:
        problems.append(f"summary rows {cells} are not one per cell")
    return problems


def check_common(manifest: dict, out: Path) -> list:
    """Manifest status and the sha256 inventory against the files on disk."""
    problems = []
    if manifest.get("status") != "COMPLETED":
        problems.append(f"manifest status {manifest.get('status')!r}, expected 'COMPLETED'")
    files = manifest.get("files") or {}
    if not files:
        problems.append("manifest inventory is empty")
    for rel, digest in files.items():
        path = out / rel
        if not path.is_file():
            problems.append(f"inventoried file {rel} is missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"sha256 of {rel} does not match the manifest")
    return problems


def compare_headline(actual, expected, path: str = "metrics") -> list:
    """Differences between two headline-metric trees beyond the
    float-reordering tolerance; non-float leaves must match exactly."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [p for k in sorted(expected)
                for p in compare_headline(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: lengths differ"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare_headline(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
            return []
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != reference {expected!r}"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("chem-large", "simulate", 1, _chem_large,
             {"kind": "network-run", "seed": 1,
              "model": {"family": "fhn-chemical", "n": 8},
              "T": 4e-4, "dt": 1e-5, "record": {"stride": 20, "traces": 2},
              "events": [{"t": 2e-4, "multipliers": {"g_EE": 1.5}}]},
             _check_chem_large),
    Workload("eps-sweep", "pde", 1, _eps_sweep,
             {"kind": "epsilon-sweep", "seed": 1, "model": {},
              "epsilons": [0.4, 0.2], "grid": {"L": 8.0, "cells": 64},
              "T": 0.05, "t0": 0.005},
             _check_eps_sweep),
    Workload("early-ode", "early", 1, _early_ode,
             {"kind": "rescaled-early", "seed": 1,
              "model": {"family": "fhn-chemical", "n": 8},
              "gammas": [10, 100], "T_tilde": 0.01, "dt_tilde": 1e-3,
              "record": {"stride": 5, "traces": 0}},
             _check_early_ode),
    Workload("dense-sweep", "sweep", 2, _dense_sweep,
             {"kind": "double-limit-sweep", "seed": 1,
              "network": {"model": {"family": "fhn-electrical"},
                          "n_values": [20],
                          "scalings": [{"kind": "linear"}, {"kind": "sqrt"}],
                          "T": 0.005}},
             _check_dense_sweep),
)}


def config_seed(bench_seed: int, workload: str, index: int) -> int:
    """u64 config seed of one timed run, a pure function of its arguments."""
    return random.Random(f"{workload}/{bench_seed}/{index}").getrandbits(64)


def write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=1) + "\n")
