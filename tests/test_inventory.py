"""The manifest inventory of one tiny config of each experiment kind,
pinned across commits: the sha256 of every file a run writes and its
headline metrics must match golden_inventory.json, with the C twins and
with numpy alone.

The bytes depend on numpy's version, the SIMD targets it dispatches exp and
log to, the CPU architecture and the C library, so the stored entries are
keyed on those; where no entry matches, the test skips. To store the entry
of this platform, run ``python tests/test_inventory.py`` from the root of a
checkout whose bytes are known to be right.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from balancenet import _kernels
from balancenet.config import parse_config_dict
from balancenet.harness import run_experiment

GOLDEN = Path(__file__).with_name("golden_inventory.json")

NETWORK = {"family": "fhn-electrical", "n": 12}
CHEMICAL = {"family": "fhn-chemical", "n": 8}
SEPARABLE_GRID = {"grid": {"L": 8, "cells": 128}}

CONFIGS = {
    "network-run": {
        "kind": "network-run", "seed": 5, "model": CHEMICAL, "T": 0.02, "dt": 1e-3,
        "record": {"stride": 2, "traces": 3, "snapshot_times": [0.0, 0.01]},
        "events": [{"t": 0.01, "multipliers": {"g_EE": 1.5}}]},
    "rescaled-early": {
        "kind": "rescaled-early", "seed": 5, "model": CHEMICAL, "gammas": [10.0, 100.0],
        "T_tilde": 0.02, "dt_tilde": 1e-3, "record": {"traces": 2}},
    "pde-run": {
        "kind": "pde-run", "seed": 5, "model": {"epsilon": 0.2}, "T": 0.02,
        **SEPARABLE_GRID},
    "epsilon-sweep": {
        "kind": "epsilon-sweep", "seed": 5, "model": {}, "epsilons": [0.4, 0.2],
        "T": 0.02, "t0": 0.01, **SEPARABLE_GRID},
    "double-limit-sweep": {
        "kind": "double-limit-sweep", "seed": 5,
        "network": {"model": NETWORK, "n_values": [6, 12],
                    "scalings": [{"kind": "linear"}, {"kind": "sqrt"}], "T": 0.02,
                    "mode": "rescaled-early"},
        "pde": {"model": {}, "epsilons": [0.4, 0.2], "T": 0.02, **SEPARABLE_GRID}},
    "balance-analysis": {
        "kind": "balance-analysis", "seed": 5, "model": {"family": "fhn-chemical"},
        "sbar": {"E": 0.5, "I": 0.3}},
    "balance-analysis-degenerate": {
        "kind": "balance-analysis", "seed": 5,
        "model": {"family": "fhn-chemical", "g_EE": 0.0, "g_EI": 0.0, "g_IE": 0.0,
                  "g_II": 0.0},
        "sbar": {"E": 0.5, "I": 0.3}},
    "figures-fig1": {
        "kind": "figures", "seed": 5, "figure": "fig1", "model": NETWORK, "T": 0.06,
        "dt": 1e-3},
    "figures-fig2": {
        "kind": "figures", "seed": 5, "figure": "fig2", "model": CHEMICAL, "T": 0.02,
        "dt": 1e-3},
}


def platform_key() -> str:
    """What the inventoried bytes depend on besides the code."""
    return ", ".join([f"numpy {np.__version__}",
                      *(f"{name} {_kernels.numpy_target(name)}" for name in ("exp", "log")),
                      platform.machine(), "-".join(platform.libc_ver())])


def inventory(out: Path) -> dict:
    """Each config's manifest files and metrics, run on two threads."""
    entry = {}
    for name, cfg in CONFIGS.items():
        run_experiment(parse_config_dict(cfg), out / name, threads=2)
        manifest = json.loads((out / name / "manifest.json").read_text())
        entry[name] = {"files": manifest["files"], "metrics": manifest["metrics"]}
    return entry


@pytest.mark.parametrize("twins", ["c", "numpy"])
def test_inventory_matches_the_stored_one(tmp_path, monkeypatch, twins):
    golden = json.loads(GOLDEN.read_text()).get(platform_key())
    if golden is None:
        pytest.skip(f"no inventory stored for {platform_key()}")
    if twins == "numpy":
        monkeypatch.setattr(_kernels, "_c_twins", {})
    assert inventory(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        stored[platform_key()] = inventory(Path(tmp))
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {platform_key()} in {GOLDEN}", file=sys.stderr)
