import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import balancenet
from balancenet.cli import main


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


NETWORK_CFG = {"kind": "network-run", "seed": 3,
               "model": {"family": "fhn-electrical", "n": 12},
               "T": 0.01, "dt": 1e-4}


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "COMPLETED" in capsys.readouterr().out

    def test_config_error_is_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "network-run"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "MISSING_KEY" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_kind_subcommand_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        assert main(["pde", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_out_is_one(self, tmp_path):
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        assert main(["simulate", "--config", cfg]) == 1

    def test_value_a_run_rejects_is_one_before_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "kind": "double-limit-sweep", "seed": 1,
            "network": {"model": {"family": "fhn-electrical", "g": -1.0}, "n_values": [10],
                        "scalings": [{"kind": "linear"}], "T": 0.1}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "BAD_VALUE(network.model.g)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, path", [
        ("simulate", {"kind": "network-run", "seed": 1, "model": {"family": "fhn-electrical"},
                      "T": 0.1, "dt": 0.01}, "dt"),
        ("sweep", {"kind": "double-limit-sweep", "seed": 1,
                   "pde": {"model": {}, "epsilons": [0.2, 0.4], "T": 0.1}}, "pde.epsilons"),
        ("figures", {"kind": "figures", "seed": 1, "figure": "fig1", "dt": 0.01}, "dt"),
        ("figures", {"kind": "figures", "seed": 1, "figure": "fig2",
                     "model": {"family": "fhn-electrical"}}, "model.family"),
        ("pde", {"kind": "pde-run", "seed": 1, "model": {"epsilon": 0.1}, "T": 0.0}, "T"),
        ("pde", {"kind": "pde-run", "seed": 1, "model": {"epsilon": 1e-6},
                 "grid": {"L": 8, "cells": 256}, "T": 2.0}, "T"),
        ("pde", {"kind": "epsilon-sweep", "seed": 1, "model": {}, "epsilons": [0.4, 0.2],
                 "T": 0.0}, "T"),
        ("sweep", {"kind": "double-limit-sweep", "seed": 1,
                   "pde": {"model": {}, "epsilons": [0.4, 0.2], "T": -1.0}}, "pde.T"),
        ("simulate", {**NETWORK_CFG, "record": {"snapshot_times": [-0.5, 0.005]}},
         "record.snapshot_times[0]"),
        ("pde", {"kind": "pde-run", "seed": 1, "model": {"epsilon": 0.1}, "T": 0.1,
                 "snapshot_every": -1.0}, "snapshot_every"),
        ("pde", {"kind": "epsilon-sweep", "seed": 1, "model": {}, "epsilons": [0.4, 0.2],
                 "T": 0.1, "t0": 0.0}, "t0"),
        ("pde", {"kind": "epsilon-sweep", "seed": 1, "model": {}, "epsilons": [0.4, 0.2],
                 "T": 0.1, "t0": 0.5}, "t0")])
    def test_value_a_whole_run_rejects_is_one_before_output(self, tmp_path, capsys, command,
                                                            cfg, path):
        # the step guard, the epsilon order, a figure run's step, the
        # Fokker-Planck horizon and step budget, the snapshot schedule and
        # an epsilon sweep's t0 are checked at parse time
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert f"BAD_VALUE({path})" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_sweep_with_t0_at_the_horizon_completes(self, tmp_path):
        # the 0.2 member's last snapshot is stamped 0.24999999999999997,
        # below T = t0; its w-gradient check still takes that snapshot
        cfg = write_cfg(tmp_path, {"kind": "epsilon-sweep", "seed": 1, "model": {},
                                   "epsilons": [0.4, 0.2], "grid": {"L": 8, "cells": 128},
                                   "T": 0.25, "t0": 0.25})
        out = tmp_path / "o"
        assert main(["pde", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "COMPLETED"
        assert len(manifest["metrics"]["theta"]) == 2
        assert all(theta is not None for theta in manifest["metrics"]["theta"])

    def test_partial_sweep_failure_is_two(self, tmp_path):
        # second epsilon exceeds the step budget -> cell fails, sweep continues
        cfg = write_cfg(tmp_path, {
            "kind": "double-limit-sweep", "seed": 1,
            "pde": {"model": {}, "epsilons": [0.4, 1e-6],
                    "grid": {"L": 8, "cells": 256}, "T": 2.0}})
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2


class TestOverrides:
    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
              "--seed", "4"])
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert a["seed"] == 3 and b["seed"] == 4
        assert a["files"] != b["files"]

    def test_out_in_config_used_when_flag_absent(self, tmp_path):
        cfg = dict(NETWORK_CFG)
        cfg["out"] = str(tmp_path / "from_config")
        path = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "from_config" / "manifest.json").exists()


class TestModuleEntryPoint:
    """``python -m balancenet`` in a fresh interpreter that finds the
    package through PYTHONPATH alone, as an uninstalled checkout does."""

    def run_module(self, tmp_path, *args):
        src = str(Path(balancenet.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-m", "balancenet", *args], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)

    def test_help(self, tmp_path):
        done = self.run_module(tmp_path, "sweep", "--help")
        assert done.returncode == 0, done.stderr
        assert "--threads" in done.stdout and done.stdout.startswith("usage: balancenet sweep")

    def test_network_run(self, tmp_path):
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        done = self.run_module(tmp_path, "simulate", "--config", cfg, "--out", "o")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "network-run: COMPLETED; 2 files\n"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"] == "COMPLETED" and len(manifest["files"]) == 2


class TestDevModeSmoke:
    """Every experiment kind under ``python -X dev -W error``: a warning
    numpy or the stdlib raises anywhere in a run (an invalid value, an
    unclosed file, a deprecated call) fails it."""

    CASES = [
        ("simulate", 1, {
            "kind": "network-run", "seed": 2,
            # N = 1024 fills its noise half-blocks on the worker thread
            "model": {"family": "fhn-chemical", "n": 512, "g_EE": 0.3, "g_EI": 2.0,
                      "g_IE": 1.0, "g_II": 10.0,
                      "scaling": {"kind": "scaled_linear", "coefficient": 0.2}},
            "T": 0.003, "dt": 1e-5, "record": {"stride": 20, "traces": 4},
            "events": [{"t": 0.0015, "multipliers": {"g_EE": 1.5}}]}),
        ("early", 1, {"kind": "rescaled-early", "seed": 2,
                      "model": {"family": "fhn-chemical", "n": 20},
                      "gammas": [10, 100], "T_tilde": 0.05, "dt_tilde": 1e-3,
                      "record": {"stride": 5, "traces": 0}}),
        ("pde", 1, {"kind": "pde-run", "seed": 2, "model": {"epsilon": 0.2},
                    "grid": {"L": 8, "cells": 128}, "T": 0.1}),
        ("pde", 1, {"kind": "epsilon-sweep", "seed": 2, "model": {}, "epsilons": [0.4, 0.2],
                    "grid": {"L": 8, "cells": 128}, "T": 0.1}),
        ("sweep", 2, {"kind": "double-limit-sweep", "seed": 2,
                      "network": {"model": {"family": "fhn-electrical"}, "n_values": [10, 20],
                                  "scalings": [{"kind": "linear"}], "T": 0.01},
                      "pde": {"model": {}, "epsilons": [0.4, 0.2],
                              "grid": {"L": 8, "cells": 128}, "T": 0.1}}),
        ("balance", 1, {"kind": "balance-analysis", "seed": 2,
                        "model": {"family": "fhn-chemical", "E_E": 3.0, "E_I": -1.0},
                        "sbar": {"E": 0.5, "I": 0.5}}),
        ("figures", 1, {"kind": "figures", "seed": 2, "figure": "fig1",
                        "model": {"family": "fhn-electrical", "n": 20}, "T": 0.02}),
    ]

    def test_every_kind_runs_clean(self, tmp_path):
        src = str(Path(balancenet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for i, (command, threads, cfg) in enumerate(self.CASES):
            path = write_cfg(tmp_path, cfg, f"cfg{i}.json")
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "balancenet", command,
                 "--config", path, "--out", f"o{i}", "--threads", str(threads)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), cfg["kind"]
            assert done.stdout.startswith(f"{cfg['kind']}: "), done.stdout


class TestNoCompilerParity:
    """Each kind through the CLI, once with cc on PATH and a fresh kernel
    cache (shared by the kinds, so the first one builds the library) and
    once with no cc: the same files, bytes and metrics, with every C twin
    in the manifest "c" on the first side and "numpy" on the second."""

    TWINS = {"fp_chunk", "network_chunk", "normal_block", "rk4_affine", "csv_body"}
    BUILD = {"c_target", "cpu"}  # recorded when a twin runs in C

    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("kernel-cache")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    @pytest.mark.parametrize("command, threads, cfg", TestDevModeSmoke.CASES,
                             ids=[cfg["kind"] for _, _, cfg in TestDevModeSmoke.CASES])
    def test_same_inventory_without_a_compiler(self, tmp_path, cache, command, threads, cfg):
        src = str(Path(balancenet.__file__).resolve().parents[1])
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        path = write_cfg(tmp_path, cfg)
        sides = {"c": {"XDG_CACHE_HOME": str(cache)},
                 "numpy": {"XDG_CACHE_HOME": str(tmp_path / "unused"), "PATH": str(no_cc)}}
        manifests = {}
        for side, env in sides.items():
            done = subprocess.run(
                [sys.executable, "-m", "balancenet", command, "--config", path,
                 "--out", side, "--threads", str(threads)],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": src, **env},
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            manifests[side] = json.loads((tmp_path / side / "manifest.json").read_text())
        c, py = manifests["c"], manifests["numpy"]
        assert c["files"] and c["files"] == py["files"]
        assert c["metrics"] == py["metrics"]
        twins = self.TWINS & set(c["backend"])
        assert "csv_body" in twins and twins == self.TWINS & set(py["backend"])
        assert {c["backend"][k] for k in twins} == {"c"}
        assert {py["backend"][k] for k in twins} == {"numpy"}
        assert self.BUILD <= set(c["backend"])
        rest = set(c["backend"]) - twins - self.BUILD
        assert {k: c["backend"][k] for k in rest} == {k: v for k, v in py["backend"].items()
                                                      if k not in twins}


class TestBenchmarkTraceTargets:
    def test_every_trace_target_exists(self, tmp_path):
        # perfbench/spans.py raises on a trace target it cannot find, so a
        # function renamed or deleted in src/ shows here rather than as a
        # failed traced benchmark run
        root = Path(balancenet.__file__).resolve().parents[2]
        path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
        done = subprocess.run([sys.executable, "-c",
                               "import spans; spans.install(spans.Tracer())"],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
