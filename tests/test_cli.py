import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import balancenet
from balancenet.cli import main


def write_cfg(tmp_path, cfg, name="cfg.json"):
    """Write a config, given as a dict or as the JSON text itself."""
    p = tmp_path / name
    p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(p)


NETWORK_CFG = {"kind": "network-run", "seed": 3,
               "model": {"family": "fhn-electrical", "n": 12},
               "T": 0.01, "dt": 1e-4}
PDE_CFG = {"kind": "pde-run", "seed": 3, "model": {"epsilon": 0.2},
           "grid": {"L": 8, "cells": 128}, "T": 0.05}
SWEEP_CFG = {"kind": "double-limit-sweep", "seed": 3,
             "network": {"model": {"family": "fhn-electrical"}, "n_values": [10],
                         "scalings": [{"kind": "linear"}], "T": 0.01}}


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
                 "T": 0.1, "t0": 0.5}, "t0"),
        ("pde", {"kind": "pde-run", "seed": 1, "model": {"epsilon": 0.05},
                 "grid": {"L": 8, "cells": 128}, "init": {"center": 100.0}, "T": 0.1},
         "init.center"),
        *(([command, "--seed", str(seed)], cfg, "seed") for seed in (-1, 2 ** 64)
          for command, cfg in (("simulate", NETWORK_CFG), ("pde", PDE_CFG),
                               ("sweep", SWEEP_CFG))),
        # numbers json reads but no run can use, given as the config's text
        pytest.param("simulate", json.dumps({**NETWORK_CFG, "model": {
            "family": "fhn-chemical", "n": 12, "b": math.nan}}), "model.b", id="b-NaN"),
        pytest.param("simulate", json.dumps(NETWORK_CFG).replace('"T": 0.01', '"T": 1e999'),
                     "T", id="T-1e999"),
        pytest.param("simulate", json.dumps(NETWORK_CFG).replace('"T": 0.01', f'"T": {10 ** 400}'),
                     "T", id="T-10**400"),
        *(("simulate", {**NETWORK_CFG, "model": {"family": family, "sigma": -1.0}},
           "model.sigma") for family in ("fhn-electrical", "fhn-chemical")),
        ("balance", {"kind": "balance-analysis", "seed": 1, "model": {"family": "fhn-chemical"},
                     "sbar": {"E": -0.5, "I": 0.3}}, "sbar.E"),
        ("early", {"kind": "rescaled-early", "seed": 1, "model": {"family": "fhn-chemical"},
                   "gammas": [], "T_tilde": 0.1, "dt_tilde": 1e-3}, "gammas"),
        ("sweep", {**SWEEP_CFG, "network": {**SWEEP_CFG["network"], "n_values": []}},
         "network.n_values"),
        ("sweep", {**SWEEP_CFG, "network": {**SWEEP_CFG["network"], "scalings": []}},
         "network.scalings"),
        *(("sweep", {**SWEEP_CFG, "network": {**SWEEP_CFG["network"], **network}}, "network.T")
          for network in ({"T": -1.0}, {"T": 1e-9}, {"T": 1e-9, "mode": "rescaled-early"})),
        ("simulate", {**NETWORK_CFG, "model": {"family": "fhn-electrical", "n": 12, "init": {
            "x": {"dist": "normal", "mean": 1.0, "sd": -1.0}}}}, "model.init.x.sd"),
        ("simulate", {**NETWORK_CFG, "model": {"family": "fhn-chemical", "n": 12, "init": {
            "s_E": {"dist": "uniform", "low": 2.0, "high": 1.0}}}}, "model.init.s_E.high"),
        ("pde", {**PDE_CFG, "grid": {"L": 8, "cells": 10}}, "grid.cells"),
        ("pde", {**PDE_CFG, "grid": {"L": -1.0, "cells": 128}}, "grid.L"),
        ("sweep", {"kind": "double-limit-sweep", "seed": 1,
                   "pde": {"model": {}, "epsilons": [0.4, 0.2], "T": 0.1, "grid": {"cells": 10}}},
         "pde.grid.cells"),
        # populations whose states alone outgrow physical memory
        ("simulate", {**NETWORK_CFG, "model": {"family": "fhn-electrical", "n": 10 ** 12,
                                               "scaling": {"kind": "constant",
                                                           "coefficient": 1.0}}}, "model.n"),
        ("figures", {"kind": "figures", "seed": 1, "figure": "fig1",
                     "model": {"family": "fhn-electrical", "n": 10 ** 12}}, "model.n"),
        ("sweep", {**SWEEP_CFG, "network": {**SWEEP_CFG["network"], "n_values": [20, 10 ** 12]}},
         "network.n_values")])
    def test_value_a_whole_run_rejects_is_one_before_output(self, tmp_path, capsys, command,
                                                            cfg, path):
        # the step guard, the epsilon order, a figure run's step, the
        # Fokker-Planck horizon and step budget, the snapshot schedule, an
        # epsilon sweep's t0, a pde-run's initial density, a --seed, a
        # number that is not finite, a family's noise level, the mean gates
        # of a balance analysis, an empty sweep list, a double-limit cell's
        # horizon, an initial law's parameters, a grid and a population's
        # memory are checked at parse time; command is the subcommand, or a
        # list of it and extra arguments
        out = tmp_path / "o"
        argv = [command] if isinstance(command, str) else command
        assert main([*argv, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert f"BAD_VALUE({path})" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_network_run_example_completes(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Example network run:", 1)[1]
        example = example.split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(example)["kind"] == "network-run"
        cfg = write_cfg(tmp_path, example)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

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
            # N = 1024 draws its noise in quarter-blocks on the worker thread,
            # and its 300 steps reach block 1's first piece, which the
            # stepping thread draws when it gets there first
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

    TWINS = {"fp_chunk", "snapshot_certificates", "network_chunk", "normal_block", "rk4_affine",
             "csv_body"}
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


def _run_with_perfbench(tmp_path, code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code with args in a fresh interpreter with src/ and perfbench/
    importable."""
    root = Path(balancenet.__file__).resolve().parents[2]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


# traces one tiny run through the CLI, the config <name>.json under the
# subcommand <command>, and prints its layer metrics; like a benchmark
# worker, each run has a process of its own, since perfbench's tracer
# labels a kernel by the first key it was handed out under
TRACE_RUN = """
import json, sys
import spans
from balancenet import cli

tracer = spans.Tracer()
spans.install(tracer)
name, command = sys.argv[1:]
if cli.main([command, "--config", name + ".json", "--out", name]) != 0:
    sys.exit(name + " run failed")
print(json.dumps(spans.layer_metrics(tracer.spans, 1)))
"""


class TestBenchmarkTraceTargets:
    def test_every_trace_target_exists(self, tmp_path):
        # perfbench/spans.py raises on a trace target it cannot find, so a
        # function renamed or deleted in src/ shows here rather than as a
        # failed traced benchmark run
        done = _run_with_perfbench(tmp_path, "import spans; spans.install(spans.Tracer())")
        assert done.returncode == 0, done.stderr

    def test_traced_kernels_count_every_step(self, tmp_path):
        # perfbench's kernel counters read the kernels' arguments by name
        # (states, noise; mu, flux, f_face, alpha_face, beta_w, nsteps), so
        # a kernel signature change that breaks them shows here: every
        # step a run takes must be counted in its kernel's calls, under
        # both network keys, and the chemical run's event rebuilds the
        # kernel's arguments mid-run
        for family, events in (("chemical", [{"t": 0.005, "multipliers": {"g_EE": 1.5}}]),
                               ("electrical", [])):
            write_cfg(tmp_path, {"kind": "network-run", "seed": 3,
                                 "model": {"family": f"fhn-{family}", "n": 20},
                                 "T": 0.01, "dt": 1e-4, "events": events}, f"{family}.json")
        write_cfg(tmp_path, {"kind": "pde-run", "seed": 3, "model": {"epsilon": 0.2},
                             "grid": {"L": 8, "cells": 128}, "T": 0.05}, "pde.json")
        layers = {}
        for name, command in (("chemical", "simulate"), ("electrical", "simulate"),
                              ("pde", "pde")):
            done = _run_with_perfbench(tmp_path, TRACE_RUN, name, command)
            assert done.returncode == 0, done.stderr
            layers[name] = json.loads(done.stdout.splitlines()[-1])
        pde = layers["pde"]
        for family in ("chemical", "electrical"):
            net = layers[family]
            assert net["network.steps"] == 100
            assert net[f"kernels.{family}_chunk.calls"] > 0
            assert net[f"kernels.{family}_chunk.steps"] == net["network.steps"]
        assert pde["pde.steps"] > 0
        assert pde["kernels.fp_chunk.calls"] > 0
        assert pde["kernels.fp_chunk.steps"] == pde["pde.steps"]


class TestBenchmarkWorker:
    def test_every_workload_passes_its_output_checks(self, tmp_path, monkeypatch):
        # the benchmark's correctness check on each workload, with the
        # warm-up config as the measured one: perfbench's worker runs it
        # through the CLI with its solver probe, and the workload's checks
        # read the outputs and the probe
        root = Path(balancenet.__file__).resolve().parents[2]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        from workloads import WORKLOADS, check_common, write_config

        for name, workload in WORKLOADS.items():
            d = tmp_path / name
            d.mkdir()
            write_config(d / "config.json", workload.warmup)
            job = {"root": str(root), "command": workload.command,
                   "threads": workload.threads, "cpus": sorted(os.sched_getaffinity(0)),
                   "config": str(d / "config.json"), "out": str(d / "out"),
                   "warmup_config": str(d / "config.json"),
                   "warmup_out": str(d / "warmup_out"), "trace": False}
            (d / "job.json").write_text(json.dumps(job))
            done = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"),
                                   str(d / "job.json"), str(d / "result.json")],
                                  cwd=d, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (name, done.stderr)
            result = json.loads((d / "result.json").read_text())
            assert result["exit_code"] == 0, name
            manifest = json.loads((d / "out" / "manifest.json").read_text())
            problems = (check_common(manifest, d / "out")
                        + workload.check(workload.warmup, manifest, d / "out",
                                         result["probe"]))
            assert problems == [], name
