import json
import threading
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from balancenet.balance import chemical_balance_voltages
from balancenet.config import parse_config_dict
from balancenet import harness
from balancenet._kernels import csv_body, csv_column_kind, format_value
from balancenet.harness import file_digest, run_experiment, write_csv
from balancenet.models import NetworkModel
from balancenet.network import simulate


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


class TestCsvFormat:
    def test_shortest_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0 / 3.0) == repr(1.0 / 3.0)
        assert float(format_value(math.pi)) == math.pi
        assert format_value(3) == "3"

    def test_lf_endings_and_header(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["a", "b"], [np.array([1, 3]), np.array([2.5, 0.1])])
        raw = p.read_bytes()
        assert raw == b"a,b\n1,2.5\n3,0.1\n"

    def test_narrow_numeric_columns_take_the_text_of_their_values(self, tmp_path):
        # float32 as repr of its float64 value, int32 and uint32 as str;
        # rows cut to the shortest column
        g = np.random.default_rng(8)
        f32 = g.normal(size=40).astype(np.float32)
        i32 = g.integers(-2 ** 31, 2 ** 31, size=30, dtype=np.int32)
        u32 = g.integers(0, 2 ** 32, size=35, dtype=np.uint32)
        i8 = np.arange(-128, 127, 7, dtype=np.int8)
        columns = [f32, i32, u32, i8]
        assert None not in map(csv_column_kind, columns)  # the C path, when built
        write_csv(tmp_path / "x.csv", ["f", "i", "u", "b"], columns)
        text = (tmp_path / "x.csv").read_bytes().decode()
        rows = [f"{float(a)!r},{int(b)},{int(c)},{int(d)}" for a, b, c, d in zip(*columns)]
        assert len(rows) == 30
        assert text == "f,i,u,b\n" + "".join(row + "\n" for row in rows)
        assert text == "f,i,u,b\n" + csv_body(columns)

    @pytest.mark.parametrize("odd", [["0", "1", "2"], np.array([1, 2, 3], dtype=np.uint64),
                                     np.array([True, False, True]), (0.5, 1.5, 2.5)])
    def test_a_file_with_other_columns_is_formatted_in_python(self, tmp_path, monkeypatch,
                                                              odd):
        # strings, uint64 (not all of it fits int64), bools and sequences
        # are not for the C twin
        def no_twin(name):
            raise AssertionError("the C twin was asked for")

        monkeypatch.setattr(harness, "c_twin", no_twin)
        columns = [np.array([0.25, -1e-7, 3.0]), odd]
        write_csv(tmp_path / "x.csv", ["a", "b"], columns)
        text = (tmp_path / "x.csv").read_bytes().decode()
        assert text == "a,b\n" + "".join(f"{a!r},{format_value(b)}\n"
                                         for a, b in zip([0.25, -1e-7, 3.0], odd))


class TestNetworkRun:
    def test_noiseless_uncoupled_traces_match_ode_oracle(self, tmp_path):
        spec = parse_config_dict({
            "kind": "network-run", "seed": 11,
            "model": {"family": "fhn-electrical", "g": 0.0, "sigma": 0.0, "n": 3,
                      "init": {"x": {"dist": "normal", "mean": 1.0, "sd": 1.0},
                               "y": {"dist": "normal", "mean": 1.5, "sd": 1.0}}},
            "T": 0.5, "dt": 1e-4,
            "record": {"stride": 100, "traces": 3, "snapshot_times": [0.0]}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        header, rows = read_csv(tmp_path / "traces.csv")
        _, snap = read_csv(tmp_path / "snapshot_00.csv")

        def rhs(t, z):
            fx = ((-z[0] + 5.0) * z[0] - 4.0) * z[0] + 4.0
            return [fx - z[1], 0.005 * (6.0 * z[0] - z[1])]

        for i in range(3):
            sol = solve_ivp(rhs, (0.0, 0.5), snap[i, 1:3], rtol=1e-10,
                            atol=1e-12, t_eval=rows[:, 0])
            np.testing.assert_allclose(rows[:, 1 + i], sol.y[0], atol=1e-3)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"kind": "network-run", "seed": 5,
               "model": {"family": "fhn-electrical", "n": 25},
               "T": 0.02, "dt": 1e-4, "record": {"stride": 10, "traces": 4}}
        m1 = run_experiment(parse_config_dict(cfg), out_dir=tmp_path / "a")
        m2 = run_experiment(parse_config_dict(cfg), out_dir=tmp_path / "b")
        assert m1["files"] == m2["files"]
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
            (tmp_path / "b" / "series.csv").read_bytes()

    def test_manifest_inventory_digests(self, tmp_path):
        spec = parse_config_dict({
            "kind": "network-run", "seed": 5,
            "model": {"family": "fhn-electrical", "n": 10},
            "T": 0.01, "dt": 1e-4})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["files"]
        for name, digest in manifest["files"].items():
            assert file_digest(tmp_path / name) == digest
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["files"] == manifest["files"]
        assert on_disk["spec"] == spec.to_config()


class TestPdeRun:
    def test_ou_case_metrics(self, tmp_path):
        # alpha plays no role when beta1 = 0 ... the OU special case is the
        # default model with E far away; use the dedicated pde-run with
        # moderate resolution for speed and check recorded mass drift
        spec = parse_config_dict({
            "kind": "pde-run", "seed": 1,
            "model": {"epsilon": 0.2}, "grid": {"L": 8, "cells": 256},
            "T": 0.5, "init": {"center": 1.0, "concentration": 1.0}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        assert manifest["metrics"]["mass_drift"] <= 1e-10
        header, rows = read_csv(tmp_path / "pde_series.csv")
        assert header[:3] == ["t", "mass", "interaction"]
        np.testing.assert_allclose(rows[:, 1], 1.0, atol=1e-10)

    def test_epsilon_sweep_artifacts(self, tmp_path):
        spec = parse_config_dict({
            "kind": "epsilon-sweep", "seed": 1, "model": {},
            "epsilons": [0.4, 0.2], "grid": {"L": 8, "cells": 256},
            "T": 1.0})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        report = json.loads((tmp_path / "convergence_report.json").read_text())
        assert report["epsilons"] == [0.4, 0.2]
        header, rows = read_csv_text(tmp_path / "sweep_summary.csv")
        assert len(rows) == 2
        assert all(r[-1] == "COMPLETED" for r in rows)


class TestBalanceAnalysis:
    def test_report_csv(self, tmp_path):
        spec = parse_config_dict({
            "kind": "balance-analysis", "seed": 1,
            "model": {"family": "fhn-chemical", "E_E": 3.0, "E_I": -1.0},
            "sbar": {"E": 0.5, "I": 0.5}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        header, rows = read_csv(tmp_path / "balance.csv")
        assert rows[0, 1] == pytest.approx(-19.0 / 7.0)
        assert manifest["metrics"]["stable"] == [True, True]

    def test_degenerate_reported(self, tmp_path):
        spec = parse_config_dict({
            "kind": "balance-analysis", "seed": 1,
            "model": {"family": "fhn-chemical", "g_EE": 1.0, "g_IE": 1.0},
            "sbar": {"E": 0.5, "I": 0.5}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "DEGENERATE_DENOMINATOR"


class TestRescaledEarly:
    def test_gap_decreases_with_gamma(self, tmp_path):
        spec = parse_config_dict({
            "kind": "rescaled-early", "seed": 3,
            "model": {"family": "fhn-chemical", "n": 60},
            "gammas": [10, 100], "T_tilde": 1.0, "dt_tilde": 1e-3,
            "record": {"stride": 10, "traces": 0}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        gaps = manifest["metrics"]["gaps"]
        assert gaps[1] < gaps[0]
        header, rows = read_csv(tmp_path / "early_gaps.csv")
        assert header == ["gamma", "sup_gap", "move_y", "move_s"]

    def test_t0_snapshot_is_the_same_for_every_gamma(self, tmp_path):
        # every gamma draws the same initial state, so each writes the same
        # t = 0 snapshot bytes
        spec = parse_config_dict({
            "kind": "rescaled-early", "seed": 3,
            "model": {"family": "fhn-chemical", "n": 20},
            "gammas": [10, 100, 1000], "T_tilde": 0.05, "dt_tilde": 1e-3,
            "record": {"stride": 10, "traces": 0}})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        names = [f"gamma_{g}/snapshot_00.csv" for g in range(3)]
        assert len({(tmp_path / name).read_bytes() for name in names}) == 1
        assert len({manifest["files"][name] for name in names}) == 1


class TestFigures:
    def test_fig1_files(self, tmp_path):
        spec = parse_config_dict({
            "kind": "figures", "seed": 6, "figure": "fig1",
            "model": {"family": "fhn-electrical", "n": 40}, "T": 0.05})
        manifest = run_experiment(spec, out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        for name in ("fig1_traces.csv", "fig1_traces_sqrt.csv",
                     "fig1_dispersion.csv", "fig1_dispersion_sqrt.csv"):
            assert (tmp_path / name).exists()
        header, rows = read_csv(tmp_path / "fig1_traces.csv")
        assert len(header) == 21  # t + 20 voltage columns

    def test_fig2_predicted_columns(self, tmp_path):
        spec = parse_config_dict({
            "kind": "figures", "seed": 6, "figure": "fig2",
            "model": {"family": "fhn-chemical", "n": 50}, "T": 0.5})
        manifest = run_experiment(spec, out_dir=tmp_path)
        header, rows = read_csv(tmp_path / "fig2_traces.csv")
        assert header[-2:] == ["xstar_E_pred", "xstar_I_pred"]
        assert len(header) == 1 + 40 + 2
        assert np.isfinite(rows[-1, -2:]).all()

    def test_fig2_predictions_follow_the_conductance_step(self, tmp_path):
        # rows before T/2 predict under the base couplings, rows from T/2 on
        # under g_EE and g_EI scaled by 1.5
        spec = parse_config_dict({
            "kind": "figures", "seed": 6, "figure": "fig2",
            "model": {"family": "fhn-chemical", "n": 50}, "T": 0.5})
        run_experiment(spec, out_dir=tmp_path)
        _, rows = read_csv(tmp_path / "fig2_traces.csv")
        (run,) = spec.payload.runs()
        record = simulate(seed=6, **run)
        model = run["model"]
        pr = model.params
        scaled = NetworkModel(replace(pr, g_EE=1.5 * pr.g_EE, g_EI=1.5 * pr.g_EI), model.n,
                              model.scaling)
        before = record.times < 0.25
        assert before.any() and not before.all()
        for i, t in enumerate(record.times):
            ghat = (model if before[i] else scaled).ghat
            expected = chemical_balance_voltages(ghat, pr.E_E, pr.E_I, record.means[0][i, 2],
                                                 record.means[1][i, 2])
            assert rows[i, 0] == t
            np.testing.assert_array_equal(rows[i, -2:], expected)


class TestDoubleLimitSweep:
    CFG = {
        "kind": "double-limit-sweep", "seed": 4,
        "network": {"model": {"family": "fhn-electrical", "n": 10},
                    "n_values": [50], "scalings": [{"kind": "linear"}],
                    "T": 0.2, "collapse_threshold": 0.5},
        "pde": {"model": {}, "epsilons": [0.4, 0.2],
                "grid": {"L": 8, "cells": 256}, "T": 0.5}}

    def test_summary_and_cells(self, tmp_path):
        manifest = run_experiment(parse_config_dict(self.CFG), out_dir=tmp_path)
        assert manifest["status"] == "COMPLETED"
        header, rows = read_csv_text(tmp_path / "summary.csv")
        assert len(rows) == 3  # one network cell + two epsilon rows
        assert (tmp_path / "cell_00" / "series.csv").exists()
        assert (tmp_path / "cell_01" / "convergence_report.json").exists()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        m1 = run_experiment(parse_config_dict(self.CFG),
                            out_dir=tmp_path / "t1", threads=1)
        m4 = run_experiment(parse_config_dict(self.CFG),
                            out_dir=tmp_path / "t4", threads=4)
        assert m1["files"] == m4["files"]
        # the manifest records the thread count it ran with
        assert (m1["backend"]["threads"], m4["backend"]["threads"]) == (1, 4)
        assert json.loads((tmp_path / "t4" / "manifest.json").read_text())["backend"]["threads"] == 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_numerical_and_config_errors_fail_a_cell(self, tmp_path, monkeypatch,
                                                          threads):
        from balancenet import harness
        from balancenet.models import ModelDefinitionError
        cfg = dict(self.CFG, network=dict(self.CFG["network"], n_values=[50, 60]))
        del cfg["pde"]
        spec = parse_config_dict(cfg)

        def bad_config(*args, **kwargs):
            raise ModelDefinitionError("step guard violated")

        monkeypatch.setattr(harness, "_network_cell", bad_config)
        status, metrics = harness.sweep_double_limit(spec.payload, spec.seed, tmp_path, threads)
        assert status == "PARTIAL"
        assert [c["status"] for c in metrics["cells"]] == ["FAILED", "FAILED"]
        assert metrics["cells"][0]["error"] == "ModelDefinitionError: step guard violated"

        def bug(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness, "_network_cell", bug)
        with pytest.raises(TypeError):
            harness.sweep_double_limit(spec.payload, spec.seed, tmp_path, threads)

    def test_longest_cell_is_dispatched_first(self, tmp_path, monkeypatch):
        # agent-steps N x T / dt: 3200 linear 12.8M, 800 linear 0.8M,
        # 3200 sqrt 0.32M, 800 sqrt 80k, 200 linear 50k, 200 sqrt 20k
        from balancenet import harness
        cfg = {"kind": "double-limit-sweep", "seed": 5,
               "network": {"model": {"family": "fhn-electrical"},
                           "n_values": [200, 800, 3200],
                           "scalings": [{"kind": "linear"}, {"kind": "sqrt"}], "T": 0.1}}
        dispatched, entered = [], []
        lock = threading.Lock()
        network_cell = harness._network_cell

        def spy(model, n, rule, *args, **kwargs):
            with lock:
                entered.append((n, rule.kind))
            return network_cell(model, n, rule, *args, **kwargs)

        class Pool(harness.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                dispatched.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(harness, "_network_cell", spy)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
        manifest = run_experiment(parse_config_dict(cfg), out_dir=tmp_path, threads=2)
        assert dispatched == [2, 1, 5, 4, 0, 3]
        # the two threads start on the two longest cells
        assert set(entered[:2]) == {(3200, "linear"), (800, "linear")}
        header, rows = read_csv_text(tmp_path / "summary.csv")
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5"]
        assert [(r[2], r[3]) for r in rows] == [(str(n), kind) for kind in ("linear", "sqrt")
                                                for n in (200, 800, 3200)]
        assert [c["n"] for c in manifest["metrics"]["cells"]] == [200, 800, 3200] * 2

    def test_single_cell_matches_headline(self, tmp_path):
        cfg = {k: v for k, v in self.CFG.items() if k != "pde"}
        manifest = run_experiment(parse_config_dict(cfg), out_dir=tmp_path)
        cell = manifest["metrics"]["cells"][0]
        assert cell["kind"] == "network"
        assert cell["status"] == "COMPLETED"
        assert math.isfinite(cell["collapse_time"])


def read_csv_text(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestCollapseTimeScaling:
    def test_collapse_time_tracks_inverse_gamma(self, tmp_path):
        # the contraction rate is gamma*g - f'(xbar), so the 1/gamma law
        # needs gamma well above the drift slope; n in {900, 3600} gives
        # gamma ratios 4 (linear) and 2 (sqrt) with the bias under 10%
        from balancenet.models import scaling_gamma, ScalingRule
        cfg = {"kind": "double-limit-sweep", "seed": 8,
               "network": {"model": {"family": "fhn-electrical"},
                           "n_values": [900, 3600],
                           "scalings": [{"kind": "linear"}, {"kind": "sqrt"}],
                           "T": 0.35, "collapse_threshold": 0.5}}
        manifest = run_experiment(parse_config_dict(cfg), out_dir=tmp_path)
        cells = manifest["metrics"]["cells"]
        by_key = {(c["scaling"], c["n"]): c for c in cells}
        for kind in ("linear", "sqrt"):
            t_small = by_key[(kind, 900)]["collapse_time"]
            t_big = by_key[(kind, 3600)]["collapse_time"]
            gamma_ratio = (scaling_gamma(ScalingRule(kind), 3600)
                           / scaling_gamma(ScalingRule(kind), 900))
            measured = t_small / t_big
            assert abs(measured / gamma_ratio - 1.0) <= 0.30, (kind, measured)


class TestRescaledDoubleLimitRows:
    def test_fixed_n_gamma_row_contracts_with_gamma(self, tmp_path):
        # M2 view: at fixed n, rescaled rows swept in gamma approach the
        # limiting ODE, so the residual distance to balance at the end of
        # the rescaled window shrinks as gamma grows
        cfg = {"kind": "double-limit-sweep", "seed": 12,
               "network": {"model": {"family": "fhn-chemical", "n": 60},
                           "n_values": [60],
                           "scalings": [{"kind": "constant", "coefficient": 10},
                                        {"kind": "constant", "coefficient": 100}],
                           "T": 2.0, "collapse_threshold": 0.5,
                           "mode": "rescaled-early"}}
        manifest = run_experiment(parse_config_dict(cfg), out_dir=tmp_path)
        cells = manifest["metrics"]["cells"]
        assert all(c["status"] == "COMPLETED" for c in cells)
        by_gamma = {c["gamma"]: c for c in cells}
        rel = {g: by_gamma[g]["distance_contracted"] / by_gamma[g]["distance_initial"]
               for g in (10.0, 100.0)}
        assert rel[100.0] < rel[10.0]
        assert rel[100.0] < 0.1

    def test_mode_round_trips_and_validates(self):
        cfg = {"kind": "double-limit-sweep", "seed": 12,
               "network": {"model": {"family": "fhn-electrical"},
                           "n_values": [10], "scalings": [{"kind": "linear"}],
                           "T": 0.1, "mode": "rescaled-early"}}
        spec = parse_config_dict(cfg)
        assert spec.payload.network.mode == "rescaled-early"
        again = parse_config_dict(json.loads(json.dumps(spec.to_config())))
        assert again == spec
        from balancenet.config import ConfigError
        cfg["network"]["mode"] = "sideways"
        with pytest.raises(ConfigError):
            parse_config_dict(cfg)
