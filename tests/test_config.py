import json
from pathlib import Path

import pytest

from balancenet.config import (KINDS, ConfigError, ChemicalConfig, ElectricalConfig,
                               parse_config, parse_config_dict)


def minimal_network(**over):
    cfg = {"kind": "network-run", "seed": 7,
           "model": {"family": "fhn-electrical"}, "T": 0.1, "dt": 1e-4}
    cfg.update(over)
    return cfg


class TestParseErrors:
    def test_missing_seed(self):
        cfg = minimal_network()
        del cfg["seed"]
        with pytest.raises(ConfigError) as err:
            parse_config_dict(cfg)
        assert err.value.code == "MISSING_KEY"
        assert err.value.path == "seed"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_network(tempo=3))
        assert err.value.code == "UNKNOWN_KEY"
        assert err.value.path == "tempo"

    def test_unknown_nested_key_has_path(self):
        cfg = minimal_network()
        cfg["model"]["gg"] = 1.0
        with pytest.raises(ConfigError) as err:
            parse_config_dict(cfg)
        assert err.value.code == "UNKNOWN_KEY"
        assert err.value.path == "model.gg"

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_network(T="long"))
        assert err.value.code == "TYPE_MISMATCH"
        assert err.value.path == "T"

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_network(T=True))
        assert err.value.code == "TYPE_MISMATCH"

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_network(seed=1.5))
        assert err.value.code == "TYPE_MISMATCH"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_network(kind="word-count"))
        assert err.value.code == "BAD_VALUE"

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            parse_config("{nope")

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "balance-analysis", "seed": 1, "model": {"family": "fhn-electrical"},
          "sbar": {"E": 0.5, "I": 0.5}}, "model.family"),
        ({"kind": "figures", "seed": 1, "figure": "fig3"}, "figure"),
        (minimal_network(record={"stride": 0}), "record.stride"),
        (minimal_network(model={"family": "fhn-electrical", "scaling": {"kind": "cubic"}}),
         "model.scaling.kind"),
        (minimal_network(model={"family": "fhn-tonic"}), "model.family"),
        (minimal_network(seed=2 ** 64), "seed"),
        ({"kind": "double-limit-sweep", "seed": 1,
          "network": {"model": {"family": "fhn-electrical"}, "n_values": [10],
                      "scalings": [{"kind": "linear"}], "T": 0.1, "mode": "sideways"}},
         "network.mode"),
    ])
    def test_value_checks(self, cfg, path):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(cfg)
        assert err.value.code == "BAD_VALUE"
        assert err.value.path == path

    def test_bad_ic_distribution(self):
        cfg = minimal_network()
        cfg["model"]["init"] = {"x": {"dist": "cauchy", "scale": 2.0}}
        with pytest.raises(ConfigError) as err:
            parse_config_dict(cfg)
        assert err.value.code == "BAD_VALUE"
        assert err.value.path.endswith("dist")


class TestDefaultsAndEcho:
    def test_minimal_network_gets_documented_defaults(self):
        spec = parse_config_dict(minimal_network())
        m = spec.payload.model
        assert isinstance(m, ElectricalConfig)
        assert m.n == 300
        assert m.g == 1.0
        assert m.scaling.kind == "linear"
        assert spec.payload.record.stride == 1

    def test_fig1_full_config_echo(self):
        cfg = minimal_network()
        cfg["model"].update({"n": 300, "g": 1.0, "sigma": 1.0, "a": 0.005,
                             "b": 6.0, "scaling": {"kind": "linear"}})
        spec = parse_config_dict(cfg)
        echo = spec.to_config()
        assert echo["model"]["n"] == 300
        assert echo["model"]["a"] == 0.005
        assert echo["model"]["b"] == 6.0
        assert echo["model"]["scaling"] == {"kind": "linear"}

    def test_round_trip_network(self):
        spec = parse_config_dict(minimal_network())
        again = parse_config_dict(json.loads(json.dumps(spec.to_config())))
        assert again == spec

    def test_round_trip_all_kinds(self):
        configs = [
            minimal_network(),
            {"kind": "rescaled-early", "seed": 3,
             "model": {"family": "fhn-chemical", "n": 20},
             "gammas": [10, 100], "T_tilde": 1.0, "dt_tilde": 1e-3},
            {"kind": "pde-run", "seed": 5, "model": {"epsilon": 0.1},
             "T": 1.0, "grid": {"L": 8, "cells": 256}},
            {"kind": "epsilon-sweep", "seed": 5, "model": {},
             "epsilons": [0.4, 0.2], "T": 1.0},
            {"kind": "double-limit-sweep", "seed": 9,
             "network": {"model": {"family": "fhn-electrical"},
                         "n_values": [100, 300],
                         "scalings": [{"kind": "linear"}, {"kind": "sqrt"}],
                         "T": 0.2},
             "pde": {"model": {}, "epsilons": [0.4, 0.2], "T": 1.0}},
            {"kind": "balance-analysis", "seed": 1,
             "model": {"family": "fhn-chemical"}, "sbar": {"E": 0.5, "I": 0.5}},
            {"kind": "figures", "seed": 2, "figure": "fig1"},
        ]
        for cfg in configs:
            spec = parse_config_dict(cfg)
            again = parse_config_dict(json.loads(json.dumps(spec.to_config())))
            assert again == spec, cfg["kind"]

    def test_chemical_model_defaults(self):
        spec = parse_config_dict({"kind": "balance-analysis", "seed": 1,
                                  "model": {"family": "fhn-chemical"},
                                  "sbar": {"E": 1.0, "I": 1.5}})
        m = spec.payload.model
        assert isinstance(m, ChemicalConfig)
        assert m.g_II == 10.0
        assert m.scaling.kind == "scaled_linear"
        assert m.scaling.coefficient == 0.2

    def test_out_and_seed_fields(self):
        spec = parse_config_dict(minimal_network(out="runs/x"))
        assert spec.out == "runs/x"
        assert spec.seed == 7

    def test_double_limit_needs_a_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"kind": "double-limit-sweep", "seed": 1})
        assert err.value.code == "MISSING_KEY"

    def test_events_parsed(self):
        cfg = minimal_network()
        cfg["model"]["family"] = "fhn-chemical"
        cfg["events"] = [{"t": 0.05, "multipliers": {"g_EE": 1.5, "g_EI": 1.5}}]
        spec = parse_config_dict(cfg)
        assert spec.payload.events[0].t == 0.05
        assert dict(spec.payload.events[0].multipliers)["g_EI"] == 1.5


class TestGoldenEcho:
    """The echo of every kind, with each optional key set and unset, equals
    the dict recorded for it in tests/golden_echo.json and parses back to
    the same spec."""

    CASES = json.loads((Path(__file__).parent / "golden_echo.json").read_text())

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c["config"]["kind"])
    def test_echo_matches_golden(self, case):
        spec = parse_config_dict(case["config"])
        assert spec.to_config() == case["echo"]
        assert parse_config_dict(json.loads(json.dumps(case["echo"]))) == spec

    def test_every_kind_covered(self):
        assert {c["config"]["kind"] for c in self.CASES} == set(KINDS)


class TestSweepModelsRejectEpsilon:
    """An epsilon sweep sets epsilon itself, so its model has no such key."""

    def test_epsilon_sweep_model(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"kind": "epsilon-sweep", "seed": 5,
                               "model": {"epsilon": 0.3}, "epsilons": [0.4, 0.2],
                               "T": 1.0})
        assert err.value.code == "UNKNOWN_KEY"
        assert err.value.path == "model.epsilon"

    def test_double_limit_pde_model(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"kind": "double-limit-sweep", "seed": 5,
                               "pde": {"model": {"epsilon": 0.3},
                                       "epsilons": [0.4, 0.2], "T": 1.0}})
        assert err.value.code == "UNKNOWN_KEY"
        assert err.value.path == "pde.model.epsilon"

    def test_pde_run_still_requires_epsilon(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({"kind": "pde-run", "seed": 5, "model": {}, "T": 1.0})
        assert err.value.code == "MISSING_KEY"
        assert err.value.path == "model.epsilon"
