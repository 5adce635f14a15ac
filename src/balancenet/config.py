"""Experiment configuration: strict JSON parsing into typed specs.

Unknown keys are rejected (silent typos corrupt parameter studies), missing
required keys and wrong types are reported with their full key path, and
defaults are applied explicitly so that the echoed spec round-trips:
parse(to_config(spec)) == spec. Seeds are mandatory; there is no
wall-clock seeding anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

MISSING_KEY = "MISSING_KEY"
TYPE_MISMATCH = "TYPE_MISMATCH"
UNKNOWN_KEY = "UNKNOWN_KEY"
BAD_VALUE = "BAD_VALUE"

KINDS = ("network-run", "rescaled-early", "pde-run", "epsilon-sweep",
         "double-limit-sweep", "balance-analysis", "figures")


class ConfigError(ValueError):
    def __init__(self, code: str, path: str, message: str = ""):
        self.code = code
        self.path = path
        super().__init__(f"{code}({path}){': ' + message if message else ''}")


def _type_name(t):
    return {int: "integer", float: "number", str: "string", bool: "boolean",
            list: "array", dict: "object"}[t]


class _Node:
    """One config object being validated; tracks visited keys so leftovers
    can be rejected as unknown."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(TYPE_MISMATCH, path or "<root>", "expected an object")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def req(self, key: str, typ):
        if key not in self.data:
            raise ConfigError(MISSING_KEY, self._at(key))
        self.seen.add(key)
        return self._coerce(self.data[key], typ, self._at(key))

    def opt(self, key: str, typ, default):
        if key not in self.data:
            return default
        self.seen.add(key)
        return self._coerce(self.data[key], typ, self._at(key))

    def child(self, key: str, required: bool = True) -> "_Node | None":
        if key not in self.data:
            if required:
                raise ConfigError(MISSING_KEY, self._at(key))
            return None
        self.seen.add(key)
        return _Node(self._coerce(self.data[key], dict, self._at(key)), self._at(key))

    def children(self, key: str) -> "list[_Node]":
        items = self.req(key, list)
        out = []
        for i, item in enumerate(items):
            out.append(_Node(self._coerce(item, dict, f"{self._at(key)}[{i}]"),
                             f"{self._at(key)}[{i}]"))
        return out

    @staticmethod
    def _coerce(value, typ, path):
        if typ is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(TYPE_MISMATCH, path, "expected a number")
            return float(value)
        if typ is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(TYPE_MISMATCH, path, "expected an integer")
            return value
        if not isinstance(value, typ):
            raise ConfigError(TYPE_MISMATCH, path, f"expected {_type_name(typ)}")
        return value

    def close(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(UNKNOWN_KEY, self._at(key))


def _float_list(node: _Node, key: str, required: bool = True, default=()):
    if key not in node.data and not required:
        return tuple(default)
    raw = node.req(key, list)
    out = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(TYPE_MISMATCH, f"{node._at(key)}[{i}]", "expected a number")
        out.append(float(v))
    return tuple(out)


def _int_list(node: _Node, key: str):
    raw = node.req(key, list)
    out = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(TYPE_MISMATCH, f"{node._at(key)}[{i}]", "expected an integer")
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# typed config fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingConfig:
    kind: str = "linear"
    coefficient: float | None = None

    def to_config(self):
        out = {"kind": self.kind}
        if self.coefficient is not None:
            out["coefficient"] = self.coefficient
        return out


def _parse_scaling(node: _Node | None, default: ScalingConfig) -> ScalingConfig:
    if node is None:
        return default
    kind = node.opt("kind", str, default.kind)
    coeff = node.opt("coefficient", float, None)
    node.close()
    if kind not in ("linear", "sqrt", "scaled_linear", "constant"):
        raise ConfigError(BAD_VALUE, f"{node.path}.kind", f"unknown scaling {kind!r}")
    return ScalingConfig(kind=kind, coefficient=coeff)


@dataclass(frozen=True)
class IcConfig:
    dist: str = "normal"
    p1: float = 0.0
    p2: float = 0.0

    def to_config(self):
        if self.dist == "normal":
            return {"dist": "normal", "mean": self.p1, "sd": self.p2}
        if self.dist == "uniform":
            return {"dist": "uniform", "low": self.p1, "high": self.p2}
        return {"dist": "constant", "value": self.p1}


def _parse_ic(node: _Node | None, default: IcConfig) -> IcConfig:
    if node is None:
        return default
    dist = node.opt("dist", str, "normal")
    if dist == "normal":
        ic = IcConfig("normal", node.req("mean", float), node.req("sd", float))
    elif dist == "uniform":
        ic = IcConfig("uniform", node.req("low", float), node.req("high", float))
    elif dist == "constant":
        ic = IcConfig("constant", node.req("value", float))
    else:
        raise ConfigError(BAD_VALUE, f"{node.path}.dist", f"unknown distribution {dist!r}")
    node.close()
    return ic


class _Section:
    """Parse and echo of a config section from its dataclass fields and their
    defaults: numbers and integers are optional keys, a tuple default is a
    list of numbers (of that length unless empty), a ScalingConfig default a
    nested scaling section, and IcConfig defaults are coordinate laws under
    "init"."""

    family = None  # network family name, echoed first

    def to_config(self) -> dict:
        out = {"family": self.family} if self.family else {}
        init = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, IcConfig):
                init[f.name] = value.to_config()
            elif isinstance(value, ScalingConfig):
                out[f.name] = value.to_config()
            else:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        if init:
            out["init"] = init
        return out

    @classmethod
    def parse(cls, node: _Node, **given):
        kwargs = {}
        init = None
        for f in fields(cls):
            if f.name in given:
                continue
            if isinstance(f.default, IcConfig):
                if init is None:
                    init = node.child("init", required=False) or _Node({}, node._at("init"))
                kwargs[f.name] = _parse_ic(init.child(f.name, required=False), f.default)
            elif isinstance(f.default, ScalingConfig):
                kwargs[f.name] = _parse_scaling(node.child(f.name, required=False), f.default)
            elif isinstance(f.default, tuple):
                kwargs[f.name] = _float_list(node, f.name, required=False, default=f.default)
                if f.default and len(kwargs[f.name]) != len(f.default):
                    raise ConfigError(BAD_VALUE, node._at(f.name),
                                      f"need {len(f.default)} coefficients")
            else:
                kwargs[f.name] = node.opt(f.name, type(f.default), f.default)
        if init is not None:
            init.close()
        node.close()
        return cls(**kwargs, **given)


@dataclass(frozen=True)
class ElectricalConfig(_Section):
    """Electrical collapse benchmark (fig1 outputs)."""

    f_coeffs: tuple = (-1.0, 5.0, -4.0, 4.0)
    a: float = 0.005
    b: float = 6.0
    g: float = 1.0
    sigma: float = 1.0
    n: int = 300
    scaling: ScalingConfig = ScalingConfig("linear")
    x: IcConfig = IcConfig("normal", 1.0, 5.0)
    y: IcConfig = IcConfig("normal", 1.5, 5.0)

    family = "fhn-electrical"

    def coordinate_laws(self):
        """Initial law of each coordinate, per population."""
        return ((self.x, self.y),)


@dataclass(frozen=True)
class ChemicalConfig(_Section):
    """Two-population conductance benchmark (fig2 outputs); reversal
    potentials, tau and the activation sigmoid are free parameters chosen so
    the balanced state is self-sustaining and the clamping offset
    O(|f(x*)|/gamma) stays small (see README)."""

    f_coeffs: tuple = (-1.0, 1.3, -0.3, 0.0)
    a: float = 0.4
    b: float = 1.5
    c: float = 1.0
    tau: float = 2.0
    alpha_gain: float = 1.0
    alpha_threshold: float = -2.0
    alpha_slope: float = 1.0
    E_E: float = 1.0
    E_I: float = -1.0
    g_EE: float = 0.3
    g_EI: float = 2.0
    g_IE: float = 1.0
    g_II: float = 10.0
    sigma: float = 1.0
    n: int = 300
    scaling: ScalingConfig = ScalingConfig("scaled_linear", 0.2)
    x: IcConfig = IcConfig("normal", 3.0, 1.0)
    y: IcConfig = IcConfig("normal", 2.0, 1.0)
    s_E: IcConfig = IcConfig("uniform", 0.0, 2.0)
    s_I: IcConfig = IcConfig("uniform", 0.0, 3.0)

    family = "fhn-chemical"

    def coordinate_laws(self):
        """Initial law of each coordinate, per population."""
        return ((self.x, self.y, self.s_E), (self.x, self.y, self.s_I))


@dataclass(frozen=True)
class SeparableConfig(_Section):
    E: float = 0.0
    beta0: float = 1.0
    beta1: float = 1.0
    theta_s: float = 3.0
    k_s: float = 1.0
    sigma: float = 3.0
    epsilon: float = 0.1

    def to_config(self, with_epsilon: bool = True):
        out = super().to_config()
        if not with_epsilon:
            del out["epsilon"]
        return out


NETWORK_FAMILIES = {cfg.family: cfg for cfg in (ElectricalConfig, ChemicalConfig)}


def _parse_network_model(node: _Node):
    family = node.req("family", str)
    if family not in NETWORK_FAMILIES:
        raise ConfigError(BAD_VALUE, f"{node.path}.family", f"unknown family {family!r}")
    return NETWORK_FAMILIES[family].parse(node)


def _parse_separable(node: _Node, need_epsilon: bool) -> SeparableConfig:
    if need_epsilon:
        return SeparableConfig.parse(node, epsilon=node.req("epsilon", float))
    return SeparableConfig.parse(node)


@dataclass(frozen=True)
class GridConfig(_Section):
    L: float = 8.0
    cells: int = 1024


def _parse_grid(node: _Node | None) -> GridConfig:
    return GridConfig() if node is None else GridConfig.parse(node)


@dataclass(frozen=True)
class RecordConfig(_Section):
    stride: int = 1
    traces: int = 20
    snapshot_times: tuple = ()


def _parse_record(node: _Node | None) -> RecordConfig:
    if node is None:
        return RecordConfig()
    rc = RecordConfig.parse(node)
    if rc.stride < 1:
        raise ConfigError(BAD_VALUE, f"{node.path}.stride", "stride must be >= 1")
    return rc


@dataclass(frozen=True)
class EventConfig:
    t: float
    multipliers: tuple  # ((name, factor), ...)

    def to_config(self):
        return {"t": self.t, "multipliers": dict(self.multipliers)}


def _parse_events(node: _Node, key: str) -> tuple[EventConfig, ...]:
    if key not in node.data:
        return ()
    out = []
    for child in node.children(key):
        t = child.req("t", float)
        mults = child.child("multipliers")
        pairs = []
        for name in sorted(mults.data):
            pairs.append((name, mults._coerce(mults.data[name], float,
                                              f"{mults.path}.{name}")))
            mults.seen.add(name)
        mults.close()
        child.close()
        out.append(EventConfig(t=t, multipliers=tuple(pairs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkRunSpec:
    model: object
    T: float
    dt: float
    record: RecordConfig = RecordConfig()
    events: tuple = ()


@dataclass(frozen=True)
class RescaledEarlySpec:
    model: object
    gammas: tuple
    T_tilde: float
    dt_tilde: float
    record: RecordConfig = RecordConfig()


@dataclass(frozen=True)
class PdeRunSpec:
    model: SeparableConfig
    grid: GridConfig
    T: float
    center: float = 1.0
    concentration: float = 1.0
    snapshot_every: float | None = None


@dataclass(frozen=True)
class EpsilonSweepSpec:
    model: SeparableConfig
    epsilons: tuple
    grid: GridConfig
    T: float
    center: float = 1.0
    concentration: float = 1.0
    t0: float | None = None


@dataclass(frozen=True)
class DoubleLimitNetworkSpec:
    """Network rows of the double-limit grid. mode "direct" integrates the
    original clock over [0, T] (collapse shows up at times ~1/gamma);
    "rescaled-early" integrates the early-time rescaled system over a fixed
    rescaled horizon T, so rows at fixed n swept in gamma compare the
    approach to the limiting ODE."""

    model: object
    n_values: tuple
    scalings: tuple
    T: float
    collapse_threshold: float = 0.3
    mode: str = "direct"


@dataclass(frozen=True)
class DoubleLimitSpec:
    network: DoubleLimitNetworkSpec | None
    pde: EpsilonSweepSpec | None


@dataclass(frozen=True)
class BalanceAnalysisSpec:
    model: ChemicalConfig
    sbar_E: float
    sbar_I: float


@dataclass(frozen=True)
class FiguresSpec:
    figure: str
    model: object | None = None
    T: float | None = None
    dt: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    seed: int
    payload: object
    out: str | None = None

    def to_config(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.out is not None:
            out["out"] = self.out
        p = self.payload
        if self.kind == "network-run":
            out.update({"model": p.model.to_config(), "T": p.T, "dt": p.dt,
                        "record": p.record.to_config(),
                        "events": [e.to_config() for e in p.events]})
        elif self.kind == "rescaled-early":
            out.update({"model": p.model.to_config(), "gammas": list(p.gammas),
                        "T_tilde": p.T_tilde, "dt_tilde": p.dt_tilde,
                        "record": p.record.to_config()})
        elif self.kind == "pde-run":
            out.update({"model": p.model.to_config(), "grid": p.grid.to_config(),
                        "T": p.T, "init": {"center": p.center,
                                           "concentration": p.concentration}})
            if p.snapshot_every is not None:
                out["snapshot_every"] = p.snapshot_every
        elif self.kind == "epsilon-sweep":
            out.update({"model": p.model.to_config(with_epsilon=False),
                        "epsilons": list(p.epsilons), "grid": p.grid.to_config(),
                        "T": p.T, "init": {"center": p.center,
                                           "concentration": p.concentration}})
            if p.t0 is not None:
                out["t0"] = p.t0
        elif self.kind == "double-limit-sweep":
            body = {}
            if p.network is not None:
                body["network"] = {
                    "model": p.network.model.to_config(),
                    "n_values": list(p.network.n_values),
                    "scalings": [s.to_config() for s in p.network.scalings],
                    "T": p.network.T,
                    "collapse_threshold": p.network.collapse_threshold,
                    "mode": p.network.mode}
            if p.pde is not None:
                body["pde"] = {
                    "model": p.pde.model.to_config(with_epsilon=False),
                    "epsilons": list(p.pde.epsilons), "grid": p.pde.grid.to_config(),
                    "T": p.pde.T, "init": {"center": p.pde.center,
                                           "concentration": p.pde.concentration}}
            out.update(body)
        elif self.kind == "balance-analysis":
            out.update({"model": p.model.to_config(),
                        "sbar": {"E": p.sbar_E, "I": p.sbar_I}})
        elif self.kind == "figures":
            out.update({"figure": p.figure})
            if p.model is not None:
                out["model"] = p.model.to_config()
            if p.T is not None:
                out["T"] = p.T
            if p.dt is not None:
                out["dt"] = p.dt
        return out


def _parse_init_pde(node: _Node | None) -> tuple[float, float]:
    if node is None:
        return 1.0, 1.0
    center = node.opt("center", float, 1.0)
    conc = node.opt("concentration", float, 1.0)
    node.close()
    return center, conc


def parse_config_dict(data: dict) -> ExperimentSpec:
    root = _Node(data, "")
    kind = root.req("kind", str)
    if kind not in KINDS:
        raise ConfigError(BAD_VALUE, "kind", f"unknown kind {kind!r}")
    seed = root.req("seed", int)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(BAD_VALUE, "seed", "seed must be a u64")
    out_dir = root.opt("out", str, None)

    if kind == "network-run":
        payload = NetworkRunSpec(
            model=_parse_network_model(root.child("model")),
            T=root.req("T", float),
            dt=root.req("dt", float),
            record=_parse_record(root.child("record", required=False)),
            events=_parse_events(root, "events"))
    elif kind == "rescaled-early":
        payload = RescaledEarlySpec(
            model=_parse_network_model(root.child("model")),
            gammas=_float_list(root, "gammas"),
            T_tilde=root.req("T_tilde", float),
            dt_tilde=root.req("dt_tilde", float),
            record=_parse_record(root.child("record", required=False)))
    elif kind == "pde-run":
        center, conc = _parse_init_pde(root.child("init", required=False))
        payload = PdeRunSpec(
            model=_parse_separable(root.child("model"), need_epsilon=True),
            grid=_parse_grid(root.child("grid", required=False)),
            T=root.req("T", float),
            center=center, concentration=conc,
            snapshot_every=root.opt("snapshot_every", float, None))
    elif kind == "epsilon-sweep":
        center, conc = _parse_init_pde(root.child("init", required=False))
        payload = EpsilonSweepSpec(
            model=_parse_separable(root.child("model"), need_epsilon=False),
            epsilons=_float_list(root, "epsilons"),
            grid=_parse_grid(root.child("grid", required=False)),
            T=root.req("T", float),
            center=center, concentration=conc,
            t0=root.opt("t0", float, None))
    elif kind == "double-limit-sweep":
        net_node = root.child("network", required=False)
        pde_node = root.child("pde", required=False)
        if net_node is None and pde_node is None:
            raise ConfigError(MISSING_KEY, "network",
                              "need a network and/or pde section")
        network = None
        if net_node is not None:
            scalings = tuple(
                _parse_scaling(c, ScalingConfig("linear"))
                for c in net_node.children("scalings"))
            network = DoubleLimitNetworkSpec(
                model=_parse_network_model(net_node.child("model")),
                n_values=_int_list(net_node, "n_values"),
                scalings=scalings,
                T=net_node.req("T", float),
                collapse_threshold=net_node.opt("collapse_threshold", float, 0.3),
                mode=net_node.opt("mode", str, "direct"))
            if network.mode not in ("direct", "rescaled-early"):
                raise ConfigError(BAD_VALUE, f"{net_node.path}.mode",
                                  f"unknown mode {network.mode!r}")
            net_node.close()
        pde = None
        if pde_node is not None:
            center, conc = _parse_init_pde(pde_node.child("init", required=False))
            pde = EpsilonSweepSpec(
                model=_parse_separable(pde_node.child("model"), need_epsilon=False),
                epsilons=_float_list(pde_node, "epsilons"),
                grid=_parse_grid(pde_node.child("grid", required=False)),
                T=pde_node.req("T", float),
                center=center, concentration=conc)
            pde_node.close()
        payload = DoubleLimitSpec(network=network, pde=pde)
    elif kind == "balance-analysis":
        model = _parse_network_model(root.child("model"))
        if not isinstance(model, ChemicalConfig):
            raise ConfigError(BAD_VALUE, "model.family",
                              "balance analysis needs the chemical family")
        sbar = root.child("sbar")
        payload = BalanceAnalysisSpec(
            model=model, sbar_E=sbar.req("E", float), sbar_I=sbar.req("I", float))
        sbar.close()
    else:  # figures
        figure = root.req("figure", str)
        if figure not in ("fig1", "fig2"):
            raise ConfigError(BAD_VALUE, "figure", f"unknown figure {figure!r}")
        model_node = root.child("model", required=False)
        model = _parse_network_model(model_node) if model_node is not None else None
        payload = FiguresSpec(figure=figure, model=model,
                              T=root.opt("T", float, None),
                              dt=root.opt("dt", float, None))
    root.close()
    return ExperimentSpec(kind=kind, seed=seed, payload=payload, out=out_dir)


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON experiment configuration in strict mode."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(TYPE_MISMATCH, "<root>", f"invalid JSON: {err}") from err
    return parse_config_dict(data)
