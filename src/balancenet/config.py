"""Experiment configuration: strict JSON parsing into typed specs.

Unknown keys are rejected (silent typos corrupt parameter studies), missing
required keys and wrong types are reported with their full key path, and
defaults are applied explicitly so that the echoed spec round-trips:
parse(to_config(spec)) == spec. Seeds are mandatory; there is no
wall-clock seeding anywhere.

Every section, the experiment specs included, is a dataclass whose fields
drive both its parse and its echo (see _Section). KINDS maps each
experiment kind to its spec class; it is the one place kinds are named.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

MISSING_KEY = "MISSING_KEY"
TYPE_MISMATCH = "TYPE_MISMATCH"
UNKNOWN_KEY = "UNKNOWN_KEY"
BAD_VALUE = "BAD_VALUE"


class ConfigError(ValueError):
    def __init__(self, code: str, path: str, message: str = ""):
        self.code = code
        self.path = path
        super().__init__(f"{code}({path}){': ' + message if message else ''}")


def _type_name(t):
    return {int: "integer", float: "number", str: "string", bool: "boolean",
            list: "array", dict: "object"}[t]


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


def _read(value, typ, path: str):
    """Convert a JSON value to typ: a number, integer, string or object as
    it is, tuple[T, ...] from a list of T, a class with parse() from a
    nested object."""
    if get_origin(typ) is tuple:
        item = get_args(typ)[0]
        return tuple(_read(v, item, f"{path}[{i}]")
                     for i, v in enumerate(_coerce(value, list, path)))
    if hasattr(typ, "parse"):
        return typ.parse(_Node(value, path))
    return _coerce(value, typ, path)


def _echo(value):
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value.to_config() if hasattr(value, "to_config") else value


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

    def get(self, key: str, typ, default=MISSING):
        """The value at key read as typ (see _read); an absent key gives
        the default, or MISSING_KEY when there is none."""
        if key not in self.data:
            if default is MISSING:
                raise ConfigError(MISSING_KEY, self._at(key))
            return default
        self.seen.add(key)
        return _read(self.data[key], typ, self._at(key))

    def child(self, key: str) -> "_Node | None":
        """The optional object at key, or None when it is absent."""
        data = self.get(key, dict, None)
        return None if data is None else _Node(data, self._at(key))

    def close(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(UNKNOWN_KEY, self._at(key))


@functools.cache
def _field_types(cls) -> dict:
    """Resolved field types of a section; an optional X | None reads as X."""
    out = {}
    for name, typ in get_type_hints(cls).items():
        if isinstance(typ, UnionType):
            typ = next(t for t in get_args(typ) if t is not type(None))
        out[name] = typ
    return out


class _Section:
    """Parse and echo of a config section from its dataclass fields.

    A field without a default is a required key; one defaulting to None is
    optional and left out of the echo while unset. The field's type says how
    its value is read (see _read). A non-empty tuple default fixes the list
    length, IcConfig defaults are coordinate laws under "init", and a
    ScalingConfig default is a scaling section whose kind defaults to the
    default's. Keyword arguments to parse override field defaults.
    """

    family = None  # network family name, echoed first

    def to_config(self) -> dict:
        out = {"family": self.family} if self.family else {}
        init = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, IcConfig):
                init[f.name] = value.to_config()
            elif value is not None:
                out[f.name] = _echo(value)
        if init:
            out["init"] = init
        return out

    @classmethod
    def parse(cls, node: _Node, **defaults):
        typ_of = _field_types(cls)
        kwargs = {}
        init = None
        for f in fields(cls):
            default = defaults.get(f.name, f.default)
            if isinstance(default, IcConfig):
                if init is None:
                    init = node.child("init") or _Node({}, node._at("init"))
                law = init.child(f.name)
                kwargs[f.name] = default if law is None else IcConfig.parse(law)
            elif isinstance(default, ScalingConfig):
                scaling = node.child(f.name)
                kwargs[f.name] = (default if scaling is None
                                  else ScalingConfig.parse(scaling, kind=default.kind))
            else:
                value = kwargs[f.name] = node.get(f.name, typ_of[f.name], default)
                if isinstance(default, tuple) and default and len(value) != len(default):
                    raise ConfigError(BAD_VALUE, node._at(f.name),
                                      f"need {len(default)} coefficients")
        if init is not None:
            init.close()
        node.close()
        section = cls(**kwargs)
        section.check(node)
        return section

    def check(self, node: _Node) -> None:
        """Validation beyond the key types; raises ConfigError."""


# ---------------------------------------------------------------------------
# typed config fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingConfig(_Section):
    kind: str = "linear"
    coefficient: float | None = None

    def check(self, node):
        if self.kind not in ("linear", "sqrt", "scaled_linear", "constant"):
            raise ConfigError(BAD_VALUE, node._at("kind"), f"unknown scaling {self.kind!r}")


_IC_PARAMS = {"normal": ("mean", "sd"), "uniform": ("low", "high"), "constant": ("value",)}


@dataclass(frozen=True)
class IcConfig:
    dist: str = "normal"
    p1: float = 0.0
    p2: float = 0.0

    def to_config(self):
        return {"dist": self.dist, **dict(zip(_IC_PARAMS[self.dist], (self.p1, self.p2)))}

    @classmethod
    def parse(cls, node: _Node) -> IcConfig:
        dist = node.get("dist", str, "normal")
        if dist not in _IC_PARAMS:
            raise ConfigError(BAD_VALUE, node._at("dist"), f"unknown distribution {dist!r}")
        ic = cls(dist, *(node.get(name, float) for name in _IC_PARAMS[dist]))
        node.close()
        return ic


class FhnConfig(_Section):
    """A built-in network family section, chosen by its "family" key; a
    field typed with one family accepts that family only."""

    @classmethod
    def parse(cls, node: _Node, **defaults):
        family = node.get("family", str)
        target = NETWORK_FAMILIES.get(family)
        if target is None:
            raise ConfigError(BAD_VALUE, node._at("family"), f"unknown family {family!r}")
        if not issubclass(target, cls):
            raise ConfigError(BAD_VALUE, node._at("family"), f"needs the {cls.family} family")
        return super(FhnConfig, target).parse(node, **defaults)


@dataclass(frozen=True)
class ElectricalConfig(FhnConfig):
    """Electrical collapse benchmark (fig1 outputs)."""

    f_coeffs: tuple[float, ...] = (-1.0, 5.0, -4.0, 4.0)
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
class ChemicalConfig(FhnConfig):
    """Two-population conductance benchmark (fig2 outputs); reversal
    potentials, tau and the activation sigmoid are free parameters chosen so
    the balanced state is self-sustaining and the clamping offset
    O(|f(x*)|/gamma) stays small (see README)."""

    f_coeffs: tuple[float, ...] = (-1.0, 1.3, -0.3, 0.0)
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


NETWORK_FAMILIES = {cfg.family: cfg for cfg in (ElectricalConfig, ChemicalConfig)}


@dataclass(frozen=True)
class SeparableConfig(_Section):
    """The separable 1D model of an epsilon sweep, which sets epsilon itself."""

    E: float = 0.0
    beta0: float = 1.0
    beta1: float = 1.0
    theta_s: float = 3.0
    k_s: float = 1.0
    sigma: float = 3.0


@dataclass(frozen=True, kw_only=True)
class SeparableRunConfig(SeparableConfig):
    """The separable 1D model of a single run, at a given epsilon."""

    epsilon: float


@dataclass(frozen=True)
class GridConfig(_Section):
    L: float = 8.0
    cells: int = 1024


@dataclass(frozen=True)
class PdeInitConfig(_Section):
    """Initial Gaussian of a Fokker-Planck run."""

    center: float = 1.0
    concentration: float = 1.0


@dataclass(frozen=True)
class RecordConfig(_Section):
    stride: int = 1
    traces: int = 20
    snapshot_times: tuple[float, ...] = ()

    def check(self, node):
        if self.stride < 1:
            raise ConfigError(BAD_VALUE, node._at("stride"), "stride must be >= 1")


@dataclass(frozen=True)
class EventConfig:
    t: float
    multipliers: tuple  # ((name, factor), ...)

    def to_config(self):
        return {"t": self.t, "multipliers": dict(self.multipliers)}

    @classmethod
    def parse(cls, node: _Node) -> EventConfig:
        t = node.get("t", float)
        mults = _Node(node.get("multipliers", dict), node._at("multipliers"))
        pairs = tuple((name, mults.get(name, float)) for name in sorted(mults.data))
        node.close()
        return cls(t=t, multipliers=pairs)


@dataclass(frozen=True)
class SbarConfig(_Section):
    """Mean synaptic gates of the two populations."""

    E: float
    I: float


# ---------------------------------------------------------------------------
# experiment specs; each names the CLI subcommand that runs it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkRunSpec(_Section):
    model: FhnConfig
    T: float
    dt: float
    record: RecordConfig = RecordConfig()
    events: tuple[EventConfig, ...] = ()

    command = "simulate"


@dataclass(frozen=True)
class RescaledEarlySpec(_Section):
    model: FhnConfig
    gammas: tuple[float, ...]
    T_tilde: float
    dt_tilde: float
    record: RecordConfig = RecordConfig()

    command = "early"


@dataclass(frozen=True)
class PdeRunSpec(_Section):
    model: SeparableRunConfig
    T: float
    grid: GridConfig = GridConfig()
    init: PdeInitConfig = PdeInitConfig()
    snapshot_every: float | None = None

    command = "pde"


@dataclass(frozen=True)
class DoubleLimitPdeSpec(_Section):
    """Mean-field column of the double-limit grid: an epsilon sweep whose
    bound checks start at the default t0."""

    model: SeparableConfig
    epsilons: tuple[float, ...]
    T: float
    grid: GridConfig = GridConfig()
    init: PdeInitConfig = PdeInitConfig()

    t0 = None  # not a key here; EpsilonSweepSpec makes it one


@dataclass(frozen=True)
class EpsilonSweepSpec(DoubleLimitPdeSpec):
    t0: float | None = None

    command = "pde"


@dataclass(frozen=True)
class DoubleLimitNetworkSpec(_Section):
    """Network rows of the double-limit grid. mode "direct" integrates the
    original clock over [0, T] (collapse shows up at times ~1/gamma);
    "rescaled-early" integrates the early-time rescaled system over a fixed
    rescaled horizon T, so rows at fixed n swept in gamma compare the
    approach to the limiting ODE."""

    model: FhnConfig
    n_values: tuple[int, ...]
    scalings: tuple[ScalingConfig, ...]
    T: float
    collapse_threshold: float = 0.3
    mode: str = "direct"

    def check(self, node):
        if self.mode not in ("direct", "rescaled-early"):
            raise ConfigError(BAD_VALUE, node._at("mode"), f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class DoubleLimitSpec(_Section):
    network: DoubleLimitNetworkSpec | None = None
    pde: DoubleLimitPdeSpec | None = None

    command = "sweep"

    def check(self, node):
        if self.network is None and self.pde is None:
            raise ConfigError(MISSING_KEY, node._at("network"),
                              "need a network and/or pde section")


@dataclass(frozen=True)
class BalanceAnalysisSpec(_Section):
    model: ChemicalConfig
    sbar: SbarConfig

    command = "balance"


@dataclass(frozen=True)
class FiguresSpec(_Section):
    figure: str
    model: FhnConfig | None = None
    T: float | None = None
    dt: float | None = None

    command = "figures"

    def check(self, node):
        if self.figure not in ("fig1", "fig2"):
            raise ConfigError(BAD_VALUE, node._at("figure"), f"unknown figure {self.figure!r}")


KINDS = {
    "network-run": NetworkRunSpec,
    "rescaled-early": RescaledEarlySpec,
    "pde-run": PdeRunSpec,
    "epsilon-sweep": EpsilonSweepSpec,
    "double-limit-sweep": DoubleLimitSpec,
    "balance-analysis": BalanceAnalysisSpec,
    "figures": FiguresSpec,
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    seed: int
    payload: _Section
    out: str | None = None

    def to_config(self) -> dict:
        head = {"kind": self.kind, "seed": self.seed}
        if self.out is not None:
            head["out"] = self.out
        return {**head, **self.payload.to_config()}


def parse_config_dict(data: dict) -> ExperimentSpec:
    root = _Node(data, "")
    kind = root.get("kind", str)
    if kind not in KINDS:
        raise ConfigError(BAD_VALUE, "kind", f"unknown kind {kind!r}")
    seed = root.get("seed", int)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(BAD_VALUE, "seed", "seed must be a u64")
    out = root.get("out", str, None)
    return ExperimentSpec(kind=kind, seed=seed, payload=KINDS[kind].parse(root), out=out)


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON experiment configuration in strict mode."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(TYPE_MISMATCH, "<root>", f"invalid JSON: {err}") from err
    return parse_config_dict(data)
