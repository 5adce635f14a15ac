"""Experiment configuration: strict JSON parsing into typed specs.

Unknown keys are rejected (silent typos corrupt parameter studies), missing
required keys and wrong types are reported with their full key path, and
defaults are applied explicitly so that the echoed spec round-trips:
parse(to_config(spec)) == spec. Seeds are mandatory; there is no
wall-clock seeding anywhere.

Every section, the experiment specs included, is a dataclass whose fields
drive both its parse and its echo (see _Section). Where a runtime type
already holds a section's values (a family's parameters, a scaling rule, an
initial law, a record spec, a perturbation event) the section is or extends
that type, so its defaults and checks are declared once and a value a run
would reject is a BAD_VALUE at parse time. KINDS maps each experiment kind
to its spec class; it is the one place kinds are named.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .balance import check_mean_gates
from .hopfcole import check_epsilons
from .models import (FhnChemicalParams, FhnElectricalParams, ModelDefinitionError,
                     NetworkModel, ScalingRule, SeparableModel1D, SeparableParams,
                     build_separable_1d)
from .network import CoordinateIC, PerturbationEvent, RecordSpec, check_run
from .pde import Grid1D, check_concentration, check_horizon, fp_steps, gaussian_initial

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
        # json reads NaN, Infinity and 1e999 as floats, and an integer
        # past the float range would not convert
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(BAD_VALUE, path, "expected a finite number")
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


def _construct(node: _Node, cls, *args, **kwargs):
    """cls(*args, **kwargs) for the section at node. A value the runtime
    type rejects is a BAD_VALUE at the key its error names, or at the
    section when it names none; only the constructor call is guarded, since
    a ConfigError is itself a ValueError."""
    try:
        return cls(*args, **kwargs)
    except ModelDefinitionError as err:
        path = node._at(err.key) if err.key else node.path or "<root>"
        raise ConfigError(BAD_VALUE, path, str(err)) from err


class _Section:
    """Parse and echo of a config section from its dataclass fields.

    A field without a default is a required key; one defaulting to None is
    optional and left out of the echo while unset. The field's type says how
    its value is read (see _read). A non-empty tuple default fixes the list
    length, CoordinateIC defaults are coordinate laws under "init", and a
    ScalingConfig default is a scaling section whose kind defaults to the
    default's. Keyword arguments to parse override field defaults. The
    section is constructed through _construct, so the checks of the runtime
    type a section extends run at parse time.
    """

    def to_config(self) -> dict:
        out = {}
        init = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CoordinateIC):
                init[f.name] = _echo_ic(value)
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
            if isinstance(default, CoordinateIC):
                if init is None:
                    init = node.child("init") or _Node({}, node._at("init"))
                law = init.child(f.name)
                kwargs[f.name] = default if law is None else _parse_ic(law)
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
        return _construct(node, cls, **kwargs)


# ---------------------------------------------------------------------------
# typed config fragments: runtime types with a parse and an echo
# ---------------------------------------------------------------------------


class ScalingConfig(ScalingRule, _Section):
    """A scaling section."""


def _parse_ic(node: _Node) -> CoordinateIC:
    dist = node.get("dist", str, "normal")
    ic = _construct(node, CoordinateIC, dist,
                    *(node.get(name, float) for name in CoordinateIC.LAWS.get(dist, ())))
    node.close()
    return ic


def _echo_ic(ic: CoordinateIC) -> dict:
    return {"dist": ic.dist, **dict(zip(CoordinateIC.LAWS[ic.dist], (ic.p1, ic.p2)))}


class FhnConfig(_Section):
    """A built-in network family section, chosen by its "family" key; a
    field typed with one family accepts that family only. A section is the
    family's parameters (it extends their class) plus a population size, a
    scaling and the initial law of each coordinate."""

    @classmethod
    def parse(cls, node: _Node, **defaults):
        family = node.get("family", str)
        target = NETWORK_FAMILIES.get(family)
        if target is None:
            raise ConfigError(BAD_VALUE, node._at("family"), f"unknown family {family!r}")
        if not issubclass(target, cls):
            raise ConfigError(BAD_VALUE, node._at("family"), f"needs the {cls.family} family")
        return super(FhnConfig, target).parse(node, **defaults)

    def to_config(self) -> dict:
        return {"family": self.family, **super().to_config()}

    def __post_init__(self):
        super().__post_init__()  # the family's checks
        self.build()             # and the population size's

    def build(self, n: int | None = None, scaling: ScalingRule | None = None) -> NetworkModel:
        """The network model of this section, at another population size or
        scaling when one is given; the section serves as its params. A model
        whose (N, d) states alone would not fit in physical memory is
        refused, where the platform tells its size."""
        model = NetworkModel(self, self.n if n is None else n, scaling or self.scaling)
        try:  # sysconf gives -1 where it cannot tell
            memory = max(os.sysconf("SC_PAGE_SIZE"), 0) * max(os.sysconf("SC_PHYS_PAGES"), 0)
        except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
            memory = 0
        states = 8 * model.n * model.n_populations * model.dim
        if 0 < memory < states:
            raise ModelDefinitionError(f"the states of {model.n} agents per population take "
                                       f"{states} bytes, more than the {memory} bytes of "
                                       "physical memory", "n")
        return model


@dataclass(frozen=True)
class ElectricalConfig(FhnConfig, FhnElectricalParams):
    """Electrical collapse benchmark (fig1 outputs)."""

    n: int = 300
    scaling: ScalingConfig = ScalingConfig(**asdict(FhnElectricalParams.default_scaling))
    x: CoordinateIC = CoordinateIC("normal", 1.0, 5.0)
    y: CoordinateIC = CoordinateIC("normal", 1.5, 5.0)

    def initial_conditions(self):
        """Initial law of each coordinate, per population."""
        return ((self.x, self.y),)


@dataclass(frozen=True)
class ChemicalConfig(FhnConfig, FhnChemicalParams):
    """Two-population conductance benchmark (fig2 outputs)."""

    n: int = 300
    scaling: ScalingConfig = ScalingConfig(**asdict(FhnChemicalParams.default_scaling))
    x: CoordinateIC = CoordinateIC("normal", 3.0, 1.0)
    y: CoordinateIC = CoordinateIC("normal", 2.0, 1.0)
    s_E: CoordinateIC = CoordinateIC("uniform", 0.0, 2.0)
    s_I: CoordinateIC = CoordinateIC("uniform", 0.0, 3.0)

    def initial_conditions(self):
        """Initial law of each coordinate, per population."""
        return ((self.x, self.y, self.s_E), (self.x, self.y, self.s_I))


NETWORK_FAMILIES = {cfg.family: cfg for cfg in (ElectricalConfig, ChemicalConfig)}


@dataclass(frozen=True)
class SeparableConfig(SeparableParams, _Section):
    """The separable 1D model of an epsilon sweep, which sets epsilon itself;
    the section is the model's parameters."""

    def build(self, epsilon: float) -> SeparableModel1D:
        return build_separable_1d(epsilon, self)


@dataclass(frozen=True, kw_only=True)
class SeparableRunConfig(SeparableConfig):
    """The separable 1D model of a single run, at a given epsilon."""

    epsilon: float

    def __post_init__(self):
        super().__post_init__()
        self.build(self.epsilon)


@dataclass(frozen=True)
class GridConfig(_Section):
    L: float = 8.0
    cells: int = 1024

    def __post_init__(self):
        try:
            self.build()
        except ModelDefinitionError as err:  # Grid1D calls the cell count M
            raise ModelDefinitionError(str(err), "cells" if err.key == "M" else err.key) from err

    def build(self) -> Grid1D:
        return Grid1D(self.L, self.cells)


@dataclass(frozen=True)
class PdeInitConfig(_Section):
    """Initial Gaussian of a Fokker-Planck run."""

    center: float = 1.0
    concentration: float = 1.0

    def __post_init__(self):
        check_concentration(self.concentration)


@dataclass(frozen=True)
class RecordConfig(RecordSpec, _Section):
    """A record section; it keeps 20 voltage traces unless told otherwise."""

    traces: int = 20


class EventConfig(PerturbationEvent):
    """A perturbation event section: its time and the factor of each
    conductance it scales."""

    def to_config(self):
        return {"t": self.t, "multipliers": dict(self.multipliers)}

    @classmethod
    def parse(cls, node: _Node) -> EventConfig:
        t = node.get("t", float)
        mults = _Node(node.get("multipliers", dict), node._at("multipliers"))
        factors = {name: mults.get(name, float) for name in sorted(mults.data)}
        node.close()
        return _construct(node, cls, t, factors)


@dataclass(frozen=True)
class SbarConfig(_Section):
    """Mean synaptic gates of the two populations."""

    E: float
    I: float

    def __post_init__(self):
        check_mean_gates(self.E, self.I)


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

    def __post_init__(self):
        check_run(self.model.build(), self.T, self.dt, self.events)


@dataclass(frozen=True)
class RescaledEarlySpec(_Section):
    model: FhnConfig
    gammas: tuple[float, ...]
    T_tilde: float
    dt_tilde: float
    record: RecordConfig = RecordConfig()

    command = "early"

    def __post_init__(self):
        if not self.gammas or not all(g > 0 for g in self.gammas):
            raise ModelDefinitionError("gammas must be a non-empty list of positive values",
                                       "gammas")
        # each gamma's run, as simulate_rescaled_early makes it
        for gamma in self.gammas:
            try:
                check_run(self.model.build(scaling=ScalingRule("constant", gamma)),
                          self.T_tilde / gamma, self.dt_tilde / gamma)
            except ModelDefinitionError as err:
                raise ModelDefinitionError(str(err), f"{err.key}_tilde") from err


@dataclass(frozen=True)
class PdeRunSpec(_Section):
    model: SeparableRunConfig
    T: float
    grid: GridConfig = GridConfig()
    init: PdeInitConfig = PdeInitConfig()
    snapshot_every: float | None = None

    command = "pde"

    def __post_init__(self):
        model, grid = self.model.build(self.model.epsilon), self.grid.build()
        fp_steps(model, grid, self.T, snapshot_every=self.snapshot_every)
        # the run's initial density, as harness._run_pde builds it
        try:
            gaussian_initial(grid, model.epsilon, self.init.concentration, self.init.center)
        except ModelDefinitionError as err:
            raise ModelDefinitionError(str(err), f"init.{err.key}") from err


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

    def __post_init__(self):
        check_epsilons(self.epsilons)
        check_horizon(self.T)


@dataclass(frozen=True)
class EpsilonSweepSpec(DoubleLimitPdeSpec):
    t0: float | None = None

    command = "pde"

    def __post_init__(self):
        super().__post_init__()
        # the bound checks read the snapshots at t >= t0, and t = 0 has no bound
        if self.t0 is not None and not 0 < self.t0 <= self.T:
            raise ModelDefinitionError("t0 must lie in (0, T]", "t0")


def network_cell_dt(model: NetworkModel, mode: str) -> float:
    """The step of a double-limit network cell: 0.8 of the step guard's
    bound, at most 1e-3. In rescaled-early mode the step is on the rescaled
    clock, where the interaction acts at order one."""
    gamma = 1.0 if mode == "rescaled-early" else model.gamma()
    gmax = float(np.max(np.abs(model.coupling)))
    return min(0.08 / (gamma * gmax), 1e-3) if gmax > 0 else 1e-3


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

    def __post_init__(self):
        if self.mode not in ("direct", "rescaled-early"):
            raise ModelDefinitionError(f"unknown mode {self.mode!r}", "mode")
        if not self.n_values or min(self.n_values) < 1:
            raise ModelDefinitionError("need one population size or more, each >= 1",
                                       "n_values")
        if not self.scalings:
            raise ModelDefinitionError("need one scaling or more", "scalings")
        # each cell's run, as harness._network_cell makes it; a rescaled-early
        # run is the original one over T / gamma with step dt / gamma
        for rule in self.scalings:
            for n in self.n_values:
                try:
                    model = self.model.build(n, rule)
                except ModelDefinitionError as err:
                    raise ModelDefinitionError(str(err), "n_values") from err
                dt = network_cell_dt(model, self.mode)
                scale = model.gamma() if self.mode == "rescaled-early" else 1.0
                try:
                    check_run(model, self.T / scale, dt / scale)
                except ModelDefinitionError as err:
                    # the step follows from the model, so the horizon is at fault
                    raise ModelDefinitionError(str(err), "T") from err


@dataclass(frozen=True)
class DoubleLimitSpec(_Section):
    network: DoubleLimitNetworkSpec | None = None
    pde: DoubleLimitPdeSpec | None = None

    command = "sweep"

    def __post_init__(self):
        # the section is the config's root
        if self.network is None and self.pde is None:
            raise ConfigError(MISSING_KEY, "network", "need a network and/or pde section")


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

    def __post_init__(self):
        if self.figure not in ("fig1", "fig2"):
            raise ModelDefinitionError(f"unknown figure {self.figure!r}", "figure")
        if self.figure == "fig2" and not isinstance(self.model, (ChemicalConfig, type(None))):
            raise ModelDefinitionError("fig2 needs the fhn-chemical family", "model.family")
        for run in self.runs():
            check_run(run["model"], run["T"], run["dt"], run["events"])

    def runs(self) -> list[dict]:
        """network.simulate's arguments but the seed, by keyword, for each
        run of the figure: fig1 steps one electrical network under a linear
        and a sqrt scaling, fig2 one chemical network whose excitatory
        conductances are scaled by 1.5 at T / 2."""
        if self.figure == "fig1":
            cfg = self.model if self.model is not None else ElectricalConfig()
            T = self.T if self.T is not None else 0.5
            dt = self.dt if self.dt is not None else 1e-4
            rec = RecordSpec(stride=max(1, int(round(T / dt / 2000))), traces=20,
                             snapshot_times=(0.0, 0.05, T))
            return [dict(model=cfg.build(scaling=rule), init=cfg.initial_conditions(), T=T,
                         dt=dt, recorder=rec, events=())
                    for rule in (ScalingRule("linear"), ScalingRule("sqrt"))]
        cfg = self.model if self.model is not None else ChemicalConfig()
        model = cfg.build()
        T = self.T if self.T is not None else 3.0
        gmax = max(float(np.max(np.abs(model.coupling))), 1e-12)
        dt = self.dt if self.dt is not None else 0.08 / (model.gamma() * gmax)
        return [dict(model=model, init=cfg.initial_conditions(), T=T, dt=dt,
                     recorder=RecordSpec(stride=max(1, int(round(T / dt / 2000))), traces=20),
                     events=(PerturbationEvent(T / 2, {"g_EE": 1.5, "g_EI": 1.5}),))]


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


def parse_config(text: str, seed: int | None = None) -> ExperimentSpec:
    """Parse a JSON experiment configuration in strict mode; a seed given
    here replaces the config's before the parse checks it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(TYPE_MISMATCH, "<root>", f"invalid JSON: {err}") from err
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    return parse_config_dict(data)
