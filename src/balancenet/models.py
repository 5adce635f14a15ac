"""Model definitions: population structure, coupling scalings, the two
concrete FitzHugh-Nagumo network families, the one-dimensional separable
interaction model, and grid-scan validation of its structural hypotheses.

Model objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class ModelDefinitionError(ValueError):
    """A model evaluated to a non-finite value or violated an invariant."""


# ---------------------------------------------------------------------------
# population structure and coupling scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """One population: its size, state dimension and noise amplitudes.

    sigma has shape (dim, channels); row i gives the loading of each
    independent Brownian channel onto state coordinate i.
    """

    label: str
    n: int
    dim: int
    sigma: np.ndarray

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "sigma", sig)
        if self.n < 1:
            raise ModelDefinitionError(f"population {self.label}: n must be >= 1")
        if self.dim < 1:
            raise ModelDefinitionError(f"population {self.label}: dim must be >= 1")
        if sig.shape[0] != self.dim:
            raise ModelDefinitionError(
                f"population {self.label}: sigma has {sig.shape[0]} rows, expected {self.dim}")
        if not np.isfinite(sig).all():
            raise ModelDefinitionError(f"population {self.label}: sigma must be finite")
        sig.setflags(write=False)


@dataclass(frozen=True)
class ScalingRule:
    """Coupling divergence rule gamma(n).

    kind is one of "linear" (gamma = n), "sqrt" (gamma = sqrt(n)),
    "scaled_linear" (gamma = c * n) or "constant" (gamma = c).
    """

    kind: str
    coefficient: float | None = None

    _KINDS = ("linear", "sqrt", "scaled_linear", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ModelDefinitionError(f"unknown scaling kind {self.kind!r}")
        if self.kind in ("scaled_linear", "constant"):
            if self.coefficient is None or not self.coefficient > 0:
                raise ModelDefinitionError(f"scaling {self.kind!r} needs a positive coefficient")
        elif self.coefficient is not None:
            raise ModelDefinitionError(f"scaling {self.kind!r} takes no coefficient")


def scaling_gamma(rule: ScalingRule, n: int) -> float:
    """Evaluate gamma(n) for a scaling rule; positive for all n >= 1."""
    if n < 1:
        raise ModelDefinitionError("n must be >= 1")
    if rule.kind == "linear":
        return float(n)
    if rule.kind == "sqrt":
        return math.sqrt(n)
    if rule.kind == "scaled_linear":
        return rule.coefficient * n
    return float(rule.coefficient)


# ---------------------------------------------------------------------------
# network models
# ---------------------------------------------------------------------------

ELECTRICAL = "fhn-electrical"
CHEMICAL = "fhn-chemical"
CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class SourceMaps:
    """How source agents act in an affine family: a source agent at y in
    population q acts on a target at x through b(x, y) = (alpha_q(y) x_0 +
    beta_q(y)) e_0, with alpha_q(y) = alpha0[q] + alpha1[q] . y and beta_q
    likewise linear in y. Averaged over the populations, the network input
    on a target of population p is A_p x_0 + B_p, with A_p = sum_q c_pq
    alpha_q(ybar_q) and B_p = sum_q c_pq beta_q(ybar_q) read off the mean
    states ybar_q: its zero -B_p / A_p is the balance voltage, A_p the
    rate of approach to it.
    """

    alpha0: np.ndarray  # (P,)
    alpha1: np.ndarray  # (P, d)
    beta0: np.ndarray   # (P,)
    beta1: np.ndarray   # (P, d)

    def __call__(self, ybar):
        """(alpha_q, beta_q) for all q at the states ybar, (P, d) or (d,)."""
        ybar = np.asarray(ybar, dtype=float)
        return (self.alpha0 + (self.alpha1 * ybar).sum(axis=-1),
                self.beta0 + (self.beta1 * ybar).sum(axis=-1))


def affine_coefficients(coupling: np.ndarray, maps: SourceMaps, ybar) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the un-gamma-scaled network input for target-major
    couplings and population mean states ybar (P, d)."""
    alpha, beta = maps(ybar)
    return coupling @ alpha, coupling @ beta


def conductance_source_maps(erev) -> SourceMaps:
    """Conductance coupling through the synaptic gate y_2 of the source:
    b(x, y) = (x_0 - E_q) y_2 e_0, so alpha_q(y) = y_2, beta_q(y) = -E_q y_2."""
    gate = np.zeros((len(erev), 3))
    gate[:, 2] = 1.0
    return SourceMaps(np.zeros(len(erev)), gate, np.zeros(len(erev)),
                      -np.asarray(erev, dtype=float)[:, None] * gate)


class _FhnFamily:
    """A built-in family, described once by its parameters: the constants of
    its FitzHugh-Nagumo drift, its coupling matrix and source maps, and the
    conductances a perturbation may scale. Subclasses also name their
    populations, state dimension, default scaling and the _kernels key
    their runs are traced under."""

    def drift(self, X: np.ndarray) -> np.ndarray:
        """Drift of an (n, 2) block of states (x, y), or (n, 3) with the
        synaptic gate s: x' = f(x) - y for the cubic f, y' = a (b x - y + c)
        and s' = gain (1 - s) / (1 + exp((theta - x) inv_slope)) - s inv_tau."""
        f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = self.fhn_constants()
        x = X[:, 0]
        y = X[:, 1]
        cols = [((f3 * x + f2) * x + f1) * x + f0 - y, a * (b * x - y + c)]
        if X.shape[1] > 2:
            s = X[:, 2]
            gate = gain / (1.0 + np.exp((theta - x) * inv_slope))
            cols.append(gate * (1.0 - s) - s * inv_tau)
        return np.stack(cols, axis=1)


@dataclass(frozen=True, eq=False)
class FhnElectricalParams(_FhnFamily):
    """Gap-junction family: one population of FitzHugh-Nagumo agents coupled
    through voltage differences, b(x, y) = (y_0 - x_0) e_0, so alpha = -1 and
    beta(y) = y_0. Cubic drift coefficients (highest degree first), recovery
    parameters and the coupling strength g."""

    f_coeffs: tuple[float, float, float, float]
    a: float
    b: float
    g: float
    sigma: float

    family = ELECTRICAL
    labels = ("neurons",)
    dim = 2
    conductances = ("g",)
    default_scaling = ScalingRule("linear")
    kernel = "electrical_chunk"

    def __post_init__(self):
        if not self.f_coeffs[0] < 0:
            raise ModelDefinitionError("leading cubic coefficient must be negative")
        if not self.a > 0:
            raise ModelDefinitionError("recovery timescale ratio a must be positive")
        if self.g < 0:
            raise ModelDefinitionError("coupling strength g must be nonnegative")
        if not np.isfinite(self.f_coeffs).all() or not np.isfinite([self.a, self.b, self.g, self.sigma]).all():
            raise ModelDefinitionError("parameters must be finite")

    def coupling(self) -> np.ndarray:
        return np.array([[self.g]])

    def source_maps(self) -> SourceMaps:
        return SourceMaps(alpha0=np.array([-1.0]), alpha1=np.zeros((1, 2)),
                          beta0=np.zeros(1), beta1=np.array([[1.0, 0.0]]))

    def fhn_constants(self) -> tuple:
        return (*self.f_coeffs, self.a, self.b, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class FhnChemicalParams(_FhnFamily):
    """Conductance family: populations E and I of FitzHugh-Nagumo agents with
    a synaptic gate s (see conductance_source_maps).

    g_* are nonnegative conductance magnitudes; signs are applied at build
    time (excitatory source columns positive, inhibitory negative). The gate
    opens at rate alpha(x) = alpha_gain / (1 + exp(-(x - alpha_threshold) / alpha_slope))
    and closes at rate 1/tau.
    """

    f_coeffs: tuple[float, float, float, float]
    a: float
    b: float
    c: float
    tau: float
    alpha_gain: float
    alpha_threshold: float
    alpha_slope: float
    E_E: float
    E_I: float
    g_EE: float
    g_EI: float
    g_IE: float
    g_II: float
    sigma: float

    family = CHEMICAL
    labels = ("E", "I")
    dim = 3
    conductances = ("g_EE", "g_EI", "g_IE", "g_II")
    default_scaling = ScalingRule("scaled_linear", 0.2)  # gamma = N/10 at N = 2n
    kernel = "chemical_chunk"

    def __post_init__(self):
        if not self.tau > 0:
            raise ModelDefinitionError("synaptic decay time tau must be positive")
        if not self.alpha_slope > 0:
            raise ModelDefinitionError("sigmoid slope must be positive")
        if self.E_E == self.E_I:
            raise ModelDefinitionError("reversal potentials must differ")
        for name in self.conductances:
            if getattr(self, name) < 0:
                raise ModelDefinitionError(f"conductance magnitude {name} must be nonnegative")
        if not self.a > 0:
            raise ModelDefinitionError("recovery timescale ratio a must be positive")

    @property
    def erev(self) -> np.ndarray:
        return np.array([self.E_E, self.E_I])

    def coupling(self) -> np.ndarray:
        # source-major signed conductances, transposed to target-major
        return np.array([[self.g_EE, -self.g_IE], [self.g_EI, -self.g_II]])

    def source_maps(self) -> SourceMaps:
        return conductance_source_maps(self.erev)

    def fhn_constants(self) -> tuple:
        return (*self.f_coeffs, self.a, self.b, self.c, 1.0 / self.tau,
                self.alpha_gain, self.alpha_threshold, 1.0 / self.alpha_slope)


FAMILIES = {fam.family: fam for fam in (FhnElectricalParams, FhnChemicalParams)}


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Interacting-agent network: per-population drift, pairwise interaction,
    signed coupling matrix and the divergence rule of the coupling.

    coupling[p, q] multiplies the population-q average of b_pq(x_i, .) in
    the drift of agents in population p (target-major orientation); ghat
    holds the same couplings source-major, the orientation used by the
    balance formulas. A built-in family is described by its params (see
    _FhnFamily); a custom model gives drift_fns and interaction_fn instead.
    """

    populations: tuple[PopulationSpec, ...]
    family: str
    coupling: np.ndarray
    scaling: ScalingRule
    params: object | None = None
    drift_fns: tuple[Callable, ...] | None = None
    interaction_fn: Callable | None = None

    def __post_init__(self):
        npop = len(self.populations)
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (npop, npop):
            raise ModelDefinitionError(
                f"coupling must be {npop}x{npop}, got {coupling.shape}")
        if not np.isfinite(coupling).all():
            raise ModelDefinitionError("coupling entries must be finite")
        coupling.setflags(write=False)
        object.__setattr__(self, "coupling", coupling)
        if self.family == CUSTOM and (self.drift_fns is None or self.interaction_fn is None):
            raise ModelDefinitionError("custom models need drift_fns and interaction_fn")

    @property
    def n_populations(self) -> int:
        return len(self.populations)

    @property
    def offsets(self) -> np.ndarray:
        """Row offsets of the populations in the stacked state, (P + 1,)."""
        return np.concatenate([[0], np.cumsum([p.n for p in self.populations])]).astype(np.int64)

    @property
    def affine(self) -> bool:
        """A built-in family, whose network input is affine in the target
        voltage (see SourceMaps); custom interactions are summed pairwise."""
        return self.family in FAMILIES

    @property
    def ghat(self) -> np.ndarray:
        return self.coupling.T

    @property
    def erev(self) -> np.ndarray:
        return self.params.erev

    @cached_property
    def source_maps(self) -> SourceMaps:
        return self.params.source_maps()

    def affine_coefficients(self, ybar) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the network input at population mean states ybar (P, d)."""
        return affine_coefficients(self.coupling, self.source_maps, ybar)

    def gamma(self) -> float:
        """gamma(n) evaluated at the per-population size."""
        return scaling_gamma(self.scaling, self.populations[0].n)

    def eval_drift(self, p: int, x: np.ndarray) -> np.ndarray:
        """Intrinsic drift f_p(x) for a single state vector."""
        x = np.asarray(x, dtype=float)
        if self.affine:
            out = self.params.drift(x[None, :])[0]
        else:
            out = np.asarray(self.drift_fns[p](x), dtype=float)
        if not np.isfinite(out).all():
            raise ModelDefinitionError(f"drift of population {p} is non-finite at x={x!r}")
        return out

    def eval_interaction(self, p: int, q: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pairwise interaction b_pq(x, y) of a source agent at y in
        population q acting on a target at x in population p."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.affine:
            alpha, beta = self.source_maps(y)
            out = np.zeros_like(x)
            out[0] = alpha[q] * x[0] + beta[q]
        else:
            out = np.asarray(self.interaction_fn(p, q, x, y), dtype=float)
        if not np.isfinite(out).all():
            raise ModelDefinitionError(
                f"interaction ({p}, {q}) is non-finite at x={x!r}, y={y!r}")
        return out


def eval_drift(model: NetworkModel, p: int, x) -> np.ndarray:
    return model.eval_drift(p, np.asarray(x, dtype=float))


def eval_interaction(model: NetworkModel, p: int, q: int, x, y) -> np.ndarray:
    return model.eval_interaction(p, q, np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def build_fhn_network(params: _FhnFamily, n: int = 300,
                      scaling: ScalingRule | None = None) -> NetworkModel:
    """n agents in each population of the family params describes, with
    noise on the voltage; scaling defaults to the family's."""
    sigma = np.zeros((params.dim, 1))
    sigma[0, 0] = params.sigma
    return NetworkModel(
        populations=tuple(PopulationSpec(label, n, params.dim, sigma) for label in params.labels),
        family=params.family,
        coupling=params.coupling(),
        scaling=scaling or params.default_scaling,
        params=params,
    )


# one population of gap-junction coupled agents; two conductance-coupled
# populations (E, I)
build_fhn_electrical = build_fhn_chemical = build_fhn_network


# ---------------------------------------------------------------------------
# one-dimensional separable model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeparableModel1D:
    """Single population, d = 1, interaction b(x, y) = alpha(x) beta(y) with
    beta bounded below by beta_floor > 0; epsilon is the inverse coupling."""

    f: Callable
    alpha: Callable
    beta: Callable
    sigma: float
    epsilon: float
    beta_floor: float
    beta_ceil: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.sigma > 0:
            raise ModelDefinitionError("sigma must be positive")
        if not 0 < self.epsilon <= 1:
            raise ModelDefinitionError("epsilon must lie in (0, 1]")
        if not self.beta_floor > 0:
            raise ModelDefinitionError("beta must be bounded below by a positive constant")

    def with_epsilon(self, epsilon: float) -> "SeparableModel1D":
        return SeparableModel1D(self.f, self.alpha, self.beta, self.sigma, epsilon,
                                self.beta_floor, self.beta_ceil, dict(self.params))


def build_separable_1d(epsilon: float, E: float = 0.0, beta0: float = 1.0,
                       beta1: float = 1.0, theta_s: float = 3.0, k_s: float = 1.0,
                       sigma: float = 3.0) -> SeparableModel1D:
    """Default experimental model: f(x) = x - x^3 (so f' <= 1 - x^2),
    alpha(x) = x - E (unit slopes at both infinities), and a bounded
    sigmoid beta(y) = beta0 + beta1 / (1 + exp(-(y - theta_s)/k_s))."""
    if not beta0 > 0:
        raise ModelDefinitionError("beta0 must be positive")
    if beta1 < 0:
        raise ModelDefinitionError("beta1 must be nonnegative")
    if not k_s > 0:
        raise ModelDefinitionError("k_s must be positive")

    def f(x):
        return x - x ** 3

    def alpha(x):
        return x - E

    def beta(y):
        return beta0 + beta1 / (1.0 + np.exp(-(np.asarray(y, dtype=float) - theta_s) / k_s))

    return SeparableModel1D(
        f=f, alpha=alpha, beta=beta, sigma=sigma, epsilon=epsilon,
        beta_floor=beta0, beta_ceil=beta0 + beta1,
        params=dict(E=E, beta0=beta0, beta1=beta1, theta_s=theta_s, k_s=k_s, sigma=sigma),
    )


# ---------------------------------------------------------------------------
# hypothesis validation by grid scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    satisfied: bool
    constants: tuple[tuple[str, float], ...]
    witness: float | None = None


@dataclass(frozen=True)
class HypothesisReport:
    domain: tuple[float, float]
    grid_points: int
    checks: tuple[HypothesisCheck, ...]

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _d1(fn, xs, h):
    return (fn(xs + h) - fn(xs - h)) / (2 * h)


def _d2(fn, xs, h):
    return (fn(xs + h) - 2 * fn(xs) + fn(xs - h)) / h ** 2


def _d4(fn, xs, h):
    return (fn(xs - 2 * h) - 4 * fn(xs - h) + 6 * fn(xs) - 4 * fn(xs + h) + fn(xs + 2 * h)) / h ** 4


def validate_hypotheses(model: SeparableModel1D, L: float, grid: int = 512) -> HypothesisReport:
    """Scan the structural hypotheses of the separable model on [-L, L].

    Violations are reported, not raised; the report is a deterministic
    function of (model, L, grid).
    """
    if not L > 0:
        raise ModelDefinitionError("L must be positive")
    if grid < 64:
        raise ModelDefinitionError("grid must have at least 64 points")
    xs = np.linspace(-L, L, grid)
    h = min(1e-4, (xs[1] - xs[0]) / 4)
    checks = []

    # f'(x) <= C0 (1 - x^2): fit the smallest feasible C0 on the grid
    fp = _d1(model.f, xs, h)
    w = 1.0 - xs ** 2
    band = 1e-3
    inner = w > band
    outer = w < -band
    lo = np.max(fp[inner] / w[inner]) if inner.any() else 0.0
    hi = np.min(fp[outer] / w[outer]) if outer.any() else np.inf
    edge_ok = bool(np.all(fp[np.abs(w) <= band] <= 1e-6))
    c0 = max(lo, 1e-12)
    excess = fp - c0 * w
    drift_ok = bool(lo <= hi) and edge_ok and bool(np.all(excess <= 1e-8 * max(1.0, abs(c0))))
    witness = None if drift_ok else float(xs[int(np.argmax(excess))])
    checks.append(HypothesisCheck(
        "drift-confinement", drift_ok,
        (("C0", float(c0)), ("upper_feasible", float(hi))), witness))

    # alpha' tends to positive constants at both ends: report endpoint slopes
    c1 = float(_d1(model.alpha, np.array([xs[0]]), h)[0])
    c2 = float(_d1(model.alpha, np.array([xs[-1]]), h)[0])
    checks.append(HypothesisCheck(
        "interaction-slope-limits", c1 > 0 and c2 > 0,
        (("C1", c1), ("C2", c2)),
        None if (c1 > 0 and c2 > 0) else float(xs[0] if c1 <= 0 else xs[-1])))

    # beta positive and bounded on the scan: K^-1 = min beta
    bv = model.beta(xs)
    bmin = float(np.min(bv))
    bmax = float(np.max(bv))
    checks.append(HypothesisCheck(
        "interaction-kernel-bounds", bmin > 0,
        (("K_inv", bmin), ("beta_max", bmax)),
        None if bmin > 0 else float(xs[int(np.argmin(bv))])))

    # uniform positivity of beta'(y) alpha(y), needed for the BV bound
    # on the interaction series
    bp = _d1(model.beta, xs, h)
    av = model.alpha(xs)
    g2 = bp * av
    g2min = float(np.min(g2))
    checks.append(HypothesisCheck(
        "bv-coupling-positivity", g2min > 0,
        (("C_inv", g2min),),
        None if g2min > 0 else float(xs[int(np.argmin(g2))])))

    # sign condition on beta'' alpha^2 + beta' alpha' alpha (same bound)
    bpp = _d2(model.beta, xs, h)
    ap = _d1(model.alpha, xs, h)
    g2p = bpp * av ** 2 + bp * ap * av
    g2pmin = float(np.min(g2p))
    checks.append(HypothesisCheck(
        "bv-coupling-convexity", g2pmin >= -1e-9,
        (("min_value", g2pmin),),
        None if g2pmin >= -1e-9 else float(xs[int(np.argmin(g2p))])))

    # growth bounds: fitted ratios (always finite on a truncated scan)
    h4 = max(2e-2, h)
    fpp = _d2(model.f, xs, h)
    app = _d2(model.alpha, xs, h)
    b4 = _d4(model.beta, xs, h4)
    checks.append(HypothesisCheck(
        "growth-bounds", True,
        (("C_f2", float(np.max(np.abs(fpp) / (1 + np.abs(xs))))),
         ("C_a2", float(np.max(np.abs(app) / (1 + xs ** 2)))),
         ("C_b4", float(np.max(np.abs(b4) / (1 + xs ** 4))))),
        None))

    return HypothesisReport(domain=(-L, L), grid_points=grid, checks=tuple(checks))
