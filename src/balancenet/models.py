"""Model definitions: coupling scalings, the two concrete FitzHugh-Nagumo
network families, the network model they define with a population size and
a scaling, and the one-dimensional separable interaction model. A family is
described once, by its parameters: its drift constants, its target-major
coupling matrix and the source maps that make its network input affine
(SourceMaps), from which NetworkModel.affine_coefficients reads the input at
any population means.

Model objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np


class ModelDefinitionError(ValueError):
    """A model definition violated an invariant; key names the field at
    fault when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# ---------------------------------------------------------------------------
# coupling scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRule:
    """Coupling divergence rule gamma(n).

    kind is one of "linear" (gamma = n), "sqrt" (gamma = sqrt(n)),
    "scaled_linear" (gamma = c * n) or "constant" (gamma = c).
    """

    kind: str = "linear"
    coefficient: float | None = None

    _KINDS = ("linear", "sqrt", "scaled_linear", "constant")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ModelDefinitionError(f"unknown scaling kind {self.kind!r}", "kind")
        if self.kind in ("scaled_linear", "constant"):
            if self.coefficient is None or not self.coefficient > 0:
                raise ModelDefinitionError(f"scaling {self.kind!r} needs a positive coefficient",
                                           "coefficient")
        elif self.coefficient is not None:
            raise ModelDefinitionError(f"scaling {self.kind!r} takes no coefficient", "coefficient")


def scaling_gamma(rule: ScalingRule, n: int) -> float:
    """Evaluate gamma(n) for a scaling rule; positive for all n >= 1."""
    if n < 1:
        raise ModelDefinitionError("n must be >= 1", "n")
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
    their runs are traced under. The parameters' defaults are those of the
    family's figure benchmark (fig1 electrical, fig2 chemical).

    fhn_constants() gives (f3, f2, f1, f0, a, b, c, inv_tau, gain, theta,
    inv_slope) of the drift x' = f(x) - y for the cubic
    f(x) = ((f3 x + f2) x + f1) x + f0, y' = a (b x - y + c) and, with the
    synaptic gate s, s' = gain (1 - s) / (1 + exp((theta - x) inv_slope))
    - s inv_tau."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, tuple)) and not np.isfinite(value).all():
                raise ModelDefinitionError(f"parameter {f.name} must be finite", f.name)
        if not self.a > 0:
            raise ModelDefinitionError("recovery timescale ratio a must be positive", "a")
        if not self.sigma >= 0:
            raise ModelDefinitionError("noise level sigma must be nonnegative", "sigma")
        for name in self.conductances:
            if not getattr(self, name) >= 0:
                raise ModelDefinitionError(
                    f"conductance magnitude {name} must be nonnegative", name)


@dataclass(frozen=True, eq=False)
class FhnElectricalParams(_FhnFamily):
    """Gap-junction family: one population of FitzHugh-Nagumo agents coupled
    through voltage differences, b(x, y) = (y_0 - x_0) e_0, so alpha = -1 and
    beta(y) = y_0. Cubic drift coefficients (highest degree first), recovery
    parameters and the coupling strength g."""

    f_coeffs: tuple[float, float, float, float] = (-1.0, 5.0, -4.0, 4.0)
    a: float = 0.005
    b: float = 6.0
    g: float = 1.0
    sigma: float = 1.0

    family = ELECTRICAL
    labels = ("neurons",)
    dim = 2
    conductances = ("g",)
    default_scaling = ScalingRule("linear")
    kernel = "electrical_chunk"

    def __post_init__(self):
        if not self.f_coeffs[0] < 0:
            raise ModelDefinitionError("leading cubic coefficient must be negative", "f_coeffs")
        super().__post_init__()

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

    g_XY is the nonnegative conductance magnitude from source population X
    onto target Y; coupling() applies the signs (excitatory source columns
    positive, inhibitory negative).
    The gate opens at rate alpha(x) = alpha_gain / (1 + exp(-(x -
    alpha_threshold) / alpha_slope)) and closes at rate 1/tau. The default
    reversal potentials, tau and activation sigmoid make the balanced state
    self-sustaining with a small clamping offset O(|f(x*)|/gamma) (see
    README).
    """

    f_coeffs: tuple[float, float, float, float] = (-1.0, 1.3, -0.3, 0.0)
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

    family = CHEMICAL
    labels = ("E", "I")
    dim = 3
    conductances = ("g_EE", "g_EI", "g_IE", "g_II")
    default_scaling = ScalingRule("scaled_linear", 0.2)  # gamma = N/10 at N = 2n
    kernel = "chemical_chunk"

    def __post_init__(self):
        if not self.tau > 0:
            raise ModelDefinitionError("synaptic decay time tau must be positive", "tau")
        if not self.alpha_slope > 0:
            raise ModelDefinitionError("sigmoid slope must be positive", "alpha_slope")
        if self.E_E == self.E_I:
            raise ModelDefinitionError("reversal potentials must differ")
        super().__post_init__()

    def coupling(self) -> np.ndarray:
        return np.array([[self.g_EE, -self.g_IE], [self.g_EI, -self.g_II]])

    def source_maps(self) -> SourceMaps:
        return conductance_source_maps((self.E_E, self.E_I))

    def fhn_constants(self) -> tuple:
        return (*self.f_coeffs, self.a, self.b, self.c, 1.0 / self.tau,
                self.alpha_gain, self.alpha_threshold, 1.0 / self.alpha_slope)


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Interacting-agent network: n agents in each population of the family
    params describes, coupled with the divergence gamma(n) of the scaling
    rule (the family's default scaling when none is given).

    coupling[p, q] multiplies the population-q average of b_pq(x_i, .) in
    the drift of agents in population p. The stacked (N, d) state holds the
    populations as P equal blocks, population p in rows p n to (p + 1) n - 1
    (see population_rows), and every agent carries noise on its voltage only.
    """

    params: _FhnFamily
    n: int
    scaling: ScalingRule | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelDefinitionError("n must be >= 1", "n")
        if self.scaling is None:
            object.__setattr__(self, "scaling", self.params.default_scaling)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.params.labels

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def n_populations(self) -> int:
        return len(self.params.labels)

    def population_rows(self, states: np.ndarray) -> list[np.ndarray]:
        """The P row blocks of the stacked (N, d) states, population p's n
        rows p n to (p + 1) n - 1, as views."""
        n = self.n
        return [states[p * n:(p + 1) * n] for p in range(self.n_populations)]

    def population_means(self, states: np.ndarray) -> np.ndarray:
        """Mean state of each population's rows of the stacked (N, d)
        states, (P, d); each block is averaged in place, as a view."""
        return np.stack([rows.mean(axis=0) for rows in self.population_rows(states)])

    @cached_property
    def coupling(self) -> np.ndarray:
        coupling = self.params.coupling()
        coupling.setflags(write=False)
        return coupling

    @cached_property
    def source_maps(self) -> SourceMaps:
        return self.params.source_maps()

    def affine_coefficients(self, ybar) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the un-gamma-scaled network input at population mean
        states ybar (P, d)."""
        alpha, beta = self.source_maps(ybar)
        return self.coupling @ alpha, self.coupling @ beta

    def gamma(self) -> float:
        """gamma(n) evaluated at the per-population size."""
        return scaling_gamma(self.scaling, self.n)


# ---------------------------------------------------------------------------
# one-dimensional separable model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableParams:
    """Parameters of the default separable model (see build_separable_1d):
    the zero E of alpha, the floor beta0 and height beta1 of the sigmoid
    beta, its centre theta_s and width k_s, and the noise sigma."""

    E: float = 0.0
    beta0: float = 1.0
    beta1: float = 1.0
    theta_s: float = 3.0
    k_s: float = 1.0
    sigma: float = 3.0

    def __post_init__(self):
        if not self.beta0 > 0:
            raise ModelDefinitionError("beta0 must be positive", "beta0")
        if self.beta1 < 0:
            raise ModelDefinitionError("beta1 must be nonnegative", "beta1")
        if not self.k_s > 0:
            raise ModelDefinitionError("k_s must be positive", "k_s")
        if not self.sigma > 0:
            raise ModelDefinitionError("sigma must be positive", "sigma")


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

    def __post_init__(self):
        if not self.sigma > 0:
            raise ModelDefinitionError("sigma must be positive", "sigma")
        if not 0 < self.epsilon <= 1:
            raise ModelDefinitionError("epsilon must lie in (0, 1]", "epsilon")
        if not self.beta_floor > 0:
            raise ModelDefinitionError("beta must be bounded below by a positive constant")


def build_separable_1d(epsilon: float, params: SeparableParams = SeparableParams()
                       ) -> SeparableModel1D:
    """Default experimental model: f(x) = x - x^3 (so f' <= 1 - x^2),
    alpha(x) = x - E (unit slopes at both infinities), and a bounded
    sigmoid beta(y) = beta0 + beta1 / (1 + exp(-(y - theta_s)/k_s))."""
    E, beta0, beta1 = params.E, params.beta0, params.beta1
    theta_s, k_s = params.theta_s, params.k_s

    def f(x):
        return x - x ** 3

    def alpha(x):
        return x - E

    def beta(y):
        return beta0 + beta1 / (1.0 + np.exp(-(np.asarray(y, dtype=float) - theta_s) / k_s))

    return SeparableModel1D(
        f=f, alpha=alpha, beta=beta, sigma=params.sigma, epsilon=epsilon,
        beta_floor=beta0)
