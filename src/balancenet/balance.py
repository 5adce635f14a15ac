"""Balance-manifold computations: net interaction input of an empirical
measure, the two-population balance voltages and their stability rates, the
frozen-measure early-time ODE, and distance-to-balance diagnostics.

All functions are pure over immutable inputs. The signed conductance matrix
ghat is source-major: ghat[q, beta] couples source population q onto target
beta, with excitatory rows positive and inhibitory rows negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import NetworkModel, affine_coefficients, conductance_source_maps
from .network import NetworkState

DEGENERACY_RTOL = 1e-10


class DegenerateDenominatorError(ArithmeticError):
    """The balance-voltage denominator vanishes for a population."""


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted per-population samples in R^d."""

    samples: tuple[np.ndarray, ...]

    def __post_init__(self):
        for p, arr in enumerate(self.samples):
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"population {p}: samples must be a nonempty (n, d) array")

    @classmethod
    def from_state(cls, state: NetworkState) -> "EmpiricalMeasure":
        blocks = tuple(state.block(p).copy()
                       for p in range(len(state.offsets) - 1))
        return cls(blocks)

    def mean_coord(self, p: int, k: int) -> float:
        return float(self.samples[p][:, k].mean())

    def means(self) -> np.ndarray:
        """Per-population mean states, (P, d)."""
        return np.stack([arr.mean(axis=0) for arr in self.samples])


@dataclass(frozen=True)
class PopulationStability:
    stable: bool
    rate: float
    marginal: bool = False


@dataclass(frozen=True)
class BalanceReport:
    """Balance voltages, per-population stability and the denominators the
    voltages were computed from."""

    voltages: tuple[float, ...]
    stability: tuple[PopulationStability, ...]
    denominators: tuple[float, ...]
    sbar: tuple[float, ...] = ()


def net_input(model: NetworkModel, p: int, x: np.ndarray,
              measure: EmpiricalMeasure) -> np.ndarray:
    """sum_q g_pq * mean_y b_pq(x, y) against the empirical measure
    (the un-gamma-scaled drift contribution of the network)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    if model.affine:
        A, B = model.affine_coefficients(measure.means())
        out[0] = A[p] * x[0] + B[p]
        return out
    for q in range(model.n_populations):
        ys = measure.samples[q]
        acc = np.zeros_like(out)
        for y in ys:
            acc += model.eval_interaction(p, q, x, y)
        out += model.coupling[p, q] * acc / ys.shape[0]
    return out


def _chemical_coefficients(ghat, E_E, E_I, sbar_E, sbar_I):
    """(A, B) of the two-population conductance model at mean synaptic
    values (sbar_E, sbar_I)."""
    ybar = np.zeros((2, 3))
    ybar[:, 2] = sbar_E, sbar_I
    return affine_coefficients(np.asarray(ghat, dtype=float).T,
                               conductance_source_maps((E_E, E_I)), ybar)


def chemical_balance_voltages(ghat: np.ndarray, E_E: float, E_I: float,
                              sbar_E: float, sbar_I: float) -> tuple[float, float]:
    """Unique balance voltages x*_beta = -B_beta / A_beta of the
    two-population conductance model,

        x*_beta = (ghat[E,b] E_E sbar_E + ghat[I,b] E_I sbar_I)
                  / (ghat[E,b] sbar_E + ghat[I,b] sbar_I),

    raising DegenerateDenominatorError when a denominator vanishes
    (relative to the |ghat|*sbar scale).
    """
    A, B = _chemical_coefficients(ghat, E_E, E_I, sbar_E, sbar_I)
    scale = np.abs(np.asarray(ghat, dtype=float)).T @ np.abs([sbar_E, sbar_I])
    out = []
    for b in range(2):
        if abs(A[b]) <= DEGENERACY_RTOL * scale[b] or scale[b] == 0.0:
            raise DegenerateDenominatorError(
                f"population {'EI'[b]}: denominator {A[b]:.3e} below tolerance")
        out.append(float(-B[b] / A[b]))
    return out[0], out[1]


def chemical_stability(ghat: np.ndarray, sbar_E: float, sbar_I: float
                       ) -> tuple[PopulationStability, PopulationStability]:
    """Linear rates A_beta of the early-time voltage ODE and their sign
    verdicts; a population is stable when its rate is negative, marginal at
    zero."""
    if sbar_E < 0 or sbar_I < 0:
        raise ValueError("mean synaptic values must be nonnegative")
    # A does not depend on the reversal potentials
    A, _ = _chemical_coefficients(ghat, 0.0, 0.0, sbar_E, sbar_I)
    out = [PopulationStability(stable=rate < 0.0, rate=rate, marginal=rate == 0.0)
           for rate in map(float, A)]
    return out[0], out[1]


def chemical_balance_report(ghat: np.ndarray, E_E: float, E_I: float,
                            sbar_E: float, sbar_I: float) -> BalanceReport:
    voltages = chemical_balance_voltages(ghat, E_E, E_I, sbar_E, sbar_I)
    stability = chemical_stability(ghat, sbar_E, sbar_I)
    return BalanceReport(voltages=voltages, stability=stability,
                         denominators=tuple(s.rate for s in stability),
                         sbar=(sbar_E, sbar_I))


def electrical_balance_projection(measure: EmpiricalMeasure) -> tuple[float, float]:
    """Mean voltage of the measure and its dispersion (population-divisor
    standard deviation), the distance from the Dirac voltage structure."""
    v = measure.samples[0][:, 0]
    return float(v.mean()), float(v.std())


@dataclass
class EarlyOdeResult:
    times: np.ndarray
    traj: np.ndarray  # (S, P, d)
    status: str
    blowup_time: float | None = None


def _measure_rates(model: NetworkModel, measure: EmpiricalMeasure) -> float | None:
    """Largest linear contraction/expansion rate max_p |A_p| of the
    frozen-measure ODE, used to pick the default step."""
    if not model.affine:
        return None
    A, _ = model.affine_coefficients(measure.means())
    return float(np.max(np.abs(A)))


def integrate_early_ode(model: NetworkModel, frozen_measure: EmpiricalMeasure,
                        x0: np.ndarray, T: float, dt: float | None = None) -> EarlyOdeResult:
    """Classical fixed-step RK4 for dx_p/dt = sum_q g_pq int b_pq(x_p, y) dmu_q
    with the measure frozen. x0 has shape (P, d); divergence is reported via
    a BLOWUP status, not raised.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    P = model.n_populations
    if x0.shape[0] != P:
        raise ValueError(f"x0 must supply one point per population, got {x0.shape}")
    if dt is None:
        r = _measure_rates(model, frozen_measure)
        dt = 1e-3 * min(1.0, 1.0 / r) if r else 1e-3
    n_steps = max(1, int(round(T / dt)))

    if model.affine:
        # the measure is frozen, and with it the affine coefficients
        A, B = model.affine_coefficients(frozen_measure.means())

        def rhs(xs: np.ndarray) -> np.ndarray:
            out = np.zeros_like(xs)
            out[:, 0] = A * xs[:, 0] + B
            return out
    else:
        def rhs(xs: np.ndarray) -> np.ndarray:
            return np.stack([net_input(model, p, xs[p], frozen_measure) for p in range(P)])

    times = np.empty(n_steps + 1)
    traj = np.empty((n_steps + 1, P, x0.shape[1]))
    times[0] = 0.0
    traj[0] = x0
    xs = x0.copy()
    status = "COMPLETED"
    blow = None
    for s in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(xs)
            k2 = rhs(xs + 0.5 * dt * k1)
            k3 = rhs(xs + 0.5 * dt * k2)
            k4 = rhs(xs + dt * k3)
            xs = xs + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        times[s] = s * dt
        traj[s] = xs
        if not np.isfinite(xs).all():
            status = "BLOWUP"
            blow = float(times[s])
            times = times[:s + 1]
            traj = traj[:s + 1]
            break
    return EarlyOdeResult(times=times, traj=traj, status=status, blowup_time=blow)


def distance_to_balance(state: NetworkState, model: NetworkModel) -> float:
    """Max over agents of the Euclidean norm of the un-gamma-scaled net
    input; exactly zero on the balance manifold."""
    measure = EmpiricalMeasure.from_state(state)
    P = model.n_populations
    if model.affine:
        A, B = model.affine_coefficients(measure.means())
        return max(float(np.abs(A[p] * state.block(p)[:, 0] + B[p]).max()) for p in range(P))
    worst = 0.0
    for p in range(P):
        for x in state.block(p):
            worst = max(worst, float(np.linalg.norm(net_input(model, p, x, measure))))
    return worst
