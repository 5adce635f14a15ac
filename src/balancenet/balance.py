"""Balance-manifold computations: the two-population balance voltages and
their stability rates, the frozen-measure early-time ODE, and
distance-to-balance diagnostics. A measure enters only through its
population means, which fix the affine network input (see
models.SourceMaps).

All functions are pure over immutable inputs. The signed conductance matrix
ghat is source-major: ghat[q, beta] couples source population q onto target
beta, with excitatory rows positive and inhibitory rows negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import c_twin, rk4_affine
from .models import (ModelDefinitionError, NetworkModel, affine_coefficients,
                     conductance_source_maps)

DEGENERACY_RTOL = 1e-10


class DegenerateDenominatorError(ArithmeticError):
    """The balance-voltage denominator vanishes for a population."""


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


def check_mean_gates(sbar_E: float, sbar_I: float) -> None:
    """The condition chemical_stability puts on the mean synaptic values:
    both nonnegative. The error's key is the population, "E" or "I"."""
    for key, sbar in (("E", sbar_E), ("I", sbar_I)):
        if sbar < 0:
            raise ModelDefinitionError("mean synaptic values must be nonnegative", key)


def chemical_stability(ghat: np.ndarray, sbar_E: float, sbar_I: float
                       ) -> tuple[PopulationStability, PopulationStability]:
    """Linear rates A_beta of the early-time voltage ODE and their sign
    verdicts; a population is stable when its rate is negative, marginal at
    zero."""
    check_mean_gates(sbar_E, sbar_I)
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
                         denominators=tuple(s.rate for s in stability))


@dataclass
class EarlyOdeResult:
    times: np.ndarray
    traj: np.ndarray  # (S, P, d)
    status: str
    blowup_time: float | None = None


def integrate_early_ode(model: NetworkModel, frozen_means: np.ndarray,
                        x0: np.ndarray, T: float, dt: float | None = None) -> EarlyOdeResult:
    """Classical fixed-step RK4 for dx_p/dt = sum_q g_pq int b_pq(x_p, y) dmu_q
    with the measure frozen. The frozen measure enters only through its
    population means frozen_means, (P, d) (model.population_means of its
    states); x0 has shape (P, d). Divergence is reported via a BLOWUP
    status, not raised.

    The right-hand side moves only the voltage, as x_p' = A_p x_p + B_p
    with constants (A, B) read off frozen_means, so each population is
    stepped as one scalar ODE (``_kernels.rk4_affine``, in C when its twin
    is built, else on Python floats); the default step is
    1e-3 / max(1, max_p |A_p|).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    P, d = model.n_populations, model.dim
    if x0.shape[0] != P:
        raise ValueError(f"x0 must supply one point per population, got {x0.shape}")
    if np.shape(frozen_means) != (P, d):
        raise ValueError(f"frozen_means must be one mean state per population, shape "
                         f"{(P, d)}, got {np.shape(frozen_means)}")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T}")
    # the measure is frozen, and with it the affine coefficients
    A, B = model.affine_coefficients(frozen_means)
    if dt is None:
        r = float(np.max(np.abs(A)))
        dt = 1e-3 * min(1.0, 1.0 / r) if r else 1e-3
    elif not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    dt = float(dt)
    n_steps = max(1, int(round(T / dt)))

    traj = np.empty((n_steps + 1, P, x0.shape[1]))
    traj[0] = x0
    # the other coordinates have zero slope, so each step adds 0.0 to
    # them, and one that is not finite makes the first step the last
    traj[1:, :, 1:] = x0[:, 1:] + 0.0
    last = n_steps if np.isfinite(x0[:, 1:]).all() else 1
    step = c_twin("rk4_affine") or rk4_affine
    for p in range(P):
        last = step(float(A[p]), float(B[p]), float(x0[p, 0]), dt, traj[:, p, 0], last)

    times = np.arange(last + 1) * dt
    traj = traj[:last + 1]
    if np.isfinite(traj[last]).all():
        return EarlyOdeResult(times=times, traj=traj, status="COMPLETED")
    return EarlyOdeResult(times=times, traj=traj, status="BLOWUP", blowup_time=float(times[last]))


def distance_to_balance(states: np.ndarray, model: NetworkModel) -> float:
    """Max over agents of the Euclidean norm of the un-gamma-scaled net
    input at the (N, d) states; exactly zero on the balance manifold."""
    A, B = model.affine_coefficients(model.population_means(states))
    return max(float(np.abs(A[p] * rows[:, 0] + B[p]).max())
               for p, rows in enumerate(model.population_rows(states)))
