"""Balance-manifold computations: the balance voltages, the frozen-measure
early-time ODE, and distance-to-balance diagnostics. A measure enters only
through its population means, which fix the affine network input
A_p x_0 + B_p (see models.SourceMaps): its zero -B_p / A_p is the balance
voltage of population p, and A_p the rate of approach to it, stable when
negative and marginal at zero.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import c_twin, rk4_affine
from .models import NetworkModel

DEGENERACY_RTOL = 1e-10


class DegenerateDenominatorError(ArithmeticError):
    """The balance-voltage denominator vanishes for a population."""


def balance_voltages(model: NetworkModel, means: np.ndarray) -> np.ndarray:
    """Balance voltages -B_p / A_p of the network input at the (P, d)
    population means, (P,), raising DegenerateDenominatorError for the first
    population whose rate A_p = sum_q c_pq alpha_q vanishes relative to its
    scale sum_q |c_pq alpha_q| (a zero scale makes a zero rate)."""
    A, B = model.affine_coefficients(means)
    alpha, _ = model.source_maps(means)
    scale = np.abs(model.coupling) @ np.abs(alpha)
    for p, label in enumerate(model.labels):
        if abs(A[p]) <= DEGENERACY_RTOL * scale[p]:
            raise DegenerateDenominatorError(
                f"population {label}: denominator {A[p]:.3e} below tolerance")
    return -B / A


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
