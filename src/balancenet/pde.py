"""Mean-field Fokker-Planck solver for the one-dimensional separable model:

    d/dt mu = -d/dx[(f(x) - I(t)/eps * alpha(x)) mu] + sigma^2/2 d2/dx2 mu,
    I(t) = integral of beta against mu(t),

on a truncated uniform grid with no-flux boundaries. The scheme is an
explicit conservative finite-volume update (first-order upwind advection,
centered diffusion) under a CFL bound, so mass is conserved to round-off by
flux telescoping and values stay nonnegative. I(t) enters explicitly at its
start-of-step value and is recorded every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import NEGATIVITY_FLOOR, active
from .models import ModelDefinitionError, SeparableModel1D

CFL_NUMBER = 0.9
MAX_STEPS = 20_000_000
# the default snapshot cadence of a pde-run and an epsilon sweep: every
# T / SNAPSHOTS_PER_RUN
SNAPSHOTS_PER_RUN = 60


class CflError(ModelDefinitionError):
    """The requested configuration cannot satisfy the CFL policy; key names
    the value at fault ("dt", or "T" for the step budget)."""


class NegativityError(ArithmeticError):
    """The density dipped below the tolerated negativity floor."""


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform cell-centered grid on [-L, L] with M cells."""

    L: float
    M: int

    def __post_init__(self):
        if not self.L > 0:
            raise ModelDefinitionError("L must be positive", "L")
        if self.M < 64:
            raise ModelDefinitionError("at least 64 cells required", "M")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.M) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return -self.L + np.arange(self.M + 1) * self.dx


def gaussian_initial(grid: Grid1D, epsilon: float, concentration: float = 1.0,
                     center: float = 0.0) -> np.ndarray:
    """mu0 proportional to exp(-A (x - x0)^2 / eps), normalized on the grid,
    as an (M,) array; a concentration A that is not positive, or a profile
    that vanishes on every cell, is rejected with ModelDefinitionError.

    This family satisfies the concentration hypothesis on initial data
    (eps log mu0 <= -A x^2 + B uniformly in eps) by construction.
    """
    if not concentration > 0:
        raise ModelDefinitionError("concentration must be positive", "concentration")
    x = grid.centers
    v = np.exp(-concentration * (x - center) ** 2 / epsilon)
    total = v.sum() * grid.dx
    if total <= 0:
        raise ModelDefinitionError("initial profile vanishes on the grid", "center")
    return v / total


@dataclass(eq=False)
class FpRun:
    """Snapshots and the dense interaction series of one solver run; step k
    starts at k * dt, and epsilon is the model's."""

    model: SeparableModel1D
    grid: Grid1D
    dt: float
    times: np.ndarray           # (S,)
    densities: np.ndarray       # (S, M)
    mass: np.ndarray            # (S,)
    i_values: np.ndarray        # (n_steps,), at each step's start
    meta: dict = field(default_factory=dict)

    def i_at(self, t):
        """I at time t, or at each time of an array: the value of the step
        whose start is nearest to it."""
        idx = np.clip(np.rint(np.divide(t, self.dt)), 0, len(self.i_values) - 1)
        return self.i_values[idx.astype(int)]


def cfl_timestep(model: SeparableModel1D, grid: Grid1D, cfl: float = CFL_NUMBER) -> float:
    """Largest stable step for the worst-case advection speed; I(t) is
    bounded by max beta on the grid because mass stays one."""
    faces = grid.faces
    f_face = np.asarray(model.f(faces), dtype=float)
    a_face = np.asarray(model.alpha(faces), dtype=float)
    beta_max = float(np.max(model.beta(grid.centers)))
    vmax = float(np.max(np.abs(f_face) + (beta_max / model.epsilon) * np.abs(a_face)))
    denom = vmax / grid.dx + model.sigma ** 2 / grid.dx ** 2
    return cfl / denom


def fp_steps(model: SeparableModel1D, grid: Grid1D, T: float, dt: float | None = None,
             cfl: float = CFL_NUMBER, snapshot_every: float | None = None) -> tuple[float, int]:
    """(step, number of steps) of solve_fp_1d's march to T on grid: dt
    defaults to the CFL-limited step and is shortened to divide T. Raises
    ModelDefinitionError for a T or a snapshot_every that is not positive
    (and finite) and CflError for a dt beyond the CFL step or more than
    MAX_STEPS steps, so a config is rejected at parse time by the same
    checks."""
    if not T > 0:
        raise ModelDefinitionError("T must be positive", "T")
    if snapshot_every is not None and not 0 < snapshot_every < math.inf:
        raise ModelDefinitionError("snapshot_every must be positive and finite", "snapshot_every")
    dt_max = cfl_timestep(model, grid, cfl)
    if dt is None:
        dt = dt_max
    elif dt > dt_max * (1 + 1e-12):
        raise CflError(f"dt={dt:.3g} exceeds the CFL-stable step {dt_max:.3g}", "dt")
    n_steps = int(math.ceil(T / dt - 1e-12))
    if n_steps > MAX_STEPS:
        raise CflError(f"{n_steps} steps exceed the step budget {MAX_STEPS}", "T")
    return T / n_steps, n_steps


def solve_fp_1d(model: SeparableModel1D, grid: Grid1D, mu0: np.ndarray, T: float,
                dt: float | None = None, snapshot_every: float | None = None,
                cfl: float = CFL_NUMBER) -> FpRun:
    """March the density mu0, an (M,) array of unit mass on grid, to time T
    recording snapshots and the I(t) series.

    A mu0 of another shape or mass, or with a value below -1e-12 or a
    non-finite one, is rejected with ValueError. dt defaults to the
    CFL-limited step; an explicit dt violating the CFL policy, or a
    configuration needing more than MAX_STEPS steps, is rejected with
    CflError, and a snapshot_every that is not positive with
    ModelDefinitionError. A density value below -1e-12, or a non-finite
    one, aborts with NegativityError at the step that produced it (it cannot
    happen under the CFL bound; it indicates a broken model definition).
    """
    dt, n_steps = fp_steps(model, grid, T, dt, cfl, snapshot_every)
    mu = np.array(mu0, dtype=float)
    if mu.shape != (grid.M,):
        raise ValueError(f"initial density must have shape ({grid.M},), not {mu.shape}")
    if not np.all((mu >= NEGATIVITY_FLOOR) & (mu < math.inf)):
        raise ValueError("initial density must be finite and at least -1e-12")
    if not abs(mu.sum() * grid.dx - 1.0) <= 1e-8:
        raise ValueError("initial density must have unit mass")

    if snapshot_every is None:
        k_snap = n_steps
    else:
        k_snap = max(1, int(round(snapshot_every / dt)))
    snap_steps = list(range(0, n_steps, k_snap)) + [n_steps]

    faces = grid.faces
    f_face = np.asarray(model.f(faces), dtype=float)
    a_face = np.asarray(model.alpha(faces), dtype=float)
    beta_w = np.asarray(model.beta(grid.centers), dtype=float) * grid.dx
    flux = np.zeros(grid.M + 1)
    i_values = np.empty(n_steps)
    kernel = active("fp_chunk")
    half_sig2 = 0.5 * model.sigma ** 2
    inv_eps = 1.0 / model.epsilon

    densities = np.empty((len(snap_steps), grid.M))
    densities[0] = mu
    for si in range(1, len(snap_steps)):
        s0, s1 = snap_steps[si - 1], snap_steps[si]
        # the kernel stops at the first step that leaves a fault, with its
        # density, and returns the steps before it
        done = kernel(mu, flux, f_face, a_face, beta_w, inv_eps, half_sig2,
                      grid.dx, dt, s1 - s0, i_values[s0:s1])
        if done < s1 - s0:
            t, j = (s0 + done + 1) * dt, int(np.argmin(mu))
            if mu[j] < NEGATIVITY_FLOOR:
                raise NegativityError(
                    f"density reached {mu[j]:.3e} at x={grid.centers[j]:.4g}, t={t:.6g}")
            raise NegativityError(f"density became non-finite at t={t:.6g}")
        densities[si] = mu

    return FpRun(model=model, grid=grid, dt=dt, times=np.array(snap_steps) * dt,
                 densities=densities, mass=densities.sum(axis=-1) * grid.dx,
                 i_values=i_values, meta={"n_steps": n_steps, "T": T})
