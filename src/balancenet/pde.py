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

from ._kernels import active
from .models import SeparableModel1D

CFL_NUMBER = 0.9
MAX_STEPS = 20_000_000


class CflError(ValueError):
    """The requested configuration cannot satisfy the CFL policy."""


class NegativityError(ArithmeticError):
    """The density dipped below the tolerated negativity floor."""


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform cell-centered grid on [-L, L] with M cells."""

    L: float
    M: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("L must be positive")
        if self.M < 64:
            raise ValueError("at least 64 cells required")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.M) + 0.5) * self.dx

    @property
    def faces(self) -> np.ndarray:
        return -self.L + np.arange(self.M + 1) * self.dx


@dataclass(eq=False)
class DensityField:
    """Probability density on a grid with its inverse-coupling epsilon."""

    grid: Grid1D
    values: np.ndarray
    epsilon: float
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.M,):
            raise ValueError("values must match the grid")

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx)


def gaussian_initial(grid: Grid1D, epsilon: float, concentration: float = 1.0,
                     center: float = 0.0) -> DensityField:
    """mu0 proportional to exp(-A (x - x0)^2 / eps), normalized on the grid.

    This family satisfies the concentration hypothesis on initial data
    (eps log mu0 <= -A x^2 + B uniformly in eps) by construction.
    """
    if not concentration > 0:
        raise ValueError("concentration must be positive")
    x = grid.centers
    v = np.exp(-concentration * (x - center) ** 2 / epsilon)
    total = v.sum() * grid.dx
    if total <= 0:
        raise ValueError("initial profile vanishes on the grid")
    return DensityField(grid=grid, values=v / total, epsilon=epsilon)


def density_from_values(grid: Grid1D, values, epsilon: float, t: float = 0.0,
                        normalize: bool = True) -> DensityField:
    v = np.asarray(values, dtype=float).copy()
    if (v < 0).any():
        raise ValueError("density values must be nonnegative")
    if normalize:
        v /= v.sum() * grid.dx
    d = DensityField(grid=grid, values=v, epsilon=epsilon, t=t)
    if abs(d.mass - 1.0) > 1e-8:
        raise ValueError(f"density mass {d.mass} is not 1 within 1e-8")
    return d


@dataclass(eq=False)
class FpRun:
    """Snapshots and the dense interaction series of one solver run."""

    model: SeparableModel1D
    grid: Grid1D
    epsilon: float
    dt: float
    times: np.ndarray           # (S,)
    densities: np.ndarray       # (S, M)
    mass: np.ndarray            # (S,)
    i_times: np.ndarray         # (n_steps,), start-of-step
    i_values: np.ndarray        # (n_steps,)
    status: str = "COMPLETED"
    meta: dict = field(default_factory=dict)
    # floor ratio -> Hopf-Cole field of each snapshot (hopfcole.snapshot_fields)
    transforms: dict = field(default_factory=dict, repr=False)

    def density_at(self, idx: int) -> DensityField:
        return DensityField(grid=self.grid, values=self.densities[idx].copy(),
                            epsilon=self.epsilon, t=float(self.times[idx]))

    def final_density(self) -> DensityField:
        return self.density_at(len(self.times) - 1)

    def i_at(self, t: float) -> float:
        idx = min(len(self.i_values) - 1, max(0, int(round(t / self.dt))))
        return float(self.i_values[idx])


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


def solve_fp_1d(model: SeparableModel1D, mu0: DensityField, T: float,
                dt: float | None = None, snapshot_every: float | None = None,
                cfl: float = CFL_NUMBER) -> FpRun:
    """March the density to time T recording snapshots and the I(t) series.

    dt defaults to the CFL-limited step; an explicit dt violating the CFL
    policy, or a configuration needing more than MAX_STEPS steps, is
    rejected with CflError. A density value below -1e-12 aborts with
    NegativityError (it cannot happen under the CFL bound; it indicates a
    broken model definition).
    """
    if not T > 0:
        raise ValueError("T must be positive")
    grid = mu0.grid
    if abs(mu0.mass - 1.0) > 1e-8:
        raise ValueError("initial density must have unit mass")
    dt_max = cfl_timestep(model, grid, cfl)
    if dt is None:
        dt = dt_max
    elif dt > dt_max * (1 + 1e-12):
        raise CflError(f"dt={dt:.3g} exceeds the CFL-stable step {dt_max:.3g}")
    n_steps = int(math.ceil(T / dt - 1e-12))
    if n_steps > MAX_STEPS:
        raise CflError(f"{n_steps} steps exceed the step budget {MAX_STEPS}")
    dt = T / n_steps

    if snapshot_every is None:
        k_snap = n_steps
    else:
        k_snap = max(1, int(round(snapshot_every / dt)))
    snap_steps = list(range(0, n_steps, k_snap)) + [n_steps]

    faces = grid.faces
    f_face = np.asarray(model.f(faces), dtype=float)
    a_face = np.asarray(model.alpha(faces), dtype=float)
    beta_w = np.asarray(model.beta(grid.centers), dtype=float) * grid.dx
    mu = mu0.values.copy()
    flux = np.zeros(grid.M + 1)
    i_values = np.empty(n_steps)
    kernel = active("fp_chunk")
    half_sig2 = 0.5 * model.sigma ** 2
    inv_eps = 1.0 / model.epsilon

    S = len(snap_steps)
    times = np.empty(S)
    densities = np.empty((S, grid.M))
    mass = np.empty(S)

    def check_and_record(si: int, step: int):
        t = step * dt
        mn = float(mu.min())
        if mn < -1e-12:
            j = int(np.argmin(mu))
            raise NegativityError(
                f"density reached {mn:.3e} at x={grid.centers[j]:.4g}, t={t:.6g}")
        if not np.isfinite(mu).all():
            raise NegativityError(f"density became non-finite at t={t:.6g}")
        times[si] = t
        densities[si] = mu
        mass[si] = mu.sum() * grid.dx

    check_and_record(0, 0)
    for si in range(1, S):
        s0, s1 = snap_steps[si - 1], snap_steps[si]
        kernel(mu, flux, f_face, a_face, beta_w, inv_eps, half_sig2,
               grid.dx, dt, s1 - s0, i_values[s0:s1])
        check_and_record(si, s1)

    return FpRun(
        model=model, grid=grid, epsilon=model.epsilon, dt=dt,
        times=times, densities=densities, mass=mass,
        i_times=np.arange(n_steps) * dt, i_values=i_values,
        meta={"n_steps": n_steps, "T": T},
    )
