"""Concentration diagnostics built on the log transform phi = eps*log(mu):
support geometry, the limiting Hamiltonian residual, and the numerical
counterparts of the a-priori bounds (quadratic envelope, gradient bound of
w = sqrt(2F^2 - phi), moment bound, BV bound on the interaction series),
assembled into a cross-epsilon convergence report.

Fitted constants are diagnostics, not the existential constants of the
theory: each check fits them on the coarsest-epsilon run (plus a small
stated slack) and verifies that the same values certify every finer run,
which is the uniformity-in-epsilon content of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import SeparableModel1D
from .pde import DensityField, FpRun, Grid1D, gaussian_initial, solve_fp_1d

FLOOR_RATIO = 1e-15
CORE_RATIO = 1e-2
WIDTH_RATIO = 1e-3
FIT_SLACK = 1.05
# TV(I_eps) converges upward as eps shrinks (the equilibrium interaction
# moves further from its initial value), so the line certificate needs
# headroom for the family limit beyond the fitted members
BV_SLACK = 1.10


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class HopfColeField:
    """phi = eps*log(mu) where mu exceeds the support floor; w is
    sqrt(2F^2 - phi) with 2F^2 = 2(1 + max(0, sup phi)) so that the root
    argument stays positive on the mask."""

    grid: Grid1D
    epsilon: float
    phi: np.ndarray       # (M,), NaN off-mask
    mask: np.ndarray      # (M,) bool
    F: float

    @property
    def sup_phi(self) -> float:
        return float(np.max(self.phi[self.mask]))

    @property
    def w(self) -> np.ndarray:
        out = np.full_like(self.phi, np.nan)
        out[self.mask] = np.sqrt(2.0 * self.F ** 2 - self.phi[self.mask])
        return out


def hopf_cole(density: DensityField, floor_ratio: float = FLOOR_RATIO) -> HopfColeField:
    """Log-transform a density, masking cells below floor_ratio * max."""
    v = density.values
    mx = float(v.max())
    if mx <= 0:
        raise ValueError("cannot transform an all-zero density")
    mask = v > floor_ratio * mx
    phi = np.full(v.shape, np.nan)
    phi[mask] = density.epsilon * np.log(v[mask])
    sup = float(np.max(phi[mask]))
    F = math.sqrt(1.0 + max(0.0, sup))
    return HopfColeField(grid=density.grid, epsilon=density.epsilon,
                         phi=phi, mask=mask, F=F)


def snapshot_fields(run: FpRun, floor_ratio: float = FLOOR_RATIO) -> list[HopfColeField]:
    """The transform of every snapshot of a run, computed once per floor
    ratio and kept on the run for the checks that follow."""
    if floor_ratio not in run.transforms:
        run.transforms[floor_ratio] = [hopf_cole(run.density_at(i), floor_ratio)
                                       for i in range(len(run.times))]
    return run.transforms[floor_ratio]


def support_width(density: DensityField, threshold_ratio: float = WIDTH_RATIO) -> float:
    """Length of the smallest interval of cells carrying at least
    threshold_ratio of the peak density."""
    v = density.values
    mx = float(v.max())
    if mx <= 0:
        raise ValueError("density is identically zero")
    idx = np.nonzero(v >= threshold_ratio * mx)[0]
    return float((idx[-1] - idx[0] + 1) * density.grid.dx)


def _masked_gradient(phi: np.ndarray, mask: np.ndarray, dx: float):
    """Centered differences inside the mask, one-sided at mask edges.

    Returns (gradient, interior) where interior marks cells whose stencil
    stayed inside the mask; sup-norms should restrict to interior.
    """
    left = np.zeros_like(mask)
    left[1:] = mask[:-1]
    right = np.zeros_like(mask)
    right[:-1] = mask[1:]
    interior = mask & left & right
    grad = np.full_like(phi, np.nan)
    j = np.nonzero(interior)[0]
    grad[j] = (phi[j + 1] - phi[j - 1]) / (2 * dx)
    j = np.nonzero(mask & right & ~left)[0]
    grad[j] = (phi[j + 1] - phi[j]) / dx
    j = np.nonzero(mask & left & ~right)[0]
    grad[j] = (phi[j] - phi[j - 1]) / dx
    return grad, interior


def hamiltonian_residual(phi_field: HopfColeField, big_i: float,
                         model: SeparableModel1D) -> tuple[np.ndarray, float]:
    """Residual of the limiting Hamilton-Jacobi relation,
    R(x) = -alpha(x) I dphi - sigma^2/2 (dphi)^2, and its sup-norm over the
    support core (cells within a factor 100 of the peak)."""
    grad, interior = _masked_gradient(phi_field.phi, phi_field.mask, phi_field.grid.dx)
    x = phi_field.grid.centers
    res = np.full_like(grad, np.nan)
    sel = interior
    res[sel] = (-np.asarray(model.alpha(x[sel])) * big_i * grad[sel]
                - 0.5 * model.sigma ** 2 * grad[sel] ** 2)
    core = sel & (phi_field.phi >= phi_field.sup_phi - phi_field.epsilon * math.log(1.0 / CORE_RATIO))
    if not core.any():
        raise ValueError("support core is empty")
    return res, float(np.max(np.abs(res[core])))


# ---------------------------------------------------------------------------
# a-priori bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentBoundReport:
    order: int
    sup_moment: float
    k0: float
    c_star: float
    satisfied: bool
    moment_series: tuple[float, ...]


def constructive_moment_constant(model: SeparableModel1D, grid: Grid1D, k: int) -> float:
    """Grid supremum of 2 y^(2k-1) f(y) + sigma^2 (2k-1) y^(2k-2) + y^(2k),
    combined with the linear-growth constants of alpha, exactly the constant
    assembled in the decay argument for the 2k-th moment."""
    y = grid.centers
    expr = (2 * y ** (2 * k - 1) * np.asarray(model.f(y))
            + model.sigma ** 2 * (2 * k - 1) * y ** (2 * k - 2)
            + y ** (2 * k))
    c_prime = float(np.max(expr))
    a = np.asarray(model.alpha(y), dtype=float)
    if np.max(np.abs(a)) == 0.0:
        return c_prime
    split = grid.L / 2
    outer = np.abs(y) >= split
    ratio = (y[outer] ** (2 * k - 1) * a[outer]) / (y[outer] ** (2 * k))
    c1 = float(np.min(ratio))
    if c1 <= 0:
        # interaction term has no definite sign; only the drift decay remains
        return c_prime
    c2 = float(min(0.0, np.min(y ** (2 * k - 1) * a - c1 * y ** (2 * k))))
    return max(c_prime, -c2 / c1)


def check_moment_bound(run: FpRun, k: int, k0: float | None = None) -> MomentBoundReport:
    y2k = run.grid.centers ** (2 * k)
    series = tuple(float((d * y2k).sum() * run.grid.dx) for d in run.densities)
    if k0 is None:
        k0 = series[0]
    c_star = constructive_moment_constant(run.model, run.grid, k)
    bound = max(k0, c_star)
    sup_m = max(series)
    return MomentBoundReport(order=2 * k, sup_moment=sup_m, k0=k0, c_star=c_star,
                             satisfied=sup_m <= bound * (1 + 1e-9), moment_series=series)


@dataclass(frozen=True)
class BvReport:
    tv: float
    c_prime: float
    c_dblprime: float
    times: tuple[float, ...]
    prefix_tv: tuple[float, ...]


def total_variation(values: np.ndarray) -> float:
    return float(np.abs(np.diff(values)).sum())


def check_bv_interaction(i_times: np.ndarray, i_values: np.ndarray,
                         points: int = 2001) -> BvReport:
    """Prefix total variation of the interaction series on a uniform
    comparison cadence, with an affine-in-time majorant fitted above it."""
    n = len(i_values)
    sel = np.unique(np.round(np.linspace(0, n - 1, min(points, n))).astype(int))
    t = i_times[sel]
    v = i_values[sel]
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(v)))])
    half = len(t) // 2
    denom = t[-1] - t[half]
    c2 = max(0.0, (prefix[-1] - prefix[half]) / denom) if denom > 0 else 0.0
    c1 = float(np.max(prefix - c2 * t))
    return BvReport(tv=float(prefix[-1]), c_prime=max(0.0, c1), c_dblprime=c2,
                    times=tuple(t), prefix_tv=tuple(prefix))


def bv_line_covers(report: BvReport, c_prime: float, c_dblprime: float) -> bool:
    t = np.asarray(report.times)
    v = np.asarray(report.prefix_tv)
    return bool(np.all(v <= c_prime + c_dblprime * t + 1e-12))


@dataclass(frozen=True)
class EnvelopeFit:
    a: float
    b: float
    d: float
    e: float


def _alpha_antiderivative(model: SeparableModel1D, grid: Grid1D) -> np.ndarray:
    """Lambda(x) = integral of alpha from 0 to x on cell centers
    (trapezoid, exact for affine alpha)."""
    a = np.asarray(model.alpha(grid.centers), dtype=float)
    x = grid.centers
    prim = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(x))])
    return prim - np.interp(0.0, x, prim)


def _envelope_excess(run: FpRun, a_const: float, lam: np.ndarray,
                     floor_ratio: float) -> np.ndarray:
    """Per-snapshot max over the mask of phi + A' I(t) Lambda(x); the
    envelope holds iff this is dominated by D' t + E'."""
    out = np.empty(len(run.times))
    for i, f in enumerate(snapshot_fields(run, floor_ratio)):
        big_i = run.i_at(run.times[i])
        vals = f.phi[f.mask] + a_const * big_i * lam[f.mask]
        out[i] = float(np.max(vals))
    return out


def fit_supersolution_envelope(runs: FpRun | list[FpRun],
                               floor_ratio: float = FLOOR_RATIO,
                               n_candidates: int = 16) -> EnvelopeFit:
    """Fit phi <= -A' I(t) Lambda(x) - (eps/2) B' x^2 + D' t + E' with the
    minimal B' = 0, scanning A' on a grid inside (0, 2/sigma^2) and keeping
    the candidate with the smallest late-time intercept.

    Several runs may be supplied (typically all but the finest epsilon of a
    sweep): the intercept E' then covers the family's initial profiles, the
    counterpart of the family-level initial-condition constants the bound
    depends on.
    """
    if isinstance(runs, FpRun):
        runs = [runs]
    lam = {id(r): _alpha_antiderivative(r.model, r.grid) for r in runs}
    amax = 2.0 / runs[0].model.sigma ** 2
    horizon = max(float(r.times[-1]) for r in runs)
    best = None
    for j in range(1, n_candidates + 1):
        a_const = amax * j / (n_candidates + 1)
        excesses = [_envelope_excess(r, a_const, lam[id(r)], floor_ratio) for r in runs]
        e = max(0.0, max(float(m[0]) for m in excesses))
        d = 0.0
        for r, m in zip(runs, excesses):
            later = r.times[1:]
            if len(later):
                d = max(d, float(np.max((m[1:] - e) / later)))
        d = max(0.0, d)
        score = e + d * horizon
        if best is None or score < best[0]:
            best = (score, EnvelopeFit(a=a_const, b=0.0, d=d, e=e))
    fit = best[1]
    # stated slack so the fitted runs certify with margin
    return EnvelopeFit(a=fit.a, b=fit.b, d=fit.d * FIT_SLACK, e=fit.e * FIT_SLACK + 1e-9)


def envelope_covers(run: FpRun, fit: EnvelopeFit,
                    floor_ratio: float = FLOOR_RATIO) -> bool:
    lam = _alpha_antiderivative(run.model, run.grid)
    x2 = run.grid.centers ** 2
    for i, f in enumerate(snapshot_fields(run, floor_ratio)):
        big_i = run.i_at(run.times[i])
        bound = (-fit.a * big_i * lam - 0.5 * run.epsilon * fit.b * x2
                 + fit.d * run.times[i] + fit.e)
        if np.any(f.phi[f.mask] > bound[f.mask] + 1e-12):
            return False
    return True


@dataclass(frozen=True)
class EnvelopeReport:
    fit: EnvelopeFit
    satisfied: bool


def check_supersolution_envelope(run: FpRun, floor_ratio: float = FLOOR_RATIO,
                                 fit: EnvelopeFit | None = None) -> EnvelopeReport:
    """Fit (or reuse) envelope constants and verify them against a run; pass
    the constants fitted on a coarser epsilon to test uniformity."""
    if fit is None:
        fit = fit_supersolution_envelope(run, floor_ratio)
    return EnvelopeReport(fit=fit, satisfied=envelope_covers(run, fit, floor_ratio))


@dataclass(frozen=True)
class WGradientReport:
    theta: float
    t0: float
    per_snapshot: tuple[float, ...]


def check_w_gradient_bound(run: FpRun, t0: float,
                           floor_ratio: float = FLOOR_RATIO) -> WGradientReport:
    """theta = sup over t >= t0 and mask-interior x of
    |dw/dx| - sqrt(1/(t sigma^2)), with a single F for the trajectory."""
    fields = snapshot_fields(run, floor_ratio)
    sup_phi = max(f.sup_phi for f in fields)
    F2 = 2.0 * (1.0 + max(0.0, sup_phi))
    sig2 = run.model.sigma ** 2
    per = []
    theta = -math.inf
    for i, f in enumerate(fields):
        t = float(run.times[i])
        if t < t0:
            continue
        w = np.full_like(f.phi, np.nan)
        w[f.mask] = np.sqrt(F2 - f.phi[f.mask])
        grad, interior = _masked_gradient(w, f.mask, run.grid.dx)
        if not interior.any():
            continue
        excess = float(np.max(np.abs(grad[interior]))) - math.sqrt(1.0 / (t * sig2))
        per.append(excess)
        theta = max(theta, excess)
    if not per:
        raise ValueError(f"no snapshots at or after t0={t0}")
    return WGradientReport(theta=theta, t0=t0, per_snapshot=tuple(per))


# ---------------------------------------------------------------------------
# the epsilon sweep
# ---------------------------------------------------------------------------


@dataclass
class EpsilonDiagnostics:
    epsilon: float
    status: str = "COMPLETED"
    error: str | None = None
    sup_phi_final: float = math.nan
    support_width_final: float = math.nan
    i_final: float = math.nan
    residual_sup_final: float = math.nan
    bv: BvReport | None = None
    theta: float = math.nan
    moment: MomentBoundReport | None = None
    run: FpRun | None = None


@dataclass
class ConvergenceReport:
    diagnostics: list[EpsilonDiagnostics]
    trends: dict = field(default_factory=dict)
    envelope_fit: EnvelopeFit | None = None
    bv_constants: tuple[float, float] | None = None
    verdicts: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def diag(self, epsilon: float) -> EpsilonDiagnostics:
        for d in self.diagnostics:
            if d.epsilon == epsilon:
                return d
        raise KeyError(epsilon)

    def headline(self) -> dict:
        return {
            "epsilons": [d.epsilon for d in self.diagnostics],
            "sup_phi": [d.sup_phi_final for d in self.diagnostics],
            "support_width": [d.support_width_final for d in self.diagnostics],
            "interaction_final": [d.i_final for d in self.diagnostics],
            "residual_sup": [d.residual_sup_final for d in self.diagnostics],
            "theta": [d.theta for d in self.diagnostics],
            "trends": dict(self.trends),
            "verdicts": dict(self.verdicts),
        }


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def epsilon_sweep(base_model: SeparableModel1D, epsilons, grid: Grid1D, T: float,
                  init_concentration: float = 1.0, init_center: float = 1.0,
                  snapshot_every: float | None = None, t0: float | None = None,
                  moment_k: int = 2, keep_runs: bool = False) -> ConvergenceReport:
    """Run the solver per epsilon and assemble the concentration trend suite
    and the uniform-in-epsilon bound certificates.

    epsilons must be strictly decreasing inside (0, 1]. Failures of a single
    epsilon are recorded and the sweep continues.
    """
    eps = [float(e) for e in epsilons]
    if not eps or not _strictly_decreasing(eps) or not all(0 < e <= 1 for e in eps):
        raise ValueError("epsilons must be strictly decreasing within (0, 1]")
    if snapshot_every is None:
        snapshot_every = T / 60
    if t0 is None:
        t0 = T / 10

    diags: list[EpsilonDiagnostics] = []
    for e in eps:
        d = EpsilonDiagnostics(epsilon=e)
        try:
            model = base_model.with_epsilon(e)
            mu0 = gaussian_initial(grid, e, init_concentration, init_center)
            run = solve_fp_1d(model, mu0, T, snapshot_every=snapshot_every)
            final = run.final_density()
            f = hopf_cole(final)
            d.sup_phi_final = f.sup_phi
            d.support_width_final = support_width(final)
            d.i_final = float(run.i_values[-1])
            _, d.residual_sup_final = hamiltonian_residual(f, run.i_at(T), model)
            d.bv = check_bv_interaction(run.i_times, run.i_values)
            d.theta = check_w_gradient_bound(run, t0).theta
            d.moment = check_moment_bound(run, moment_k)
            d.run = run
        except (ValueError, ArithmeticError) as err:  # a member's numerical failure
            d.status = "FAILED"
            d.error = f"{type(err).__name__}: {err}"
        diags.append(d)

    ok = [d for d in diags if d.status == "COMPLETED"]
    report = ConvergenceReport(diagnostics=diags, params={
        "T": T, "grid_L": grid.L, "grid_M": grid.M, "t0": t0,
        "init_concentration": init_concentration, "init_center": init_center,
    })
    if len(ok) >= 2:
        sup_abs = [abs(d.sup_phi_final) for d in ok]
        widths = [d.support_width_final for d in ok]
        resids = [d.residual_sup_final for d in ok]
        i_gaps = [abs(b.i_final - a.i_final) for a, b in zip(ok, ok[1:])]
        ratios = [w / widths[-1] for w in widths]
        pred = [math.sqrt(d.epsilon / ok[-1].epsilon) for d in ok]
        report.trends = {
            "sup_phi_abs_decreasing": _strictly_decreasing(sup_abs),
            "support_width_decreasing": _strictly_decreasing(widths),
            "width_sqrt_eps_consistent": all(0.5 <= r / p <= 2.0 for r, p in zip(ratios, pred)),
            "residual_decreasing": _strictly_decreasing(resids),
            "interaction_gaps_decreasing": _strictly_decreasing(i_gaps) if len(i_gaps) >= 2 else True,
        }
        # uniformity certificates: constants fitted WITHOUT the finest
        # epsilon must still cover it (the family-level content of the
        # bounds; initial-profile constants are family data)
        fit_members = ok[:-1] if len(ok) > 2 else ok[:1]
        fit = fit_supersolution_envelope([d.run for d in fit_members])
        report.envelope_fit = fit
        report.verdicts["envelope_uniform"] = all(envelope_covers(d.run, fit) for d in ok)
        c2 = max(d.bv.c_dblprime for d in fit_members) * BV_SLACK
        c1 = max(float(np.max(np.asarray(d.bv.prefix_tv) - c2 * np.asarray(d.bv.times)))
                 for d in fit_members)
        c1 = max(0.0, c1) * BV_SLACK + 1e-9
        report.bv_constants = (c1, c2)
        report.verdicts["bv_uniform"] = all(bv_line_covers(d.bv, c1, c2) for d in ok)
        theta0 = ok[0].theta
        report.verdicts["w_gradient_uniform"] = all(
            d.theta <= 1.1 * theta0 + 1e-12 for d in ok) if theta0 > 0 else all(
            d.theta <= 1e-9 for d in ok)
        report.verdicts["moment_uniform"] = all(
            d.moment.sup_moment <= max(d.moment.k0, ok[0].moment.c_star) * (1 + 1e-9)
            for d in ok)
    if not keep_runs:
        for d in diags:
            d.run = None
    return report
