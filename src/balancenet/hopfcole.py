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

from .models import ModelDefinitionError, SeparableModel1D
from .pde import DensityField, FpRun, Grid1D, gaussian_initial, solve_fp_1d

FLOOR_RATIO = 1e-15
CORE_RATIO = 1e-2
WIDTH_RATIO = 1e-3
N_CANDIDATES = 16     # envelope slopes A' scanned by fit_supersolution_envelope
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
    """phi = eps*log(mu) where mu exceeds the support floor, and F with
    F^2 = 1 + max(0, sup phi), so that the argument 2F^2 - phi of
    w = sqrt(2F^2 - phi) stays positive on the mask. sup_phi and F are
    floats for one density and (S,) for a stack of S snapshots."""

    grid: Grid1D
    epsilon: float
    phi: np.ndarray       # (M,) or (S, M), NaN off-mask
    mask: np.ndarray      # like phi, bool
    sup_phi: float | np.ndarray
    F: float | np.ndarray


def hopf_cole(density: DensityField, floor_ratio: float = FLOOR_RATIO) -> HopfColeField:
    """Log-transform a density, or each row of a stack, masking cells below
    floor_ratio * max."""
    values = density.values
    mx = values.max(axis=-1, keepdims=True)
    if not np.all(mx > 0):
        raise ValueError("cannot transform an all-zero density")
    mask = values > floor_ratio * mx
    phi = np.full(values.shape, np.nan)
    np.log(values, out=phi, where=mask)
    np.multiply(phi, density.epsilon, out=phi, where=mask)
    sup = np.fmax.reduce(phi, axis=-1)
    return HopfColeField(grid=density.grid, epsilon=density.epsilon, phi=phi, mask=mask,
                         sup_phi=sup, F=np.sqrt(1.0 + np.maximum(0.0, sup)))


def snapshot_fields(run: FpRun) -> HopfColeField:
    """The transform of every snapshot of a run, one row each."""
    return hopf_cole(run.snapshots())


def support_width(density: DensityField) -> float | np.ndarray:
    """Length of the smallest interval of cells carrying at least
    WIDTH_RATIO of the peak density (of each row of a stack)."""
    mx = density.values.max(axis=-1, keepdims=True)
    if not np.all(mx > 0):
        raise ValueError("density is identically zero")
    above = density.values >= WIDTH_RATIO * mx
    first = np.argmax(above, axis=-1)
    stop = above.shape[-1] - np.argmax(above[..., ::-1], axis=-1)
    return (stop - first) * density.grid.dx


def _masked_gradient(phi: np.ndarray, mask: np.ndarray, dx: float):
    """Centered differences inside the mask, one-sided at mask edges.

    Returns (gradient, interior) where interior marks cells whose stencil
    stayed inside the mask; sup-norms should restrict to interior.
    """
    left = np.zeros_like(mask)
    left[..., 1:] = mask[..., :-1]
    right = np.zeros_like(mask)
    right[..., :-1] = mask[..., 1:]
    interior = mask & left & right
    grad = np.full_like(phi, np.nan)
    # each stencil is written straight into grad where it applies, so a
    # run's snapshots need no (S, M) float temporary
    for out, ahead, behind, h, sel in (
            (grad[..., :-1], phi[..., 1:], phi[..., :-1], dx, (mask & right & ~left)[..., :-1]),
            (grad[..., 1:], phi[..., 1:], phi[..., :-1], dx, (mask & left & ~right)[..., 1:]),
            (grad[..., 1:-1], phi[..., 2:], phi[..., :-2], 2 * dx, interior[..., 1:-1])):
        np.subtract(ahead, behind, out=out, where=sel)
        np.divide(out, h, out=out, where=sel)
    return grad, interior


def hamiltonian_residual(phi_field: HopfColeField, big_i: float | np.ndarray,
                         model: SeparableModel1D) -> tuple[np.ndarray, float | np.ndarray]:
    """Residual of the limiting Hamilton-Jacobi relation,
    R(x) = -alpha(x) I dphi - sigma^2/2 (dphi)^2, and its sup-norm over the
    support core (cells within a factor 100 of the peak). For a run's field,
    big_i holds I at each snapshot and the sup-norm is one per snapshot."""
    grad, interior = _masked_gradient(phi_field.phi, phi_field.mask, phi_field.grid.dx)
    res = -np.asarray(model.alpha(phi_field.grid.centers)) * np.expand_dims(big_i, -1)
    res *= grad
    grad *= grad                          # then grad's buffer holds the quadratic term
    grad *= 0.5 * model.sigma ** 2
    res -= grad
    res[~interior] = np.nan
    floor = phi_field.sup_phi - phi_field.epsilon * math.log(1.0 / CORE_RATIO)
    core = interior & (phi_field.phi >= np.expand_dims(floor, -1))
    if not core.any(axis=-1).all():
        raise ValueError("support core is empty")
    return res, np.max(np.abs(res, out=grad), axis=-1, where=core, initial=0.0)


def snapshot_series(run: FpRun) -> tuple[HopfColeField, dict[str, np.ndarray]]:
    """The transform of a run's snapshots and its series at them, each (S,):
    I, sup phi, the support width and the residual's sup-norm on the core."""
    f = snapshot_fields(run)
    big_i = run.i_at(run.times)
    return f, {"interaction": big_i, "sup_phi": f.sup_phi,
               "support_width": support_width(run.snapshots()),
               "residual_sup": hamiltonian_residual(f, big_i, run.model)[1]}


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


def check_moment_bound(run: FpRun, k: int) -> MomentBoundReport:
    """Every snapshot's 2k-th moment against max(initial moment, C*)."""
    y2k = run.grid.centers ** (2 * k)
    series = tuple(((run.densities * y2k).sum(axis=-1) * run.grid.dx).tolist())
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


def fit_supersolution_envelope(runs: FpRun | list[FpRun]) -> EnvelopeFit:
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
    amax = 2.0 / runs[0].model.sigma ** 2
    slopes = [amax * j / (N_CANDIDATES + 1) for j in range(1, N_CANDIDATES + 1)]
    # per run, slope and snapshot, the max over the mask of phi + A' I(t) Lambda(x);
    # the envelope holds iff it is dominated by D' t + E'
    excesses = []
    for r in runs:
        f = snapshot_fields(r)
        big_i = r.i_at(r.times)[:, None]
        lam = _alpha_antiderivative(r.model, r.grid)
        excesses.append([np.max(f.phi + a_const * big_i * lam, axis=-1, where=f.mask,
                                initial=-np.inf) for a_const in slopes])
    horizon = max(float(r.times[-1]) for r in runs)
    best = None
    for j, a_const in enumerate(slopes):
        e = max(0.0, max(float(m[j][0]) for m in excesses))
        d = 0.0
        for r, m in zip(runs, excesses):
            if len(r.times) > 1:
                d = max(d, float(np.max((m[j][1:] - e) / r.times[1:])))
        score = e + d * horizon
        if best is None or score < best[0]:
            best = (score, EnvelopeFit(a=a_const, b=0.0, d=d, e=e))
    fit = best[1]
    # stated slack so the fitted runs certify with margin
    return EnvelopeFit(a=fit.a, b=fit.b, d=fit.d * FIT_SLACK, e=fit.e * FIT_SLACK + 1e-9)


def envelope_covers(run: FpRun, fit: EnvelopeFit) -> bool:
    f = snapshot_fields(run)
    lam = _alpha_antiderivative(run.model, run.grid)
    x2 = run.grid.centers ** 2
    bound = -fit.a * run.i_at(run.times)[:, None] * lam  # (S, M), built in place
    bound -= 0.5 * run.epsilon * fit.b * x2
    bound += fit.d * run.times[:, None]
    bound += fit.e
    bound += 1e-12
    return not np.any(f.phi > bound, where=f.mask)


@dataclass(frozen=True)
class WGradientReport:
    theta: float
    t0: float


def check_w_gradient_bound(run: FpRun, t0: float) -> WGradientReport:
    """theta = sup over t >= t0 and mask-interior x of
    |dw/dx| - sqrt(1/(t sigma^2)), with a single F for the trajectory."""
    f = snapshot_fields(run)
    F2 = 2.0 * (1.0 + max(0.0, float(np.max(f.sup_phi))))
    # the snapshots at t >= t0 are a suffix of the run; the last one is at
    # step n_steps, time T, though its stamp n_steps * (T / n_steps) can
    # round below T, so a t0 up to T always takes it
    later = int(np.searchsorted(run.times, t0))
    if t0 <= run.meta["T"]:
        later = min(later, len(run.times) - 1)
    w = f.phi[later:]                     # turned into w = sqrt(2F^2 - phi) in place
    np.subtract(F2, w, out=w)
    np.sqrt(w, out=w)
    grad, interior = _masked_gradient(w, f.mask[later:], run.grid.dx)
    checked = interior.any(axis=-1)
    if not checked.any():
        raise ValueError(f"no snapshots at or after t0={t0}")
    sup_grad = np.max(np.abs(grad, out=grad), axis=-1, where=interior, initial=0.0)
    t = run.times[later:][checked]
    with np.errstate(divide="raise"):  # a checked snapshot at t = 0 has no bound
        theta = np.max(sup_grad[checked] - np.sqrt(1.0 / (t * run.model.sigma ** 2)))
    return WGradientReport(theta=float(theta), t0=t0)


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


def check_epsilons(epsilons) -> None:
    """The condition epsilon_sweep puts on its epsilons: a non-empty list,
    strictly decreasing within (0, 1]."""
    if not epsilons or not _strictly_decreasing(epsilons) or not all(0 < e <= 1 for e in epsilons):
        raise ModelDefinitionError("epsilons must be strictly decreasing within (0, 1]",
                                   "epsilons")


def epsilon_sweep(base_model: SeparableModel1D, epsilons, grid: Grid1D, T: float,
                  init_concentration: float = 1.0, init_center: float = 1.0,
                  snapshot_every: float | None = None, t0: float | None = None
                  ) -> ConvergenceReport:
    """Run the solver per epsilon and assemble the concentration trend suite
    and the uniform-in-epsilon bound certificates.

    epsilons must be strictly decreasing inside (0, 1]. Failures of a single
    epsilon are recorded and the sweep continues. The moment bound is
    checked for the fourth moment (k = 2); each member's run is dropped from
    the report once the certificates are fitted.
    """
    eps = [float(e) for e in epsilons]
    check_epsilons(eps)
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
            _, series = snapshot_series(run)
            d.sup_phi_final, d.support_width_final, d.i_final, d.residual_sup_final = (
                float(series[name][-1])
                for name in ("sup_phi", "support_width", "interaction", "residual_sup"))
            d.bv = check_bv_interaction(run.i_times, run.i_values)
            d.theta = check_w_gradient_bound(run, t0).theta
            d.moment = check_moment_bound(run, 2)
            d.run = run
        except (ValueError, ArithmeticError) as err:  # a member's numerical failure
            d.status = "FAILED"
            d.error = f"{type(err).__name__}: {err}"
        diags.append(d)

    ok = [d for d in diags if d.status == "COMPLETED"]
    report = ConvergenceReport(diagnostics=diags)
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
    for d in diags:
        d.run = None
    return report
