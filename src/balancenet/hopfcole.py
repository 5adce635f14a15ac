"""Concentration diagnostics built on the log transform phi = eps*log(mu):
support geometry, the limiting Hamiltonian residual, and the numerical
counterparts of the a-priori bounds (quadratic envelope, gradient bound of
w = sqrt(2F^2 - phi), moment bound, BV bound on the interaction series),
assembled into a cross-epsilon convergence report. The sweep solves each
member from its spec's run_at, as a pde-run at that epsilon is solved.

Fitted constants are diagnostics, not the existential constants of the
theory: each check fits them on the coarsest-epsilon run (plus a small
stated slack) and verifies that the same values certify every finer run,
which is the uniformity-in-epsilon content of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import c_twin, snapshot_certificates
from .models import ModelDefinitionError, SeparableModel1D
from .pde import FpRun, Grid1D, solve_fp_1d

FLOOR_RATIO = 1e-15
CORE_RATIO = 1e-2
WIDTH_RATIO = 1e-3
N_CANDIDATES = 16     # envelope slopes A' scanned (envelope_slopes)
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
    """phi = eps*log(mu) where mu exceeds the support floor; sup_phi is a
    float for one density and (S,) for a stack of S snapshots."""

    phi: np.ndarray       # (M,) or (S, M), NaN off-mask
    mask: np.ndarray      # like phi, bool
    sup_phi: float | np.ndarray


def hopf_cole(values: np.ndarray, epsilon: float) -> HopfColeField:
    """Log-transform a density (M,), or each row of a stack (S, M), at
    epsilon, masking cells below FLOOR_RATIO * max."""
    mx = values.max(axis=-1, keepdims=True)
    if not np.all(mx > 0):
        raise ValueError("cannot transform an all-zero density")
    mask = values > FLOOR_RATIO * mx
    phi = np.full(values.shape, np.nan)
    np.log(values, out=phi, where=mask)
    np.multiply(phi, epsilon, out=phi, where=mask)
    return HopfColeField(phi=phi, mask=mask, sup_phi=np.fmax.reduce(phi, axis=-1))


def support_width(values: np.ndarray, dx: float) -> float | np.ndarray:
    """Length of the smallest interval of cells of width dx carrying at
    least WIDTH_RATIO of the peak density (of each row of a stack)."""
    mx = values.max(axis=-1, keepdims=True)
    if not np.all(mx > 0):
        raise ValueError("density is identically zero")
    above = values >= WIDTH_RATIO * mx
    first = np.argmax(above, axis=-1)
    stop = above.shape[-1] - np.argmax(above[..., ::-1], axis=-1)
    return (stop - first) * dx


def snapshot_series(run: FpRun, t0: float | None = None
                    ) -> tuple[HopfColeField, dict[str, np.ndarray], np.ndarray, float | None]:
    """Certify a run's snapshots in one pass of _kernels.snapshot_certificates
    over their transform. Returns the transform; its (S,) series of I,
    sup phi, the support width and the sup-norm over the support core
    (mask interior cells within a factor 100 of the peak) of the residual
    R = -alpha I dphi - sigma^2/2 (dphi)^2 of the limiting Hamilton-Jacobi
    relation, dphi the centered difference; the (N_CANDIDATES, S) envelope
    excess, per slope A' of envelope_slopes the max over the mask of
    phi + A' I(t) Lambda(x), at most D' t + E' where the envelope
    phi <= -A' I(t) Lambda(x) + D' t + E' holds; and theta, the sup over
    t >= t0 and mask-interior x of |dw/dx| - sqrt(1/(t sigma^2)), with
    w = sqrt(2F^2 - phi) and the one F^2 = 1 + max(0, sup phi) of the run
    (None without t0).

    A snapshot without a support core, or a t0 after every snapshot, raises
    ValueError; a checked snapshot at t = 0, whose bound is infinite,
    FloatingPointError.
    """
    model, grid, s = run.model, run.grid, len(run.times)
    f = hopf_cole(run.densities, model.epsilon)
    big_i = run.i_at(run.times)
    # the snapshots at t >= t0 are a suffix of the run; the last one is at
    # step n_steps, time T, though its stamp n_steps * (T / n_steps) can
    # round below T, so a t0 up to T always takes it
    later = s
    if t0 is not None:
        later = int(np.searchsorted(run.times, t0))
        if t0 <= run.meta["T"]:
            later = min(later, s - 1)
    neg_alpha = np.empty(grid.M)
    neg_alpha[:] = -np.asarray(model.alpha(grid.centers))
    excess, residual_sup, w_grad_sup = np.empty((N_CANDIDATES, s)), np.empty(s), np.empty(s)
    kernel = c_twin("snapshot_certificates") or snapshot_certificates
    kernel(f.phi, f.mask, _alpha_antiderivative(model, grid), neg_alpha, big_i,
           np.array(envelope_slopes(model)),
           f.sup_phi - model.epsilon * math.log(1.0 / CORE_RATIO), 0.5 * model.sigma ** 2,
           grid.dx, 2.0 * (1.0 + max(0.0, float(np.max(f.sup_phi)))), later,
           excess, residual_sup, w_grad_sup)
    if np.any(residual_sup == -np.inf):
        raise ValueError("support core is empty")
    theta = None
    if t0 is not None:
        # a snapshot with a core has an interior, so each row from later
        # on is a max over cells
        if later == s:
            raise ValueError(f"no snapshots at or after t0={t0}")
        with np.errstate(divide="raise"):
            theta = float(np.max(w_grad_sup[later:]
                                 - np.sqrt(1.0 / (run.times[later:] * model.sigma ** 2))))
    return f, {"interaction": big_i, "sup_phi": f.sup_phi,
               "support_width": support_width(run.densities, grid.dx),
               "residual_sup": residual_sup}, excess, theta


# ---------------------------------------------------------------------------
# a-priori bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MomentBoundReport:
    sup_moment: float
    k0: float
    c_star: float
    satisfied: bool
    moment_series: np.ndarray     # (S,), the 2k-th moment at each snapshot


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


def check_moment_bound(run: FpRun, k: int, c_star: float) -> MomentBoundReport:
    """Every snapshot's 2k-th moment against max(initial moment, C*), with
    c_star the run's constructive_moment_constant for k (which does not
    depend on epsilon)."""
    y2k = run.grid.centers ** (2 * k)
    series = (run.densities * y2k).sum(axis=-1) * run.grid.dx
    k0 = float(series[0])
    bound = max(k0, c_star)
    sup_m = float(np.max(series))
    return MomentBoundReport(sup_moment=sup_m, k0=k0, c_star=c_star,
                             satisfied=sup_m <= bound * (1 + 1e-9), moment_series=series)


@dataclass(frozen=True, eq=False)
class BvReport:
    tv: float
    c_prime: float
    c_dblprime: float
    times: np.ndarray             # the comparison cadence
    prefix_tv: np.ndarray         # the total variation up to each of its times


def comparison_indices(n: int, points: int) -> np.ndarray:
    """The steps of a series of n values on a uniform comparison cadence of
    at most points: min(points, n) evenly spaced positions rounded to steps,
    each kept once. The rounded positions never decrease, so a step
    repeated is the one before it."""
    idx = np.round(np.linspace(0, n - 1, min(points, n))).astype(int)
    keep = np.ones(len(idx), dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


def check_bv_interaction(step_times: np.ndarray, i_values: np.ndarray) -> BvReport:
    """Prefix total variation of the interaction series on a uniform
    comparison cadence of at most 2001 steps, with an affine-in-time
    majorant fitted above it."""
    sel = comparison_indices(len(i_values), 2001)
    t = step_times[sel]
    v = i_values[sel]
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(v)))])
    half = len(t) // 2
    denom = t[-1] - t[half]
    c2 = max(0.0, (prefix[-1] - prefix[half]) / denom) if denom > 0 else 0.0
    c1 = float(np.max(prefix - c2 * t))
    return BvReport(tv=float(prefix[-1]), c_prime=max(0.0, c1), c_dblprime=c2,
                    times=t, prefix_tv=prefix)


def bv_line_covers(report: BvReport, c_prime: float, c_dblprime: float) -> bool:
    return bool(np.all(report.prefix_tv <= c_prime + c_dblprime * report.times + 1e-12))


@dataclass(frozen=True)
class EnvelopeFit:
    candidate: int        # index of the chosen slope in envelope_slopes
    a: float
    d: float
    e: float


def _alpha_antiderivative(model: SeparableModel1D, grid: Grid1D) -> np.ndarray:
    """Lambda(x) = integral of alpha from 0 to x on cell centers
    (trapezoid, exact for affine alpha)."""
    a = np.asarray(model.alpha(grid.centers), dtype=float)
    x = grid.centers
    prim = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(x))])
    return prim - np.interp(0.0, x, prim)


def envelope_slopes(model: SeparableModel1D) -> list[float]:
    """The N_CANDIDATES envelope slopes A' scanned, evenly inside (0, 2/sigma^2)."""
    amax = 2.0 / model.sigma ** 2
    return [amax * j / (N_CANDIDATES + 1) for j in range(1, N_CANDIDATES + 1)]


def fit_supersolution_envelope(slopes: list[float], excesses: list[np.ndarray],
                               times: list[np.ndarray]) -> EnvelopeFit:
    """Fit phi <= -A' I(t) Lambda(x) + D' t + E' (the supersolution with the
    minimal B' = 0) from each run's envelope excess and snapshot times,
    keeping the slope with the smallest late-time intercept.

    Several runs may be supplied (typically all but the finest epsilon of a
    sweep): the intercept E' then covers the family's initial profiles, the
    counterpart of the family-level initial-condition constants the bound
    depends on.
    """
    horizon = max(float(t[-1]) for t in times)
    best = None
    for j in range(len(slopes)):
        e = max(0.0, max(float(m[j][0]) for m in excesses))
        d = 0.0
        for t, m in zip(times, excesses):
            if len(t) > 1:
                d = max(d, float(np.max((m[j][1:] - e) / t[1:])))
        score = e + d * horizon
        if best is None or score < best[0]:
            best = (score, j, d, e)
    _, j, d, e = best
    # stated slack so the fitted runs certify with margin
    return EnvelopeFit(candidate=j, a=slopes[j], d=d * FIT_SLACK, e=e * FIT_SLACK + 1e-9)


def envelope_covers(excess: np.ndarray, times: np.ndarray, fit: EnvelopeFit) -> bool:
    """Whether the fitted envelope holds at every snapshot of a run, given
    its envelope excess and snapshot times."""
    return bool(np.all(excess[fit.candidate] <= fit.d * times + fit.e + 1e-12))


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
    times: np.ndarray | None = None       # the snapshot times, (S,)
    excess: np.ndarray | None = None      # the run's envelope excess, (N_CANDIDATES, S)


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


def epsilon_sweep(epsilons, run_at, t0: float | None = None) -> ConvergenceReport:
    """Solve and certify the run at each epsilon, solve_fp_1d(**run_at(e)),
    and assemble the concentration trend suite and the uniform-in-epsilon
    bound certificates.

    epsilons must be strictly decreasing inside (0, 1]. run_at(e) gives
    solve_fp_1d's keyword arguments at e (see config's Fokker-Planck specs):
    one model family, grid and horizon T for every e, and an initial density
    that builds at the largest. t0 defaults to T / 10. Failures of a single
    epsilon are recorded and the sweep continues. The moment bound is
    checked for the fourth moment (k = 2). Each member's run is transformed
    once, its certificates are taken in one kernel pass over the transform,
    and both are dropped with the run as soon as its numbers are taken, so
    the sweep holds one run at a time.
    """
    eps = [float(e) for e in epsilons]
    check_epsilons(eps)
    # the fourth moment's constant reads f, alpha, sigma and the grid, not epsilon
    first = run_at(eps[0])
    c_star = constructive_moment_constant(first["model"], first["grid"], 2)
    if t0 is None:
        t0 = first["T"] / 10

    def certify(e: float) -> EpsilonDiagnostics:
        """One member's numbers; its run and transform die on return."""
        d = EpsilonDiagnostics(epsilon=e)
        try:
            run = solve_fp_1d(**run_at(e))
            _, series, d.excess, d.theta = snapshot_series(run, t0)
            d.sup_phi_final, d.support_width_final, d.i_final, d.residual_sup_final = (
                float(series[name][-1])
                for name in ("sup_phi", "support_width", "interaction", "residual_sup"))
            d.bv = check_bv_interaction(np.arange(run.meta["n_steps"]) * run.dt, run.i_values)
            d.moment = check_moment_bound(run, 2, c_star)
            d.times = run.times
        except (ValueError, ArithmeticError) as err:  # a member's numerical failure
            d.status = "FAILED"
            d.error = f"{type(err).__name__}: {err}"
        return d

    diags = [certify(e) for e in eps]

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
        fit = fit_supersolution_envelope(envelope_slopes(first["model"]),
                                         [d.excess for d in fit_members],
                                         [d.times for d in fit_members])
        report.envelope_fit = fit
        report.verdicts["envelope_uniform"] = all(
            envelope_covers(d.excess, d.times, fit) for d in ok)
        c2 = max(d.bv.c_dblprime for d in fit_members) * BV_SLACK
        c1 = max(float(np.max(d.bv.prefix_tv - c2 * d.bv.times)) for d in fit_members)
        c1 = max(0.0, c1) * BV_SLACK + 1e-9
        report.bv_constants = (c1, c2)
        report.verdicts["bv_uniform"] = all(bv_line_covers(d.bv, c1, c2) for d in ok)
        theta0 = ok[0].theta
        report.verdicts["w_gradient_uniform"] = all(
            d.theta <= 1.1 * theta0 + 1e-12 for d in ok) if theta0 > 0 else all(
            d.theta <= 1e-9 for d in ok)
        report.verdicts["moment_uniform"] = all(d.moment.satisfied for d in ok)
    return report
