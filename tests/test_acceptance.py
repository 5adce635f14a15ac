"""Acceptance suite: one test per criterion, each printing a PASS line once
its assertions hold (run with -s to see them live).

Heavy runs are shared through module-scoped fixtures. Tolerances are the
stated ones; windows and sizes are documented inline.
"""

import math
import time

import numpy as np
import pytest

from balancenet.balance import balance_voltages, distance_to_balance
from balancenet.config import parse_config_dict
from balancenet.harness import run_experiment
from balancenet.hopfcole import epsilon_sweep
from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, ScalingRule, SeparableModel1D)
from balancenet.network import (CoordinateIC, PerturbationEvent, RecordSpec,
                                apply_perturbation, simulate, simulate_rescaled_early)
from balancenet.pde import Grid1D, gaussian_initial, solve_fp_1d

from .oracles import closed_form_balance, cluster_split

OU_SD = 1.0 / math.sqrt(2.0 * 300.0 * 1.0)  # sigma / sqrt(2 gamma g) at the fig1 scale


def announce(num: int, text: str):
    print(f"\nACCEPTANCE C{num} {text}: PASS")


def fig1_model(scaling: ScalingRule, sigma=1.0, n=300):
    params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, sigma)
    return NetworkModel(params, n=n, scaling=scaling)


FIG1_INIT = ((CoordinateIC("normal", 1.0, 5.0), CoordinateIC("normal", 1.5, 5.0)),)

CHEM_BASE = dict(f_coeffs=(-1.0, 1.3, -0.3, 0.0), a=0.4, b=1.5, c=1.0, tau=2.0,
                 alpha_gain=1.0, alpha_threshold=-2.0, alpha_slope=1.0,
                 E_E=1.0, E_I=-1.0, sigma=1.0)

CHEM_INIT = ((CoordinateIC("normal", 3.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
              CoordinateIC("uniform", 0.0, 2.0)),
             (CoordinateIC("normal", 3.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
              CoordinateIC("uniform", 0.0, 3.0)))


def chem_model(g_EE, g_EI, g_IE, g_II, n, scaling):
    params = FhnChemicalParams(g_EE=g_EE, g_EI=g_EI, g_IE=g_IE, g_II=g_II,
                               **CHEM_BASE)
    return NetworkModel(params, n=n, scaling=scaling)


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def electrical_runs():
    """fig1 collapse benchmark at gamma = n and gamma = sqrt(n), with timing."""
    out = {}
    for key, rule in (("linear", ScalingRule("linear")), ("sqrt", ScalingRule("sqrt"))):
        model = fig1_model(rule)
        t0 = time.perf_counter()
        rec = RecordSpec(stride=5, traces=20,
                         snapshot_times=(0.0, 10.0 / model.gamma()))
        run = simulate(model, FIG1_INIT, 0.25, 1e-4, 20260811, rec)
        out[key] = (model, run, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def chemical_stable_run():
    """Inhibition-dominated (fig2 stable-regime magnitudes) run at n = 4500 per
    population (gamma = N/10 = 900) with the 50% excitatory increase at
    t = 1.5; the O(1/gamma) clamping offset then sits well inside 5%."""
    model = chem_model(0.3, 2.0, 1.0, 10.0, n=4500,
                       scaling=ScalingRule("scaled_linear", 0.2))
    event = PerturbationEvent(1.5, {"g_EE": 1.5, "g_EI": 1.5})
    run = simulate(model, CHEM_INIT, 3.0, 1e-5, 12345,
                   RecordSpec(stride=200, traces=20), [event])
    return model, event, run


@pytest.fixture(scope="module")
def concentration_sweep():
    """Default separable model, eps in {0.4, 0.2, 0.1, 0.05}, with timing."""
    p = parse_config_dict({"kind": "epsilon-sweep", "seed": 1, "model": {},
                           "epsilons": [0.4, 0.2, 0.1, 0.05], "grid": {"L": 8.0, "cells": 1024},
                           "T": 5.0, "t0": 0.5, "init": {"center": 1.0, "concentration": 1.0}}
                          ).payload
    t0 = time.perf_counter()
    report = epsilon_sweep(p.epsilons, p.run_at, p.t0)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def early_runs():
    """Rescaled early dynamics at gamma in {10, 100, 1000} (criterion 9)."""
    import tempfile
    spec = parse_config_dict({
        "kind": "rescaled-early", "seed": 321,
        "model": {"family": "fhn-chemical", "n": 200},
        "gammas": [10, 100, 1000], "T_tilde": 2.0, "dt_tilde": 1e-3,
        "record": {"stride": 5, "traces": 0}})
    with tempfile.TemporaryDirectory() as td:
        manifest = run_experiment(spec, out_dir=td)
    return manifest["metrics"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_electrical_collapse(electrical_runs):
    model, run, elapsed = electrical_runs["linear"]
    assert elapsed <= 60.0
    assert run.status == "COMPLETED"
    # dispersion falls from 5 to the OU-linearization level by t = 0.2
    late = run.stds[0][(run.times >= 0.2), 0]
    assert np.all(np.abs(late - OU_SD) <= 0.5 * OU_SD)
    # distance to the balance manifold contracts by >= 10x by t = 10/gamma
    d0 = distance_to_balance(run.snapshots[0], model)
    d1 = distance_to_balance(run.snapshots[1], model)
    assert d0 / d1 >= 10.0
    announce(1, f"electrical collapse (std {late.mean():.4f} ~ {OU_SD:.4f}, "
                f"distance ratio {d0 / d1:.0f})")


def test_criterion_02_scaling_comparison(electrical_runs):
    _, run_n, _ = electrical_runs["linear"]
    _, run_s, _ = electrical_runs["sqrt"]
    late_n = run_n.stds[0][(run_n.times >= 0.2), 0].mean()
    late_s = run_s.stds[0][(run_s.times >= 0.2), 0].mean()
    assert late_s > late_n
    # threshold reachable by both runs: at gamma = sqrt(n) the slowly
    # relaxing recovery spread floors the voltage dispersion near 0.39
    threshold = 0.5

    def collapse_time(run):
        below = np.nonzero(run.stds[0][:, 0] <= threshold)[0]
        assert below.size, "dispersion never collapsed"
        return float(run.times[below[0]])

    assert collapse_time(run_s) > collapse_time(run_n)
    announce(2, f"slower scaling disperses more ({late_s:.3f} > {late_n:.4f}) "
                f"and collapses later ({collapse_time(run_s):.3f} > "
                f"{collapse_time(run_n):.4f})")


def _window_error(model, run, lo, hi):
    """Relative distance of each population's mean voltage over the window
    [lo, hi] from the balance voltage its window means predict."""
    sel = (run.times >= lo) & (run.times <= hi)
    means = run.means[:, sel].mean(axis=1)
    xs = balance_voltages(model, means)
    return np.abs(means[:, 0] - xs) / np.abs(xs)


def _balance_checked(model, means):
    """The balance voltages of a chemical model at the (2, 3) population
    means, checked against the closed form."""
    xs = balance_voltages(model, means)
    pr = model.params
    np.testing.assert_allclose(
        xs, closed_form_balance(model.coupling.T, pr.E_E, pr.E_I, *means[:, 2]),
        rtol=1e-12, atol=1e-12)
    return xs


def test_criterion_03_chemical_stable_regime(chemical_stable_run):
    model, event, run = chemical_stable_run
    assert run.status == "COMPLETED"
    errs_pre = _window_error(model, run, 1.3, 1.45)
    assert errs_pre[0] <= 0.05 and errs_pre[1] <= 0.05
    pert = apply_perturbation(model, event)
    errs_post = _window_error(pert, run, 2.8, 2.95)
    assert errs_post[0] <= 0.05 and errs_post[1] <= 0.05
    announce(3, "chemical stable regime (pre "
                f"{100 * max(errs_pre):.2f}%, post {100 * max(errs_post):.2f}% "
                "of predicted balance voltages)")


def test_criterion_04_chemical_unstable_regime():
    model = chem_model(1.0, 2.0, 0.1, 0.7, n=300,
                       scaling=ScalingRule("scaled_linear", 0.2))
    snap_times = (0.05, 0.1, 0.2)
    run = simulate(model, CHEM_INIT, 0.2, 2e-5, 77,
                   RecordSpec(stride=250, snapshot_times=snap_times))
    rates, _ = model.affine_coefficients(run.means[:, 0])
    assert (rates > 0).all()
    xE = _balance_checked(model, run.means[:, 0])[0]
    gaps = []
    for states in run.snapshots:
        above, below, gap = cluster_split(states[:300, 0], xE)
        assert above > 0 and below > 0
        gaps.append(gap)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    announce(4, f"unstable regime splits into two groups, gap {gaps[0]:.2f} -> "
                f"{gaps[-1]:.2f}")


def test_criterion_05_stability_criterion_consistency():
    # 20 random conductance draws, marginal band |rate| < 0.05 excluded;
    # the sign verdict must match the observed converge/escape outcome of
    # the rescaled early dynamics for every population
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 20:
        gs = (rng.uniform(0, 2), rng.uniform(0, 3),
              rng.uniform(0, 2), rng.uniform(0, 8))
        model = chem_model(*gs, n=100, scaling=ScalingRule("constant", 1000.0))
        run = simulate_rescaled_early(model, CHEM_INIT, 20.0, 1e-3, 1234,
                                      RecordSpec(stride=200))
        rates, _ = model.affine_coefficients(run.means[:, 0])
        if np.abs(rates).min() < 0.05:
            continue
        checked += 1
        xs = _balance_checked(model, run.means[:, 0])
        for b in range(2):
            d0 = abs(run.means[b][0, 0] - xs[b])
            dT = abs(run.means[b][-1, 0] - xs[b])
            assert (dT < d0) == (rates[b] < 0), (gs, b, rates[b], d0, dT)
    announce(5, "sign verdict matched converge/escape on 20/20 draws")


def ou_solver_error(cells: int):
    model = SeparableModel1D(
        f=lambda x: -x, alpha=lambda x: 0.0 * np.asarray(x, dtype=float),
        beta=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        sigma=1.0, epsilon=0.5, beta_floor=1.0)
    grid = Grid1D(8.0, cells)
    mu0 = gaussian_initial(grid, 2.0, 1.0, 1.0)
    run = solve_fp_1d(model, grid, mu0, 10.0, snapshot_every=2.0)
    exact = np.exp(-grid.centers ** 2) / math.sqrt(math.pi)
    err = float(np.abs(run.densities[-1] - exact).sum() * grid.dx)
    return err, run


def test_criterion_06_pde_correctness():
    err_fine, run = ou_solver_error(1024)
    assert err_fine <= 1e-2
    assert np.max(np.abs(run.mass - 1.0)) <= 1e-10 * run.times[-1]
    assert run.densities.min() >= -1e-12
    err_coarse, _ = ou_solver_error(512)
    ratio = err_coarse / err_fine
    assert 1.5 <= ratio <= 2.5
    announce(6, f"OU stationary L1 {err_fine:.4f}, refinement ratio {ratio:.2f}, "
                "mass and positivity within tolerance")


def test_criterion_07_concentration_suite(concentration_sweep):
    report, elapsed = concentration_sweep
    assert elapsed <= 600.0
    assert all(d.status == "COMPLETED" for d in report.diagnostics)
    t = report.trends
    assert t["sup_phi_abs_decreasing"]
    assert t["support_width_decreasing"]
    assert t["width_sqrt_eps_consistent"]
    assert t["residual_decreasing"]
    assert t["interaction_gaps_decreasing"]
    announce(7, f"concentration trends hold across the sweep ({elapsed:.0f}s)")


def test_criterion_08_uniform_bound_certificates(concentration_sweep):
    report, _ = concentration_sweep
    v = report.verdicts
    assert v["envelope_uniform"], report.envelope_fit
    assert v["bv_uniform"], report.bv_constants
    # theta family bounded by 1.1x its coarsest member
    thetas = [d.theta for d in report.diagnostics]
    assert max(thetas) <= 1.1 * thetas[0]
    assert v["moment_uniform"]
    c_star = report.diagnostics[0].moment.c_star
    for d in report.diagnostics:
        assert d.moment.sup_moment <= max(d.moment.k0, c_star) * (1 + 1e-9)
    announce(8, "one constant tuple certifies envelope, BV line, gradient "
                "bound and moment bound across the sweep")


def test_criterion_09_early_dynamics_limit(early_runs):
    gaps = early_runs["gaps"]
    assert gaps[0] > gaps[1] > gaps[2]
    # movement of the frozen coordinates scales as C/gamma with C fitted at
    # gamma = 10 (25% slack stated: the fit is a one-observation bound)
    gammas = early_runs["gammas"]
    for key in ("moves_y", "moves_s"):
        moves = early_runs[key]
        c_fit = 1.25 * gammas[0] * moves[0]
        for g, m in zip(gammas, moves):
            assert m <= c_fit / g, (key, g, m, c_fit)
    announce(9, f"early-ODE gap decreases ({gaps[0]:.3f} -> {gaps[2]:.4f}) and "
                "frozen coordinates move at O(1/gamma)")


def test_criterion_10_determinism_across_threads(tmp_path):
    cfg = {
        "kind": "double-limit-sweep", "seed": 99,
        "network": {"model": {"family": "fhn-electrical", "n": 10},
                    "n_values": [50, 100],
                    "scalings": [{"kind": "linear"}, {"kind": "sqrt"}],
                    "T": 0.1, "collapse_threshold": 0.5},
        "pde": {"model": {}, "epsilons": [0.4, 0.2],
                "grid": {"L": 8, "cells": 256}, "T": 0.5}}
    from balancenet.cli import main
    digests = []
    for k in (1, 4, 8):
        out = tmp_path / f"threads_{k}"
        conf = tmp_path / f"cfg_{k}.json"
        import json
        conf.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(conf), "--out", str(out),
                     "--threads", str(k)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["files"])
    assert digests[0] == digests[1] == digests[2]
    announce(10, f"byte-identical artifacts across threads 1/4/8 "
                 f"({len(digests[0])} files)")
