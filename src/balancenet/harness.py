"""Experiment orchestration and deterministic artifact emission.

Every experiment writes CSV files plus a manifest.json carrying the echoed
configuration, seed, termination status, a sha256 inventory of the emitted
files and headline metrics. CSV bodies are byte-reproducible: shortest
round-trip float formatting, comma delimiter, LF endings, no timestamps.
Sweep cells run concurrently (one output subdirectory per cell); the summary
is assembled in cell order, so thread counts cannot change any byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .balance import (DegenerateDenominatorError, EmpiricalMeasure,
                      chemical_balance_report, chemical_balance_voltages,
                      distance_to_balance, integrate_early_ode)
from .config import (BalanceAnalysisSpec, ChemicalConfig, DoubleLimitPdeSpec,
                     DoubleLimitSpec, ElectricalConfig, EpsilonSweepSpec, EventConfig,
                     ExperimentSpec, FiguresSpec, IcConfig, NetworkRunSpec, PdeRunSpec,
                     RecordConfig, RescaledEarlySpec, SeparableConfig)
from .hopfcole import epsilon_sweep, hamiltonian_residual, snapshot_fields, support_width
from .models import FAMILIES, ScalingRule, build_fhn_network, build_separable_1d
from .network import (CoordinateIC, InitialConditionSpec, NetworkState,
                      PerturbationEvent, RecordSpec, RunRecord, apply_perturbation,
                      simulate, simulate_rescaled_early)
from .pde import Grid1D, gaussian_initial, solve_fp_1d

NO_DATA = "NO_DATA"


# ---------------------------------------------------------------------------
# deterministic CSV + manifest plumbing
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def columns_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    write_csv(path, header, zip(*columns))


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def write_manifest(out: Path, spec: ExperimentSpec, status: str, metrics: dict) -> dict:
    files = {}
    for p in sorted(out.rglob("*.csv")) + sorted(out.rglob("*_report.json")):
        files[str(p.relative_to(out))] = file_digest(p)
    manifest = {
        "version": __version__,
        "seed": spec.seed,
        "status": status,
        "spec": spec.to_config(),
        "files": files,
        "metrics": _jsonable(metrics),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    return manifest


# ---------------------------------------------------------------------------
# config -> runtime objects
# ---------------------------------------------------------------------------


def _scaling_rule(cfg) -> ScalingRule:
    return ScalingRule(cfg.kind, cfg.coefficient)


def _ic(cfg: IcConfig) -> CoordinateIC:
    return CoordinateIC(cfg.dist, cfg.p1, cfg.p2)


def build_model(cfg, n: int | None = None, scaling: ScalingRule | None = None):
    family = FAMILIES[cfg.family]
    params = family(**{f.name: getattr(cfg, f.name) for f in fields(family)})
    return build_fhn_network(params, n=n or cfg.n,
                             scaling=scaling or _scaling_rule(cfg.scaling))


def build_init(cfg) -> InitialConditionSpec:
    return InitialConditionSpec(tuple(tuple(_ic(c) for c in laws)
                                      for laws in cfg.coordinate_laws()))


def build_separable(cfg: SeparableConfig, epsilon: float):
    return build_separable_1d(epsilon, **{f.name: getattr(cfg, f.name)
                                          for f in fields(SeparableConfig)})


def _record_spec(cfg: RecordConfig) -> RecordSpec:
    return RecordSpec(stride=cfg.stride, traces=cfg.traces,
                      snapshot_times=tuple(cfg.snapshot_times))


def _events(evts: tuple[EventConfig, ...]) -> list[PerturbationEvent]:
    return [PerturbationEvent(e.t, dict(e.multipliers)) for e in evts]


# ---------------------------------------------------------------------------
# runners, one per experiment spec: each takes (payload, seed, output
# directory) and returns (status, metrics)
# ---------------------------------------------------------------------------

_COORDS = ("x", "y", "s")


def _write_run_artifacts(out: Path, run: RunRecord, labels: list[str]) -> dict:
    d = run.means[0].shape[1]
    header = ["t"]
    cols = [run.times]
    for p, lab in enumerate(labels):
        for k in range(d):
            header += [f"mean_{lab}_{_COORDS[k]}", f"std_{lab}_{_COORDS[k]}"]
            cols += [run.means[p][:, k], run.stds[p][:, k]]
    columns_csv(out / "series.csv", header, cols)

    if any(tr.shape[1] for tr in run.traces):
        header = ["t"]
        cols = [run.times]
        for p, lab in enumerate(labels):
            for j in range(run.traces[p].shape[1]):
                header.append(f"{lab}_{j:02d}")
                cols.append(run.traces[p][:, j])
        columns_csv(out / "traces.csv", header, cols)

    for idx, (t, states) in enumerate(run.snapshots):
        header = ["agent"] + list(_COORDS[:d])
        rows = [[i] + list(states[i]) for i in range(states.shape[0])]
        write_csv(out / f"snapshot_{idx:02d}.csv", header, rows)

    metrics = {"status": run.status, "gamma": run.gamma,
               "final_std": [float(run.stds[p][-1, 0]) for p in range(len(labels))]}
    if run.blowup_time is not None:
        metrics["blowup_time"] = run.blowup_time
    return metrics


def _run_network(p: NetworkRunSpec, seed: int, out: Path) -> tuple[str, dict]:
    model = build_model(p.model)
    run = simulate(model, build_init(p.model), p.T, p.dt, seed,
                   _record_spec(p.record), _events(p.events))
    labels = [pop.label for pop in model.populations]
    return run.status, _write_run_artifacts(out, run, labels)


def _run_rescaled_early(p: RescaledEarlySpec, seed: int, out: Path) -> tuple[str, dict]:
    rows = []
    status = "COMPLETED"
    for gi, gamma in enumerate(p.gammas):
        model = build_model(p.model, scaling=ScalingRule("constant", gamma))
        base = _record_spec(p.record)
        rec = RecordSpec(stride=base.stride, traces=base.traces,
                         snapshot_times=(0.0,) + tuple(base.snapshot_times))
        run = simulate_rescaled_early(model, build_init(p.model), p.T_tilde,
                                      p.dt_tilde, seed, rec)
        if run.status != "COMPLETED":
            status = run.status
            rows.append([gamma, math.nan, math.nan, math.nan])
            continue
        gap, move_y, move_s = _early_gap(model, run)
        rows.append([gamma, gap, move_y, move_s])
        sub = out / f"gamma_{gi}"
        sub.mkdir(exist_ok=True)
        _write_run_artifacts(sub, run, [pop.label for pop in model.populations])
    write_csv(out / "early_gaps.csv", ["gamma", "sup_gap", "move_y", "move_s"], rows)
    metrics = {"gammas": list(p.gammas), "gaps": [r[1] for r in rows],
               "moves_y": [r[2] for r in rows], "moves_s": [r[3] for r in rows]}
    return status, metrics


def _early_gap(model, run: RunRecord) -> tuple[float, float, float]:
    """Sup-norm gap of population-mean voltages to the frozen-measure ODE
    started at the initial means, plus max movement of the frozen (y, s)
    coordinate means over the rescaled window. The frozen measure is the
    t = 0 snapshot, which _run_rescaled_early always records."""
    P = len(run.means)
    x0 = np.stack([run.means[q][0] for q in range(P)])
    measure = EmpiricalMeasure.from_state(NetworkState(0.0, run.snapshots[0][1], model.offsets))
    horizon = float(run.times[-1])
    ode = integrate_early_ode(model, measure, x0, horizon)
    gap = 0.0
    for q in range(P):
        ref = np.interp(run.times, ode.times, ode.traj[:, q, 0])
        gap = max(gap, float(np.max(np.abs(run.means[q][:, 0] - ref))))
    move_y = max(float(np.max(np.abs(run.means[q][:, 1] - run.means[q][0, 1])))
                 for q in range(P))
    if run.means[0].shape[1] > 2:
        move_s = max(float(np.max(np.abs(run.means[q][:, 2] - run.means[q][0, 2])))
                     for q in range(P))
    else:
        move_s = 0.0
    return gap, move_y, move_s


def _pde_series(run):
    """Diagnostics series at snapshot times: mass, I, sup phi, width,
    residual sup-norm."""
    sup_phi = []
    widths = []
    resid = []
    for i, f in enumerate(snapshot_fields(run)):
        sup_phi.append(f.sup_phi)
        widths.append(support_width(run.density_at(i)))
        _, r = hamiltonian_residual(f, run.i_at(run.times[i]), run.model)
        resid.append(r)
    i_at = [run.i_at(t) for t in run.times]
    return sup_phi, widths, resid, i_at


def _run_pde(p: PdeRunSpec, seed: int, out: Path) -> tuple[str, dict]:
    model = build_separable(p.model, p.model.epsilon)
    grid = Grid1D(p.grid.L, p.grid.cells)
    mu0 = gaussian_initial(grid, model.epsilon, p.init.concentration, p.init.center)
    snap = p.snapshot_every if p.snapshot_every is not None else p.T / 60
    run = solve_fp_1d(model, mu0, p.T, snapshot_every=snap)
    sup_phi, widths, resid, i_at = _pde_series(run)
    columns_csv(out / "pde_series.csv",
                ["t", "mass", "interaction", "sup_phi", "support_width", "residual_sup"],
                [run.times, run.mass, np.array(i_at), np.array(sup_phi),
                 np.array(widths), np.array(resid)])
    idxs = np.unique(np.round(np.linspace(0, len(run.times) - 1, 8)).astype(int))
    for j, idx in enumerate(idxs):
        columns_csv(out / f"pde_snapshot_{j:02d}.csv", ["x", "mu", "phi"],
                    [grid.centers, run.densities[idx], snapshot_fields(run)[idx].phi])
    metrics = {"mass_drift": float(np.max(np.abs(run.mass - 1.0))),
               "sup_phi_final": sup_phi[-1], "support_width_final": widths[-1],
               "residual_sup_final": resid[-1], "interaction_final": i_at[-1],
               "n_steps": run.meta["n_steps"], "dt": run.dt}
    return "COMPLETED", metrics


def _run_epsilon_sweep(p: DoubleLimitPdeSpec, seed: int, out: Path) -> tuple[str, dict]:
    """An epsilon-sweep experiment, or the mean-field column of a
    double-limit sweep (whose section has no t0 key)."""
    base = build_separable(p.model, max(p.epsilons))
    grid = Grid1D(p.grid.L, p.grid.cells)
    report = epsilon_sweep(base, p.epsilons, grid, p.T,
                           init_concentration=p.init.concentration,
                           init_center=p.init.center, t0=p.t0)
    rows = [[d.epsilon, d.sup_phi_final, d.support_width_final, d.i_final,
             d.residual_sup_final, d.theta,
             d.bv.tv if d.bv else math.nan, d.status]
            for d in report.diagnostics]
    write_csv(out / "sweep_summary.csv",
              ["epsilon", "sup_phi", "support_width", "interaction_final",
               "residual_sup", "theta", "tv_interaction", "status"], rows)
    (out / "convergence_report.json").write_text(
        json.dumps(_jsonable(report.headline()), indent=2, sort_keys=True) + "\n",
        newline="\n")
    failed = [d.epsilon for d in report.diagnostics if d.status != "COMPLETED"]
    status = "COMPLETED" if not failed else "PARTIAL"
    return status, report.headline()


def _run_balance(p: BalanceAnalysisSpec, seed: int, out: Path) -> tuple[str, dict]:
    model = build_model(p.model)
    try:
        report = chemical_balance_report(model.ghat, p.model.E_E, p.model.E_I,
                                         p.sbar.E, p.sbar.I)
    except DegenerateDenominatorError as err:
        write_csv(out / "balance.csv",
                  ["population", "x_star", "rate", "stable", "marginal", "denominator"],
                  [])
        return "DEGENERATE_DENOMINATOR", {"error": str(err)}
    rows = []
    for b, lab in enumerate("EI"):
        st = report.stability[b]
        rows.append([f"{b}", report.voltages[b], st.rate, int(st.stable),
                     int(st.marginal), report.denominators[b]])
    write_csv(out / "balance.csv",
              ["population", "x_star", "rate", "stable", "marginal", "denominator"],
              rows)
    metrics = {"x_star": list(report.voltages),
               "rates": [s.rate for s in report.stability],
               "stable": [s.stable for s in report.stability]}
    return "COMPLETED", metrics


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def emit_figure_data(runs: list[RunRecord], figure: str, out: Path,
                     models: list | None = None) -> tuple[list[str], str]:
    """Write per-panel CSV files for a reproduced figure; returns the file
    list and a status (NO_DATA when no runs are supplied)."""
    if not runs:
        return [], NO_DATA
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    if figure == "fig1":
        for run, suffix in zip(runs, ("", "_sqrt")):
            name = f"fig1_traces{suffix}.csv"
            header = ["t"] + [f"v_{j:02d}" for j in range(run.traces[0].shape[1])]
            columns_csv(out / name, header,
                        [run.times] + [run.traces[0][:, j]
                                       for j in range(run.traces[0].shape[1])])
            files.append(name)
            name = f"fig1_dispersion{suffix}.csv"
            columns_csv(out / name, ["t", "std_x", "std_y"],
                        [run.times, run.stds[0][:, 0], run.stds[0][:, 1]])
            files.append(name)
            from .stats import histogram
            for k, (t, states) in enumerate(run.snapshots):
                h = histogram(states[:, 0], -20.0, 20.0, 81)
                name = f"fig1_hist{suffix}_t{k}.csv"
                columns_csv(out / name, ["bin_center", "count"],
                            [h.centers, h.counts])
                files.append(name)
        return files, "COMPLETED"
    if figure == "fig2":
        run = runs[0]
        model = models[0]
        k = run.traces[0].shape[1]
        header = (["t"] + [f"e_{j:02d}" for j in range(k)]
                  + [f"i_{j:02d}" for j in range(k)]
                  + ["xstar_E_pred", "xstar_I_pred"])
        preds = np.full((len(run.times), 2), np.nan)
        for i in range(len(run.times)):
            try:
                ghat = run.meta.get("ghat_series", {}).get(i, model.ghat)
                preds[i] = chemical_balance_voltages(
                    ghat, model.erev[0], model.erev[1],
                    run.means[0][i, 2], run.means[1][i, 2])
            except DegenerateDenominatorError:
                pass
        cols = ([run.times] + [run.traces[0][:, j] for j in range(k)]
                + [run.traces[1][:, j] for j in range(k)]
                + [preds[:, 0], preds[:, 1]])
        columns_csv(out / "fig2_traces.csv", header, cols)
        return ["fig2_traces.csv"], "COMPLETED"
    raise ValueError(f"unknown figure {figure!r}")


def _run_figures(p: FiguresSpec, seed: int, out: Path) -> tuple[str, dict]:
    if p.figure == "fig1":
        cfg = p.model if p.model is not None else ElectricalConfig()
        T = p.T if p.T is not None else 0.5
        dt = p.dt if p.dt is not None else 1e-4
        runs = []
        for rule in (ScalingRule("linear"), ScalingRule("sqrt")):
            model = build_model(cfg, scaling=rule)
            rec = RecordSpec(stride=max(1, int(round(T / dt / 2000))), traces=20,
                             snapshot_times=(0.0, 0.05, T))
            runs.append(simulate(model, build_init(cfg), T, dt, seed, rec))
        files, status = emit_figure_data(runs, "fig1", out)
        return status, {"files": files,
                        "final_std_x": [float(r.stds[0][-1, 0]) for r in runs]}
    cfg = p.model if p.model is not None else ChemicalConfig()
    model = build_model(cfg)
    gamma = model.gamma()
    T = p.T if p.T is not None else 3.0
    dt = p.dt if p.dt is not None else 0.08 / (gamma * max(cfg.g_EE, cfg.g_EI, cfg.g_IE, cfg.g_II, 1e-12))
    rec = RecordSpec(stride=max(1, int(round(T / dt / 2000))), traces=20)
    event = PerturbationEvent(T / 2, {"g_EE": 1.5, "g_EI": 1.5})
    run = simulate(model, build_init(cfg), T, dt, seed, rec, [event])
    # predictions after the perturbation use the scaled conductances
    pert = apply_perturbation(model, event)
    run.meta["ghat_series"] = {
        i: (model.ghat if run.times[i] < event.t else pert.ghat)
        for i in range(len(run.times))}
    files, status = emit_figure_data([run], "fig2", out, models=[model])
    if run.status != "COMPLETED":
        status = run.status
    return status, {"files": files}


# ---------------------------------------------------------------------------
# double-limit sweep
# ---------------------------------------------------------------------------


def _collapse_time(run: RunRecord, threshold: float) -> float:
    below = np.nonzero(run.stds[0][:, 0] <= threshold)[0]
    return float(run.times[below[0]]) if below.size else math.nan


def _network_cell(cfg, n, rule: ScalingRule, T, threshold, seed, out: Path,
                  mode: str = "direct") -> dict:
    """One grid cell: a direct run over [0, T] (collapse at times ~1/gamma,
    snapshot at 10/gamma for the contraction ratio) or the rescaled
    early-time system over a fixed rescaled horizon T."""
    model = build_model(cfg, n=n, scaling=rule)
    gamma = model.gamma()
    gmax = float(np.max(np.abs(model.coupling)))
    if mode == "rescaled-early":
        dt_tilde = min(0.08 / gmax, 1e-3) if gmax > 0 else 1e-3
        rec = RecordSpec(stride=1, traces=0, snapshot_times=(0.0, T))
        run = simulate_rescaled_early(model, build_init(cfg), T, dt_tilde, seed, rec)
    else:
        dt = min(0.08 / (gamma * gmax), 1e-3) if gmax > 0 else 1e-3
        rec = RecordSpec(stride=1, traces=0, snapshot_times=(0.0, 10.0 / gamma))
        run = simulate(model, build_init(cfg), T, dt, seed, rec)
    out.mkdir(parents=True, exist_ok=True)
    metrics = _write_run_artifacts(out, run, [p.label for p in model.populations])
    d0 = dT = math.nan
    if len(run.snapshots) >= 2:
        d0 = distance_to_balance(NetworkState(0.0, run.snapshots[0][1], model.offsets), model)
        dT = distance_to_balance(NetworkState(0.0, run.snapshots[1][1], model.offsets), model)
    return {"kind": "network", "n": n, "scaling": rule.kind, "gamma": gamma,
            "mode": mode,
            "status": run.status, "collapse_time": _collapse_time(run, threshold),
            "steady_std": float(np.mean(run.stds[0][-max(1, len(run.times) // 10):, 0])),
            "distance_initial": d0, "distance_contracted": dT,
            **{k: v for k, v in metrics.items() if k == "blowup_time"}}


def sweep_double_limit(p: DoubleLimitSpec, seed: int, out: Path,
                       threads: int = 1) -> tuple[str, dict]:
    """Run the two approaches to the double limit on a grid: network cells
    (rows in n, per scaling rule) and a mean-field column swept in epsilon.
    Per-cell failures are recorded and the sweep continues."""
    jobs = []
    if p.network is not None:
        for rule_cfg in p.network.scalings:
            for n in p.network.n_values:
                jobs.append(("network", rule_cfg, n))
    if p.pde is not None:
        jobs.append(("pde", None, None))

    results: list[dict | None] = [None] * len(jobs)

    def run_cell(idx: int):
        kind, rule_cfg, n = jobs[idx]
        cell_seed = (seed + 1000003 * idx) % (2 ** 64)
        cell_out = out / f"cell_{idx:02d}"
        try:
            if kind == "network":
                rule = ScalingRule(rule_cfg.kind, rule_cfg.coefficient)
                return _network_cell(p.network.model, n, rule, p.network.T,
                                     p.network.collapse_threshold, cell_seed,
                                     cell_out, p.network.mode)
            cell_out.mkdir(parents=True, exist_ok=True)
            status, metrics = _run_epsilon_sweep(p.pde, cell_seed, cell_out)
            return {"kind": "pde", "status": status, **metrics}
        except (ValueError, ArithmeticError) as err:
            # numerical and configuration failures; anything else is a bug
            return {"kind": kind, "status": "FAILED",
                    "error": f"{type(err).__name__}: {err}",
                    "n": n, "scaling": getattr(rule_cfg, "kind", None)}

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for idx, res in zip(range(len(jobs)), pool.map(run_cell, range(len(jobs)))):
                results[idx] = res
    else:
        for idx in range(len(jobs)):
            results[idx] = run_cell(idx)

    rows = []
    for idx, res in enumerate(results):
        if res["kind"] == "network":
            rows.append([idx, "network", res.get("n"), res.get("scaling"),
                         res.get("gamma", math.nan), res.get("collapse_time", math.nan),
                         res.get("steady_std", math.nan),
                         res.get("distance_initial", math.nan),
                         res.get("distance_contracted", math.nan),
                         res["status"]])
        else:
            eps = res.get("epsilons", [])
            sup = res.get("sup_phi", [])
            wid = res.get("support_width", [])
            for e, s, w in zip(eps, sup, wid):
                rows.append([idx, "pde", e, "epsilon", math.nan, math.nan,
                             math.nan, s, w, res["status"]])
    write_csv(out / "summary.csv",
              ["cell", "kind", "n_or_eps", "scaling", "gamma", "collapse_time",
               "steady_std", "metric_a", "metric_b", "status"], rows)
    failures = sum(1 for r in results if r["status"] not in ("COMPLETED", "BLOWUP"))
    status = "COMPLETED" if failures == 0 else "PARTIAL"
    return status, {"cells": results, "failures": failures}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None,
                   threads: int = 1) -> dict:
    """Execute an experiment spec, write its artifacts and manifest, and
    return the manifest. Identical specs reproduce byte-identical CSV
    bodies for any thread count."""
    target = Path(out_dir) if out_dir is not None else (
        Path(spec.out) if spec.out else None)
    if target is None:
        raise ValueError("an output directory is required (config 'out' or --out)")
    target.mkdir(parents=True, exist_ok=True)
    # built per call, so a runner rebound at module level (as perfbench's
    # tracing does) is the one that runs
    runners = {NetworkRunSpec: _run_network, RescaledEarlySpec: _run_rescaled_early,
               PdeRunSpec: _run_pde, EpsilonSweepSpec: _run_epsilon_sweep,
               DoubleLimitSpec: partial(sweep_double_limit, threads=threads),
               BalanceAnalysisSpec: _run_balance, FiguresSpec: _run_figures}
    status, metrics = runners[type(spec.payload)](spec.payload, spec.seed, target)
    return write_manifest(target, spec, status, metrics)
