"""Experiment orchestration and deterministic artifact emission.

Every experiment writes CSV files plus a manifest.json carrying the echoed
configuration, seed, termination status, the kernel backends and thread
count it ran on, a sha256 inventory of the emitted files and headline
metrics. CSV bodies are byte-reproducible: a float's text is repr's (the
shortest that round-trips), an integer's str's, with a comma delimiter, LF
endings and no timestamps. A file whose columns are all 1-D numeric arrays
is formatted by the C twin of ``_kernels.csv_body`` in one call without the
GIL, with the same text; any other file, or any run without that twin, is
formatted in Python.
Sweep cells run concurrently (one output subdirectory per cell); the summary
is assembled in cell order, so thread counts cannot change any byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import (backend as kernel_backend, c_twin, csv_body, csv_column_kind,
                       numpy_exp_target)
from .balance import (DegenerateDenominatorError, EmpiricalMeasure,
                      chemical_balance_report, chemical_balance_voltages,
                      distance_to_balance, integrate_early_ode)
from .config import (BalanceAnalysisSpec, DoubleLimitPdeSpec,
                     DoubleLimitSpec, EpsilonSweepSpec, ExperimentSpec,
                     FiguresSpec, NetworkRunSpec, PdeRunSpec, RescaledEarlySpec)
from .hopfcole import epsilon_sweep, snapshot_series
from .models import ScalingRule
from .network import (NetworkState, RecordSpec, RunRecord,
                      apply_perturbation, simulate, simulate_rescaled_early,
                      usable_cpus)
from .pde import gaussian_initial, solve_fp_1d


# ---------------------------------------------------------------------------
# deterministic CSV + manifest plumbing
# ---------------------------------------------------------------------------


def _csv_body(columns: list) -> str:
    """csv_body of the columns, by its C twin when it has one that passed
    its check and every column is a 1-D numeric array it takes."""
    numeric = all(csv_column_kind(col) is not None for col in columns)
    twin = c_twin("csv_body") if numeric else None
    return twin(columns) if twin is not None else csv_body(columns)


def write_csv(path: Path, header: list[str], columns) -> str:
    """Write a CSV of the given columns (arrays or sequences of values,
    cut to the shortest), each value formatted as _kernels.format_value
    does, and return its text."""
    text = ",".join(header) + "\n" + _csv_body(list(columns))
    path.write_text(text, newline="\n")
    return text


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


def write_manifest(out: Path, spec: ExperimentSpec, status: str, metrics: dict,
                   threads: int) -> dict:
    files = {}
    for p in sorted(out.rglob("*.csv")) + sorted(out.rglob("*_report.json")):
        files[str(p.relative_to(out))] = file_digest(p)
    # every kind writes CSVs
    backend = {"numpy": np.__version__, "threads": threads,
               "csv_body": kernel_backend("csv_body")}
    payload = spec.payload
    if isinstance(payload, (PdeRunSpec, EpsilonSweepSpec)) or (
            isinstance(payload, DoubleLimitSpec) and payload.pde is not None):
        backend["fp_chunk"] = kernel_backend("fp_chunk")
    if isinstance(payload, (NetworkRunSpec, RescaledEarlySpec, FiguresSpec)) or (
            isinstance(payload, DoubleLimitSpec) and payload.network is not None):
        backend["network_chunk"] = kernel_backend("network_chunk")
        backend["normal_block"] = kernel_backend("normal_block")
        backend["numpy_exp"] = numpy_exp_target()
        # the CPU set the noise prefetch is gated on (see network._NoiseFeed)
        backend["cpus"] = usable_cpus()
    if isinstance(payload, RescaledEarlySpec):  # the one kind that steps the early ODE
        backend["rk4_affine"] = kernel_backend("rk4_affine")
    if "c" in backend.values():
        from ._clib import build_target
        backend.update(build_target())
    manifest = {
        "version": __version__,
        "backend": backend,
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
# runners, one per experiment spec: each takes (payload, seed, output
# directory) and returns (status, metrics)
# ---------------------------------------------------------------------------

_COORDS = ("x", "y", "s")


def _write_run_artifacts(out: Path, run: RunRecord, labels: list[str],
                         written: dict | None = None) -> dict:
    """Write a run's series, traces and snapshots. ``written`` maps each
    snapshot state already written (shape and bytes) to its CSV text; a
    bit-equal state is written from it without being formatted again."""
    d = run.means[0].shape[1]
    header = ["t"]
    cols = [run.times]
    for p, lab in enumerate(labels):
        for k in range(d):
            header += [f"mean_{lab}_{_COORDS[k]}", f"std_{lab}_{_COORDS[k]}"]
            cols += [run.means[p][:, k], run.stds[p][:, k]]
    write_csv(out / "series.csv", header, cols)

    if any(tr.shape[1] for tr in run.traces):
        header = ["t"]
        cols = [run.times]
        for p, lab in enumerate(labels):
            for j in range(run.traces[p].shape[1]):
                header.append(f"{lab}_{j:02d}")
                cols.append(run.traces[p][:, j])
        write_csv(out / "traces.csv", header, cols)

    for idx, (t, states) in enumerate(run.snapshots):
        path = out / f"snapshot_{idx:02d}.csv"
        header = ["agent", *_COORDS[:d]]
        columns = [np.arange(states.shape[0]), *(states[:, k] for k in range(d))]
        if written is None:
            write_csv(path, header, columns)
            continue
        key = (states.shape, states.tobytes())
        if key in written:
            path.write_text(written[key], newline="\n")
        else:
            written[key] = write_csv(path, header, columns)

    metrics = {"status": run.status, "gamma": run.gamma,
               "final_std": [float(run.stds[p][-1, 0]) for p in range(len(labels))]}
    if run.blowup_time is not None:
        metrics["blowup_time"] = run.blowup_time
    return metrics


def _run_network(p: NetworkRunSpec, seed: int, out: Path) -> tuple[str, dict]:
    run = simulate(p.model.build(), p.model.initial_conditions(), p.T, p.dt, seed,
                   p.record, p.events)
    return run.status, _write_run_artifacts(out, run, p.model.labels)


def _run_rescaled_early(p: RescaledEarlySpec, seed: int, out: Path) -> tuple[str, dict]:
    gaps, moves_y, moves_s = [], [], []
    status = "COMPLETED"
    # every gamma draws the same initial state, so its t = 0 snapshot is
    # formatted once
    written = {}
    for gi, gamma in enumerate(p.gammas):
        model = p.model.build(scaling=ScalingRule("constant", gamma))
        rec = replace(p.record, snapshot_times=(0.0,) + p.record.snapshot_times)
        run = simulate_rescaled_early(model, p.model.initial_conditions(), p.T_tilde,
                                      p.dt_tilde, seed, rec)
        if run.status != "COMPLETED":
            status = run.status
            gap = move_y = move_s = math.nan
        else:
            gap, move_y, move_s = _early_gap(model, run)
            sub = out / f"gamma_{gi}"
            sub.mkdir(exist_ok=True)
            _write_run_artifacts(sub, run, model.labels, written)
        gaps.append(gap)
        moves_y.append(move_y)
        moves_s.append(move_s)
    write_csv(out / "early_gaps.csv", ["gamma", "sup_gap", "move_y", "move_s"],
              [p.gammas, gaps, moves_y, moves_s])
    metrics = {"gammas": list(p.gammas), "gaps": gaps, "moves_y": moves_y, "moves_s": moves_s}
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


def _run_pde(p: PdeRunSpec, seed: int, out: Path) -> tuple[str, dict]:
    model = p.model.build(p.model.epsilon)
    grid = p.grid.build()
    mu0 = gaussian_initial(grid, model.epsilon, p.init.concentration, p.init.center)
    snap = p.snapshot_every if p.snapshot_every is not None else p.T / 60
    run = solve_fp_1d(model, mu0, p.T, snapshot_every=snap)
    transform, series = snapshot_series(run)
    write_csv(out / "pde_series.csv", ["t", "mass", *series],
              [run.times, run.mass, *series.values()])
    idxs = np.unique(np.round(np.linspace(0, len(run.times) - 1, 8)).astype(int))
    for j, idx in enumerate(idxs):
        write_csv(out / f"pde_snapshot_{j:02d}.csv", ["x", "mu", "phi"],
                  [grid.centers, run.densities[idx], transform.phi[idx]])
    metrics = {"mass_drift": float(np.max(np.abs(run.mass - 1.0))),
               **{f"{name}_final": float(col[-1]) for name, col in series.items()},
               "n_steps": run.meta["n_steps"], "dt": run.dt}
    return "COMPLETED", metrics


def _run_epsilon_sweep(p: DoubleLimitPdeSpec, seed: int, out: Path) -> tuple[str, dict]:
    """An epsilon-sweep experiment, or the mean-field column of a
    double-limit sweep (whose section has no t0 key)."""
    report = epsilon_sweep(p.model.build(max(p.epsilons)), p.epsilons, p.grid.build(), p.T,
                           init_concentration=p.init.concentration,
                           init_center=p.init.center, t0=p.t0)
    diags = report.diagnostics
    write_csv(out / "sweep_summary.csv",
              ["epsilon", "sup_phi", "support_width", "interaction_final",
               "residual_sup", "theta", "tv_interaction", "status"],
              [*([getattr(d, name) for d in diags]
                 for name in ("epsilon", "sup_phi_final", "support_width_final", "i_final",
                              "residual_sup_final", "theta")),
               [d.bv.tv if d.bv else math.nan for d in diags], [d.status for d in diags]])
    (out / "convergence_report.json").write_text(
        json.dumps(_jsonable(report.headline()), indent=2, sort_keys=True) + "\n",
        newline="\n")
    failed = [d.epsilon for d in report.diagnostics if d.status != "COMPLETED"]
    status = "COMPLETED" if not failed else "PARTIAL"
    return status, report.headline()


def _run_balance(p: BalanceAnalysisSpec, seed: int, out: Path) -> tuple[str, dict]:
    try:
        report = chemical_balance_report(p.model.build().ghat, p.model.E_E, p.model.E_I,
                                         p.sbar.E, p.sbar.I)
    except DegenerateDenominatorError as err:
        write_csv(out / "balance.csv",
                  ["population", "x_star", "rate", "stable", "marginal", "denominator"],
                  [])
        return "DEGENERATE_DENOMINATOR", {"error": str(err)}
    stability = report.stability
    write_csv(out / "balance.csv",
              ["population", "x_star", "rate", "stable", "marginal", "denominator"],
              [["0", "1"], report.voltages, [st.rate for st in stability],
               [int(st.stable) for st in stability], [int(st.marginal) for st in stability],
               report.denominators])
    metrics = {"x_star": list(report.voltages),
               "rates": [s.rate for s in report.stability],
               "stable": [s.stable for s in report.stability]}
    return "COMPLETED", metrics


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def emit_figure_data(runs: list[RunRecord], figure: str, out: Path,
                     predicted: np.ndarray | None = None) -> list[str]:
    """Write per-panel CSV files for a reproduced figure; returns the file
    list. fig2 takes the predicted balance voltages of each record row,
    (rows, 2)."""
    out.mkdir(parents=True, exist_ok=True)
    files: list[str] = []
    if figure == "fig1":
        for run, suffix in zip(runs, ("", "_sqrt")):
            name = f"fig1_traces{suffix}.csv"
            header = ["t"] + [f"v_{j:02d}" for j in range(run.traces[0].shape[1])]
            write_csv(out / name, header,
                      [run.times] + [run.traces[0][:, j]
                                     for j in range(run.traces[0].shape[1])])
            files.append(name)
            name = f"fig1_dispersion{suffix}.csv"
            write_csv(out / name, ["t", "std_x", "std_y"],
                      [run.times, run.stds[0][:, 0], run.stds[0][:, 1]])
            files.append(name)
            from .stats import histogram
            for k, (t, states) in enumerate(run.snapshots):
                h = histogram(states[:, 0], -20.0, 20.0, 81)
                name = f"fig1_hist{suffix}_t{k}.csv"
                write_csv(out / name, ["bin_center", "count"], [h.centers, h.counts])
                files.append(name)
        return files
    if figure == "fig2":
        run = runs[0]
        k = run.traces[0].shape[1]
        header = (["t"] + [f"e_{j:02d}" for j in range(k)]
                  + [f"i_{j:02d}" for j in range(k)]
                  + ["xstar_E_pred", "xstar_I_pred"])
        cols = ([run.times] + [run.traces[0][:, j] for j in range(k)]
                + [run.traces[1][:, j] for j in range(k)]
                + [predicted[:, 0], predicted[:, 1]])
        write_csv(out / "fig2_traces.csv", header, cols)
        return ["fig2_traces.csv"]
    raise ValueError(f"unknown figure {figure!r}")


def _run_figures(p: FiguresSpec, seed: int, out: Path) -> tuple[str, dict]:
    runs = p.runs()
    records = [simulate(seed=seed, **run) for run in runs]
    if p.figure == "fig1":
        files = emit_figure_data(records, "fig1", out)
        return "COMPLETED", {"files": files,
                             "final_std_x": [float(r.stds[0][-1, 0]) for r in records]}
    (run,), (record,) = runs, records
    model, (event,) = run["model"], run["events"]
    files = emit_figure_data([record], "fig2", out, _fig2_predictions(record, model, event))
    return record.status, {"files": files}


def _fig2_predictions(record: RunRecord, model, event) -> np.ndarray:
    """The balance voltages each row of a fig2 record predicts from its mean
    gates: under the model's couplings before the event, under the
    perturbed ones from it on; NaN where the denominator degenerates."""
    pert = apply_perturbation(model, event)
    preds = np.full((len(record.times), 2), np.nan)
    for i, t in enumerate(record.times):
        ghat = model.ghat if t < event.t else pert.ghat
        try:
            preds[i] = chemical_balance_voltages(ghat, model.erev[0], model.erev[1],
                                                 record.means[0][i, 2], record.means[1][i, 2])
        except DegenerateDenominatorError:
            pass
    return preds


# ---------------------------------------------------------------------------
# double-limit sweep
# ---------------------------------------------------------------------------


def _collapse_time(run: RunRecord, threshold: float) -> float:
    below = np.nonzero(run.stds[0][:, 0] <= threshold)[0]
    return float(run.times[below[0]]) if below.size else math.nan


def _cell_dt(model, mode: str) -> float:
    """The step of a network cell: 0.8 of the step guard's bound, at most
    1e-3. In rescaled-early mode the step is on the rescaled clock, where
    the interaction acts at order one."""
    gamma = 1.0 if mode == "rescaled-early" else model.gamma()
    gmax = float(np.max(np.abs(model.coupling)))
    return min(0.08 / (gamma * gmax), 1e-3) if gmax > 0 else 1e-3


def _network_cell(cfg, n, rule: ScalingRule, T, threshold, seed, out: Path,
                  mode: str = "direct") -> dict:
    """One grid cell: a direct run over [0, T] (collapse at times ~1/gamma,
    snapshot at 10/gamma for the contraction ratio) or the rescaled
    early-time system over a fixed rescaled horizon T."""
    model = cfg.build(n, rule)
    gamma = model.gamma()
    dt = _cell_dt(model, mode)
    if mode == "rescaled-early":
        rec = RecordSpec(stride=1, traces=0, snapshot_times=(0.0, T))
        run = simulate_rescaled_early(model, cfg.initial_conditions(), T, dt, seed, rec)
    else:
        rec = RecordSpec(stride=1, traces=0, snapshot_times=(0.0, 10.0 / gamma))
        run = simulate(model, cfg.initial_conditions(), T, dt, seed, rec)
    out.mkdir(parents=True, exist_ok=True)
    metrics = _write_run_artifacts(out, run, model.labels)
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
        for rule in p.network.scalings:
            for n in p.network.n_values:
                jobs.append(("network", rule, n))
    if p.pde is not None:
        jobs.append(("pde", None, None))

    results: list[dict | None] = [None] * len(jobs)

    def cost(idx: int) -> float:
        """A cell's agent-steps, N times its step count; the pde column
        counts as the longest."""
        kind, rule, n = jobs[idx]
        if kind == "pde":
            return math.inf
        model = p.network.model.build(n, rule)
        return int(model.offsets[-1]) * p.network.T / _cell_dt(model, p.network.mode)

    def run_cell(idx: int):
        kind, rule, n = jobs[idx]
        cell_seed = (seed + 1000003 * idx) % (2 ** 64)
        cell_out = out / f"cell_{idx:02d}"
        try:
            if kind == "network":
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
                    "n": n, "scaling": getattr(rule, "kind", None)}

    if threads > 1 and len(jobs) > 1:
        # longest first, so the longest cell does not start last and leave
        # the other threads idle; the results keep their cell order
        order = sorted(range(len(jobs)), key=cost, reverse=True)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for idx, res in zip(order, pool.map(run_cell, order)):
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
               "steady_std", "metric_a", "metric_b", "status"], zip(*rows))
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
    return write_manifest(target, spec, status, metrics, threads)
