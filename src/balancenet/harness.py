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
                       numpy_target)
from .balance import (DegenerateDenominatorError, chemical_balance_voltages,
                      chemical_stability, distance_to_balance, integrate_early_ode)
from .config import (BalanceAnalysisSpec, DoubleLimitPdeSpec,
                     DoubleLimitSpec, EpsilonSweepSpec, ExperimentSpec,
                     FiguresSpec, NetworkRunSpec, PdeRunSpec, RescaledEarlySpec,
                     network_cell_dt)
from .hopfcole import comparison_indices, epsilon_sweep, snapshot_series
from .models import ScalingRule
from .network import (RecordSpec, RunRecord, apply_perturbation, simulate,
                      simulate_rescaled_early, usable_cpus)
from .pde import SNAPSHOTS_PER_RUN, gaussian_initial, solve_fp_1d
from .stats import histogram


# ---------------------------------------------------------------------------
# deterministic CSV + manifest plumbing
# ---------------------------------------------------------------------------


def _csv_body(columns: list) -> str:
    """csv_body of the columns, by its C twin when it has one that passed
    its check and every column is a 1-D numeric array it takes."""
    numeric = all(csv_column_kind(col) is not None for col in columns)
    twin = c_twin("csv_body") if numeric else None
    return twin(columns) if twin is not None else csv_body(columns)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write a CSV of the given columns (arrays or sequences of values,
    cut to the shortest), each value formatted as _kernels.format_value
    does."""
    path.write_text(",".join(header) + "\n" + _csv_body(list(columns)), newline="\n")


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
    ufuncs = set()  # the transcendental numpy ufuncs the kind calls
    if isinstance(payload, (PdeRunSpec, EpsilonSweepSpec)) or (
            isinstance(payload, DoubleLimitSpec) and payload.pde is not None):
        backend["fp_chunk"] = kernel_backend("fp_chunk")
        backend["snapshot_certificates"] = kernel_backend("snapshot_certificates")
        # exp: the initial density and the beta sigmoid; log: Hopf-Cole
        ufuncs |= {"exp", "log"}
    if isinstance(payload, (NetworkRunSpec, RescaledEarlySpec, FiguresSpec)) or (
            isinstance(payload, DoubleLimitSpec) and payload.network is not None):
        backend["network_chunk"] = kernel_backend("network_chunk")
        backend["normal_block"] = kernel_backend("normal_block")
        ufuncs.add("exp")  # the chemical gate
        # the CPU set the noise prefetch is gated on (see network._NoiseFeed)
        backend["cpus"] = usable_cpus()
    if ufuncs:
        backend["numpy_dispatch"] = {name: numpy_target(name) for name in sorted(ufuncs)}
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


def _write_run_artifacts(out: Path, run: RunRecord, labels: list[str]) -> dict:
    """Write a run's series, traces and snapshots."""
    _, _, d = run.means.shape
    header = ["t"]
    cols = [run.times]
    for lab, means, stds in zip(labels, run.means, run.stds):
        for k in range(d):
            header += [f"mean_{lab}_{_COORDS[k]}", f"std_{lab}_{_COORDS[k]}"]
            cols += [means[:, k], stds[:, k]]
    write_csv(out / "series.csv", header, cols)

    n_traces = run.traces.shape[2]
    if n_traces:
        write_csv(out / "traces.csv",
                  ["t", *(f"{lab}_{j:02d}" for lab in labels for j in range(n_traces))],
                  [run.times, *(col for traces in run.traces for col in traces.T)])

    for idx, states in enumerate(run.snapshots):
        write_csv(out / f"snapshot_{idx:02d}.csv", ["agent", *_COORDS[:d]],
                  [np.arange(len(states)), *states.T])

    metrics = {"status": run.status, "gamma": run.gamma,
               "final_std": run.stds[:, -1, 0].tolist()}
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
            _write_run_artifacts(sub, run, model.labels)
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
    x0 = run.means[:, 0]
    ode = integrate_early_ode(model, model.population_means(run.snapshots[0]), x0,
                              float(run.times[-1]))
    ref = np.stack([np.interp(run.times, ode.times, x) for x in ode.traj[:, :, 0].T])
    gap = max(0.0, float(np.max(np.abs(run.means[:, :, 0] - ref))))
    # per coordinate, the largest move of any population's mean
    moves = np.max(np.abs(run.means - x0[:, None]), axis=(0, 1))
    return gap, float(moves[1]), float(moves[2]) if len(moves) > 2 else 0.0


def _run_pde(p: PdeRunSpec, seed: int, out: Path) -> tuple[str, dict]:
    model = p.model.build(p.model.epsilon)
    grid = p.grid.build()
    mu0 = gaussian_initial(grid, model.epsilon, p.init.concentration, p.init.center)
    snap = p.snapshot_every if p.snapshot_every is not None else p.T / SNAPSHOTS_PER_RUN
    run = solve_fp_1d(model, grid, mu0, p.T, snapshot_every=snap)
    transform, series, _, _ = snapshot_series(run)
    write_csv(out / "pde_series.csv", ["t", "mass", *series],
              [run.times, run.mass, *series.values()])
    for j, idx in enumerate(comparison_indices(len(run.times), 8)):
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
    header = ["population", "x_star", "rate", "stable", "marginal", "denominator"]
    ghat = p.model.build().ghat
    try:
        x_star = chemical_balance_voltages(ghat, p.model.E_E, p.model.E_I, p.sbar.E, p.sbar.I)
    except DegenerateDenominatorError as err:
        write_csv(out / "balance.csv", header, [])
        return "DEGENERATE_DENOMINATOR", {"error": str(err)}
    rates = chemical_stability(ghat, p.sbar.E, p.sbar.I)
    stable = rates < 0
    # the rates are also the denominators of the voltages
    write_csv(out / "balance.csv", header,
              [["0", "1"], x_star, rates, stable.astype(int), (rates == 0).astype(int), rates])
    return "COMPLETED", {"x_star": list(x_star), "rates": rates, "stable": stable}


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def _run_figures(p: FiguresSpec, seed: int, out: Path) -> tuple[str, dict]:
    """Write the per-panel CSV files of a reproduced figure: for fig1, each
    scaling's voltage traces, dispersion and voltage histograms at the
    snapshots; for fig2, the traces of both populations beside the balance
    voltages each row predicts."""
    runs = p.runs()
    records = [simulate(seed=seed, **run) for run in runs]
    files: list[str] = []

    def write(name: str, header: list[str], cols: list):
        write_csv(out / name, header, cols)
        files.append(name)

    if p.figure == "fig1":
        for run, suffix in zip(records, ("", "_sqrt")):
            traces = run.traces[0]
            write(f"fig1_traces{suffix}.csv",
                  ["t", *(f"v_{j:02d}" for j in range(traces.shape[1]))], [run.times, *traces.T])
            write(f"fig1_dispersion{suffix}.csv", ["t", "std_x", "std_y"],
                  [run.times, run.stds[0, :, 0], run.stds[0, :, 1]])
            for k, states in enumerate(run.snapshots):
                write(f"fig1_hist{suffix}_t{k}.csv", ["bin_center", "count"],
                      histogram(states[:, 0], -20.0, 20.0, 81))
        return "COMPLETED", {"files": files,
                             "final_std_x": [float(r.stds[0, -1, 0]) for r in records]}
    (run,), (record,) = runs, records
    model, (event,) = run["model"], run["events"]
    k = record.traces.shape[2]
    write("fig2_traces.csv",
          ["t", *(f"e_{j:02d}" for j in range(k)), *(f"i_{j:02d}" for j in range(k)),
           "xstar_E_pred", "xstar_I_pred"],
          [record.times, *record.traces[0].T, *record.traces[1].T,
           *_fig2_predictions(record, model, event).T])
    return record.status, {"files": files}


def _fig2_predictions(record: RunRecord, model, event) -> np.ndarray:
    """The balance voltages each row of a fig2 record predicts from its mean
    gates: under the model's couplings before the event, under the
    perturbed ones from it on; NaN where the denominator degenerates."""
    pert = apply_perturbation(model, event)
    preds = np.full((len(record.times), 2), np.nan)
    for i, (t, gates) in enumerate(zip(record.times, record.means[:, :, 2].T)):
        ghat = model.ghat if t < event.t else pert.ghat
        try:
            preds[i] = chemical_balance_voltages(ghat, model.erev[0], model.erev[1], *gates)
        except DegenerateDenominatorError:
            pass
    return preds


# ---------------------------------------------------------------------------
# double-limit sweep
# ---------------------------------------------------------------------------


def _collapse_time(run: RunRecord, threshold: float) -> float:
    below = np.nonzero(run.stds[0, :, 0] <= threshold)[0]
    return float(run.times[below[0]]) if below.size else math.nan


def _network_cell(cfg, n, rule: ScalingRule, T, threshold, seed, out: Path,
                  mode: str = "direct") -> dict:
    """One grid cell: a direct run over [0, T] (collapse at times ~1/gamma,
    snapshot at 10/gamma for the contraction ratio) or the rescaled
    early-time system over a fixed rescaled horizon T."""
    model = cfg.build(n, rule)
    gamma = model.gamma()
    dt = network_cell_dt(model, mode)
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
        d0, dT = (distance_to_balance(states, model) for states in run.snapshots[:2])
    return {"kind": "network", "n": n, "scaling": rule.kind, "gamma": gamma,
            "mode": mode,
            "status": run.status, "collapse_time": _collapse_time(run, threshold),
            "steady_std": float(np.mean(run.stds[0, -max(1, len(run.times) // 10):, 0])),
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
        dt = network_cell_dt(model, p.network.mode)
        return model.n * model.n_populations * p.network.T / dt

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

    # longest first, so the longest cell does not start last and leave the
    # other threads idle; the results keep their cell order
    order = sorted(range(len(jobs)), key=cost, reverse=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for idx, res in zip(order, pool.map(run_cell, order)):
            results[idx] = res

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
