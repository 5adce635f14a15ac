"""One measured run of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

run.py writes the job and starts this script once per run. The script
imports balancenet from the checkout's src/ (and refuses any other copy),
pins itself to the job's CPUs, warms up through the CLI on a tiny config
of the same kind, reports the time.monotonic() at that point (run.py
subtracts the spawn time to get set-up time), then runs the measured
config through ``balancenet.cli.main`` and reports when its
``run_experiment`` call began and ended. With ``trace`` set, spans wrap
the layers (see spans.py).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

WRONG_COPY_EXIT = 3


def _environment(kernels) -> dict:
    from importlib import metadata

    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    active = getattr(kernels, "active", None)
    impls = {}
    for name in getattr(kernels, "IMPLEMENTATIONS", {}) if active else ():
        impl = active(name)
        impls[name] = f"{impl.__module__}.{getattr(impl, '__qualname__', impl)}"
    enabled = getattr(kernels, "numba_enabled", None)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": version("scipy"),
            "numba_enabled": enabled() if enabled else None,
            "BALANCENET_NO_NUMBA": os.environ.get("BALANCENET_NO_NUMBA"),
            "kernels": impls}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    os.sched_setaffinity(0, job["cpus"])
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import balancenet
    loaded = Path(balancenet.__file__).resolve().parent
    if loaded != (src / "balancenet").resolve():
        print(f"balancenet was imported from {loaded}, not from {src}", file=sys.stderr)
        return WRONG_COPY_EXIT
    from balancenet import _kernels, cli, hopfcole

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    # the eps-sweep check needs each solver run's mass series, which no
    # artifact carries; four calls per run
    drifts = []
    solve = hopfcole.solve_fp_1d

    def solve_with_mass_probe(*args, **kwargs):
        run = solve(*args, **kwargs)
        drifts.append(float(abs(run.mass - 1.0).max()))
        return run

    hopfcole.solve_fp_1d = solve_with_mass_probe

    run_spans = []
    run_experiment = cli.run_experiment

    def timed_run_experiment(*args, **kwargs):
        start = time.monotonic()
        try:
            return run_experiment(*args, **kwargs)
        finally:
            run_spans.append((start, time.monotonic()))

    cli.run_experiment = timed_run_experiment

    def cli_run(config: str, out: str) -> int:
        return cli.main([job["command"], "--config", config, "--out", out,
                         "--threads", str(job["threads"])])

    warm_code = cli_run(job["warmup_config"], job["warmup_out"])
    ready_time = time.monotonic()
    if warm_code != 0:
        print(f"warm-up exited with {warm_code}", file=sys.stderr)
        return 1

    drifts.clear()
    run_spans.clear()
    if tracer:
        tracer.reset()
    code = cli_run(job["config"], job["out"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"exit_code": code, "ready_time": ready_time,
              "run_span": run_spans[0] if run_spans else None,
              "peak_rss_mb": peak_rss_mb,
              "probe": {"mass_drift": drifts},
              "env": _environment(_kernels)}
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, job["threads"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
