"""balancenet benchmark: four CLI workloads, end-to-end and per-layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --write-reference

Run from anywhere; paths resolve against the checkout this file sits in.
Each measured run is a fresh interpreter (worker.py) driving one config
through ``balancenet.cli.main``, one process at a time, with at most two
threads. Runs follow one another until --seconds have passed: the first
on the reference config seed, whose headline metrics are also compared
with perfbench/reference.json, the others on config seeds derived from
--seed. Every run's outputs are checked (exit code, manifest status,
sha256 inventory, workload invariants) and each failed run counts in
``failed``.

Every untraced run is stopped every PROBE_PERIOD_S while a fixed reference
computation (calibrate.py) is timed on the worker's CPUs; ``wall_rel`` is
the run's wall time, pauses excluded, in units of that probe time, which
cancels the host's slow and fast phases.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json
(medians over the runs); with --trace 1, every other run is
traced and the result carries the per-layer metrics (medians over the
traced runs) and trace.overhead_s, the traced minus the untraced median
wall time. The last stdout line is the JSON result; the lines before it
give quartiles, sample counts, the output-check verdict and the
environment, which also go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import probe
from workloads import WORKLOADS, check_common, compare_headline, config_seed, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WRONG_COPY_EXIT = 3   # worker.py: balancenet came from outside src/
MIN_RUNS = 3          # a traced invocation needs traced and untraced runs
RUN_TIMEOUT_S = 150
PROBE_PERIOD_S = 0.1  # worker run time between two speed probes

# numpy's BLAS pool would add threads beyond the sweep's two
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# traced check of each workload's purpose: the share of traced wall time
# (times the thread count) that these layers take
SHARES = {
    "rng+kernels.chemical_chunk": ("rng.normal_block.s", "kernels.chemical_chunk.s"),
    "kernels.fp_chunk": ("kernels.fp_chunk.s",),
    "balance.integrate_early_ode": ("balance.integrate_early_ode.s",),
    "network.simulate.self_s+harness": ("network.simulate.self_s", "harness.write_csv.s",
                                        "harness.file_digest.s"),
}


# printed with --trace 0 but not in BENCHMARK.json: raw wall time follows
# the host's speed phases too closely to hold a bound (wall_rel is declared
# instead), and calib_s is the host speed itself
UNDECLARED = {"wall_s": "s", "calib_s": "s"}


class WrongCopy(RuntimeError):
    pass


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "caches": caches, "commit": git_commit(), "thread_caps": THREAD_CAPS}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_cpus(threads: int) -> list[int]:
    """The CPUs a worker is pinned to: the last ``threads`` allowed ones."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-threads:]


def _threads(pid: int) -> list[tuple[str, int, int, str]]:
    """(state, CPU ticks used, CPU last run on, thread id) of each thread
    of ``pid``; empty once the process is gone."""
    out = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            # fields from 3 (state) on; utime and stime are 14 and 15,
            # processor is 39
            f = (task / "stat").read_text().rsplit(")", 1)[1].split()
            out.append((f[0], int(f[11]) + int(f[12]), int(f[36]), task.name))
    except (OSError, IndexError, ValueError):
        return []
    return out


def run_probed(cmd: list[str], probed: bool, stdout, stderr) -> tuple:
    """Runs ``cmd`` to its end. With ``probed``, stops it every
    PROBE_PERIOD_S and times the reference computation on each CPU its
    threads used since the last stop, while nothing else of ours runs
    there. An interval's probe time is the mean over those CPUs weighted by
    the CPU ticks spent on each, so a thread that worked on one CPU while
    another thread idled on the other counts that CPU only. Returns the
    exit code, the pauses as (start, end) and the probe times as (time,
    seconds), all on time.monotonic()."""
    env = {**os.environ, **THREAD_CAPS}
    pauses, probes = [], []
    ticks = {}   # thread id -> CPU ticks at the last stop
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        while True:
            try:
                return proc.wait(timeout=PROBE_PERIOD_S), pauses, probes
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, RUN_TIMEOUT_S)
            if not probed:
                continue
            start = time.monotonic()
            os.kill(proc.pid, signal.SIGSTOP)
            try:
                threads = _threads(proc.pid)
                while (any(t[0] not in "TtZX" for t in threads)
                       and time.monotonic() < start + 0.05):
                    time.sleep(0.0002)
                    threads = _threads(proc.pid)
                weights = {}
                for _, used, cpu, tid in threads:
                    weights[cpu] = weights.get(cpu, 0) + used - ticks.get(tid, 0)
                    ticks[tid] = used
                weights = {cpu: w for cpu, w in weights.items() if w > 0}
                seconds = (sum(w * probe(cpu) for cpu, w in weights.items())
                           / sum(weights.values())) if weights else None
            finally:
                os.kill(proc.pid, signal.SIGCONT)
            end = time.monotonic()
            pauses.append((start, end))
            if seconds is not None:
                probes.append((0.5 * (start + end), seconds))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _paused(pauses: list, a: float, b: float) -> float:
    """Seconds of [a, b] during which the worker was stopped."""
    return sum(max(0.0, min(b, end) - max(a, start)) for start, end in pauses)


def run_once(workload, seed: int, trace: bool, tag: str, reference=None) -> dict:
    """One worker run; returns its result with the list of check problems.
    Its ``setup_s`` and ``wall_s`` exclude the probe pauses, ``calib_s`` is
    the mean probe time during run_experiment and ``wall_rel`` the ratio.
    Traced runs are not probed, so that the spans hold no pauses."""
    d = WORK / tag
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    config = workload.config(seed)
    write_config(d / "config.json", config)
    write_config(d / "warmup.json", workload.warmup)
    cpus = worker_cpus(workload.threads)
    job = {"root": str(ROOT), "command": workload.command, "threads": workload.threads,
           "cpus": cpus, "config": str(d / "config.json"), "out": str(d / "out"),
           "warmup_config": str(d / "warmup.json"), "warmup_out": str(d / "warmup_out"),
           "trace": trace}
    (d / "job.json").write_text(json.dumps(job))
    try:
        spawn_time = time.monotonic()
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            code, pauses, probes = run_probed(
                [sys.executable, str(HERE / "worker.py"), str(d / "job.json"),
                 str(d / "result.json")], not trace, out, err)
        stderr = (d / "stderr").read_text(errors="replace").strip()
        if code == WRONG_COPY_EXIT:
            raise WrongCopy(stderr)
        if code != 0:
            tail = stderr.splitlines()[-1:] or ["no output"]
            return {"problems": [f"worker exited with {code}: {tail[0]}"]}
        result = json.loads((d / "result.json").read_text())
        ready, (run_start, run_end) = result["ready_time"], result["run_span"]
        result["setup_s"] = ready - spawn_time - _paused(pauses, spawn_time, ready)
        result["wall_s"] = run_end - run_start - _paused(pauses, run_start, run_end)
        during = [s for t, s in probes if run_start <= t <= run_end] or [s for _, s in probes]
        problems = []
        if during:
            result["calib_s"] = statistics.fmean(during)
            result["wall_rel"] = result["wall_s"] / result["calib_s"]
        elif not trace:
            problems.append("the worker ended before its speed was probed")
        if result["exit_code"] != 0:
            problems.append(f"CLI exit code {result['exit_code']}")
        manifest_path = d / "out" / "manifest.json"
        if not manifest_path.is_file():
            problems.append("no manifest.json written")
        else:
            manifest = json.loads(manifest_path.read_text())
            problems += check_common(manifest, d / "out")
            problems += workload.check(config, manifest, d / "out", result["probe"])
            if reference is not None:
                problems += compare_headline(manifest["metrics"], reference)
            result["headline"] = manifest["metrics"]
        result["problems"] = problems
        return result
    finally:
        shutil.rmtree(d, ignore_errors=True)


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Runs until the time is up; the first is on the reference config
    seed and is also checked against the reference headline metrics."""
    w = WORKLOADS[name]
    deadline = time.monotonic() + seconds
    runs = []
    last = 0.0
    while len(runs) < MIN_RUNS or time.monotonic() + last <= deadline:
        start = time.monotonic()
        i = len(runs)
        traced = trace and i % 2 == 1
        if i == 0:
            res = run_once(w, reference["seed"], traced, f"{name}-ref",
                           reference["metrics"][name])
        else:
            res = run_once(w, config_seed(seed, name, i), traced, f"{name}-{i}")
        res["traced"] = traced
        runs.append(res)
        last = time.monotonic() - start
    return runs


def end_to_end(passed: list[dict]) -> dict:
    if not passed:
        return {}
    return {k: quartiles([r[k] for r in passed])
            for k in ("wall_rel", "wall_s", "calib_s", "setup_s", "peak_rss_mb")}


def per_layer(passed: list[dict]) -> dict:
    traced = [r for r in passed if r["traced"]]
    plain = [r for r in passed if not r["traced"]]
    if not traced:
        return {}
    out = {k: quartiles([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    if plain:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        out["trace.overhead_s"] = {"median": overhead, "q1": overhead, "q3": overhead,
                                   "n": min(len(traced), len(plain))}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite perfbench/reference.json from the current code")
    args = p.parse_args(argv)
    # so that a stopped or running worker is killed and reaped on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    selected = names if args.workload == "all" else [args.workload]

    if not (ROOT / "src" / "balancenet" / "__init__.py").is_file():
        print(f"no balancenet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(selected)
        reference = json.loads(REFERENCE.read_text())
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace), reference)
                   for n in selected}
    except WrongCopy as err:
        print(f"refusing to measure another copy of balancenet: {err}", file=sys.stderr)
        return 3

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = {"machine": machine(), "program": next(
        (r["env"] for runs in results.values() for r in runs if "env" in r), None)}
    print("env " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name, runs in results.items():
        bad = [r for r in runs if r["problems"]]
        for r in bad:
            print(f"[{name}] FAILED: " + "; ".join(r["problems"]))
        passed = [r for r in runs if not r["problems"]]
        stats = per_layer(passed) if args.trace else end_to_end(passed)
        for key, unit in units.items():
            st = stats.get(key)
            if st is None:
                # only when no run passed, or the declared metrics and the
                # code disagree; either way the result is not correct
                print(f"[{name}] {key}: no samples")
                bad = bad or [{"problems": [f"no samples for {key}"]}]
                st = {"median": 0.0}
            else:
                print(f"[{name}] {key} = {st['median']:.6g} {unit} (median; "
                      f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g}; n={st['n']})")
            label = key if len(selected) == 1 else f"{name}.{key}"
            metrics[label] = {"value": st["median"], "unit": unit}
        for key, unit in UNDECLARED.items():
            st = stats.get(key)
            if st is not None and not args.trace:
                print(f"[{name}] {key} = {st['median']:.6g} {unit} (median; "
                      f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g}; n={st['n']}; not declared)")
        if args.trace and stats:
            denom = stats["trace.wall_s"]["median"] * WORKLOADS[name].threads
            for share, parts in SHARES.items():
                frac = sum(stats[k]["median"] for k in parts) / denom if denom else 0.0
                print(f"[{name}] share {share} = {frac:.3f} of traced wall x threads")
        attempted += len(runs)
        failed += len(bad)
        print(f"[{name}] failed_ratio = {len(bad) / len(runs):.6g} ratio "
              f"({len(bad)} of {len(runs)} runs); output checks: "
              f"{'ok' if not bad else 'FAILED'}")
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"env": env, "stats": stats, "runs": runs}, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_reference(selected: list[str]) -> int:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
        "seed": 20260811, "metrics": {}}
    for name in selected:
        res = run_once(WORKLOADS[name], ref["seed"], False, f"{name}-ref")
        if res["problems"]:
            print(f"[{name}] reference run failed: {res['problems']}", file=sys.stderr)
            return 1
        ref["metrics"][name] = res["headline"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
