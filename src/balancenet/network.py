"""Fixed-step Euler-Maruyama integration of the coupled network SDE,
including the time-rescaled early-dynamics mode and scheduled conductance
perturbations.

Noise is assigned per (seed, absolute step, agent) through fixed-size
counter-keyed blocks (see rng), so a run is a pure function of
(model, init, T, dt, seed, recorder) regardless of chunking or thread
count. The network input of the two built-in families is affine in the
target voltage with coefficients read off population means (see
models.SourceMaps), reducing a step to O(N); custom interactions fall back
to an O(N^2) path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import rng
from ._kernels import active
from .models import ModelDefinitionError, NetworkModel, build_fhn_network

NOISE_CHUNK = 256

COMPLETED = "COMPLETED"
BLOWUP = "BLOWUP"


class ConfigurationError(ValueError):
    """Invalid run configuration, rejected before stepping."""


class BlowupError(ArithmeticError):
    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t}")
        self.t = t


# ---------------------------------------------------------------------------
# state, initial conditions, recording
# ---------------------------------------------------------------------------


@dataclass
class NetworkState:
    """States of all agents at one time; agents of each population occupy a
    contiguous block given by offsets."""

    t: float
    states: np.ndarray  # (N, d)
    offsets: np.ndarray  # (P + 1,)

    def population_of(self, i: int) -> int:
        return int(np.searchsorted(self.offsets, i, side="right") - 1)

    def block(self, p: int) -> np.ndarray:
        return self.states[self.offsets[p]:self.offsets[p + 1]]


@dataclass(frozen=True)
class CoordinateIC:
    """Initial law of one coordinate: "normal" (mean, sd), "uniform"
    (low, high) or "constant" (value)."""

    dist: str
    p1: float
    p2: float = 0.0

    def __post_init__(self):
        if self.dist not in ("normal", "uniform", "constant"):
            raise ConfigurationError(f"unknown initial distribution {self.dist!r}")


@dataclass(frozen=True)
class InitialConditionSpec:
    """Per-population, per-coordinate initial laws."""

    coords: tuple[tuple[CoordinateIC, ...], ...]


@dataclass(frozen=True)
class RecordSpec:
    stride: int = 1
    traces: int = 0
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigurationError("record stride must be >= 1")
        if self.traces < 0:
            raise ConfigurationError("trace count must be >= 0")


@dataclass(frozen=True)
class PerturbationEvent:
    """Multiply conductance magnitudes at time t; signs are preserved."""

    t: float
    multipliers: dict

    def __post_init__(self):
        for k, v in self.multipliers.items():
            if not v > 0:
                raise ConfigurationError(f"perturbation multiplier {k} must be positive")


@dataclass
class RunRecord:
    """Sampled statistics of one run; snapshots hold full states."""

    seed: int
    dt: float
    gamma: float
    times: np.ndarray
    means: list[np.ndarray]            # per population, (S, d)
    stds: list[np.ndarray]             # per population, (S, d), divisor n
    traces: list[np.ndarray]           # per population, (S, k) voltage traces
    snapshots: list[tuple[float, np.ndarray]]
    status: str = COMPLETED
    blowup_time: float | None = None
    meta: dict = field(default_factory=dict)


def apply_perturbation(model: NetworkModel, event: PerturbationEvent) -> NetworkModel:
    """Return a model with scaled conductance magnitudes."""
    if not model.affine:
        raise ConfigurationError("perturbations are defined for the built-in families only")
    unknown = set(event.multipliers) - set(model.params.conductances)
    if unknown:
        raise ConfigurationError(f"unknown conductance entries {sorted(unknown)}")
    pr = model.params
    pr = replace(pr, **{k: getattr(pr, k) * m for k, m in event.multipliers.items()})
    return build_fhn_network(pr, n=model.populations[0].n, scaling=model.scaling)


# ---------------------------------------------------------------------------
# generic single step (any family, explicit noise)
# ---------------------------------------------------------------------------


def _drift_block(model: NetworkModel, p: int, X: np.ndarray) -> np.ndarray:
    if model.affine:
        return model.params.drift(X)
    return np.stack([model.eval_drift(p, x) for x in X], axis=0)


def _interaction_block(model: NetworkModel, p: int, X: np.ndarray,
                       state: NetworkState) -> np.ndarray:
    """Population-q averaged interaction sum_q g_pq mean_j b_pq(x_i, x_j),
    before the gamma factor.

    Aggregates use exactly rounded summation (math.fsum), so permuting
    agents within a population permutes the step output exactly.
    """
    out = np.zeros_like(X)
    if model.affine:
        ybar = np.array([[math.fsum(col) / col.shape[0] for col in state.block(q).T]
                         for q in range(model.n_populations)])
        A, B = model.affine_coefficients(ybar)
        out[:, 0] = A[p] * X[:, 0] + B[p]
        return out
    for q in range(model.n_populations):
        Y = state.block(q)
        for i in range(X.shape[0]):
            contrib = np.stack([model.eval_interaction(p, q, X[i], y) for y in Y])
            acc = np.array([math.fsum(contrib[:, k]) for k in range(X.shape[1])])
            out[i] += model.coupling[p, q] * acc / Y.shape[0]
    return out


def step_euler_maruyama(state: NetworkState, model: NetworkModel, dt: float,
                        noise: np.ndarray) -> NetworkState:
    """One explicit step; noise holds (N, K) standard-normal draws.

    Raises BlowupError when any updated coordinate is non-finite.
    """
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    gamma = model.gamma()
    new = np.empty_like(state.states)
    sq = math.sqrt(dt)
    t = state.t + dt
    with np.errstate(over="ignore", invalid="ignore"):
        for p, pop in enumerate(model.populations):
            lo, hi = state.offsets[p], state.offsets[p + 1]
            X = state.states[lo:hi]
            try:
                drift = (_drift_block(model, p, X)
                         + gamma * _interaction_block(model, p, X, state))
            except ModelDefinitionError as err:
                # a runaway state overflowing the drift is a blowup of the
                # run, not a bad model definition
                raise BlowupError(t) from err
            xi = np.atleast_2d(noise[lo:hi])
            new[lo:hi] = X + drift * dt + sq * (xi @ pop.sigma.T)
    if not np.isfinite(new).all():
        raise BlowupError(t)
    return NetworkState(t=t, states=new, offsets=state.offsets)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def draw_initial_state(model: NetworkModel, init: InitialConditionSpec, seed: int) -> NetworkState:
    if len(init.coords) != model.n_populations:
        raise ConfigurationError("initial condition spec does not match population count")
    offsets = model.offsets
    N = offsets[-1]
    d = model.populations[0].dim
    states = np.empty((N, d))
    block = 0
    for p, pop in enumerate(model.populations):
        if len(init.coords[p]) != pop.dim:
            raise ConfigurationError(f"population {p}: expected {pop.dim} coordinate laws")
        for k, ic in enumerate(init.coords[p]):
            if ic.dist == "normal":
                draws = ic.p1 + ic.p2 * rng.normal_block(seed, rng.INIT_STREAM, block, (pop.n,))
            elif ic.dist == "uniform":
                draws = ic.p1 + (ic.p2 - ic.p1) * rng.uniform_block(seed, rng.INIT_STREAM, block, (pop.n,))
            else:
                draws = np.full(pop.n, ic.p1)
            states[offsets[p]:offsets[p + 1], k] = draws
            block += 1
    return NetworkState(t=0.0, states=states, offsets=offsets)


def _check_step_guard(model: NetworkModel, dt: float):
    gamma = model.gamma()
    gmax = float(np.max(np.abs(model.coupling)))
    if gmax > 0 and gamma * gmax * dt > 0.1 * (1 + 1e-12):
        raise ConfigurationError(
            f"step guard violated: gamma*max|g|*dt = {gamma * gmax * dt:.3g} > 0.1; "
            f"use dt <= {0.1 / (gamma * gmax):.3g}")


def _kernel_call(model: NetworkModel, states: np.ndarray, noise: np.ndarray,
                 dt: float, offsets: np.ndarray) -> bool:
    pr = model.params
    maps = model.source_maps
    return active(pr.kernel)(
        states, noise, dt, offsets, model.gamma() * model.coupling,
        maps.alpha0, maps.alpha1, maps.beta0, maps.beta1, pr.fhn_constants(), pr.sigma)


def simulate(model: NetworkModel, init: InitialConditionSpec, T: float, dt: float,
             seed: int, recorder: RecordSpec = RecordSpec(),
             events: Sequence[PerturbationEvent] = ()) -> RunRecord:
    """Integrate the network SDE over [0, T] and record statistics.

    Bit-identical output for identical inputs; BLOWUP is recorded as a
    terminal status with the time of the first failing step.
    """
    if not T > 0:
        raise ConfigurationError("T must be positive")
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    _check_step_guard(model, dt)
    for ev in events:
        if not 0 <= ev.t <= T:
            raise ConfigurationError(f"event time {ev.t} outside run horizon")

    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ConfigurationError("horizon shorter than one step")
    state = draw_initial_state(model, init, seed)
    offsets = state.offsets
    N = int(offsets[-1])
    d = model.populations[0].dim
    P = model.n_populations
    gamma = model.gamma()

    record_steps = list(range(0, n_steps + 1, recorder.stride))
    if record_steps[-1] != n_steps:
        record_steps.append(n_steps)
    snapshot_steps = sorted({min(n_steps, int(round(t / dt))) for t in recorder.snapshot_times})
    event_steps = {}
    for ev in events:
        event_steps.setdefault(min(n_steps, int(round(ev.t / dt))), []).append(ev)
    special = sorted(set(record_steps) | set(snapshot_steps) | set(event_steps) | {0, n_steps})

    S = len(record_steps)
    times = np.empty(S)
    means = [np.empty((S, d)) for _ in range(P)]
    stds = [np.empty((S, d)) for _ in range(P)]
    k_tr = recorder.traces
    traces = [np.empty((S, min(k_tr, model.populations[p].n))) for p in range(P)]
    snapshots: list[tuple[float, np.ndarray]] = []
    record_set = set(record_steps)
    snap_set = set(snapshot_steps)
    rec_idx = 0
    status = COMPLETED
    blowup_time = None
    cur_model = model

    def capture(step: int):
        nonlocal rec_idx
        t = step * dt
        if step in record_set:
            times[rec_idx] = t
            for p in range(P):
                blk = state.states[offsets[p]:offsets[p + 1]]
                means[p][rec_idx] = blk.mean(axis=0)
                stds[p][rec_idx] = blk.std(axis=0)
                if traces[p].shape[1]:
                    traces[p][rec_idx] = blk[:traces[p].shape[1], 0]
            rec_idx += 1
        if step in snap_set:
            snapshots.append((t, state.states.copy()))

    generic = not model.affine

    # noise blocks are keyed by absolute step // NOISE_CHUNK; cache the
    # current one so dense recording does not regenerate it per step
    cached_chunk = -1
    cached_block = None

    def noise_block(chunk: int) -> np.ndarray:
        nonlocal cached_chunk, cached_block
        if chunk != cached_chunk:
            shape = ((NOISE_CHUNK, N, model.populations[0].sigma.shape[1])
                     if generic else (NOISE_CHUNK, N))
            cached_block = rng.normal_block(seed, rng.NOISE_STREAM, chunk, shape)
            cached_chunk = chunk
        return cached_block

    # start of a multi-step kernel call, replayed step by step if it fails;
    # one buffer per run: a fresh copy per call raised the peak memory of a
    # 9000-agent run by 17 MB
    start = np.empty_like(state.states)

    # a runaway state overflows on its way to BLOWUP, a recorded outcome
    with np.errstate(over="ignore", invalid="ignore"):
        capture(0)
        for ev in event_steps.get(0, []):
            cur_model = apply_perturbation(cur_model, ev)
        for si in range(len(special) - 1):
            s0, s1 = special[si], special[si + 1]
            step = s0
            while step < s1 and status == COMPLETED:
                chunk = step // NOISE_CHUNK
                hi = min(s1, (chunk + 1) * NOISE_CHUNK)
                k = hi - step
                block = noise_block(chunk)
                off = step - chunk * NOISE_CHUNK
                if generic:
                    try:
                        for j in range(k):
                            state = step_euler_maruyama(state, cur_model, dt, block[off + j])
                    except BlowupError as err:
                        status = BLOWUP
                        blowup_time = err.t
                else:
                    if k > 1:
                        start[:] = state.states
                    ok = _kernel_call(cur_model, state.states, block[off:off + k], dt, offsets)
                    if not ok and k > 1:
                        # find the first failing step
                        state.states[:] = start
                        for j in range(k):
                            if not _kernel_call(cur_model, state.states,
                                                block[off + j:off + j + 1], dt, offsets):
                                hi = step + j + 1
                                break
                    state.t = hi * dt
                    if not ok:
                        status = BLOWUP
                        blowup_time = hi * dt
                step = hi
            if status != COMPLETED:
                break
            capture(s1)
            for ev in event_steps.get(s1, []):
                cur_model = apply_perturbation(cur_model, ev)

    if status == BLOWUP:
        valid = rec_idx
        times_out = times[:valid]
        means = [m[:valid] for m in means]
        stds = [s[:valid] for s in stds]
        traces = [tr[:valid] for tr in traces]
    else:
        times_out = times

    return RunRecord(
        seed=seed, dt=dt, gamma=gamma, times=times_out, means=means, stds=stds,
        traces=traces, snapshots=snapshots, status=status, blowup_time=blowup_time,
        meta={"family": model.family, "n": model.populations[0].n,
              "scaling": (model.scaling.kind, model.scaling.coefficient),
              "T": T, "stride": recorder.stride},
    )


def simulate_rescaled_early(model: NetworkModel, init: InitialConditionSpec,
                            T_tilde: float, dt_tilde: float, seed: int,
                            recorder: RecordSpec = RecordSpec()) -> RunRecord:
    """Integrate the time-rescaled system over rescaled horizon T_tilde.

    Under t -> t/gamma the interaction acts at order one while the intrinsic
    drift scales by 1/gamma and the noise by 1/sqrt(gamma); this is exactly
    the original dynamics run over T_tilde/gamma with relabeled times, which
    is how it is computed (at gamma = 1 the two modes coincide).
    """
    gamma = model.gamma()
    rec = RecordSpec(stride=recorder.stride, traces=recorder.traces,
                     snapshot_times=tuple(t / gamma for t in recorder.snapshot_times))
    run = simulate(model, init, T_tilde / gamma, dt_tilde / gamma, seed, rec)
    run.times = run.times * gamma
    run.snapshots = [(t * gamma, s) for t, s in run.snapshots]
    if run.blowup_time is not None:
        run.blowup_time *= gamma
    run.meta["rescaled"] = True
    run.meta["T"] = T_tilde
    return run
