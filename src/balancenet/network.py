"""Fixed-step Euler-Maruyama integration of the coupled network SDE,
including the time-rescaled early-dynamics mode and scheduled conductance
perturbations.

Noise is assigned per (seed, absolute step, agent) through fixed-size
counter-keyed blocks (see rng), so a run is a pure function of
(model, init, T, dt, seed, recorder) regardless of chunking or thread
count. The network input of the two built-in families is affine in the
target voltage with coefficients read off population means (see
models.SourceMaps), reducing a step to O(N).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import rng
from ._kernels import active, record_slot
from .models import ModelDefinitionError, NetworkModel

NOISE_CHUNK = 256
# a block is drawn in this many pieces of PIECE steps
PIECES = 4
PIECE = NOISE_CHUNK // PIECES
# the fewest draws half a block holds in a run with a noise worker; smaller
# runs are drawn on the stepping thread alone faster than the hand-offs to
# a worker thread cost
PREFETCH_MIN_DRAWS = 1 << 16

COMPLETED = "COMPLETED"
BLOWUP = "BLOWUP"


# ---------------------------------------------------------------------------
# initial conditions, recording
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateIC:
    """Initial law of one coordinate: "normal" (mean, sd), "uniform"
    (low, high) or "constant" (value); LAWS names the parameters p1, p2 of
    each."""

    dist: str
    p1: float = 0.0
    p2: float = 0.0

    LAWS = {"normal": ("mean", "sd"), "uniform": ("low", "high"), "constant": ("value",)}

    def __post_init__(self):
        if self.dist not in self.LAWS:
            raise ModelDefinitionError(f"unknown initial distribution {self.dist!r}", "dist")
        if self.dist == "normal" and not self.p2 >= 0:
            raise ModelDefinitionError("sd must be >= 0", "sd")
        if self.dist == "uniform" and not self.p2 >= self.p1:
            raise ModelDefinitionError("high must be >= low", "high")


@dataclass(frozen=True)
class RecordSpec:
    stride: int = 1
    traces: int = 0
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.stride < 1:
            raise ModelDefinitionError("record stride must be >= 1", "stride")
        if self.traces < 0:
            raise ModelDefinitionError("trace count must be >= 0", "traces")
        for i, t in enumerate(self.snapshot_times):
            if not 0 <= t < np.inf:
                raise ModelDefinitionError("snapshot times must be finite and >= 0",
                                           f"snapshot_times[{i}]")


@dataclass(frozen=True)
class PerturbationEvent:
    """Multiply conductance magnitudes at time t; signs are preserved."""

    t: float
    multipliers: dict

    def __post_init__(self):
        for k, v in self.multipliers.items():
            if not v > 0:
                raise ModelDefinitionError(f"perturbation multiplier {k} must be positive",
                                           f"multipliers.{k}")


@dataclass
class RunRecord:
    """Sampled statistics of one run, as the kernel recorded them, and the
    full states at the snapshot times; after a blowup, only what was
    recorded before it."""

    gamma: float
    times: np.ndarray                  # (S,)
    means: np.ndarray                  # (P, S, d)
    stds: np.ndarray                   # (P, S, d), divisor n
    traces: np.ndarray                 # (P, S, k) voltages of each population's first k agents
    snapshot_times: np.ndarray         # (K,)
    snapshots: np.ndarray              # (K, N, d), the states at snapshot_times
    status: str = COMPLETED
    blowup_time: float | None = None


def _check_event(model: NetworkModel, event: PerturbationEvent, at: str = "") -> None:
    unknown = sorted(set(event.multipliers) - set(model.params.conductances))
    if unknown:
        raise ModelDefinitionError(f"unknown conductance entries {unknown}",
                                   f"{at}multipliers.{unknown[0]}")


def apply_perturbation(model: NetworkModel, event: PerturbationEvent) -> NetworkModel:
    """Return a model with scaled conductance magnitudes."""
    _check_event(model, event)
    pr = model.params
    pr = replace(pr, **{k: getattr(pr, k) * m for k, m in event.multipliers.items()})
    return NetworkModel(pr, model.n, model.scaling)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def draw_initial_state(model: NetworkModel, init: Sequence[Sequence[CoordinateIC]],
                       seed: int) -> np.ndarray:
    """The (N, d) states of all agents at t = 0, population p in
    model.population_rows(states)[p], coordinate k of population p drawn
    from the law init[p][k]."""
    if len(init) != model.n_populations:
        raise ModelDefinitionError("need one tuple of initial laws per population")
    n, d = model.n, model.dim
    states = np.empty((n * model.n_populations, d))
    block = 0
    for p, rows in enumerate(model.population_rows(states)):
        if len(init[p]) != d:
            raise ModelDefinitionError(f"population {p}: expected {d} coordinate laws")
        for k, ic in enumerate(init[p]):
            if ic.dist == "normal":
                draws = ic.p1 + ic.p2 * rng.normal_block(seed, rng.INIT_STREAM, block, (n,))
            elif ic.dist == "uniform":
                draws = ic.p1 + (ic.p2 - ic.p1) * rng.uniform_block(seed, rng.INIT_STREAM, block, (n,))
            else:
                draws = np.full(n, ic.p1)
            rows[:, k] = draws
            block += 1
    return states


def check_run(model: NetworkModel, T: float, dt: float,
              events: Sequence[PerturbationEvent] = ()) -> None:
    """Reject a run that simulate cannot take: T and dt must be positive,
    dt must keep the step guard gamma * max|g| * dt <= 0.1, every event
    must fall inside [0, T] and scale conductances the model has, and the
    horizon must hold at least one step. The ModelDefinitionError names the
    key at fault ("T", "dt", "events[i].t", "events[i].multipliers.<name>"),
    so a config is rejected at parse time by the same checks."""
    if not T > 0:
        raise ModelDefinitionError("T must be positive", "T")
    if not dt > 0:
        raise ModelDefinitionError("dt must be positive", "dt")
    gamma = model.gamma()
    gmax = float(np.max(np.abs(model.coupling)))
    if gmax > 0 and gamma * gmax * dt > 0.1 * (1 + 1e-12):
        raise ModelDefinitionError(
            f"step guard violated: gamma*max|g|*dt = {gamma * gmax * dt:.3g} > 0.1; "
            f"use dt <= {0.1 / (gamma * gmax):.3g}", "dt")
    for i, ev in enumerate(events):
        if not 0 <= ev.t <= T:
            raise ModelDefinitionError(f"event time {ev.t} outside run horizon", f"events[{i}].t")
        _check_event(model, ev, f"events[{i}].")
    if int(round(T / dt)) < 1:
        raise ModelDefinitionError("horizon shorter than one step", "T")


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set, or
    os.cpu_count() where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _NoiseFeed:
    """The noise of one run, handed out piece by piece in step order.

    Block k of the stream (see rng) holds the noise of steps k * NOISE_CHUNK
    on and is drawn only as far as the run reaches, in PIECES pieces of
    PIECE steps (the last one shorter), each resuming its block's stream
    through the block's cursor. A thread claims a piece under the ring's
    lock before it draws it (_ready, _draw), so no piece is drawn twice and
    each follows the piece before it in its block:

    - the stepping thread, when the piece it needs is not drawn yet, draws
      it if it may start; if not, the next block's first piece, which needs
      no cursor, if that one may; if neither, it waits;
    - with more than one CPU, a run longer than half a block and at least
      PREFETCH_MIN_DRAWS draws in half a block, a worker thread draws the
      pieces too, in stream order (the C fill and kernels release the GIL).

    The ring has PIECES slots with a worker and one without: the slot of
    piece p frees once piece p - len(slots) is stepped, so the buffer holds
    at most one block, and a piece split by snapshots or events is drawn
    once. Leaving the feed's with block stops the worker: it returns only
    once no fill can write to a slot.
    """

    def __init__(self, seed: int, n_steps: int, N: int):
        self.seed, self.n_steps, self.N = seed, n_steps, N
        self.n_pieces = -(-n_steps // PIECE)
        half = NOISE_CHUNK // 2
        worker = n_steps > half and half * N >= PREFETCH_MIN_DRAWS and usable_cpus() > 1
        self.slots = np.empty((min(PIECES, self.n_pieces) if worker else 1,
                               min(PIECE, n_steps), N))
        # a block's place in its stream, by the block's parity: the pieces
        # in the ring span at most two blocks
        self.cursors = [None, None]
        self.current = -1
        self.block = None
        self.ring = threading.Condition()
        # per slot, the piece last started there and the piece it holds
        # once drawn; a thread claims a piece under the lock
        self.claimed = [-1] * len(self.slots)
        self.filled = [-1] * len(self.slots)
        self.released = 0  # every piece before it is stepped
        self.stop = False
        self.error = None
        self.worker = (threading.Thread(target=self._work, name="balancenet-noise", daemon=True)
                       if worker else None)

    def _fill(self, piece: int):
        lo = piece * PIECE
        block, row = divmod(lo, NOISE_CHUNK)
        if row == 0:
            self.cursors[block % 2] = rng.StreamCursor()
        rows = min(PIECE, self.n_steps - lo)
        rng.normal_block(self.seed, rng.NOISE_STREAM, block, (rows, self.N),
                         out=self.slots[piece % len(self.slots)][:rows],
                         cursor=self.cursors[block % 2])

    def _ready(self, piece: int) -> bool:
        """Whether ``piece`` may be started now: it is in the run, its slot
        is free, nobody has claimed it, and it starts its block or resumes
        the cursor of the piece before it, which is drawn."""
        s = len(self.slots)
        return (piece < min(self.released + s, self.n_pieces)
                and self.claimed[piece % s] < piece
                and (piece % PIECES == 0 or self.filled[(piece - 1) % s] >= piece - 1))

    def _draw(self, piece: int):
        """Claim ``piece``, draw it outside the lock, and mark it drawn; the
        caller holds the lock."""
        s = len(self.slots)
        self.claimed[piece % s] = piece
        self.ring.release()
        try:
            self._fill(piece)
        finally:
            self.ring.acquire()
        self.filled[piece % s] = piece
        self.ring.notify_all()

    def _work(self):
        """The worker: the ring's unclaimed pieces in stream order; the
        first error ends it."""
        ring = self.ring
        s = len(self.slots)
        try:
            with ring:
                while not self.stop:
                    piece = self.released
                    while piece < self.n_pieces and self.claimed[piece % s] >= piece:
                        piece += 1
                    if piece >= self.n_pieces:
                        return
                    if self._ready(piece):
                        self._draw(piece)
                    else:
                        ring.wait()
        except BaseException as exc:  # raised on the stepping thread
            with ring:
                self.error = exc
                ring.notify_all()

    def piece(self, step: int) -> tuple[int, np.ndarray]:
        """(first step, noise rows) of the piece that holds ``step``; pieces
        are asked for in order, and the stepping thread is done with the
        pieces before it."""
        piece = step // PIECE
        if piece != self.current:
            self.current = piece
            ring = self.ring
            s = len(self.slots)
            with ring:
                self.released = piece
                ring.notify_all()
                first = (piece // PIECES + 1) * PIECES
                while self.filled[piece % s] != piece:
                    if self.error is not None:
                        raise self.error
                    if self._ready(piece):
                        self._draw(piece)
                    elif self._ready(first):
                        self._draw(first)
                    else:
                        ring.wait()
            self.block = self.slots[piece % s][:min(PIECE, self.n_steps - piece * PIECE)]
        return piece * PIECE, self.block

    def __enter__(self):
        if self.worker is not None:
            self.worker.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.worker is not None:
            with self.ring:
                self.stop = True
                self.ring.notify_all()
            # returns once the fill in progress is done
            self.worker.join()
            # a fill the run did not wait for (after a blowup) may have
            # failed; an error already in flight is the one reported
            if exc_type is None and self.error is not None:
                raise self.error


def _kernel_args(model: NetworkModel) -> tuple:
    """The network kernel's arguments that a model fixes: its gamma-scaled
    couplings, source maps, drift constants (a float64 array) and noise
    level."""
    pr = model.params
    maps = model.source_maps
    return (model.gamma() * model.coupling, maps.alpha0, maps.alpha1, maps.beta0,
            maps.beta1, np.array(pr.fhn_constants(), dtype=float), pr.sigma)


def simulate(model: NetworkModel, init: Sequence[Sequence[CoordinateIC]], T: float, dt: float,
             seed: int, recorder: RecordSpec = RecordSpec(),
             events: Sequence[PerturbationEvent] = ()) -> RunRecord:
    """Integrate the network SDE over [0, T] and record statistics.

    Bit-identical output for identical inputs; BLOWUP is recorded as a
    terminal status with the time of the first failing step. The run is
    checked (check_run) before the first step.

    The kernel records every stride-th step itself, so a kernel call ends
    only at a snapshot, an event, the edge of a PIECE-step noise piece (see
    _NoiseFeed) or the last step; that step, when it is no multiple of the
    stride, is recorded here.
    """
    check_run(model, T, dt, events)
    n_steps = int(round(T / dt))
    states = draw_initial_state(model, init, seed)
    N, d = states.shape
    n = model.n
    P = model.n_populations
    gamma = model.gamma()
    stride = recorder.stride

    record_steps = list(range(0, n_steps + 1, stride))
    if record_steps[-1] != n_steps:
        record_steps.append(n_steps)
    snapshot_steps = sorted({min(n_steps, int(round(t / dt))) for t in recorder.snapshot_times})
    event_steps = {}
    for ev in events:
        event_steps.setdefault(min(n_steps, int(round(ev.t / dt))), []).append(ev)
    special = sorted({*snapshot_steps, *event_steps, 0, n_steps})

    # slot i holds record step record_steps[i]: a multiple of the stride,
    # or the last step
    S = len(record_steps)
    times = np.array(record_steps, dtype=float) * dt
    means = np.empty((P, S, d))
    stds = np.empty((P, S, d))
    traces = np.empty((P, S, min(recorder.traces, n)))
    snapshots = np.empty((len(snapshot_steps), N, d))
    taken = 0  # snapshots filled
    status = COMPLETED
    blowup_time = None
    cur_model = model

    def record(step: int):
        slot = step // stride if step % stride == 0 else S - 1
        record_slot(states.T, n, slot, means, stds, traces)

    kernel = active(model.params.kernel)
    args = _kernel_args(model)

    # a runaway state overflows on its way to BLOWUP, a recorded outcome;
    # leaving the block stops the noise worker, on any exit
    with _NoiseFeed(seed, n_steps, N) as noise, np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for s0, s1 in zip(special, special[1:]):
            if taken < len(snapshot_steps) and snapshot_steps[taken] == s0:
                snapshots[taken] = states
                taken += 1
            for ev in event_steps.get(s0, []):
                cur_model = apply_perturbation(cur_model, ev)
                args = _kernel_args(cur_model)
            step = s0
            while step < s1:
                lo, block = noise.piece(step)
                hi = min(s1, lo + block.shape[0])
                step += kernel(states, block[step - lo:hi - lo], dt, *args, step, stride,
                               means, stds, traces)
                if step < hi:
                    status = BLOWUP
                    blowup_time = (step + 1) * dt
                    break
            if status != COMPLETED:
                break
        else:
            if n_steps % stride:
                record(n_steps)
            if taken < len(snapshot_steps):  # a snapshot at the last step
                snapshots[taken] = states
                taken += 1

    valid = step // stride + 1 if status == BLOWUP else S
    return RunRecord(
        gamma=gamma, times=times[:valid], means=means[:, :valid], stds=stds[:, :valid],
        traces=traces[:, :valid],
        snapshot_times=np.array(snapshot_steps[:taken], dtype=float) * dt,
        snapshots=snapshots[:taken], status=status, blowup_time=blowup_time,
    )


def simulate_rescaled_early(model: NetworkModel, init: Sequence[Sequence[CoordinateIC]],
                            T_tilde: float, dt_tilde: float, seed: int,
                            recorder: RecordSpec = RecordSpec()) -> RunRecord:
    """Integrate the time-rescaled system over rescaled horizon T_tilde.

    Under t -> t/gamma the interaction acts at order one while the intrinsic
    drift scales by 1/gamma and the noise by 1/sqrt(gamma); this is exactly
    the original dynamics run over T_tilde/gamma with relabeled times, which
    is how it is computed (at gamma = 1 the two modes coincide).
    """
    gamma = model.gamma()
    rec = replace(recorder, snapshot_times=tuple(t / gamma for t in recorder.snapshot_times))
    run = simulate(model, init, T_tilde / gamma, dt_tilde / gamma, seed, rec)
    run.times = run.times * gamma
    run.snapshot_times = run.snapshot_times * gamma
    if run.blowup_time is not None:
        run.blowup_time *= gamma
    return run
