import random
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from balancenet import _kernels, network, rng
from balancenet._kernels import network_chunk
from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, ScalingRule)
from balancenet.network import (NOISE_CHUNK, ConfigurationError, CoordinateIC,
                                InitialConditionSpec, PerturbationEvent, RecordSpec,
                                _kernel_args, apply_perturbation,
                                draw_initial_state, simulate,
                                simulate_rescaled_early)

from .oracles import BlowupError, PairwiseModel, pairwise_model, pairwise_step

FIG1 = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, 1.0)
FIG1_INIT = InitialConditionSpec(((CoordinateIC("normal", 1.0, 5.0),
                                   CoordinateIC("normal", 1.5, 5.0)),))


def scalar_model(drift, n=1, g=0.0, sigma=0.0, gamma=1.0, interaction=None):
    """n scalar agents in one population for the pairwise step."""
    return PairwiseModel(
        offsets=np.array([0, n]), coupling=np.array([[g]]), gamma=gamma,
        sigmas=(np.array([[sigma]]),), drift=lambda p, x: drift(x),
        interaction=interaction or (lambda p, q, x, y: np.zeros(1)))


class TestStep:
    def test_identity_when_everything_off(self):
        model = scalar_model(lambda x: np.zeros(1), n=4)
        states = np.array([[1.0], [2.0], [-3.0], [0.5]])
        out = pairwise_step(states, model, 0.1, np.zeros((4, 1)))
        np.testing.assert_array_equal(out, states)
        assert out is not states

    def test_explicit_euler_arithmetic(self):
        model = scalar_model(lambda x: -x)
        out = pairwise_step(np.array([[1.0]]), model, 0.1, np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(0.9)

    def test_two_agent_coupling_matches_matrix_exponential(self):
        # pure diffusive coupling of two scalar agents is linear; the
        # Euler-Maruyama path must converge to expm at first order
        g, gamma = 1.0, 3.0
        model = scalar_model(
            lambda x: np.zeros(1), n=2, g=g, gamma=gamma,
            interaction=lambda p, q, x, y: y - x)
        A = gamma * g / 2.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
        x0 = np.array([1.0, -2.0])
        T = 1.0
        errs = []
        for dt in (0.01, 0.005):
            states = x0[:, None].copy()
            steps = int(round(T / dt))
            worst = 0.0
            for k in range(1, steps + 1):
                states = pairwise_step(states, model, dt, np.zeros((2, 1)))
                exact = expm(A * (k * dt)) @ x0
                worst = max(worst, np.max(np.abs(states[:, 0] - exact)))
            errs.append(worst)
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_blowup_raised(self):
        model = scalar_model(lambda x: x ** 3)
        with pytest.raises(BlowupError):
            pairwise_step(np.array([[1e160]]), model, 1.0, np.zeros((1, 1)))

    def test_permutation_equivariance_exact(self):
        model = pairwise_model(
            NetworkModel(FIG1, n=6, scaling=ScalingRule("constant", 5.0)))
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 2))
        noise = rng.normal(size=(6, 1))
        perm = np.array([4, 2, 0, 5, 1, 3])
        out = pairwise_step(states, model, 0.01, noise)
        out_p = pairwise_step(states[perm], model, 0.01, noise[perm])
        np.testing.assert_array_equal(out_p, out[perm])

    def test_permutation_equivariance_multistep_chemical(self):
        params = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0,
                                   1.0, 1.0, 0.2, 3.0, -1.0, 0.3, 2.0, 1.0, 10.0, 1.0)
        model = pairwise_model(
            NetworkModel(params, n=4, scaling=ScalingRule("constant", 2.0)))
        rng = np.random.default_rng(11)
        states = rng.normal(size=(8, 3))
        # permute within each population independently
        perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
        states_p = states[perm]
        for _ in range(5):
            noise = rng.normal(size=(8, 1))
            states = pairwise_step(states, model, 0.01, noise)
            states_p = pairwise_step(states_p, model, 0.01, noise[perm])
        np.testing.assert_array_equal(states_p, states[perm])


class TestSimulate:
    def test_same_seed_identical(self):
        model = NetworkModel(FIG1, n=40)
        rec = RecordSpec(stride=5, traces=3, snapshot_times=(0.05,))
        r1 = simulate(model, FIG1_INIT, 0.1, 1e-4, 42, rec)
        r2 = simulate(model, FIG1_INIT, 0.1, 1e-4, 42, rec)
        np.testing.assert_array_equal(r1.times, r2.times)
        for p in range(1):
            np.testing.assert_array_equal(r1.means[p], r2.means[p])
            np.testing.assert_array_equal(r1.stds[p], r2.stds[p])
            np.testing.assert_array_equal(r1.traces[p], r2.traces[p])
        np.testing.assert_array_equal(r1.snapshots, r2.snapshots)

    def test_different_seed_differs(self):
        model = NetworkModel(FIG1, n=40)
        r1 = simulate(model, FIG1_INIT, 0.05, 1e-4, 1)
        r2 = simulate(model, FIG1_INIT, 0.05, 1e-4, 2)
        assert not np.array_equal(r1.means[0], r2.means[0])

    def test_uncoupled_noiseless_matches_ode_oracle(self):
        # sigma = 0, g = 0: every agent follows the scalar FitzHugh-Nagumo
        # ODE; compare against an adaptive Runge-Kutta reference
        params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 0.0, 0.0)
        model = NetworkModel(params, n=3)
        rec = RecordSpec(stride=1000, snapshot_times=(0.0, 1.0))
        run = simulate(model, FIG1_INIT, 1.0, 1e-4, 7, rec)
        init, final = run.snapshots

        def rhs(t, z):
            x, y = z
            fx = ((-z[0] + 5.0) * z[0] - 4.0) * z[0] + 4.0
            return [fx - y, 0.005 * (6.0 * x - y)]

        for i in range(3):
            sol = solve_ivp(rhs, (0.0, 1.0), init[i], rtol=1e-10, atol=1e-12,
                            dense_output=True)
            assert np.max(np.abs(sol.y[:, -1] - final[i])) < 1e-3

    def test_fig1_dispersion_near_ou_prediction(self):
        # late-time voltage dispersion of the coupled run approaches the
        # Ornstein-Uhlenbeck linearization value sigma/sqrt(2 gamma g)
        model = NetworkModel(FIG1, n=300)
        run = simulate(model, FIG1_INIT, 0.25, 1e-4, 2024,
                       RecordSpec(stride=50))
        target = 1.0 / np.sqrt(2.0 * 300.0 * 1.0)
        late = run.stds[0][run.times > 0.2, 0]
        assert np.all(np.abs(late - target) < 0.5 * target)

    def test_noiseless_variance_contraction(self):
        # after t > 5/(gamma g) the coupling contraction dominates; the
        # voltage spread then tracks the slowly moving recovery spread, so
        # allow a quasi-static creep of order 1e-4 relative per sample
        params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, 0.0)
        model = NetworkModel(params, n=300)
        run = simulate(model, FIG1_INIT, 0.1, 1e-4, 5, RecordSpec(stride=10))
        sel = run.times > 5.0 / 300.0
        stds = run.stds[0][sel, 0]
        assert np.all(np.diff(stds) <= stds[:-1] * 2e-3 + 1e-12)
        assert stds[-1] <= stds[0]

    def test_step_guard_rejects_large_dt(self):
        model = NetworkModel(FIG1, n=300)  # gamma = 300, g = 1
        with pytest.raises(ConfigurationError):
            simulate(model, FIG1_INIT, 0.1, 1e-3, 1)

    def test_blowup_recorded_not_raised(self):
        model, init = _runaway_case("electrical")
        run = simulate(model, init, 1.0, 1e-3, 1, RecordSpec(stride=1))
        assert run.status == "BLOWUP"
        assert run.blowup_time is not None
        assert np.isfinite(run.means[0][:len(run.times)]).all()

    def test_snapshot_times_and_stride(self):
        model = NetworkModel(FIG1, n=10)
        rec = RecordSpec(stride=7, traces=2, snapshot_times=(0.0, 0.013, 0.05))
        run = simulate(model, FIG1_INIT, 0.05, 1e-4, 9, rec)
        assert run.times[0] == 0.0
        assert run.times[-1] == pytest.approx(0.05)
        assert run.snapshots.shape == (3, 10, 2)
        assert run.snapshot_times[1] == pytest.approx(0.013, abs=1e-4)


class TestPerturbation:
    def test_identity_multiplier(self):
        model = NetworkModel(_fig2a_params(), n=300)
        out = apply_perturbation(model, PerturbationEvent(1.0, {"g_EE": 1.0}))
        np.testing.assert_array_equal(out.ghat, model.ghat)

    def test_fig2_excitatory_increase(self):
        model = NetworkModel(_fig2a_params(), n=300)
        out = apply_perturbation(
            model, PerturbationEvent(1.0, {"g_EE": 1.5, "g_EI": 1.5}))
        np.testing.assert_allclose(out.ghat, [[0.45, 3.0], [-1.0, -10.0]])

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationEvent(1.0, {"g_EE": 0.0})

    def test_unknown_entry_rejected(self):
        model = NetworkModel(_fig2a_params(), n=300)
        with pytest.raises(ConfigurationError):
            apply_perturbation(model, PerturbationEvent(1.0, {"g_XX": 2.0}))

    def test_midrun_event_changes_dynamics(self):
        model = NetworkModel(_fig2a_params(), n=20)
        init = _chem_init()
        ev = [PerturbationEvent(0.005, {"g_EE": 1.5, "g_EI": 1.5})]
        base = simulate(model, init, 0.01, 1e-5, 3, RecordSpec(stride=100))
        pert = simulate(model, init, 0.01, 1e-5, 3, RecordSpec(stride=100), ev)
        split = np.searchsorted(base.times, 0.005)
        np.testing.assert_array_equal(base.means[0][:split + 1],
                                      pert.means[0][:split + 1])
        assert not np.array_equal(base.means[0][-1], pert.means[0][-1])


class TestEventCheck:
    """Every event's conductance names are checked before the first step,
    so a bad event wastes no stepping and cannot hide behind a blowup or sit
    unread at the last step."""

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    @pytest.mark.parametrize("when", ["after-blowup", "at-T"])
    def test_unknown_conductance_rejected_before_any_kernel_call(self, family, when,
                                                                 monkeypatch):
        if when == "after-blowup":
            model, init = _runaway_case(family)   # blows up before t = 0.05
            t = 0.5
        else:
            model, init, _ = _contract_case(family)
            t = 1.0
        calls = []
        active = network.active

        def counted(name):
            kernel = active(name)

            def call(*args):
                calls.append(name)
                return kernel(*args)
            return call

        monkeypatch.setattr(network, "active", counted)
        bad = PerturbationEvent(t, {"g_EE" if family == "electrical" else "g": 2.0})
        with pytest.raises(ConfigurationError, match="unknown conductance"):
            simulate(model, init, 1.0, 1e-3, 3, RecordSpec(stride=300), [bad])
        assert calls == []


class TestRescaledEarly:
    def test_gamma_one_identical_to_simulate(self):
        model = NetworkModel(_fig2a_params(), n=15,
                             scaling=ScalingRule("constant", 1.0))
        init = _chem_init()
        direct = simulate(model, init, 0.5, 1e-3, 11, RecordSpec(stride=10))
        rescaled = simulate_rescaled_early(model, init, 0.5, 1e-3, 11,
                                           RecordSpec(stride=10))
        np.testing.assert_array_equal(direct.times, rescaled.times)
        for p in range(2):
            np.testing.assert_array_equal(direct.means[p], rescaled.means[p])

    def test_frozen_coordinates_move_less_at_larger_gamma(self):
        init = _chem_init()
        moves = []
        for gamma in (10.0, 100.0):
            model = NetworkModel(_fig2a_params(), n=50,
                                 scaling=ScalingRule("constant", gamma))
            run = simulate_rescaled_early(model, init, 1.0, 1e-3, 21,
                                          RecordSpec(stride=10))
            move = max(np.max(np.abs(run.means[p][:, 1] - run.means[p][0, 1]))
                       for p in range(2))
            moves.append(move)
        assert moves[1] < moves[0]


def _fig2a_params(**over):
    base = dict(f_coeffs=(-1.0, 1.3, -0.3, 0.0), a=0.4, b=1.5, c=1.0, tau=1.0,
                alpha_gain=1.0, alpha_threshold=1.0, alpha_slope=0.2,
                E_E=3.0, E_I=-1.0, g_EE=0.3, g_EI=2.0, g_IE=1.0, g_II=10.0,
                sigma=1.0)
    base.update(over)
    return FhnChemicalParams(**base)


def _chem_init():
    return InitialConditionSpec((
        (CoordinateIC("normal", 3.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
         CoordinateIC("uniform", 0.0, 2.0)),
        (CoordinateIC("normal", 3.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
         CoordinateIC("uniform", 0.0, 3.0)),
    ))


class TestInitialState:
    def test_population_layout(self):
        model = NetworkModel(_fig2a_params(), n=5)
        states = draw_initial_state(model, _chem_init(), 13)
        assert states.shape == (10, 3)
        rows = model.population_rows(states)
        assert [r.shape for r in rows] == [(5, 3), (5, 3)]
        assert rows[0].base is states and rows[1].base is states
        assert rows[1].ctypes.data == states[5:].ctypes.data
        # uniform synaptic ranges differ per population
        assert states[:5, 2].max() <= 2.0
        assert states[5:, 2].max() <= 3.0

    def test_mismatched_spec_rejected(self):
        model = NetworkModel(_fig2a_params(), n=5)
        bad = InitialConditionSpec(((CoordinateIC("constant", 0.0),),))
        with pytest.raises(ConfigurationError):
            draw_initial_state(model, bad, 1)


CONTRACT_DT = 1e-4
CONTRACT_STEPS = 2 * NOISE_CHUNK + 88
CONTRACT_CASES = ("chunk-edge", "event-and-snapshot", "short-last-block")


def _contract_case(family):
    """Small model, initial law and an identity perturbation per family."""
    if family == "electrical":
        return NetworkModel(FIG1, n=5), FIG1_INIT, {"g": 1.0}
    return NetworkModel(_fig2a_params(), n=4), _chem_init(), {"g_EE": 1.0}


def _runaway_case(family):
    """A voltage of 60 everywhere: the cubic drift overflows within a few
    steps at dt = 1e-3."""
    x = CoordinateIC("constant", 60.0)
    if family == "electrical":
        return NetworkModel(FIG1, n=50), InitialConditionSpec(
            ((x, CoordinateIC("normal", 1.5, 5.0)),))
    laws = _chem_init().coords
    return NetworkModel(_fig2a_params(), n=50), InitialConditionSpec(
        tuple((x,) + pop[1:] for pop in laws))


class TestReproducibilityContract:
    """A run is a pure function of its inputs: the recording cadence, the
    snapshot times and the chunk splits an event introduces change no bit
    of the trajectory."""

    @given(family=st.sampled_from(("electrical", "chemical")),
           seed=st.integers(0, 2 ** 32),
           stride=st.sampled_from((1, 7, 37)),
           snap_steps=st.lists(st.integers(1, CONTRACT_STEPS - 1), max_size=3),
           event_step=st.sampled_from((None, NOISE_CHUNK, NOISE_CHUNK + 45)))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_final_state_and_means_bit_identical(self, family, seed, stride,
                                                 snap_steps, event_step):
        model, init, identity = _contract_case(family)
        T = CONTRACT_STEPS * CONTRACT_DT
        # every run stops at T anyway, so a snapshot there reads the final
        # state without splitting a chunk; the reference has no other
        ref = simulate(model, init, T, CONTRACT_DT, seed,
                       RecordSpec(stride=1, snapshot_times=(T,)))
        events = ([] if event_step is None
                  else [PerturbationEvent(event_step * CONTRACT_DT, identity)])
        snaps = tuple(k * CONTRACT_DT for k in snap_steps) + (T,)
        run = simulate(model, init, T, CONTRACT_DT, seed,
                       RecordSpec(stride=stride, snapshot_times=snaps), events)
        assert ref.status == run.status == "COMPLETED"
        np.testing.assert_array_equal(run.snapshots[-1], ref.snapshots[-1])
        steps = sorted(set(range(0, CONTRACT_STEPS + 1, stride)) | {CONTRACT_STEPS})
        for p in range(model.n_populations):
            np.testing.assert_array_equal(run.means[p], ref.means[p][steps])

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_runaway_blowup_time_independent_of_stride(self, family):
        model, init = _runaway_case(family)
        runs = [simulate(model, init, 1.0, 1e-3, 3, RecordSpec(stride=stride))
                for stride in (1, 7, 300)]
        assert [r.status for r in runs] == ["BLOWUP"] * 3
        assert runs[0].blowup_time < 0.05
        assert len({r.blowup_time for r in runs}) == 1

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_runaway_run_emits_no_warnings(self, family):
        model, init = _runaway_case(family)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = simulate(model, init, 1.0, 1e-3, 3, RecordSpec(stride=300))
        assert run.status == "BLOWUP"
        assert [str(w.message) for w in caught] == []


def _force_prefetch(monkeypatch, on: bool):
    """Give the following runs a noise worker (on) or none (off), whatever
    the host's CPUs and the run's size."""
    monkeypatch.setattr(network, "usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(network, "PREFETCH_MIN_DRAWS", 0)


PIECE = NOISE_CHUNK // network.PIECES
# a worker fill's added time: stepping a piece of the contract runs takes
# far less, so the stepping thread waits for every piece the worker draws
SLOW_WORKER = 0.03


def _noise_threads():
    return [t for t in threading.enumerate() if t.name == "balancenet-noise"]


class _NoiseSpy:
    """Wraps rng.normal_block: records each noise piece as (block, rows) and
    as (block, first word of its stream, rows, drawing thread), and the
    fills started and finished. ``delay`` slows every fill off the thread
    that made the spy, which steps the runs: the noise worker's."""

    def __init__(self, monkeypatch, delay=0.0):
        self.fills, self.finished = [], []
        self.delay = delay
        self.stepping = threading.current_thread()
        self.normal_block = rng.normal_block
        monkeypatch.setattr(rng, "normal_block", self)

    @property
    def pieces(self):
        return [(block, rows) for block, _, rows, _ in self.fills]

    @property
    def threads(self):
        return {thread for *_, thread in self.fills}

    @property
    def started(self):
        return len(self.fills)

    @property
    def done(self):
        return len(self.finished)

    def __call__(self, seed, purpose, block, shape, **kwargs):
        if purpose != rng.NOISE_STREAM:
            return self.normal_block(seed, purpose, block, shape, **kwargs)
        thread = threading.current_thread()
        self.fills.append((block, kwargs["cursor"].word, shape[0], thread))
        if thread is not self.stepping:
            time.sleep(self.delay)
        out = self.normal_block(seed, purpose, block, shape, **kwargs)
        self.finished.append(block)
        return out

    def check_streams(self, steps=None):
        """Each block's pieces start at word 0 of its stream and go on from
        where the last stopped; with ``steps``, they hold the rows of a run
        of that many steps."""
        words, rows = {}, {}
        for block, word, k, _ in self.fills:
            words.setdefault(block, []).append(word)
            rows[block] = rows.get(block, 0) + k
        for block, starts in words.items():
            assert starts[0] == 0 and starts == sorted(set(starts)), (block, starts)
        if steps is not None:
            assert rows == {b: min(NOISE_CHUNK, steps - b * NOISE_CHUNK)
                            for b in range(-(-steps // NOISE_CHUNK))}

    def stepping_fills(self):
        """(block, first word) of the pieces the stepping thread drew."""
        return [(block, word) for block, word, _, t in self.fills if t is self.stepping]


class TestNoiseBlocks:
    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_partial_last_block_keeps_bytes(self, family, monkeypatch):
        # the last block is drawn short, with a noise worker and without;
        # the run equals one stepped on full blocks
        model, init, _ = _contract_case(family)
        steps = 2 * NOISE_CHUNK + 37
        T = steps * CONTRACT_DT
        N = model.n * model.n_populations
        state = draw_initial_state(model, init, 8)
        kernel_args = _kernel_args(model)
        for chunk in range(3):
            block = rng.normal_block(8, rng.NOISE_STREAM, chunk, (NOISE_CHUNK, N))
            k = min(NOISE_CHUNK, steps - chunk * NOISE_CHUNK)
            assert network_chunk(state, block[:k], CONTRACT_DT, *kernel_args) == k

        for on in (False, True):
            _force_prefetch(monkeypatch, on)
            spy = _NoiseSpy(monkeypatch)
            run = simulate(model, init, T, CONTRACT_DT, 8,
                           RecordSpec(stride=1, snapshot_times=(T,)))
            monkeypatch.setattr(rng, "normal_block", spy.normal_block)
            # the two threads' pieces may interleave; each block's are in order
            assert sorted(spy.pieces) == [(0, PIECE)] * 4 + [(1, PIECE)] * 4 + [(2, 37)]
            # blocks 0 and 1 are drawn whole, block 2 only to row 37
            spy.check_streams(steps)
            np.testing.assert_array_equal(run.snapshots[-1], state)
            assert len(run.times) == steps + 1


def _same_run(a, b):
    """Two run records equal in every recorded bit."""
    assert (a.status, a.blowup_time) == (b.status, b.blowup_time)
    for x, y in [(a.times, b.times), (a.means, b.means), (a.stds, b.stds),
                 (a.traces, b.traces), (a.snapshot_times, b.snapshot_times),
                 (a.snapshots, b.snapshots)]:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestNoisePrefetch:
    """A noise worker moves no bit: final states and records are
    bit-identical with no worker, a worker, and a slowed worker, for whom
    the stepping thread draws each later block's first piece; a run returns
    only once its noise worker has stopped."""

    def _each_way(self, monkeypatch, *args, **kwargs):
        """The run with no noise worker, a worker, and a slowed worker. The
        first draws every piece on the stepping thread, the second mostly on
        its worker, the third on its worker but for the first piece of every
        block from block 1 on, which the stepping thread draws while it
        waits."""
        runs, spies = [], []
        for on, delay in ((False, 0.0), (True, 0.0), (True, SLOW_WORKER)):
            _force_prefetch(monkeypatch, on)
            spies.append(_NoiseSpy(monkeypatch, delay))
            runs.append(simulate(*args, **kwargs))
            monkeypatch.setattr(rng, "normal_block", spies[-1].normal_block)
            assert not _noise_threads()
        off, on, slow = spies
        stepping = threading.current_thread()
        assert off.pieces[0] == on.pieces[0] == slow.pieces[0] == (0, PIECE)
        assert off.threads == {stepping} and len(on.threads - {stepping}) == 1
        assert len(slow.threads) == 2
        for spy in spies:
            assert spy.started == spy.done
        off.check_streams()
        on.check_streams()
        slow.check_streams()
        # the stepping thread draws whole first pieces of later blocks only
        blocks = [block for block, word in slow.stepping_fills() if word == 0]
        assert blocks == [block for block, _ in slow.stepping_fills()]
        assert blocks == list(range(1, len(blocks) + 1))
        return runs, slow

    @staticmethod
    def _contract_run(family, case):
        """(steps, simulate's arguments) of a contract case."""
        model, init, identity = _contract_case(family)
        steps, stride, snaps, events = CONTRACT_STEPS, 1, (), ()
        if case == "event-and-snapshot":
            # both inside pieces of block 1, away from their edges: the event
            # in its first piece, which the stepping thread draws when the
            # worker is slowed
            stride = 7
            events = [PerturbationEvent((NOISE_CHUNK + 45) * CONTRACT_DT, identity)]
            snaps = ((NOISE_CHUNK + 2 * PIECE + 17) * CONTRACT_DT,)
        elif case == "short-last-block":
            steps = 2 * NOISE_CHUNK + 37
        T = steps * CONTRACT_DT
        return steps, (model, init, T, CONTRACT_DT, 12,
                       RecordSpec(stride=stride, traces=2, snapshot_times=snaps + (T,)), events)

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_bit_identical_on_and_off(self, family, case, monkeypatch):
        steps, args = self._contract_run(family, case)
        (off, on, slow), spy = self._each_way(monkeypatch, *args)
        assert on.status == "COMPLETED" and len(on.snapshots) == len(args[5].snapshot_times)
        _same_run(off, on)
        _same_run(off, slow)
        # every block after the first starts on the stepping thread
        spy.check_streams(steps)
        assert spy.stepping_fills() == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_same_fills_with_and_without_a_worker(self, family, case, monkeypatch):
        # one piece size and one claim protocol: a run without a worker
        # draws the pieces a run with one draws, each from the same word
        steps, args = self._contract_run(family, case)
        fills = []
        for on in (False, True):
            _force_prefetch(monkeypatch, on)
            spy = _NoiseSpy(monkeypatch)
            simulate(*args)
            monkeypatch.setattr(rng, "normal_block", spy.normal_block)
            spy.check_streams(steps)
            fills.append(sorted((block, word, rows) for block, word, rows, _ in spy.fills))
        assert fills[0] == fills[1]
        last = [steps % PIECE] if steps % PIECE else []
        assert [rows for *_, rows in fills[0]] == [PIECE] * (steps // PIECE) + last

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_numpy_fill_bit_identical_on_and_off(self, family, monkeypatch):
        # without the C twins, numpy's fill resumes the stream at each piece
        monkeypatch.setattr(_kernels, "_c_twins", {})
        model, init, _ = _contract_case(family)
        steps = 2 * NOISE_CHUNK + 37
        T = steps * CONTRACT_DT
        (off, on, slow), spy = self._each_way(
            monkeypatch, model, init, T, CONTRACT_DT, 13,
            RecordSpec(stride=5, traces=1, snapshot_times=(T,)))
        _same_run(off, on)
        _same_run(off, slow)
        spy.check_streams(steps)
        assert spy.stepping_fills() == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_blowup_inside_a_prefetched_half(self, family, monkeypatch):
        # a conductance raised a millionfold at step 150 overflows within
        # block 0's third piece, which the worker drew; with the worker
        # slowed, the stepping thread has drawn block 1's first piece by then
        model, init, _ = _contract_case(family)
        name = "g" if family == "electrical" else "g_EE"
        event = PerturbationEvent(150 * CONTRACT_DT, {name: 1e6})
        (off, on, slow), spy = self._each_way(
            monkeypatch, model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 12,
            RecordSpec(stride=1), [event])
        assert on.status == "BLOWUP"
        assert 2 * PIECE < on.blowup_time / CONTRACT_DT <= 3 * PIECE
        _same_run(off, on)
        _same_run(off, slow)
        assert spy.stepping_fills() == [(1, 0)]

    def test_fill_failing_after_a_blowup_is_raised(self, monkeypatch):
        # the run stops in block 0's third piece after the worker's draw of
        # block 1's second piece, which the run never reaches, failed; that
        # error is not dropped
        _force_prefetch(monkeypatch, True)
        model, init, _ = _contract_case("electrical")
        normal_block = rng.normal_block
        kernel = network.active(model.params.kernel)
        failed = threading.Event()

        def failing(seed, purpose, block, shape, **kwargs):
            if purpose == rng.NOISE_STREAM and block == 1 and kwargs["cursor"].word > 0:
                failed.set()
                raise MemoryError("fill failed")
            return normal_block(seed, purpose, block, shape, **kwargs)

        def stepping(*args):
            step0 = args[-5]
            if step0 >= 2 * PIECE:  # the piece the blowup is in
                assert failed.wait(timeout=10)
            return kernel(*args)

        monkeypatch.setattr(rng, "normal_block", failing)
        monkeypatch.setattr(network, "active", lambda name: stepping)
        event = PerturbationEvent(150 * CONTRACT_DT, {"g": 1e6})
        with pytest.raises(MemoryError, match="fill failed"):
            simulate(model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 12,
                     RecordSpec(), [event])
        assert not _noise_threads()

    def test_concurrent_runs_under_fast_switching(self, monkeypatch):
        # six runs on six threads, each with its own noise worker, on
        # fewer cores, switching threads every microsecond: each run equals
        # its serial run without prefetch
        cases = [(*_contract_case(family)[:2], seed) for family in ("electrical", "chemical")
                 for seed in (1, 2, 3)]
        T = CONTRACT_STEPS * CONTRACT_DT
        rec = RecordSpec(stride=3, traces=1, snapshot_times=(T / 3,))
        _force_prefetch(monkeypatch, False)
        serial = [simulate(model, init, T, CONTRACT_DT, seed, rec) for model, init, seed in cases]
        _force_prefetch(monkeypatch, True)
        results = [None] * len(cases)

        def run(i):
            model, init, seed = cases[i]
            results[i] = simulate(model, init, T, CONTRACT_DT, seed, rec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not _noise_threads()
        for ref, got in zip(serial, results):
            _same_run(ref, got)

    def test_random_interleavings(self, monkeypatch):
        # fills on both threads and kernel calls sleep at random, and threads
        # switch every microsecond, so that either thread may run ahead at
        # any hand-off: each run equals its run inline, and none waits
        # forever
        normal_block, active = rng.normal_block, network.active
        draw = random.Random(5)

        def pause():
            if draw.random() < 0.5:
                time.sleep(draw.random() * 0.002)

        def slowed_fill(*args, **kwargs):
            pause()
            return normal_block(*args, **kwargs)

        def slowed_kernel(name):
            kernel = active(name)
            return lambda *args: pause() or kernel(*args)

        for _ in range(40):
            model, init, identity = _contract_case(draw.choice(("electrical", "chemical")))
            steps = draw.randint(NOISE_CHUNK // 2 + 1, 4 * NOISE_CHUNK + 50)
            snaps = tuple(draw.randint(1, steps - 1) * CONTRACT_DT
                          for _ in range(draw.randint(0, 3)))
            events = ([PerturbationEvent(draw.randint(0, steps) * CONTRACT_DT, identity)]
                      if draw.random() < 0.5 else [])
            args = (model, init, steps * CONTRACT_DT, CONTRACT_DT, draw.randint(0, 999),
                    RecordSpec(stride=draw.choice((1, 3, 7)), traces=1,
                               snapshot_times=snaps), events)
            _force_prefetch(monkeypatch, False)
            ref = simulate(*args)
            _force_prefetch(monkeypatch, True)
            monkeypatch.setattr(rng, "normal_block", slowed_fill)
            monkeypatch.setattr(network, "active", slowed_kernel)
            got = []
            stepping = threading.Thread(target=lambda: got.append(simulate(*args)),
                                        daemon=True)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                stepping.start()
                stepping.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.setattr(rng, "normal_block", normal_block)
            monkeypatch.setattr(network, "active", active)
            assert not stepping.is_alive() and not _noise_threads()
            _same_run(ref, got[0])

    def test_worker_stalled_between_pieces(self, monkeypatch):
        # the worker sleeps at random before each time it takes the ring's
        # lock, as a thread descheduled between a piece's notify and its
        # next claim, while the stepping thread steps on and draws later
        # blocks' first pieces: each run equals its run inline, no piece is
        # drawn twice, and none waits forever
        draw = random.Random(11)

        class StalledLock:
            def __init__(self):
                self.lock = threading.Lock()

            def acquire(self, blocking=True, timeout=-1):
                if (blocking and threading.current_thread().name == "balancenet-noise"
                        and draw.random() < 0.7):
                    time.sleep(draw.random() * 0.004)
                return self.lock.acquire(blocking, timeout)

            def release(self):
                self.lock.release()

            __enter__ = acquire

            def __exit__(self, *exc):
                self.release()

        def stalled_condition():
            return threading.Condition(StalledLock())

        stolen = 0
        for _ in range(30):
            model, init, _ = _contract_case(draw.choice(("electrical", "chemical")))
            steps = draw.randint(2 * NOISE_CHUNK, 5 * NOISE_CHUNK + 50)
            args = (model, init, steps * CONTRACT_DT, CONTRACT_DT, draw.randint(0, 999),
                    RecordSpec(stride=draw.choice((1, 5)), traces=1,
                               snapshot_times=(steps * CONTRACT_DT,)))
            _force_prefetch(monkeypatch, False)
            ref = simulate(*args)
            _force_prefetch(monkeypatch, True)
            spy = _NoiseSpy(monkeypatch)
            monkeypatch.setattr(network, "threading", types.SimpleNamespace(
                Condition=stalled_condition, Thread=threading.Thread))
            got = []
            stepping = threading.Thread(target=lambda: got.append(simulate(*args)),
                                        daemon=True)
            spy.stepping = stepping
            stepping.start()
            stepping.join(timeout=30)
            monkeypatch.setattr(network, "threading", threading)
            monkeypatch.setattr(rng, "normal_block", spy.normal_block)
            assert not stepping.is_alive() and not _noise_threads()
            _same_run(ref, got[0])
            spy.check_streams(steps)
            stolen += len(spy.stepping_fills())
        assert stolen > 0

    def test_kernel_error_returns_after_the_worker_stops(self, monkeypatch):
        # the third kernel call raises while the slowed worker fills block
        # 0's fourth piece (the stepping thread drew block 1's first);
        # simulate raises only once that fill is done
        _force_prefetch(monkeypatch, True)
        model, init, _ = _contract_case("electrical")
        kernel = network.active(model.params.kernel)
        calls = []

        def failing(*args):
            calls.append(args[1].shape[0])
            if len(calls) == 3:
                deadline = time.monotonic() + 10.0
                while spy.started < 5 and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise RuntimeError("kernel failed")
            return kernel(*args)

        monkeypatch.setattr(network, "active", lambda name: failing)
        spy = _NoiseSpy(monkeypatch, delay=0.2)
        with pytest.raises(RuntimeError, match="kernel failed"):
            simulate(model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 3, RecordSpec())
        assert calls == [PIECE] * 3
        assert spy.started == spy.done == 5
        assert spy.stepping_fills() == [(1, 0)]
        assert not _noise_threads()

    def test_stepping_thread_fill_error_returns_after_the_worker_stops(self, monkeypatch):
        # the stepping thread's draw of block 1's first piece fails while
        # the slowed worker fills block 0's second piece; simulate raises
        # that error only once the worker's fill is done
        _force_prefetch(monkeypatch, True)
        model, init, _ = _contract_case("electrical")
        spy = _NoiseSpy(monkeypatch, delay=0.1)

        def failing(seed, purpose, block, shape, **kwargs):
            if purpose == rng.NOISE_STREAM and block == 1:
                raise MemoryError("fill failed")
            return spy(seed, purpose, block, shape, **kwargs)

        monkeypatch.setattr(rng, "normal_block", failing)
        with pytest.raises(MemoryError, match="fill failed"):
            simulate(model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 3, RecordSpec())
        assert spy.pieces == [(0, PIECE)] * 2 and spy.started == spy.done
        assert not _noise_threads()

    def test_ring_holds_at_most_one_block(self, monkeypatch):
        _force_prefetch(monkeypatch, True)
        for n_steps in (NOISE_CHUNK // 2 + 1, 200, NOISE_CHUNK, CONTRACT_STEPS, 4000):
            for N in (5, 3200):
                feed = network._NoiseFeed(1, n_steps, N)
                assert feed.worker is not None and feed.slots.shape[1:] == (PIECE, N)
                assert feed.slots.nbytes <= NOISE_CHUNK * N * 8

    def test_runs_of_at_most_half_a_block_keep_one_inline_slot(self, monkeypatch):
        # dense-sweep's sqrt cell at n = 3200 steps 100 times: it starts no
        # worker and holds one piece
        monkeypatch.setattr(network, "usable_cpus", lambda: 2)
        for n_steps in (100, NOISE_CHUNK // 2):
            feed = network._NoiseFeed(1, n_steps, 3200)
            assert feed.worker is None and feed.slots.shape == (1, PIECE, 3200)
        # its linear cell steps 4000 times, through a ring of PIECES slots
        feed = network._NoiseFeed(1, 4000, 3200)
        assert feed.worker is not None and feed.slots.shape == (network.PIECES, PIECE, 3200)
        # without a worker, a run of any length holds one piece
        monkeypatch.setattr(network, "usable_cpus", lambda: 1)
        for n_steps in (10, NOISE_CHUNK // 2 + 1, NOISE_CHUNK, 4000):
            feed = network._NoiseFeed(1, n_steps, 3200)
            assert feed.worker is None and feed.slots.shape == (1, min(PIECE, n_steps), 3200)


class TestBlowupStep:
    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_stamped_at_first_non_finite_step(self, family):
        # the kernel stepped one step a call on the run's noise finds the
        # same step, and the records stop just before it
        model, init = _runaway_case(family)
        dt = 1e-3
        run = simulate(model, init, 1.0, dt, 3, RecordSpec(stride=1))
        state = draw_initial_state(model, init, 3)
        noise = rng.normal_block(3, rng.NOISE_STREAM, 0, (NOISE_CHUNK, state.shape[0]))
        kernel_args = _kernel_args(model)
        with np.errstate(over="ignore", invalid="ignore"):
            step = next(j for j in range(NOISE_CHUNK)
                        if network_chunk(state, noise[j:j + 1], dt, *kernel_args) == 0)
        assert run.status == "BLOWUP" and run.blowup_time == (step + 1) * dt
        np.testing.assert_array_equal(run.times, np.arange(step + 1) * dt)


def _assert_same_floats(got, ref):
    """Equal values, NaN at the same places, and the same sign on zeros."""
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def _twins():
    """The network kernel's numpy function and, where it builds, its C twin."""
    twin = _kernels.c_twin("network_chunk")
    return [network_chunk] + ([twin] if twin is not None else [])


def _record_still(kernel, blk):
    """Step the (n, d) block of one population once with dt = 0, which
    leaves every state as it was (a -0.0 recovery too: with a = 0 and
    c = -1 its increment is -0.0), and record it. Returns the kernel's step
    count, the states after the step and the recorded means and stds."""
    n, d = blk.shape
    states = blk.copy()
    means, stds = np.full((1, 2, d), np.nan), np.full((1, 2, d), np.nan)
    fhn = np.array([0.0] * 6 + [-1.0] + [0.0] * 4)
    done = kernel(states, np.zeros((1, n)), 0.0, np.zeros((1, 1)), np.zeros(1),
                  np.zeros((1, d)), np.zeros(1), np.zeros((1, d)), fhn, 1.0,
                  0, 1, means, stds, np.empty((1, 2, 0)))
    return done, states, means[0, 1], stds[0, 1]


class TestCaptureMoments:
    """Recorded means and stds are each population column's 1-D mean() and
    std(), numpy's pairwise sums, bit for bit, in both twins of the kernel
    and in simulate's own records."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 200, 3200, 4500])
    def test_bit_identical_to_numpy_reductions(self, n, d):
        gen = np.random.default_rng(10 * n + d)
        constant = gen.normal(size=(n, d))
        constant[:, 1] = 0.37                      # std exactly 0
        signed_zero = gen.normal(size=(n, d))
        signed_zero[:, 1] = -0.0                   # numpy's sum starts at +0.0
        blocks = [gen.normal(size=(n, d)),
                  gen.normal(size=(n, d)) * 1e-3 + 1e8,   # large offset
                  gen.standard_cauchy(size=(n, d)) * 1e4,
                  constant, signed_zero]
        for kernel in _twins():
            for blk in blocks:
                done, states, mean, std = _record_still(kernel, blk)
                assert done == 1
                np.testing.assert_array_equal(states.view(np.uint64), blk.view(np.uint64))
                _assert_same_floats(mean, [blk[:, k].mean() for k in range(d)])
                _assert_same_floats(std, [blk[:, k].std() for k in range(d)])

    def test_non_finite_columns(self):
        # a non-finite state ends the run before its step is recorded
        blk = np.random.default_rng(4).normal(size=(9, 3))
        blk[2, 0], blk[5, 1], blk[7, 2] = np.inf, -np.inf, np.nan
        for kernel in _twins():
            with np.errstate(over="ignore", invalid="ignore"):
                done, _, mean, std = _record_still(kernel, blk)
            assert done == 0
            assert np.isnan(mean).all() and np.isnan(std).all()

    @pytest.mark.parametrize("family, n", [
        ("electrical", None), ("chemical", None),
        *((family, n) for family in ("electrical", "chemical") for n in (9, 129, 300))],
        ids=["electrical", "chemical",
             *(f"{family}-{n}" for family in ("electrical", "chemical") for n in (9, 129, 300))])
    def test_recorded_moments_match_snapshots(self, family, n, monkeypatch):
        # populations of 8 agents and more tell numpy's 1-D pairwise sum
        # from a sum taken in sequence (mean(axis=0))
        model, init, _ = _contract_case(family)
        if n is not None:
            model = NetworkModel(model.params, n, model.scaling)
        steps = (0, 1, 17, 40)
        record = RecordSpec(stride=1, snapshot_times=tuple(k * CONTRACT_DT for k in steps))
        for backend in ("active", "numpy"):
            if backend == "numpy":
                monkeypatch.setattr(_kernels, "_c_twins", {})
            run = simulate(model, init, 40 * CONTRACT_DT, CONTRACT_DT, 5, record)
            for k, states in zip(steps, run.snapshots):
                for p, blk in enumerate(model.population_rows(states)):
                    _assert_same_floats(run.means[p][k], [c.mean() for c in blk.T])
                    _assert_same_floats(run.stds[p][k], [c.std() for c in blk.T])
