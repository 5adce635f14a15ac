import sys
import threading
import time
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
                                InitialConditionSpec, NetworkState,
                                PerturbationEvent, RecordSpec,
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
        st = NetworkState(0.0, np.array([[1.0], [2.0], [-3.0], [0.5]]),
                          np.array([0, 4]))
        out = pairwise_step(st, model, 0.1, np.zeros((4, 1)))
        np.testing.assert_array_equal(out.states, st.states)
        assert out.t == pytest.approx(0.1)

    def test_explicit_euler_arithmetic(self):
        model = scalar_model(lambda x: -x)
        st = NetworkState(0.0, np.array([[1.0]]), np.array([0, 1]))
        out = pairwise_step(st, model, 0.1, np.zeros((1, 1)))
        assert out.states[0, 0] == pytest.approx(0.9)

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
            st = NetworkState(0.0, x0[:, None].copy(), np.array([0, 2]))
            steps = int(round(T / dt))
            worst = 0.0
            for k in range(1, steps + 1):
                st = pairwise_step(st, model, dt, np.zeros((2, 1)))
                exact = expm(A * (k * dt)) @ x0
                worst = max(worst, np.max(np.abs(st.states[:, 0] - exact)))
            errs.append(worst)
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_blowup_raised(self):
        model = scalar_model(lambda x: x ** 3)
        st = NetworkState(0.0, np.array([[1e160]]), np.array([0, 1]))
        with pytest.raises(BlowupError):
            pairwise_step(st, model, 1.0, np.zeros((1, 1)))

    def test_permutation_equivariance_exact(self):
        model = pairwise_model(
            NetworkModel(FIG1, n=6, scaling=ScalingRule("constant", 5.0)))
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 2))
        noise = rng.normal(size=(6, 1))
        perm = np.array([4, 2, 0, 5, 1, 3])
        st = NetworkState(0.0, states.copy(), np.array([0, 6]))
        st_p = NetworkState(0.0, states[perm].copy(), np.array([0, 6]))
        out = pairwise_step(st, model, 0.01, noise)
        out_p = pairwise_step(st_p, model, 0.01, noise[perm])
        np.testing.assert_array_equal(out_p.states, out.states[perm])

    def test_permutation_equivariance_multistep_chemical(self):
        params = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0,
                                   1.0, 1.0, 0.2, 3.0, -1.0, 0.3, 2.0, 1.0, 10.0, 1.0)
        model = pairwise_model(
            NetworkModel(params, n=4, scaling=ScalingRule("constant", 2.0)))
        rng = np.random.default_rng(11)
        states = rng.normal(size=(8, 3))
        # permute within each population independently
        perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
        st = NetworkState(0.0, states.copy(), np.array([0, 4, 8]))
        st_p = NetworkState(0.0, states[perm].copy(), np.array([0, 4, 8]))
        for _ in range(5):
            noise = rng.normal(size=(8, 1))
            st = pairwise_step(st, model, 0.01, noise)
            st_p = pairwise_step(st_p, model, 0.01, noise[perm])
        np.testing.assert_array_equal(st_p.states, st.states[perm])


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
        np.testing.assert_array_equal(r1.snapshots[0][1], r2.snapshots[0][1])

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
        init = run.snapshots[0][1]
        final = run.snapshots[1][1]

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
        assert len(run.snapshots) == 3
        assert run.snapshots[1][0] == pytest.approx(0.013, abs=1e-4)


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
        st = draw_initial_state(model, _chem_init(), 13)
        assert st.states.shape == (10, 3)
        assert np.searchsorted(st.offsets, 0, side="right") - 1 == 0
        assert np.searchsorted(st.offsets, 7, side="right") - 1 == 1
        # uniform synaptic ranges differ per population
        assert st.block(0)[:, 2].max() <= 2.0
        assert st.block(1)[:, 2].max() <= 3.0

    def test_mismatched_spec_rejected(self):
        model = NetworkModel(_fig2a_params(), n=5)
        bad = InitialConditionSpec(((CoordinateIC("constant", 0.0),),))
        with pytest.raises(ConfigurationError):
            draw_initial_state(model, bad, 1)


CONTRACT_DT = 1e-4
CONTRACT_STEPS = 2 * NOISE_CHUNK + 88


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
        np.testing.assert_array_equal(run.snapshots[-1][1], ref.snapshots[-1][1])
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
    """Draw the noise of the following runs in prefetched half-blocks (on)
    or in whole blocks inline (off), whatever the host's CPUs and the run's
    size."""
    monkeypatch.setattr(network, "usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(network, "PREFETCH_MIN_DRAWS", 0)


class _NoiseSpy:
    """Wraps rng.normal_block: records each noise piece as (block, rows),
    the threads that drew them, and fills started and finished."""

    def __init__(self, monkeypatch, delay=0.0):
        self.pieces, self.threads = [], set()
        self.started = self.done = 0
        self.delay = delay
        self.normal_block = rng.normal_block
        monkeypatch.setattr(rng, "normal_block", self)

    def __call__(self, seed, purpose, block, shape, **kwargs):
        if purpose != rng.NOISE_STREAM:
            return self.normal_block(seed, purpose, block, shape, **kwargs)
        self.started += 1
        self.pieces.append((block, shape[0]))
        self.threads.add(threading.current_thread())
        time.sleep(self.delay)
        out = self.normal_block(seed, purpose, block, shape, **kwargs)
        self.done += 1
        return out


class TestNoiseBlocks:
    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_partial_last_block_keeps_bytes(self, family, monkeypatch):
        # the last block is drawn short, in whole blocks inline and in
        # prefetched half-blocks alike; the run equals one stepped on full
        # blocks
        model, init, _ = _contract_case(family)
        steps = 2 * NOISE_CHUNK + 37
        T = steps * CONTRACT_DT
        N = int(model.offsets[-1])
        state = draw_initial_state(model, init, 8).states
        kernel_args = _kernel_args(model)
        for chunk in range(3):
            block = rng.normal_block(8, rng.NOISE_STREAM, chunk, (NOISE_CHUNK, N))
            k = min(NOISE_CHUNK, steps - chunk * NOISE_CHUNK)
            assert network_chunk(state, block[:k], CONTRACT_DT, model.offsets,
                                 *kernel_args) == k

        half = NOISE_CHUNK // 2
        for on, pieces in ((False, [(0, NOISE_CHUNK), (1, NOISE_CHUNK), (2, 37)]),
                           (True, [(0, half), (0, half), (1, half), (1, half), (2, 37)])):
            _force_prefetch(monkeypatch, on)
            spy = _NoiseSpy(monkeypatch)
            run = simulate(model, init, T, CONTRACT_DT, 8,
                           RecordSpec(stride=1, snapshot_times=(T,)))
            monkeypatch.setattr(rng, "normal_block", spy.normal_block)
            assert spy.pieces == pieces
            # blocks 0 and 1 are drawn whole, block 2 only to row 37
            rows = {}
            for block, k in spy.pieces:
                rows[block] = rows.get(block, 0) + k
            assert rows == {0: NOISE_CHUNK, 1: NOISE_CHUNK, 2: 37}
            np.testing.assert_array_equal(run.snapshots[-1][1], state)
            assert len(run.times) == steps + 1


def _same_run(a, b):
    """Two run records equal in every recorded bit."""
    assert (a.status, a.blowup_time) == (b.status, b.blowup_time)
    for x, y in [(a.times, b.times), *zip(a.means, b.means), *zip(a.stds, b.stds),
                 *zip(a.traces, b.traces)]:
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a.snapshots, b.snapshots))


class TestNoisePrefetch:
    """Prefetched half-blocks are the noise of whole blocks drawn inline:
    final states and records are bit-identical with the prefetch on and
    off, and a run returns only once its noise worker has stopped."""

    HALF = NOISE_CHUNK // 2

    def _both_ways(self, monkeypatch, *args, **kwargs):
        """The run with the prefetch off, then on: the first draws whole
        blocks on the stepping thread, the second halves, the later ones on
        its worker."""
        runs, spies = [], []
        for on in (False, True):
            _force_prefetch(monkeypatch, on)
            spies.append(_NoiseSpy(monkeypatch))
            runs.append(simulate(*args, **kwargs))
            monkeypatch.setattr(rng, "normal_block", spies[-1].normal_block)
        off, on = spies
        assert off.pieces[0] == (0, NOISE_CHUNK) and on.pieces[0] == (0, self.HALF)
        assert off.threads == {threading.current_thread()} < on.threads
        assert off.started == off.done and on.started == on.done
        return runs

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    @pytest.mark.parametrize("case", ["chunk-edge", "event-and-snapshot", "short-last-block"])
    def test_bit_identical_on_and_off(self, family, case, monkeypatch):
        model, init, identity = _contract_case(family)
        steps, stride, snaps, events = CONTRACT_STEPS, 1, (), ()
        if case == "event-and-snapshot":
            # both inside the halves of block 1, away from their edges
            stride = 7
            events = [PerturbationEvent((NOISE_CHUNK + 45) * CONTRACT_DT, identity)]
            snaps = ((NOISE_CHUNK + self.HALF + 17) * CONTRACT_DT,)
        elif case == "short-last-block":
            steps = 2 * NOISE_CHUNK + 37
        T = steps * CONTRACT_DT
        off, on = self._both_ways(monkeypatch, model, init, T, CONTRACT_DT, 12,
                                  RecordSpec(stride=stride, traces=2,
                                             snapshot_times=snaps + (T,)), events)
        assert on.status == "COMPLETED" and len(on.snapshots) == len(snaps) + 1
        _same_run(off, on)

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_numpy_fill_bit_identical_on_and_off(self, family, monkeypatch):
        # without the C twins, numpy's fill resumes the stream at the half
        monkeypatch.setattr(_kernels, "_c_twins", {})
        model, init, _ = _contract_case(family)
        T = (2 * NOISE_CHUNK + 37) * CONTRACT_DT
        off, on = self._both_ways(monkeypatch, model, init, T, CONTRACT_DT, 13,
                                  RecordSpec(stride=5, traces=1, snapshot_times=(T,)))
        _same_run(off, on)

    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_blowup_inside_a_prefetched_half(self, family, monkeypatch):
        # a conductance raised a millionfold at step 150 overflows within
        # the second half of block 0, which the worker drew
        model, init, _ = _contract_case(family)
        name = "g" if family == "electrical" else "g_EE"
        event = PerturbationEvent(150 * CONTRACT_DT, {name: 1e6})
        off, on = self._both_ways(monkeypatch, model, init, CONTRACT_STEPS * CONTRACT_DT,
                                  CONTRACT_DT, 12, RecordSpec(stride=1), [event])
        assert on.status == "BLOWUP"
        assert self.HALF < on.blowup_time / CONTRACT_DT <= NOISE_CHUNK
        _same_run(off, on)

    def test_fill_failing_after_a_blowup_is_raised(self, monkeypatch):
        # the run stops in block 0's second half after the worker's draw
        # of block 1 failed; that error is not dropped
        _force_prefetch(monkeypatch, True)
        model, init, _ = _contract_case("electrical")
        normal_block = rng.normal_block
        kernel = network.active(model.params.kernel)
        failed = threading.Event()

        def failing(seed, purpose, block, shape, **kwargs):
            if purpose == rng.NOISE_STREAM and block == 1:
                failed.set()
                raise MemoryError("fill failed")
            return normal_block(seed, purpose, block, shape, **kwargs)

        def stepping(*args):
            step0 = args[-5]
            if step0 >= NOISE_CHUNK // 2:  # the half the blowup is in
                assert failed.wait(timeout=10)
            return kernel(*args)

        monkeypatch.setattr(rng, "normal_block", failing)
        monkeypatch.setattr(network, "active", lambda name: stepping)
        event = PerturbationEvent(150 * CONTRACT_DT, {"g": 1e6})
        with pytest.raises(MemoryError, match="fill failed"):
            simulate(model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 12,
                     RecordSpec(), [event])

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
        for ref, got in zip(serial, results):
            _same_run(ref, got)

    def test_kernel_error_returns_after_the_worker_stops(self, monkeypatch):
        # the third kernel call raises while the worker fills the fourth
        # half-block; simulate raises only once that fill is done
        _force_prefetch(monkeypatch, True)
        model, init, _ = _contract_case("electrical")
        kernel = network.active(model.params.kernel)
        calls = []

        def failing(*args):
            calls.append(args[1].shape[0])
            if len(calls) == 3:
                deadline = time.monotonic() + 10.0
                while spy.started < 4 and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise RuntimeError("kernel failed")
            return kernel(*args)

        monkeypatch.setattr(network, "active", lambda name: failing)
        spy = _NoiseSpy(monkeypatch, delay=0.2)
        with pytest.raises(RuntimeError, match="kernel failed"):
            simulate(model, init, CONTRACT_STEPS * CONTRACT_DT, CONTRACT_DT, 3, RecordSpec())
        assert calls == [self.HALF] * 3
        assert spy.started == spy.done == 4


class TestBlowupStep:
    @pytest.mark.parametrize("family", ["electrical", "chemical"])
    def test_stamped_at_first_non_finite_step(self, family):
        # the kernel stepped one step a call on the run's noise finds the
        # same step, and the records stop just before it
        model, init = _runaway_case(family)
        dt = 1e-3
        run = simulate(model, init, 1.0, dt, 3, RecordSpec(stride=1))
        state = draw_initial_state(model, init, 3).states
        noise = rng.normal_block(3, rng.NOISE_STREAM, 0, (NOISE_CHUNK, state.shape[0]))
        kernel_args = _kernel_args(model)
        with np.errstate(over="ignore", invalid="ignore"):
            step = next(j for j in range(NOISE_CHUNK)
                        if network_chunk(state, noise[j:j + 1], dt, model.offsets,
                                         *kernel_args) == 0)
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
    fhn = (0.0,) * 6 + (-1.0,) + (0.0,) * 4
    done = kernel(states, np.zeros((1, n)), 0.0, np.array([0, n]), np.zeros((1, 1)),
                  np.zeros(1), np.zeros((1, d)), np.zeros(1), np.zeros((1, d)), fhn, 1.0,
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
            for k, (_, states) in zip(steps, run.snapshots):
                for p in range(model.n_populations):
                    blk = states[model.offsets[p]:model.offsets[p + 1]]
                    _assert_same_floats(run.means[p][k], [c.mean() for c in blk.T])
                    _assert_same_floats(run.stds[p][k], [c.std() for c in blk.T])
