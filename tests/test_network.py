import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from balancenet.models import (CUSTOM, FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, PopulationSpec, ScalingRule,
                               build_fhn_chemical, build_fhn_electrical)
from balancenet.network import (NOISE_CHUNK, BlowupError, ConfigurationError,
                                CoordinateIC, InitialConditionSpec, NetworkState,
                                PerturbationEvent, RecordSpec,
                                apply_perturbation, draw_initial_state,
                                simulate, simulate_rescaled_early,
                                step_euler_maruyama)

FIG1 = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, 1.0)
FIG1_INIT = InitialConditionSpec(((CoordinateIC("normal", 1.0, 5.0),
                                   CoordinateIC("normal", 1.5, 5.0)),))


def scalar_custom_model(drift, n=1, g=0.0, sigma=0.0, gamma=1.0,
                        interaction=None):
    pop = PopulationSpec("a", n, 1, np.array([[sigma]]))
    return NetworkModel(
        populations=(pop,), family=CUSTOM, coupling=np.array([[g]]),
        scaling=ScalingRule("constant", gamma),
        drift_fns=(drift,),
        interaction_fn=interaction or (lambda p, q, x, y: np.zeros(1)))


class TestStep:
    def test_identity_when_everything_off(self):
        model = scalar_custom_model(lambda x: np.zeros(1), n=4)
        st = NetworkState(0.0, np.array([[1.0], [2.0], [-3.0], [0.5]]),
                          np.array([0, 4]))
        out = step_euler_maruyama(st, model, 0.1, np.zeros((4, 1)))
        np.testing.assert_array_equal(out.states, st.states)
        assert out.t == pytest.approx(0.1)

    def test_explicit_euler_arithmetic(self):
        model = scalar_custom_model(lambda x: -x)
        st = NetworkState(0.0, np.array([[1.0]]), np.array([0, 1]))
        out = step_euler_maruyama(st, model, 0.1, np.zeros((1, 1)))
        assert out.states[0, 0] == pytest.approx(0.9)

    def test_two_agent_coupling_matches_matrix_exponential(self):
        # pure diffusive coupling of two scalar agents is linear; the
        # Euler-Maruyama path must converge to expm at first order
        g, gamma = 1.0, 3.0
        model = scalar_custom_model(
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
                st = step_euler_maruyama(st, model, dt, np.zeros((2, 1)))
                exact = expm(A * (k * dt)) @ x0
                worst = max(worst, np.max(np.abs(st.states[:, 0] - exact)))
            errs.append(worst)
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_blowup_raised(self):
        model = scalar_custom_model(lambda x: x ** 3)
        st = NetworkState(0.0, np.array([[1e160]]), np.array([0, 1]))
        with pytest.raises(BlowupError):
            step_euler_maruyama(st, model, 1.0, np.zeros((1, 1)))

    def test_permutation_equivariance_exact(self):
        model = build_fhn_electrical(FIG1, n=6, scaling=ScalingRule("constant", 5.0))
        rng = np.random.default_rng(3)
        states = rng.normal(size=(6, 2))
        noise = rng.normal(size=(6, 1))
        perm = np.array([4, 2, 0, 5, 1, 3])
        st = NetworkState(0.0, states.copy(), np.array([0, 6]))
        st_p = NetworkState(0.0, states[perm].copy(), np.array([0, 6]))
        out = step_euler_maruyama(st, model, 0.01, noise)
        out_p = step_euler_maruyama(st_p, model, 0.01, noise[perm])
        np.testing.assert_array_equal(out_p.states, out.states[perm])

    def test_permutation_equivariance_multistep_chemical(self):
        params = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0,
                                   1.0, 1.0, 0.2, 3.0, -1.0, 0.3, 2.0, 1.0, 10.0, 1.0)
        model = build_fhn_chemical(params, n=4, scaling=ScalingRule("constant", 2.0))
        rng = np.random.default_rng(11)
        states = rng.normal(size=(8, 3))
        # permute within each population independently
        perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
        st = NetworkState(0.0, states.copy(), np.array([0, 4, 8]))
        st_p = NetworkState(0.0, states[perm].copy(), np.array([0, 4, 8]))
        for _ in range(5):
            noise = rng.normal(size=(8, 1))
            st = step_euler_maruyama(st, model, 0.01, noise)
            st_p = step_euler_maruyama(st_p, model, 0.01, noise[perm])
        np.testing.assert_array_equal(st_p.states, st.states[perm])


class TestSimulate:
    def test_same_seed_identical(self):
        model = build_fhn_electrical(FIG1, n=40)
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
        model = build_fhn_electrical(FIG1, n=40)
        r1 = simulate(model, FIG1_INIT, 0.05, 1e-4, 1)
        r2 = simulate(model, FIG1_INIT, 0.05, 1e-4, 2)
        assert not np.array_equal(r1.means[0], r2.means[0])

    def test_uncoupled_noiseless_matches_ode_oracle(self):
        # sigma = 0, g = 0: every agent follows the scalar FitzHugh-Nagumo
        # ODE; compare against an adaptive Runge-Kutta reference
        params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 0.0, 0.0)
        model = build_fhn_electrical(params, n=3)
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
        model = build_fhn_electrical(FIG1, n=300)
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
        model = build_fhn_electrical(params, n=300)
        run = simulate(model, FIG1_INIT, 0.1, 1e-4, 5, RecordSpec(stride=10))
        sel = run.times > 5.0 / 300.0
        stds = run.stds[0][sel, 0]
        assert np.all(np.diff(stds) <= stds[:-1] * 2e-3 + 1e-12)
        assert stds[-1] <= stds[0]

    def test_step_guard_rejects_large_dt(self):
        model = build_fhn_electrical(FIG1, n=300)  # gamma = 300, g = 1
        with pytest.raises(ConfigurationError):
            simulate(model, FIG1_INIT, 0.1, 1e-3, 1)

    def test_blowup_recorded_not_raised(self):
        model = scalar_custom_model(lambda x: x ** 3, n=2, sigma=0.0)
        init = InitialConditionSpec(((CoordinateIC("constant", 4.0),),))
        run = simulate(model, init, 10.0, 0.5, 1, RecordSpec(stride=1))
        assert run.status == "BLOWUP"
        assert run.blowup_time is not None
        assert np.isfinite(run.means[0][:len(run.times)]).all()

    def test_snapshot_times_and_stride(self):
        model = build_fhn_electrical(FIG1, n=10)
        rec = RecordSpec(stride=7, traces=2, snapshot_times=(0.0, 0.013, 0.05))
        run = simulate(model, FIG1_INIT, 0.05, 1e-4, 9, rec)
        assert run.times[0] == 0.0
        assert run.times[-1] == pytest.approx(0.05)
        assert len(run.snapshots) == 3
        assert run.snapshots[1][0] == pytest.approx(0.013, abs=1e-4)


class TestPerturbation:
    def test_identity_multiplier(self):
        model = build_fhn_chemical(_fig2a_params())
        out = apply_perturbation(model, PerturbationEvent(1.0, {"g_EE": 1.0}))
        np.testing.assert_array_equal(out.ghat, model.ghat)

    def test_fig2_excitatory_increase(self):
        model = build_fhn_chemical(_fig2a_params())
        out = apply_perturbation(
            model, PerturbationEvent(1.0, {"g_EE": 1.5, "g_EI": 1.5}))
        np.testing.assert_allclose(out.ghat, [[0.45, 3.0], [-1.0, -10.0]])

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationEvent(1.0, {"g_EE": 0.0})

    def test_unknown_entry_rejected(self):
        model = build_fhn_chemical(_fig2a_params())
        with pytest.raises(ConfigurationError):
            apply_perturbation(model, PerturbationEvent(1.0, {"g_XX": 2.0}))

    def test_midrun_event_changes_dynamics(self):
        model = build_fhn_chemical(_fig2a_params(), n=20)
        init = _chem_init()
        ev = [PerturbationEvent(0.005, {"g_EE": 1.5, "g_EI": 1.5})]
        base = simulate(model, init, 0.01, 1e-5, 3, RecordSpec(stride=100))
        pert = simulate(model, init, 0.01, 1e-5, 3, RecordSpec(stride=100), ev)
        split = np.searchsorted(base.times, 0.005)
        np.testing.assert_array_equal(base.means[0][:split + 1],
                                      pert.means[0][:split + 1])
        assert not np.array_equal(base.means[0][-1], pert.means[0][-1])


class TestRescaledEarly:
    def test_gamma_one_identical_to_simulate(self):
        model = build_fhn_chemical(_fig2a_params(), n=15,
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
            model = build_fhn_chemical(_fig2a_params(), n=50,
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
        model = build_fhn_chemical(_fig2a_params(), n=5)
        st = draw_initial_state(model, _chem_init(), 13)
        assert st.states.shape == (10, 3)
        assert st.population_of(0) == 0
        assert st.population_of(7) == 1
        # uniform synaptic ranges differ per population
        assert st.block(0)[:, 2].max() <= 2.0
        assert st.block(1)[:, 2].max() <= 3.0

    def test_mismatched_spec_rejected(self):
        model = build_fhn_chemical(_fig2a_params(), n=5)
        bad = InitialConditionSpec(((CoordinateIC("constant", 0.0),),))
        with pytest.raises(ConfigurationError):
            draw_initial_state(model, bad, 1)


CONTRACT_DT = 1e-4
CONTRACT_STEPS = 2 * NOISE_CHUNK + 88


def _contract_case(family):
    """Small model, initial law and an identity perturbation per family."""
    if family == "electrical":
        return build_fhn_electrical(FIG1, n=5), FIG1_INIT, {"g": 1.0}
    return build_fhn_chemical(_fig2a_params(), n=4), _chem_init(), {"g_EE": 1.0}


def _runaway_case(family):
    """A voltage of 60 everywhere: the cubic drift overflows within a few
    steps at dt = 1e-3."""
    x = CoordinateIC("constant", 60.0)
    if family == "electrical":
        return build_fhn_electrical(FIG1, n=50), InitialConditionSpec(
            ((x, CoordinateIC("normal", 1.5, 5.0)),))
    laws = _chem_init().coords
    return build_fhn_chemical(_fig2a_params(), n=50), InitialConditionSpec(
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
