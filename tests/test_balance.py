import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet.balance import (DegenerateDenominatorError,
                                chemical_balance_report,
                                chemical_balance_voltages, chemical_stability,
                                distance_to_balance, integrate_early_ode)
from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, ScalingRule)
from .oracles import net_input, pairwise_input, pairwise_model

GHAT_2A = np.array([[0.3, 2.0], [-1.0, -10.0]])


def chem_model(n=10, **over):
    base = dict(f_coeffs=(-1.0, 1.3, -0.3, 0.0), a=0.4, b=1.5, c=1.0, tau=1.0,
                alpha_gain=1.0, alpha_threshold=1.0, alpha_slope=0.2,
                E_E=3.0, E_I=-1.0, g_EE=0.3, g_EI=2.0, g_IE=1.0, g_II=10.0,
                sigma=1.0)
    base.update(over)
    return NetworkModel(FhnChemicalParams(**base), n=n,
                        scaling=ScalingRule("constant", 60.0))


def elec_model(n=10, g=1.0):
    params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, g, 1.0)
    return NetworkModel(params, n=n, scaling=ScalingRule("linear"))


def chem_means(sbar_E, sbar_I, m=6):
    """Population means (2, 3) of m random agents in each of E and I, with
    mean synaptic values sbar_E and sbar_I up to rounding."""
    rng = np.random.default_rng(0)
    states = rng.normal(size=(2 * m, 3))
    states[:m, 2] += sbar_E - states[:m, 2].mean()
    states[m:, 2] += sbar_I - states[m:, 2].mean()
    return chem_model(n=m).population_means(states)


class TestNetInput:
    def test_electrical_zero_at_point_mass(self):
        model = elec_model()
        out = net_input(model, 0, [2.5, 0.0], np.array([[2.5, 0.7]]))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_electrical_linearity_in_displacement(self):
        model = elec_model(g=1.0)
        xstar = 1.3
        delta = 0.25
        out = net_input(model, 0, [xstar - delta, 0.0], np.array([[xstar, 0.0]]))
        assert out[0] == pytest.approx(1.0 * delta, rel=1e-12)

    def test_chemical_balance_identity(self):
        # at the computed balance voltage the voltage component vanishes
        model = chem_model()
        means = chem_means(0.73, 1.21)
        sbar_E, sbar_I = means[:, 2].tolist()
        xE, xI = chemical_balance_voltages(model.ghat, 3.0, -1.0, sbar_E, sbar_I)
        for p, xs in enumerate((xE, xI)):
            out = net_input(model, p, [xs, 0.0, 0.0], means)
            assert abs(out[0]) <= 1e-12

    @given(family=st.sampled_from(("electrical", "chemical")),
           sizes=st.lists(st.integers(1, 9), min_size=2, max_size=2),
           couplings=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1), p=st.integers(0, 1))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_built_in_families_match_pairwise_oracle(self, family, sizes, couplings,
                                                     seed, p):
        # the affine shortcut A_p x_0 + B_p equals the interaction summed
        # over every source agent
        if family == "electrical":
            model, p = elec_model(g=couplings[0]), 0
        else:
            g_EE, g_EI, g_IE, g_II = couplings
            model = chem_model(g_EE=g_EE, g_EI=g_EI, g_IE=g_IE, g_II=g_II)
        gen = np.random.default_rng(seed)
        d = model.dim
        samples = tuple(gen.normal(scale=2.0, size=(n, d))
                        for n in sizes[:model.n_populations])
        x = gen.normal(scale=2.0, size=d)
        expect = pairwise_input(pairwise_model(model), p, x, samples)
        # the sums may cancel: compare on the scale of their terms
        maps = model.source_maps
        scale = sum(abs(c) * max(abs(maps(y)[0][q] * x[0]) + abs(maps(y)[1][q])
                                 for y in samples[q])
                    for q, c in enumerate(model.coupling[p]))
        means = np.stack([y.mean(axis=0) for y in samples])
        np.testing.assert_allclose(net_input(model, p, x, means),
                                   expect, rtol=0, atol=1e-13 * scale)


class TestBalanceVoltages:
    def test_sbar_i_zero_collapses_to_reversal(self):
        xE, xI = chemical_balance_voltages(GHAT_2A, 3.0, -1.0, 0.8, 0.0)
        assert xE == pytest.approx(3.0)
        assert xI == pytest.approx(3.0)

    def test_equal_reversals(self):
        xE, xI = chemical_balance_voltages(GHAT_2A, 1.7, 1.7, 0.5, 0.04)
        assert xE == pytest.approx(1.7)
        assert xI == pytest.approx(1.7)

    def test_derived_value_matches_linear_solve_oracle(self):
        # independent route: solve ghat_EE (x - E_E) sE + ghat_IE (x - E_I) sI = 0
        sE = sI = 0.5
        a = GHAT_2A[0, 0] * sE + GHAT_2A[1, 0] * sI
        rhs = GHAT_2A[0, 0] * 3.0 * sE + GHAT_2A[1, 0] * (-1.0) * sI
        oracle = np.linalg.solve(np.array([[a]]), np.array([rhs]))[0]
        xE, _ = chemical_balance_voltages(GHAT_2A, 3.0, -1.0, sE, sI)
        assert xE == pytest.approx(oracle, rel=1e-14)
        assert xE == pytest.approx(-19.0 / 7.0, rel=1e-12)

    def test_degenerate_denominator(self):
        ghat = np.array([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(DegenerateDenominatorError):
            chemical_balance_voltages(ghat, 3.0, -1.0, 0.5, 0.5)
        with pytest.raises(DegenerateDenominatorError):
            chemical_balance_voltages(np.zeros((2, 2)), 3.0, -1.0, 0.5, 0.5)

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=40, derandomize=True)
    def test_scaling_invariance(self, lam):
        # scaling all couplings leaves voltages fixed and scales rates
        xs = chemical_balance_voltages(GHAT_2A, 3.0, -1.0, 0.5, 0.5)
        xs_scaled = chemical_balance_voltages(lam * GHAT_2A, 3.0, -1.0, 0.5, 0.5)
        assert xs_scaled[0] == pytest.approx(xs[0], rel=1e-9)
        assert xs_scaled[1] == pytest.approx(xs[1], rel=1e-9)
        r = chemical_stability(GHAT_2A, 0.5, 0.5)
        rs = chemical_stability(lam * GHAT_2A, 0.5, 0.5)
        for b in range(2):
            assert rs[b].rate == pytest.approx(lam * r[b].rate, rel=1e-9)
            assert rs[b].stable == r[b].stable


class TestStability:
    def test_rate_value(self):
        stab = chemical_stability(GHAT_2A, 0.5, 0.5)
        assert stab[0].rate == pytest.approx(-0.35)
        assert stab[0].stable and not stab[0].marginal

    def test_rate_is_scalar_ode_eigenvalue(self):
        # oracle: decay exponent fitted from the explicit solution of the
        # early-time linear ODE
        sE = sI = 0.5
        xE, _ = chemical_balance_voltages(GHAT_2A, 3.0, -1.0, sE, sI)
        rate = chemical_stability(GHAT_2A, sE, sI)[0].rate

        def rhs(x):
            return (GHAT_2A[0, 0] * (x - 3.0) * sE + GHAT_2A[1, 0] * (x + 1.0) * sI)

        x0 = xE + 1.0
        t, dt, x = 0.0, 1e-4, x0
        while t < 1.0:
            x += rhs(x) * dt
            t += dt
        fitted = np.log(abs(x - xE) / abs(x0 - xE)) / t
        assert fitted == pytest.approx(rate, rel=1e-3)

    def test_all_zero_marginal(self):
        stab = chemical_stability(np.zeros((2, 2)), 1.0, 1.0)
        for b in range(2):
            assert stab[b].marginal and not stab[b].stable

    def test_fig2a_initial_sbar_stable(self):
        stab = chemical_stability(GHAT_2A, 1.0, 1.5)
        assert stab[0].stable and stab[1].stable

    def test_report_assembly(self):
        rep = chemical_balance_report(GHAT_2A, 3.0, -1.0, 0.5, 0.5)
        assert rep.voltages[0] == pytest.approx(-19.0 / 7.0)
        assert rep.denominators[0] == pytest.approx(-0.35)


class TestElectricalProjection:
    # the mean voltage of the measure and its dispersion (divisor n), the
    # distance from the Dirac voltage structure
    def test_point_mass(self):
        states = np.array([[2.0, 0.1], [2.0, -0.4]])
        assert elec_model(n=2).population_means(states)[0, 0] == 2.0
        assert states[:, 0].std() == 0.0

    def test_two_values(self):
        states = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert elec_model(n=2).population_means(states)[0, 0] == 1.0
        assert states[:, 0].std() == 1.0


def early_ode_reference(model, means, x0, T, dt=None):
    """The numpy RK4 loop integrate_early_ode ran for the affine families
    before it stepped each population on Python floats, kept as the
    reference: (times, traj, status, blowup_time)."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    A, B = model.affine_coefficients(means)
    if dt is None:
        r = float(np.max(np.abs(A)))
        dt = 1e-3 * min(1.0, 1.0 / r) if r else 1e-3
    n_steps = max(1, int(round(T / dt)))

    def rhs(xs):
        out = np.zeros_like(xs)
        out[:, 0] = A * xs[:, 0] + B
        return out

    times = np.empty(n_steps + 1)
    traj = np.empty((n_steps + 1,) + x0.shape)
    times[0] = 0.0
    traj[0] = x0
    xs = x0.copy()
    for s in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(xs)
            k2 = rhs(xs + 0.5 * dt * k1)
            k3 = rhs(xs + 0.5 * dt * k2)
            k4 = rhs(xs + dt * k3)
            xs = xs + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        times[s] = s * dt
        traj[s] = xs
        if not np.isfinite(xs).all():
            return times[:s + 1], traj[:s + 1], "BLOWUP", float(times[s])
    return times, traj, "COMPLETED", None


def assert_matches_reference(res, ref):
    times, traj, status, blowup_time = ref
    assert (res.status, res.blowup_time) == (status, blowup_time)
    assert res.times.tobytes() == times.tobytes()
    # the same values, NaN at the same places and the same sign on zeros
    np.testing.assert_array_equal(res.traj, traj)
    np.testing.assert_array_equal(np.signbit(res.traj), np.signbit(traj))


def _ode_case(family, couplings, centre):
    """An affine model, the population means of a frozen measure and the
    state dimension for one family; couplings are nonnegative conductances,
    centre shifts the measure, so a chemical A_p = sum_q ghat[q, p] sbar_q
    takes either sign."""
    if family == "electrical":
        model = elec_model(n=5, g=couplings[0])
        states = np.random.default_rng(1).normal(size=(5, 2)) + centre
        return model, model.population_means(states), 2
    g_EE, g_EI, g_IE, g_II = couplings
    model = chem_model(g_EE=g_EE, g_EI=g_EI, g_IE=g_IE, g_II=g_II)
    return model, chem_means(centre, 1.0 - centre), 3


finite_or_signed_zero = st.one_of(st.floats(-50.0, 50.0), st.just(-0.0))


class TestEarlyOde:
    def test_electrical_fixed_point(self):
        model = elec_model()
        res = integrate_early_ode(model, np.array([[1.5, 0.0]]), np.array([[1.5, 0.0]]), 1.0)
        np.testing.assert_allclose(res.traj[:, 0, 0], 1.5, atol=1e-12)

    def test_electrical_analytic_relaxation(self):
        model = elec_model(g=1.0)
        res = integrate_early_ode(model, np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]), 1.0)
        assert res.traj[-1, 0, 0] == pytest.approx(1.0 + np.exp(-1.0), abs=1e-6)

    def test_chemical_converges_to_balance_voltage(self):
        model = chem_model()
        means = chem_means(0.5, 0.5)
        sE, sI = means[:, 2].tolist()
        xE, xI = chemical_balance_voltages(model.ghat, 3.0, -1.0, sE, sI)
        rate = chemical_stability(model.ghat, sE, sI)[0].rate
        T = 20.0 / abs(rate)
        x0 = np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
        res = integrate_early_ode(model, means, x0, T, dt=1e-2)
        assert res.status == "COMPLETED"
        assert res.traj[-1, 0, 0] == pytest.approx(xE, abs=1e-6)
        assert res.traj[-1, 1, 0] == pytest.approx(xI, abs=1e-6)
        # monotone contraction toward the fixed point
        dev = np.abs(res.traj[:, 0, 0] - xE)
        assert np.all(np.diff(dev) <= 1e-12)

    def test_unstable_blowup_flagged(self):
        model = chem_model(g_EE=5.0, g_EI=2.0, g_IE=0.1, g_II=0.1)
        means = chem_means(1.0, 1.0)
        res = integrate_early_ode(model, means,
                                  np.array([[10.0, 0, 0], [10.0, 0, 0]]),
                                  400.0, dt=1e-2)
        assert res.status == "BLOWUP"
        assert res.blowup_time is not None

    @given(family=st.sampled_from(("electrical", "chemical")),
           couplings=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
           centre=st.floats(-2.0, 2.0),
           x0=st.lists(finite_or_signed_zero, min_size=6, max_size=6),
           n=st.integers(1, 300), frac=st.floats(0.9, 1.1),
           dt=st.one_of(st.none(), st.floats(1e-4, 0.5)))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_bit_identical_to_numpy_loop(self, family, couplings, centre, x0, n, frac, dt):
        model, means, d = _ode_case(family, couplings, centre)
        x0 = np.reshape(x0[:model.n_populations * d], (model.n_populations, d))
        if dt is None:
            A, _ = model.affine_coefficients(means)
            r = float(np.max(np.abs(A)))
            T = n * frac * 1e-3 * (min(1.0, 1.0 / r) if r else 1.0)
        else:
            T = n * frac * dt
        res = integrate_early_ode(model, means, x0, T, dt)
        assert_matches_reference(res, early_ode_reference(model, means, x0, T, dt))

    def test_one_population_overflows_first(self):
        # A_E = 5 sbar_E - 0.1 sbar_I > 0 runs away; A_I = 2 sbar_E - 10 sbar_I < 0
        model = chem_model(g_EE=5.0, g_EI=2.0, g_IE=0.1, g_II=10.0)
        means = chem_means(1.0, 1.0)
        A, _ = model.affine_coefficients(means)
        assert A[0] > 0 > A[1]
        x0 = np.array([[10.0, 0.2, 0.3], [-4.0, 0.1, 0.6]])
        res = integrate_early_ode(model, means, x0, 400.0, dt=1e-2)
        assert res.status == "BLOWUP"
        assert not np.isfinite(res.traj[-1, 0, 0])
        assert np.isfinite(res.traj[-1, 1]).all()
        assert res.blowup_time == res.times[-1] < 400.0
        assert_matches_reference(res, early_ode_reference(model, means, x0, 400.0, 1e-2))

    @pytest.mark.parametrize("p, k, value", [(0, 0, np.nan), (1, 0, np.inf),
                                             (0, 1, np.inf), (1, 2, -np.inf),
                                             (1, 1, np.nan)])
    def test_non_finite_x0_blows_up_at_first_step(self, p, k, value):
        model = chem_model()
        means = chem_means(0.5, 0.5)
        x0 = np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
        x0[p, k] = value
        res = integrate_early_ode(model, means, x0, 1.0, dt=1e-2)
        assert res.status == "BLOWUP"
        assert res.blowup_time == 1e-2 and len(res.times) == 2
        assert_matches_reference(res, early_ode_reference(model, means, x0, 1.0, 1e-2))

    def test_electrical_relaxes_to_measure_mean(self):
        # the electrical net input g (mean y_0 - x_0) e_0 relaxes x_0
        # exponentially to the measure's mean; x_1 has zero slope
        model = elec_model(g=0.8)
        means = elec_model(n=2).population_means(np.array([[1.0, 0.0], [2.0, 5.0]]))
        res = integrate_early_ode(model, means, np.array([[3.0, -0.5]]), 2.0, dt=1e-2)
        assert res.status == "COMPLETED" and res.blowup_time is None
        assert len(res.times) == 201 and res.times[-1] == 200 * 1e-2
        np.testing.assert_allclose(res.traj[:, 0, 0], 1.5 + 1.5 * np.exp(-0.8 * res.times),
                                   rtol=1e-9)
        np.testing.assert_array_equal(res.traj[:, 0, 1], -0.5)

    @pytest.mark.parametrize("T, dt", [(0.0, None), (-1.0, None), (np.nan, None),
                                       (np.inf, None), (1.0, 0.0), (1.0, -1e-3),
                                       (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_bad_horizon(self, T, dt):
        model = elec_model()
        with pytest.raises(ValueError, match="T must|dt must"):
            integrate_early_ode(model, np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]), T, dt)

    @pytest.mark.parametrize("family, shape", [("electrical", (2,)), ("electrical", (1, 3)),
                                               ("electrical", (2, 2)), ("chemical", (1, 3)),
                                               ("chemical", (2, 2)), ("chemical", (6, 3))])
    def test_rejects_frozen_means_of_wrong_shape(self, family, shape):
        # one mean state per population, or the frozen measure is not this
        # model's; a (2,) row would broadcast silently
        model = elec_model() if family == "electrical" else chem_model()
        x0 = np.zeros((model.n_populations, model.dim))
        with pytest.raises(ValueError, match="frozen_means"):
            integrate_early_ode(model, np.ones(shape), x0, 1.0, dt=1e-2)


class TestDistanceToBalance:
    def test_zero_on_manifold(self):
        model = elec_model(n=5)
        states = np.column_stack([np.full(5, 1.7), np.linspace(-1, 1, 5)])
        assert distance_to_balance(states, model) == 0.0

    def test_displaced_agent_formula(self):
        n, g, delta = 8, 1.0, 0.6
        model = elec_model(n=n, g=g)
        states = np.column_stack([np.full(n, 2.0), np.zeros(n)])
        states[3, 0] += delta
        expect = g * delta * (n - 1) / n
        assert distance_to_balance(states, model) == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_summation_oracle_chemical(self):
        model = chem_model(n=6)
        rng = np.random.default_rng(17)
        states = rng.normal(size=(12, 3))
        # O(N^2) oracle
        worst = 0.0
        for i in range(12):
            p = 0 if i < 6 else 1
            tot = np.zeros(3)
            for q in range(2):
                acc = np.zeros(3)
                for j in range(6 * q, 6 * q + 6):
                    acc += np.array([(states[i, 0] - model.erev[q]) * states[j, 2], 0, 0])
                tot += model.coupling[p, q] * acc / 6.0
            worst = max(worst, np.linalg.norm(tot))
        assert distance_to_balance(states, model) == pytest.approx(worst, rel=1e-10)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, derandomize=True)
    def test_permutation_invariance(self, seed):
        model = elec_model(n=7)
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        a = distance_to_balance(states, model)
        b = distance_to_balance(states[perm], model)
        assert a == pytest.approx(b, rel=1e-12)


class TestLateSnapshotDispersion:
    def test_fig1_late_dispersion_within_ou_bound(self):
        # late-time snapshot of the coupled run stays within twice the
        # Ornstein-Uhlenbeck linearization level sigma/sqrt(2 gamma g)
        from balancenet.network import (CoordinateIC, InitialConditionSpec,
                                        RecordSpec, simulate)
        model = elec_model(n=300)
        init = InitialConditionSpec(((CoordinateIC("normal", 1.0, 5.0),
                                      CoordinateIC("normal", 1.5, 5.0)),))
        run = simulate(model, init, 0.15, 1e-4, 41,
                       RecordSpec(stride=100, snapshot_times=(0.15,)))
        states = run.snapshots[-1]
        dispersion = states[:, 0].std()
        assert dispersion <= 2.0 / np.sqrt(2.0 * 300.0 * 1.0)
