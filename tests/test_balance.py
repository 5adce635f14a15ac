import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet.balance import (DegenerateDenominatorError, EmpiricalMeasure,
                                chemical_balance_report,
                                chemical_balance_voltages, chemical_stability,
                                distance_to_balance,
                                electrical_balance_projection,
                                integrate_early_ode, net_input)
from balancenet.models import (CUSTOM, FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, PopulationSpec, ScalingRule,
                               build_fhn_chemical, build_fhn_electrical)
from balancenet.network import NetworkState

GHAT_2A = np.array([[0.3, 2.0], [-1.0, -10.0]])


def chem_model(n=10, **over):
    base = dict(f_coeffs=(-1.0, 1.3, -0.3, 0.0), a=0.4, b=1.5, c=1.0, tau=1.0,
                alpha_gain=1.0, alpha_threshold=1.0, alpha_slope=0.2,
                E_E=3.0, E_I=-1.0, g_EE=0.3, g_EI=2.0, g_IE=1.0, g_II=10.0,
                sigma=1.0)
    base.update(over)
    return build_fhn_chemical(FhnChemicalParams(**base), n=n,
                              scaling=ScalingRule("constant", 60.0))


def elec_model(n=10, g=1.0):
    params = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, g, 1.0)
    return build_fhn_electrical(params, n=n, scaling=ScalingRule("linear"))


def chem_measure(sbar_E, sbar_I, m=6):
    rng = np.random.default_rng(0)
    e = rng.normal(size=(m, 3))
    i = rng.normal(size=(m, 3))
    e[:, 2] += sbar_E - e[:, 2].mean()
    i[:, 2] += sbar_I - i[:, 2].mean()
    return EmpiricalMeasure((e, i))


class TestNetInput:
    def test_electrical_zero_at_point_mass(self):
        model = elec_model()
        measure = EmpiricalMeasure((np.array([[2.5, 0.7]]),))
        out = net_input(model, 0, [2.5, 0.0], measure)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_electrical_linearity_in_displacement(self):
        model = elec_model(g=1.0)
        xstar = 1.3
        measure = EmpiricalMeasure((np.array([[xstar, 0.0]]),))
        delta = 0.25
        out = net_input(model, 0, [xstar - delta, 0.0], measure)
        assert out[0] == pytest.approx(1.0 * delta, rel=1e-12)

    def test_chemical_balance_identity(self):
        # at the computed balance voltage the voltage component vanishes
        model = chem_model()
        measure = chem_measure(0.73, 1.21)
        sbar_E = measure.mean_coord(0, 2)
        sbar_I = measure.mean_coord(1, 2)
        xE, xI = chemical_balance_voltages(model.ghat, 3.0, -1.0, sbar_E, sbar_I)
        for p, xs in enumerate((xE, xI)):
            out = net_input(model, p, [xs, 0.0, 0.0], measure)
            assert abs(out[0]) <= 1e-12

    def test_custom_family_matches_pairwise_oracle(self):
        # a non-affine interaction goes through the pairwise path
        def interaction(p, q, x, y):
            return np.array([np.sin(y[0]) - x[0] * y[1], x[1] * y[0] ** 2])

        model = NetworkModel(
            populations=(PopulationSpec("a", 4, 2, np.zeros((2, 1))),),
            family=CUSTOM, coupling=np.array([[0.7]]),
            scaling=ScalingRule("constant", 1.0),
            drift_fns=(lambda x: np.zeros(2),), interaction_fn=interaction)
        rng = np.random.default_rng(8)
        samples = rng.normal(size=(7, 2))
        measure = EmpiricalMeasure((samples,))
        x = np.array([0.4, -1.0])
        expect = np.zeros(2)
        for y in samples:
            expect += np.array([np.sin(y[0]) - x[0] * y[1], x[1] * y[0] ** 2])
        expect = 0.7 * expect / len(samples)
        np.testing.assert_allclose(net_input(model, 0, x, measure), expect,
                                   rtol=1e-12)


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
    def test_point_mass(self):
        m = EmpiricalMeasure((np.array([[2.0, 0.1], [2.0, -0.4]]),))
        xs, disp = electrical_balance_projection(m)
        assert xs == 2.0
        assert disp == 0.0

    def test_two_values(self):
        m = EmpiricalMeasure((np.array([[0.0, 0.0], [2.0, 0.0]]),))
        xs, disp = electrical_balance_projection(m)
        assert xs == 1.0
        assert disp == 1.0


class TestEarlyOde:
    def test_electrical_fixed_point(self):
        model = elec_model()
        measure = EmpiricalMeasure((np.array([[1.5, 0.0]]),))
        res = integrate_early_ode(model, measure, np.array([[1.5, 0.0]]), 1.0)
        np.testing.assert_allclose(res.traj[:, 0, 0], 1.5, atol=1e-12)

    def test_electrical_analytic_relaxation(self):
        model = elec_model(g=1.0)
        measure = EmpiricalMeasure((np.array([[1.0, 0.0]]),))
        res = integrate_early_ode(model, measure, np.array([[2.0, 0.0]]), 1.0)
        assert res.traj[-1, 0, 0] == pytest.approx(1.0 + np.exp(-1.0), abs=1e-6)

    def test_chemical_converges_to_balance_voltage(self):
        model = chem_model()
        measure = chem_measure(0.5, 0.5)
        sE, sI = (measure.mean_coord(q, 2) for q in range(2))
        xE, xI = chemical_balance_voltages(model.ghat, 3.0, -1.0, sE, sI)
        rate = chemical_stability(model.ghat, sE, sI)[0].rate
        T = 20.0 / abs(rate)
        x0 = np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
        res = integrate_early_ode(model, measure, x0, T, dt=1e-2)
        assert res.status == "COMPLETED"
        assert res.traj[-1, 0, 0] == pytest.approx(xE, abs=1e-6)
        assert res.traj[-1, 1, 0] == pytest.approx(xI, abs=1e-6)
        # monotone contraction toward the fixed point
        dev = np.abs(res.traj[:, 0, 0] - xE)
        assert np.all(np.diff(dev) <= 1e-12)

    def test_unstable_blowup_flagged(self):
        model = chem_model(g_EE=5.0, g_EI=2.0, g_IE=0.1, g_II=0.1)
        measure = chem_measure(1.0, 1.0)
        res = integrate_early_ode(model, measure,
                                  np.array([[10.0, 0, 0], [10.0, 0, 0]]),
                                  400.0, dt=1e-2)
        assert res.status == "BLOWUP"
        assert res.blowup_time is not None


class TestDistanceToBalance:
    def test_zero_on_manifold(self):
        model = elec_model(n=5)
        states = np.column_stack([np.full(5, 1.7), np.linspace(-1, 1, 5)])
        st_ = NetworkState(0.0, states, np.array([0, 5]))
        assert distance_to_balance(st_, model) == 0.0

    def test_displaced_agent_formula(self):
        n, g, delta = 8, 1.0, 0.6
        model = elec_model(n=n, g=g)
        states = np.column_stack([np.full(n, 2.0), np.zeros(n)])
        states[3, 0] += delta
        st_ = NetworkState(0.0, states, np.array([0, n]))
        expect = g * delta * (n - 1) / n
        assert distance_to_balance(st_, model) == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_summation_oracle_chemical(self):
        model = chem_model(n=6)
        rng = np.random.default_rng(17)
        states = rng.normal(size=(12, 3))
        st_ = NetworkState(0.0, states, np.array([0, 6, 12]))
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
        assert distance_to_balance(st_, model) == pytest.approx(worst, rel=1e-10)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, derandomize=True)
    def test_permutation_invariance(self, seed):
        model = elec_model(n=7)
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        a = distance_to_balance(NetworkState(0.0, states, np.array([0, 7])), model)
        b = distance_to_balance(NetworkState(0.0, states[perm], np.array([0, 7])), model)
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
        _, states = run.snapshots[-1]
        measure = EmpiricalMeasure((states,))
        _, dispersion = electrical_balance_projection(measure)
        assert dispersion <= 2.0 / np.sqrt(2.0 * 300.0 * 1.0)
