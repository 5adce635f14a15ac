import math

import numpy as np
import pytest

from balancenet.hopfcole import (_masked_gradient, check_bv_interaction,
                                 check_moment_bound,
                                 check_w_gradient_bound,
                                 constructive_moment_constant, envelope_covers,
                                 fit_supersolution_envelope,
                                 hamiltonian_residual, hopf_cole, support_width)
from balancenet.models import build_separable_1d
from balancenet.pde import DensityField, FpRun, Grid1D, gaussian_initial, solve_fp_1d

from .oracles import density_from_values
from .test_pde import ou_model


def make_density(grid, values, eps):
    return DensityField(grid, np.asarray(values, dtype=float), eps)


class TestHopfCole:
    def test_constant_density(self):
        grid = Grid1D(4.0, 128)
        c = 1.0 / (2 * grid.L)
        f = hopf_cole(make_density(grid, np.full(128, c), 0.2))
        assert f.mask.all()
        np.testing.assert_allclose(f.phi, 0.2 * math.log(c), rtol=1e-12)

    def test_gaussian_profile_algebra(self):
        # mu ~ exp(-x^2/eps): phi = -x^2 + eps*log(normalizer)
        grid = Grid1D(4.0, 512)
        eps = 0.3
        dens = gaussian_initial(grid, eps, concentration=1.0, center=0.0)
        f = hopf_cole(dens)
        shift = f.phi[f.mask] + grid.centers[f.mask] ** 2
        np.testing.assert_allclose(shift, shift[0], atol=1e-9)

    def test_floor_masks_but_keeps_sup(self):
        grid = Grid1D(4.0, 128)
        vals = np.full(128, 1e-20)
        vals[60:68] = 1.0
        dens = make_density(grid, vals, 0.1)
        f = hopf_cole(dens, floor_ratio=1e-10)
        assert f.mask.sum() == 8
        full = hopf_cole(dens, floor_ratio=0.0)
        assert f.sup_phi == full.sup_phi

    def test_exp_inverse_identity(self):
        grid = Grid1D(6.0, 512)
        dens = gaussian_initial(grid, 0.15, 1.0, 0.5)
        f = hopf_cole(dens)
        back = np.exp(f.phi[f.mask] / f.epsilon)
        np.testing.assert_allclose(back, dens.values[f.mask], rtol=1e-12)

    def test_w_argument_positive(self):
        grid = Grid1D(4.0, 128)
        dens = gaussian_initial(grid, 0.5, 1.0, 0.0)
        f = hopf_cole(dens)
        assert np.all(2 * f.F ** 2 - f.phi[f.mask] > 0)

    def test_all_zero_rejected(self):
        grid = Grid1D(4.0, 128)
        with pytest.raises(ValueError):
            hopf_cole(make_density(grid, np.zeros(128), 0.1))


def masked_gradient_loop(phi, mask, dx):
    """Cell-by-cell reference for _masked_gradient."""
    grad = np.full_like(phi, np.nan)
    interior = np.zeros_like(mask)
    for j in np.nonzero(mask)[0]:
        left = j - 1 >= 0 and mask[j - 1]
        right = j + 1 < len(phi) and mask[j + 1]
        if left and right:
            grad[j] = (phi[j + 1] - phi[j - 1]) / (2 * dx)
            interior[j] = True
        elif right:
            grad[j] = (phi[j + 1] - phi[j]) / dx
        elif left:
            grad[j] = (phi[j] - phi[j - 1]) / dx
    return grad, interior


class TestMaskedGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_loop(self, seed):
        gen = np.random.default_rng(seed)
        mask = gen.random(200) < 0.7
        phi = np.where(mask, gen.normal(size=200), np.nan)
        grad, interior = _masked_gradient(phi, mask, 0.03)
        ref_grad, ref_interior = masked_gradient_loop(phi, mask, 0.03)
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(interior, ref_interior)

    def test_gaps_isolated_cells_and_run_edges(self):
        # runs [0, 2] and [6, 9] touch the array ends; cell 4 is isolated
        phi = np.array([0.0, 1.0, 4.0, np.nan, 2.0, np.nan, 5.0, 3.0, 1.0, 7.0])
        mask = ~np.isnan(phi)
        grad, interior = _masked_gradient(phi, mask, 0.5)
        np.testing.assert_array_equal(
            interior, [False, True, False, False, False, False, False, True, True, False])
        np.testing.assert_array_equal(
            grad, [2.0, 4.0, 6.0, np.nan, np.nan, np.nan, -4.0, -4.0, 4.0, 12.0])

    def test_no_cell_in_mask(self):
        grad, interior = _masked_gradient(np.full(4, np.nan), np.zeros(4, bool), 0.1)
        assert np.isnan(grad).all() and not interior.any()


class TestSupportWidth:
    def test_single_cell(self):
        grid = Grid1D(4.0, 128)
        vals = np.zeros(128)
        vals[64] = 1.0
        assert support_width(make_density(grid, vals, 0.1)) == grid.dx

    def test_gaussian_level_set_oracle(self):
        # analytic width at ratio r is 2*sqrt(2 ln(1/r)) * sd
        grid = Grid1D(8.0, 1024)
        sd = 0.5
        vals = np.exp(-grid.centers ** 2 / (2 * sd ** 2))
        dens = density_from_values(grid, vals, 0.1)
        expect = 2.0 * math.sqrt(2.0 * math.log(1000.0)) * sd
        assert support_width(dens) == pytest.approx(expect, abs=2 * grid.dx)


class TestResidual:
    def test_constant_phi_zero_residual(self):
        grid = Grid1D(4.0, 256)
        model = build_separable_1d(0.2)
        c = 1.0 / (2 * grid.L)
        f = hopf_cole(make_density(grid, np.full(256, c), 0.2))
        res, sup = hamiltonian_residual(f, 1.0, model)
        assert sup <= 1e-12

    def test_algebraic_root_zero_residual(self):
        # dphi = -2 alpha I / sigma^2 solves the quadratic exactly; for
        # affine alpha the quadratic phi is differentiated exactly by
        # centered differences
        model = build_separable_1d(0.2)
        grid = Grid1D(4.0, 256)
        big_i = 0.9
        x = grid.centers
        phi = -(2 * big_i / model.sigma ** 2) * (x ** 2 / 2.0)
        mu = np.exp(phi / 0.2)
        dens = density_from_values(grid, mu, 0.2)
        f = hopf_cole(dens)
        res, sup = hamiltonian_residual(f, big_i, model)
        assert sup <= 1e-9


class TestBv:
    def test_constant_series(self):
        t = np.linspace(0, 1, 100)
        rep = check_bv_interaction(t, np.full(100, 0.7))
        assert rep.tv == 0.0

    def test_monotone_series(self):
        t = np.linspace(0, 1, 100)
        rep = check_bv_interaction(t, np.linspace(0.2, 0.9, 100))
        assert rep.tv == pytest.approx(0.7, rel=1e-12)

    def test_sampled_sine_arc_variation(self):
        # arc-variation oracle: TV of sin over [0, 2pi] converges to 4
        for n, tol in ((101, 0.02), (1001, 1e-3)):
            t = np.linspace(0, 2 * math.pi, n)
            rep = check_bv_interaction(t, np.sin(t), points=n)
            assert rep.tv == pytest.approx(4.0, abs=tol + 4 * (1 - math.cos(math.pi / (n - 1))))
        assert np.abs(np.diff(np.sin(np.linspace(0, 2 * math.pi, 100001)))).sum() == \
            pytest.approx(4.0, abs=1e-6)

    def test_fitted_line_covers_itself(self):
        t = np.linspace(0, 2, 300)
        v = 0.5 + 0.1 * np.sin(3 * t) + 0.05 * t
        rep = check_bv_interaction(t, v)
        line = rep.c_prime + rep.c_dblprime * np.asarray(rep.times)
        assert np.all(np.asarray(rep.prefix_tv) <= line + 1e-12)


class TestMomentBound:
    def test_point_mass(self):
        grid = Grid1D(4.0, 128)
        vals = np.zeros(128)
        vals[64] = 1.0 / grid.dx
        run = _fake_run(ou_model(), grid, [vals], [0.0])
        rep = check_moment_bound(run, k=1)
        assert rep.satisfied
        assert rep.sup_moment <= 0.01

    def test_ou_equilibrium_under_constructive_constant(self):
        # analytic OU second moment at stationarity is sigma^2/2 = 1/2
        model = ou_model()
        grid = Grid1D(8.0, 512)
        c_star = constructive_moment_constant(model, grid, k=1)
        assert c_star == pytest.approx(1.0, abs=1e-3)
        assert 0.5 <= c_star

    def test_solver_run_certified(self):
        model = ou_model()
        grid = Grid1D(8.0, 512)
        mu0 = gaussian_initial(grid, 2.0, 1.0, 1.0)
        run = solve_fp_1d(model, mu0, 5.0, snapshot_every=0.5)
        rep = check_moment_bound(run, k=1)
        assert rep.satisfied
        assert rep.moment_series[-1] == pytest.approx(0.5, abs=0.02)


class TestEnvelope:
    def test_constant_phi_dominated(self):
        grid = Grid1D(4.0, 128)
        model = build_separable_1d(0.5)
        eps = 0.5
        c = math.exp(-1.0 / eps)
        vals = np.full(128, c)
        run = _fake_run(model, grid, [vals, vals], [0.0, 1.0], i_values=1.0)
        assert envelope_covers(run, fit_supersolution_envelope(run))

    def test_default_model_certified(self):
        model = build_separable_1d(0.2)
        grid = Grid1D(8.0, 512)
        mu0 = gaussian_initial(grid, 0.2, 1.0, 1.0)
        run = solve_fp_1d(model, mu0, 1.0, snapshot_every=0.25)
        fit = fit_supersolution_envelope(run)
        assert 0 < fit.a < 2.0 / model.sigma ** 2
        assert envelope_covers(run, fit)


class TestWGradient:
    def test_constant_phi_trivially_bounded(self):
        grid = Grid1D(4.0, 128)
        model = build_separable_1d(0.5)
        vals = np.full(128, 1.0 / (2 * grid.L))
        run = _fake_run(model, grid, [vals, vals], [0.0, 1.0])
        rep = check_w_gradient_bound(run, t0=0.5)
        assert rep.theta <= 0.0

    def test_quadratic_phi_matches_analytic_gradient(self):
        grid = Grid1D(4.0, 2048)
        model = build_separable_1d(0.5)
        eps = 0.5
        phi = -grid.centers ** 2
        vals = np.exp(phi / eps)
        run = _fake_run(model, grid, [vals, vals], [0.0, 1.0])
        rep = check_w_gradient_bound(run, t0=1.0)
        # w = sqrt(2F^2 + x^2) with sup phi = -x_min^2 ~ 0 -> F^2 ~ 1
        x = grid.centers
        analytic = np.max(np.abs(x) / np.sqrt(2.0 + x ** 2))
        expect = analytic - math.sqrt(1.0 / (1.0 * model.sigma ** 2))
        assert rep.theta == pytest.approx(expect, abs=5e-3)


def _fake_run(model, grid, densities, times, i_values=1.0):
    dens = np.stack([np.asarray(d, dtype=float) for d in densities])
    times = np.asarray(times, dtype=float)
    n_steps = max(1, len(times) - 1)
    return FpRun(model=model, grid=grid, epsilon=model.epsilon, dt=max(times[-1], 1.0) / n_steps,
                 times=times, densities=dens,
                 mass=np.array([d.sum() * grid.dx for d in dens]),
                 i_times=np.linspace(0, max(times[-1], 1.0), n_steps, endpoint=False),
                 i_values=np.full(n_steps, float(i_values)))


class TestSweepConsistency:
    def test_single_epsilon_sweep_equals_individual_diagnostics(self):
        from balancenet.hopfcole import epsilon_sweep
        from balancenet.pde import solve_fp_1d, gaussian_initial
        base = build_separable_1d(0.3)
        grid = Grid1D(8.0, 256)
        rep = epsilon_sweep(base, (0.3,), grid, 1.0, init_center=1.0,
                            snapshot_every=0.25, t0=0.25)
        d = next(d for d in rep.diagnostics if d.epsilon == 0.3)
        assert d.status == "COMPLETED"
        run = solve_fp_1d(base, gaussian_initial(grid, 0.3, 1.0, 1.0), 1.0,
                          snapshot_every=0.25)
        final = run.final_density()
        f = hopf_cole(final)
        assert d.sup_phi_final == pytest.approx(f.sup_phi, rel=1e-12)
        assert d.support_width_final == support_width(final)
        _, resid = hamiltonian_residual(f, run.i_at(1.0), base)
        assert d.residual_sup_final == pytest.approx(resid, rel=1e-12)
        assert d.theta == pytest.approx(
            check_w_gradient_bound(run, 0.25).theta, rel=1e-12)

    def test_strictly_decreasing_epsilons_required(self):
        from balancenet.hopfcole import epsilon_sweep
        base = build_separable_1d(0.3)
        with pytest.raises(ValueError):
            epsilon_sweep(base, (0.2, 0.4), Grid1D(8.0, 128), 1.0)
        with pytest.raises(ValueError):
            epsilon_sweep(base, (1.5, 0.4), Grid1D(8.0, 128), 1.0)

    def test_member_failure_recorded_sweep_continues(self):
        from balancenet.hopfcole import epsilon_sweep
        base = build_separable_1d(0.4)
        rep = epsilon_sweep(base, (0.4, 1e-7), Grid1D(8.0, 128), 1.0)
        diag = {d.epsilon: d for d in rep.diagnostics}
        assert diag[0.4].status == "COMPLETED"
        assert diag[1e-7].status == "FAILED"
        assert diag[1e-7].error
