import math

import numpy as np
import pytest

from balancenet.hopfcole import (FIT_SLACK, N_CANDIDATES, EnvelopeFit,
                                 _alpha_antiderivative, _masked_gradient,
                                 check_bv_interaction, check_moment_bound,
                                 check_w_gradient_bound,
                                 constructive_moment_constant, envelope_covers,
                                 fit_supersolution_envelope,
                                 hamiltonian_residual, hopf_cole, snapshot_fields,
                                 snapshot_series, support_width)
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


def assert_same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMaskedGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_loop(self, seed):
        # rows of differing mask density, the last one without interior
        gen = np.random.default_rng(seed)
        mask = gen.random((6, 200)) < gen.uniform(0.3, 0.95, size=(6, 1))
        mask[-1] = np.arange(200) % 2 == 0
        phi = np.where(mask, gen.normal(size=mask.shape), np.nan)
        grad, interior = _masked_gradient(phi, mask, 0.03)
        for row in range(len(phi)):
            ref_grad, ref_interior = masked_gradient_loop(phi[row], mask[row], 0.03)
            assert_same_bits(grad[row], ref_grad)
            np.testing.assert_array_equal(interior[row], ref_interior)
            one_grad, one_interior = _masked_gradient(phi[row], mask[row], 0.03)
            assert_same_bits(one_grad, ref_grad)
            np.testing.assert_array_equal(one_interior, ref_interior)
        assert not interior[-1].any()

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
    """A run with the given snapshots; i_values is one I for every step or
    one I per step (len(times) - 1 of them)."""
    dens = np.stack([np.asarray(d, dtype=float) for d in densities])
    times = np.asarray(times, dtype=float)
    n_steps = max(1, len(times) - 1)
    return FpRun(model=model, grid=grid, epsilon=model.epsilon, dt=max(times[-1], 1.0) / n_steps,
                 times=times, densities=dens,
                 mass=np.array([d.sum() * grid.dx for d in dens]),
                 i_times=np.linspace(0, max(times[-1], 1.0), n_steps, endpoint=False),
                 i_values=np.broadcast_to(np.asarray(i_values, dtype=float), (n_steps,)).copy(),
                 meta={"n_steps": n_steps, "T": float(times[-1])})


def _loop_w_gradient_theta(run, t0):
    """check_w_gradient_bound's theta, one snapshot at a time."""
    fields = [hopf_cole(run.density_at(i)) for i in range(len(run.times))]
    F2 = 2.0 * (1.0 + max(0.0, max(f.sup_phi for f in fields)))
    theta = -math.inf
    for f, t in zip(fields, run.times.tolist()):
        if t < t0:
            continue
        w = np.full_like(f.phi, np.nan)
        w[f.mask] = np.sqrt(F2 - f.phi[f.mask])
        grad, interior = masked_gradient_loop(w, f.mask, run.grid.dx)
        if interior.any():
            theta = max(theta, float(np.max(np.abs(grad[interior])))
                        - math.sqrt(1.0 / (t * run.model.sigma ** 2)))
    return theta


def _loop_envelope(run, a_const):
    """Per snapshot, the max over the mask of phi + A' I(t) Lambda(x)."""
    lam = _alpha_antiderivative(run.model, run.grid)
    out = []
    for i, t in enumerate(run.times.tolist()):
        f = hopf_cole(run.density_at(i))
        out.append(float(np.max(f.phi[f.mask] + a_const * run.i_at(t) * lam[f.mask])))
    return np.array(out)


def _loop_envelope_fit(runs):
    """fit_supersolution_envelope, one snapshot at a time."""
    amax = 2.0 / runs[0].model.sigma ** 2
    horizon = max(float(r.times[-1]) for r in runs)
    best = None
    for j in range(1, N_CANDIDATES + 1):
        a_const = amax * j / (N_CANDIDATES + 1)
        excesses = [_loop_envelope(r, a_const) for r in runs]
        e = max(0.0, max(float(m[0]) for m in excesses))
        d = max([0.0] + [float(np.max((m[1:] - e) / r.times[1:]))
                         for r, m in zip(runs, excesses) if len(r.times) > 1])
        if best is None or e + d * horizon < best[0]:
            best = (e + d * horizon, a_const, d, e)
    _, a_const, d, e = best
    return EnvelopeFit(a=a_const, b=0.0, d=d * FIT_SLACK, e=e * FIT_SLACK + 1e-9)


def _loop_envelope_covers(run, fit):
    lam = _alpha_antiderivative(run.model, run.grid)
    x2 = run.grid.centers ** 2
    for i, t in enumerate(run.times.tolist()):
        f = hopf_cole(run.density_at(i))
        bound = (-fit.a * run.i_at(t) * lam - 0.5 * run.epsilon * fit.b * x2
                 + fit.d * t + fit.e)
        if np.any(f.phi[f.mask] > bound[f.mask] + 1e-12):
            return False
    return True


def _ragged_run():
    """Snapshots whose masks end at different cells (a Gaussian, one cut
    to compact support, a one-sided ramp), at times before and after
    t = 0.3, with I changing between steps."""
    model = build_separable_1d(0.3)
    grid = Grid1D(4.0, 256)
    x = grid.centers
    wide = np.exp(-(x - 0.5) ** 2 / 0.3)
    cut = np.where(np.abs(x + 1.0) < 0.8, np.exp(-(x + 1.0) ** 2 / 0.1), 0.0)
    ramp = np.where(x > 1.5, x - 1.5, 0.0) + 1e-3 * (x > 0.2)
    vals = [v / (v.sum() * grid.dx) for v in (wide, cut, ramp, wide ** 3)]
    return _fake_run(model, grid, vals, [0.0, 0.1, 0.5, 1.0], i_values=[0.9, 0.4, 0.7])


def _solver_run():
    model = build_separable_1d(0.2)
    grid = Grid1D(8.0, 256)
    return solve_fp_1d(model, gaussian_initial(grid, 0.2, 1.0, 1.0), 0.5,
                       snapshot_every=0.05)


class TestRunArrays:
    """The run-level diagnostics equal the single-density path row by row,
    bit for bit."""

    @pytest.fixture(params=["solver", "ragged"])
    def run(self, request):
        return _solver_run() if request.param == "solver" else _ragged_run()

    def test_interaction_at_snapshots_is_i_at_rule(self, run):
        n = len(run.i_values)
        for t, big_i in zip(run.times.tolist(), run.i_at(run.times)):
            assert big_i == run.i_values[min(n - 1, max(0, int(round(t / run.dt))))]
            assert big_i == run.i_at(t)

    def test_rows_equal_single_density_path(self, run):
        f = snapshot_fields(run)
        transform, series = snapshot_series(run)
        assert f.phi.shape == f.mask.shape == run.densities.shape
        assert_same_bits(run.snapshots().mass,
                         [run.density_at(i).mass for i in range(len(run.times))])
        masks = set()
        for i, t in enumerate(run.times.tolist()):
            ref = hopf_cole(run.density_at(i))
            assert_same_bits(f.phi[i], ref.phi)
            np.testing.assert_array_equal(f.mask[i], ref.mask)
            assert f.sup_phi[i] == ref.sup_phi and f.F[i] == ref.F
            _, ref_resid = hamiltonian_residual(ref, run.i_at(t), run.model)
            assert series["residual_sup"][i] == ref_resid
            assert series["sup_phi"][i] == ref.sup_phi
            assert_same_bits(transform.phi[i], ref.phi)
            assert series["support_width"][i] == support_width(run.density_at(i))
            assert series["interaction"][i] == run.i_at(t)
            masks.add((int(np.argmax(ref.mask)), int(ref.mask.sum())))
        assert len(masks) > 1

    def test_residual_rows_equal_single_density_path(self, run):
        f = snapshot_fields(run)
        res, sup = hamiltonian_residual(f, run.i_at(run.times), run.model)
        for i, t in enumerate(run.times.tolist()):
            ref_res, ref_sup = hamiltonian_residual(hopf_cole(run.density_at(i)),
                                                    run.i_at(t), run.model)
            assert_same_bits(res[i], ref_res)
            assert sup[i] == ref_sup

    def test_certificates_equal_snapshot_loops(self, run):
        for t0 in (0.05, 0.3, float(run.times[-1])):
            assert check_w_gradient_bound(run, t0).theta == _loop_w_gradient_theta(run, t0)
        with pytest.raises(ArithmeticError):  # the bound at t = 0 is infinite
            check_w_gradient_bound(run, 0.0)
        fit = fit_supersolution_envelope(run)
        assert fit == _loop_envelope_fit([run])
        assert _loop_envelope_covers(run, fit)
        tight = EnvelopeFit(a=fit.a, b=fit.b, d=0.0, e=fit.e / FIT_SLACK - 0.5)
        assert envelope_covers(run, fit) and not envelope_covers(run, tight)
        assert not _loop_envelope_covers(run, tight)
        y2 = run.grid.centers ** 2
        moments = [float((d * y2).sum() * run.grid.dx) for d in run.densities]
        assert list(check_moment_bound(run, 1).moment_series) == moments

    def test_fit_over_runs_equals_snapshot_loops(self):
        runs = [_solver_run(), _ragged_run()]
        assert fit_supersolution_envelope(runs) == _loop_envelope_fit(runs)

    def test_row_without_interior_is_skipped(self):
        # isolated cells: the w-gradient check skips the row, and the
        # residual has no core on it
        model = build_separable_1d(0.3)
        grid = Grid1D(4.0, 128)
        comb = np.where(np.arange(128) % 2 == 0, 1.0, 0.0)
        smooth = np.exp(-grid.centers ** 2)
        run = _fake_run(model, grid, [smooth, comb, smooth], [0.0, 0.5, 1.0])
        assert not snapshot_fields(run).mask[1].reshape(-1, 2)[:, 1].any()
        assert check_w_gradient_bound(run, 0.2).theta == _loop_w_gradient_theta(run, 0.2)
        with pytest.raises(ValueError, match="no snapshots"):
            check_w_gradient_bound(_fake_run(model, grid, [smooth, comb], [0.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="support core is empty"):
            snapshot_series(run)


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
        final = run.density_at(-1)
        f = hopf_cole(final)
        assert d.sup_phi_final == f.sup_phi
        assert d.support_width_final == support_width(final)
        assert d.i_final == run.i_values[-1]
        _, resid = hamiltonian_residual(f, run.i_at(1.0), base)
        assert d.residual_sup_final == resid
        assert d.theta == check_w_gradient_bound(run, 0.25).theta
        assert d.theta == _loop_w_gradient_theta(run, 0.25)

    def test_t0_at_the_horizon_takes_the_last_snapshot(self):
        # 1458 steps of T / 1458 stamp the last snapshot 0.24999999999999997,
        # below T; a t0 of T still takes it, as the snapshot at step n_steps
        grid = Grid1D(8.0, 128)
        run = solve_fp_1d(build_separable_1d(0.2), gaussian_initial(grid, 0.2), 0.25)
        assert run.meta["n_steps"] == 1458 and run.times[-1] < 0.25
        theta = check_w_gradient_bound(run, 0.25).theta
        assert theta == _loop_w_gradient_theta(run, float(run.times[-1]))
        with pytest.raises(ValueError, match="no snapshots"):
            check_w_gradient_bound(run, math.nextafter(0.25, 1.0))

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
