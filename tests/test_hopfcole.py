import math
import weakref

import numpy as np
import pytest

from balancenet import _kernels, hopfcole
from balancenet._kernels import snapshot_certificates
from balancenet.hopfcole import (CORE_RATIO, FIT_SLACK, N_CANDIDATES, EnvelopeFit,
                                 _alpha_antiderivative, check_bv_interaction,
                                 check_moment_bound, comparison_indices,
                                 constructive_moment_constant, envelope_covers,
                                 envelope_slopes, epsilon_sweep, fit_supersolution_envelope,
                                 hopf_cole, snapshot_series, support_width)
from balancenet.models import build_separable_1d
from balancenet.pde import SNAPSHOTS_PER_RUN, FpRun, Grid1D, gaussian_initial, solve_fp_1d

from .oracles import density_from_values
from .test_pde import ou_model


class TestHopfCole:
    def test_constant_density(self):
        grid = Grid1D(4.0, 128)
        c = 1.0 / (2 * grid.L)
        f = hopf_cole(np.full(128, c), 0.2)
        assert f.mask.all()
        np.testing.assert_allclose(f.phi, 0.2 * math.log(c), rtol=1e-12)

    def test_gaussian_profile_algebra(self):
        # mu ~ exp(-x^2/eps): phi = -x^2 + eps*log(normalizer)
        grid = Grid1D(4.0, 512)
        eps = 0.3
        f = hopf_cole(gaussian_initial(grid, eps, concentration=1.0, center=0.0), eps)
        shift = f.phi[f.mask] + grid.centers[f.mask] ** 2
        np.testing.assert_allclose(shift, shift[0], atol=1e-9)

    def test_floor_masks_but_keeps_sup(self, monkeypatch):
        vals = np.full(128, 1e-20)
        vals[60:68] = 1.0
        f = hopf_cole(vals, 0.1)
        assert f.mask.sum() == 8
        monkeypatch.setattr(hopfcole, "FLOOR_RATIO", 0.0)
        full = hopf_cole(vals, 0.1)
        assert full.mask.all() and f.sup_phi == full.sup_phi

    def test_exp_inverse_identity(self):
        grid = Grid1D(6.0, 512)
        mu = gaussian_initial(grid, 0.15, 1.0, 0.5)
        f = hopf_cole(mu, 0.15)
        back = np.exp(f.phi[f.mask] / 0.15)
        np.testing.assert_allclose(back, mu[f.mask], rtol=1e-12)

    def test_w_argument_positive(self):
        grid = Grid1D(4.0, 128)
        f = hopf_cole(gaussian_initial(grid, 0.5, 1.0, 0.0), 0.5)
        F2 = 1.0 + max(0.0, f.sup_phi)  # F^2 from sup phi, as snapshot_series takes it
        assert np.all(2 * F2 - f.phi[f.mask] > 0)

    def test_all_zero_rejected(self):
        grid = Grid1D(4.0, 128)
        with pytest.raises(ValueError):
            hopf_cole(np.zeros(128), 0.1)


def masked_gradient_loop(phi, mask, dx):
    """Cell-by-cell masked gradient: centered inside the mask, one-sided at
    its edges, with the interior cells whose stencil stayed inside it."""
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


def kernel_twins():
    """The numpy snapshot_certificates and, when it is built, its C twin."""
    twin = _kernels.c_twin("snapshot_certificates")
    return [snapshot_certificates] + ([twin] if twin is not None else [])


def run_kernel(kernel, phi, mask, lam, neg_alpha, big_i, slopes, floor, half_sig2, dx, f2,
               later):
    """The kernel's (excess, residual_sup, w_grad_sup), into NaN-filled arrays."""
    s = len(phi)
    out = (np.full((len(slopes), s), np.nan), np.full(s, np.nan), np.full(s, np.nan))
    kernel(phi, mask, lam, neg_alpha, big_i, slopes, floor, half_sig2, dx, f2, later, *out)
    return out


def loop_certificates(phi, mask, lam, neg_alpha, big_i, slopes, floor, half_sig2, dx, f2,
                      later):
    """snapshot_certificates one row and one cell at a time, its gradients
    from masked_gradient_loop."""
    s = len(phi)
    excess = np.full((len(slopes), s), -np.inf)
    residual_sup = np.full(s, -np.inf)
    w_grad_sup = np.full(s, -np.inf)
    for i in range(s):
        cells = np.nonzero(mask[i])[0]
        for k, a_const in enumerate(slopes):
            for j in cells:
                excess[k, i] = max(excess[k, i], phi[i, j] + a_const * big_i[i] * lam[j])
        grad, interior = masked_gradient_loop(phi[i], mask[i], dx)
        for j in np.nonzero(interior & (phi[i] >= floor[i]))[0]:
            g = grad[j]
            residual_sup[i] = max(residual_sup[i],
                                  abs((neg_alpha[j] * big_i[i]) * g - (g * g) * half_sig2))
        if i >= later:
            w = np.full_like(phi[i], np.nan)
            w[cells] = [math.sqrt(f2 - phi[i, j]) for j in cells]
            grad, interior = masked_gradient_loop(w, mask[i], dx)
            for j in np.nonzero(interior)[0]:
                w_grad_sup[i] = max(w_grad_sup[i], abs(grad[j]))
    return excess, residual_sup, w_grad_sup


class TestMaskedGradient:
    """The masked centered differences inside snapshot_certificates, in
    both twins, against the cell-by-cell loops."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_loop(self, seed):
        # rows of differing mask density, the last one without interior
        gen = np.random.default_rng(seed)
        mask = gen.random((6, 200)) < gen.uniform(0.3, 0.95, size=(6, 1))
        mask[-1] = np.arange(200) % 2 == 0
        phi = np.where(mask, gen.normal(size=mask.shape), np.nan)
        args = [phi, mask, gen.normal(size=200), gen.normal(size=200),
                gen.uniform(0.2, 1.0, size=6), np.arange(1, 17) / 17.0,
                np.full(6, -1.0), 0.45, 0.03, 2.0 * (1.0 + np.nanmax(phi)), seed % 3]
        ref = loop_certificates(*args)
        assert ref[1][-1] == ref[2][-1] == -np.inf
        for kernel in kernel_twins():
            for got, want in zip(run_kernel(kernel, *args), ref):
                assert_same_bits(got, want)

    def test_gaps_isolated_cells_and_run_edges(self):
        # runs [0, 2] and [6, 9] touch the array ends; cell 4 is isolated.
        # With no quadratic term and -alpha the indicator of cell j, the
        # residual's sup-norm is |dphi| at j when j is interior, else 0.
        phi = np.array([0.0, 1.0, 4.0, np.nan, 2.0, np.nan, 5.0, 3.0, 1.0, 7.0])
        mask = ~np.isnan(phi)
        for kernel in kernel_twins():
            sups = [run_kernel(kernel, phi[None], mask[None], np.zeros(10), np.eye(10)[j],
                               np.ones(1), np.ones(0), np.full(1, -np.inf), 0.0, 0.5, 8.0,
                               0)[1][0] for j in range(10)]
            assert sups == [0.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 0.0]
            _, _, w_sup = run_kernel(kernel, phi[None], mask[None], np.zeros(10), np.zeros(10),
                                     np.ones(1), np.ones(0), np.zeros(1), 0.0, 0.5, 8.0, 0)
            w = np.sqrt(8.0 - np.nan_to_num(phi))
            assert w_sup[0] == max(abs(w[2] - w[0]), abs(w[8] - w[6]), abs(w[9] - w[7]))

    def test_no_cell_in_mask(self):
        for kernel in kernel_twins():
            excess, residual_sup, w_sup = run_kernel(
                kernel, np.full((1, 4), np.nan), np.zeros((1, 4), bool), np.zeros(4),
                np.zeros(4), np.ones(1), np.ones(3), np.zeros(1), 0.5, 0.1, 2.0, 0)
            assert (excess == -np.inf).all() and residual_sup == w_sup == -np.inf


class TestSupportWidth:
    def test_single_cell(self):
        grid = Grid1D(4.0, 128)
        vals = np.zeros(128)
        vals[64] = 1.0
        assert support_width(vals, grid.dx) == grid.dx

    def test_gaussian_level_set_oracle(self):
        # analytic width at ratio r is 2*sqrt(2 ln(1/r)) * sd
        grid = Grid1D(8.0, 1024)
        sd = 0.5
        vals = np.exp(-grid.centers ** 2 / (2 * sd ** 2))
        mu = density_from_values(grid, vals)
        expect = 2.0 * math.sqrt(2.0 * math.log(1000.0)) * sd
        assert support_width(mu, grid.dx) == pytest.approx(expect, abs=2 * grid.dx)


class TestResidual:
    def test_constant_phi_zero_residual(self):
        grid = Grid1D(4.0, 256)
        model = build_separable_1d(0.2)
        c = 1.0 / (2 * grid.L)
        _, series, _, _ = snapshot_series(_fake_run(model, grid, [np.full(256, c)], [0.0]))
        assert series["residual_sup"][0] <= 1e-12

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
        run = _fake_run(model, grid, [density_from_values(grid, mu)], [0.0], i_values=big_i)
        assert snapshot_series(run)[1]["residual_sup"][0] <= 1e-9


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
            rep = check_bv_interaction(t, np.sin(t))
            assert rep.tv == pytest.approx(4.0, abs=tol + 4 * (1 - math.cos(math.pi / (n - 1))))
        assert np.abs(np.diff(np.sin(np.linspace(0, 2 * math.pi, 100001)))).sum() == \
            pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 2000, 2001, 2002, 19896, 3, 7, 8, 9, 61, 4999])
    def test_comparison_indices_are_the_unique_rounded_positions(self, n):
        expect = np.unique(np.round(np.linspace(0, n - 1, min(2001, n))).astype(int))
        np.testing.assert_array_equal(comparison_indices(n, 2001), expect)
        # the rows of a pde-run's snapshot files
        expect = np.unique(np.round(np.linspace(0, n - 1, 8)).astype(int))
        np.testing.assert_array_equal(comparison_indices(n, 8), expect)

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
        rep = check_moment_bound(run, 1, constructive_moment_constant(run.model, grid, 1))
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
        run = solve_fp_1d(model, grid, mu0, 5.0, snapshot_every=0.5)
        rep = check_moment_bound(run, 1, constructive_moment_constant(model, grid, 1))
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
        excess = snapshot_series(run)[2]
        fit = fit_supersolution_envelope(envelope_slopes(model), [excess], [run.times])
        assert envelope_covers(excess, run.times, fit)

    def test_default_model_certified(self):
        model = build_separable_1d(0.2)
        grid = Grid1D(8.0, 512)
        mu0 = gaussian_initial(grid, 0.2, 1.0, 1.0)
        run = solve_fp_1d(model, grid, mu0, 1.0, snapshot_every=0.25)
        excess = snapshot_series(run)[2]
        fit = fit_supersolution_envelope(envelope_slopes(model), [excess], [run.times])
        assert 0 < fit.a < 2.0 / model.sigma ** 2
        assert envelope_covers(excess, run.times, fit)


class TestWGradient:
    def test_constant_phi_trivially_bounded(self):
        grid = Grid1D(4.0, 128)
        model = build_separable_1d(0.5)
        vals = np.full(128, 1.0 / (2 * grid.L))
        run = _fake_run(model, grid, [vals, vals], [0.0, 1.0])
        assert snapshot_series(run, t0=0.5)[3] <= 0.0

    def test_quadratic_phi_matches_analytic_gradient(self):
        grid = Grid1D(4.0, 2048)
        model = build_separable_1d(0.5)
        eps = 0.5
        phi = -grid.centers ** 2
        vals = np.exp(phi / eps)
        run = _fake_run(model, grid, [vals, vals], [0.0, 1.0])
        theta = snapshot_series(run, t0=1.0)[3]
        # w = sqrt(2F^2 + x^2) with sup phi = -x_min^2 ~ 0 -> F^2 ~ 1
        x = grid.centers
        analytic = np.max(np.abs(x) / np.sqrt(2.0 + x ** 2))
        expect = analytic - math.sqrt(1.0 / (1.0 * model.sigma ** 2))
        assert theta == pytest.approx(expect, abs=5e-3)


def _fake_run(model, grid, densities, times, i_values=1.0):
    """A run with the given snapshots; i_values is one I for every step or
    one I per step (len(times) - 1 of them)."""
    dens = np.stack([np.asarray(d, dtype=float) for d in densities])
    times = np.asarray(times, dtype=float)
    n_steps = max(1, len(times) - 1)
    return FpRun(model=model, grid=grid, dt=max(times[-1], 1.0) / n_steps,
                 times=times, densities=dens,
                 mass=np.array([d.sum() * grid.dx for d in dens]),
                 i_values=np.broadcast_to(np.asarray(i_values, dtype=float), (n_steps,)).copy(),
                 meta={"n_steps": n_steps, "T": float(times[-1])})


def _loop_w_gradient_theta(run, t0):
    """snapshot_series's theta, one snapshot at a time."""
    fields = [hopf_cole(mu, run.model.epsilon) for mu in run.densities]
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
    for mu, t in zip(run.densities, run.times.tolist()):
        f = hopf_cole(mu, run.model.epsilon)
        out.append(float(np.max(f.phi[f.mask] + a_const * run.i_at(t) * lam[f.mask])))
    return np.array(out)


def _loop_residual_sup(run):
    """Per snapshot, the residual's sup-norm over the support core, one cell
    at a time."""
    neg_alpha = -np.asarray(run.model.alpha(run.grid.centers))
    half_sig2 = 0.5 * run.model.sigma ** 2
    out = []
    for mu, t in zip(run.densities, run.times.tolist()):
        f = hopf_cole(mu, run.model.epsilon)
        grad, interior = masked_gradient_loop(f.phi, f.mask, run.grid.dx)
        floor = f.sup_phi - run.model.epsilon * math.log(1.0 / CORE_RATIO)
        big_i = run.i_at(t)
        out.append(max(abs((neg_alpha[j] * big_i) * grad[j] - (grad[j] * grad[j]) * half_sig2)
                       for j in np.nonzero(interior & (f.phi >= floor))[0]))
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
            best = (e + d * horizon, j - 1, a_const, d, e)
    _, candidate, a_const, d, e = best
    return EnvelopeFit(candidate=candidate, a=a_const, d=d * FIT_SLACK, e=e * FIT_SLACK + 1e-9)


def _loop_envelope_covers(run, fit):
    lam = _alpha_antiderivative(run.model, run.grid)
    for mu, t in zip(run.densities, run.times.tolist()):
        f = hopf_cole(mu, run.model.epsilon)
        bound = -fit.a * run.i_at(t) * lam + fit.d * t + fit.e
        if np.any(f.phi[f.mask] > bound[f.mask] + 1e-12):
            return False
    return True


def _single_snapshot_series(run, i):
    """snapshot_series's series of a run of snapshot i alone, at its I."""
    return snapshot_series(_fake_run(run.model, run.grid, [run.densities[i]],
                                     [run.times[i]], i_values=run.i_at(run.times[i])))[1]


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
    return solve_fp_1d(model, grid, gaussian_initial(grid, 0.2, 1.0, 1.0), 0.5,
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
        eps, dx = run.model.epsilon, run.grid.dx
        f = hopf_cole(run.densities, run.model.epsilon)
        transform, series, _, _ = snapshot_series(run)
        assert f.phi.shape == f.mask.shape == run.densities.shape
        assert_same_bits(run.mass, [mu.sum() * dx for mu in run.densities])
        masks = set()
        for i, t in enumerate(run.times.tolist()):
            ref = hopf_cole(run.densities[i], eps)
            assert_same_bits(f.phi[i], ref.phi)
            np.testing.assert_array_equal(f.mask[i], ref.mask)
            assert f.sup_phi[i] == ref.sup_phi
            assert series["residual_sup"][i] == _single_snapshot_series(run, i)["residual_sup"][0]
            assert series["sup_phi"][i] == ref.sup_phi
            assert_same_bits(transform.phi[i], ref.phi)
            assert series["support_width"][i] == support_width(run.densities[i], dx)
            assert series["interaction"][i] == run.i_at(t)
            masks.add((int(np.argmax(ref.mask)), int(ref.mask.sum())))
        assert len(masks) > 1

    def test_residual_rows_equal_single_density_path(self, run):
        sup = snapshot_series(run)[1]["residual_sup"]
        for i in range(len(run.times)):
            single = _single_snapshot_series(run, i)
            assert sup[i] == single["residual_sup"][0]
            assert single["interaction"][0] == run.i_at(run.times[i])
        assert_same_bits(sup, _loop_residual_sup(run))

    @pytest.mark.parametrize("twin", ["numpy", "c"])
    def test_twins_equal_snapshot_loops(self, run, twin, monkeypatch):
        # every certificate of one kernel pass, from either twin, bit for
        # bit against the loops over snapshots and cells
        if twin == "numpy":
            monkeypatch.setattr(hopfcole, "c_twin", lambda name: None)
        elif _kernels.c_twin("snapshot_certificates") is None:
            pytest.skip("no C compiler: the certificates run on numpy")
        _, series, excess, theta = snapshot_series(run, 0.05)
        assert_same_bits(series["residual_sup"], _loop_residual_sup(run))
        for k, a_const in enumerate(envelope_slopes(run.model)):
            assert_same_bits(excess[k], _loop_envelope(run, a_const))
        assert theta == _loop_w_gradient_theta(run, 0.05)
        for t0 in (0.3, float(run.times[-1])):
            assert snapshot_series(run, t0)[3] == _loop_w_gradient_theta(run, t0)

    def test_certificates_equal_snapshot_loops(self, run):
        for t0 in (0.05, 0.3, float(run.times[-1])):
            assert snapshot_series(run, t0)[3] == _loop_w_gradient_theta(run, t0)
        with pytest.raises(FloatingPointError):  # the bound at t = 0 is infinite
            snapshot_series(run, 0.0)
        excess = snapshot_series(run)[2]
        fit = fit_supersolution_envelope(envelope_slopes(run.model), [excess], [run.times])
        assert fit == _loop_envelope_fit([run])
        assert _loop_envelope_covers(run, fit)
        tight = EnvelopeFit(candidate=fit.candidate, a=fit.a, d=0.0, e=fit.e / FIT_SLACK - 0.5)
        assert envelope_covers(excess, run.times, fit)
        assert not envelope_covers(excess, run.times, tight)
        assert not _loop_envelope_covers(run, tight)
        y2 = run.grid.centers ** 2
        moments = [float((d * y2).sum() * run.grid.dx) for d in run.densities]
        c_star = constructive_moment_constant(run.model, run.grid, 1)
        assert list(check_moment_bound(run, 1, c_star).moment_series) == moments

    def test_w_gradient_leaves_the_transform_as_it_is(self, run):
        transform = snapshot_series(run, 0.05)[0]
        assert_same_bits(transform.phi, hopf_cole(run.densities, run.model.epsilon).phi)

    def test_fit_over_runs_equals_snapshot_loops(self):
        runs = [_solver_run(), _ragged_run()]
        excesses = [snapshot_series(r)[2] for r in runs]
        fit = fit_supersolution_envelope(envelope_slopes(runs[0].model), excesses,
                                         [r.times for r in runs])
        assert fit == _loop_envelope_fit(runs)

    def test_row_without_interior_is_skipped(self, monkeypatch):
        # isolated cells: each twin's pass finds neither a w-gradient nor a
        # core on the row, and snapshot_series refuses the run for its
        # empty core
        model = build_separable_1d(0.3)
        grid = Grid1D(4.0, 128)
        comb = np.where(np.arange(128) % 2 == 0, 1.0, 0.0)
        smooth = np.exp(-grid.centers ** 2)
        run = _fake_run(model, grid, [smooth, comb, smooth], [0.0, 0.5, 1.0])
        f = hopf_cole(run.densities, run.model.epsilon)
        assert not f.mask[1].reshape(-1, 2)[:, 1].any()
        for kernel in kernel_twins():
            outputs = []

            def kept_kernel(*args, kernel=kernel):
                kernel(*args)
                outputs.append(args[-3:])

            monkeypatch.setattr(hopfcole, "c_twin", lambda name: kept_kernel)
            for t0 in (None, 0.2):
                with pytest.raises(ValueError, match="support core is empty"):
                    snapshot_series(run, t0)
            _, residual_sup, w_grad_sup = outputs[-1]
            assert residual_sup[1] == w_grad_sup[1] == -np.inf
            assert np.isfinite(residual_sup[[0, 2]]).all() and w_grad_sup[0] == -np.inf
            # theta over the rows at t >= 0.2 that have an interior: row 2
            theta = w_grad_sup[2] - math.sqrt(1.0 / model.sigma ** 2)
            assert theta == _loop_w_gradient_theta(run, 0.2)
        late = _fake_run(model, grid, [smooth, smooth], [0.0, 1.0])
        with pytest.raises(ValueError, match="no snapshots"):
            snapshot_series(late, 1.5)


def _run_at(grid: Grid1D, T: float, snapshot_every: float | None = None):
    """A sweep's run_at: solve_fp_1d's arguments for the default separable
    model at epsilon on grid to T, from the Gaussian at 1 of concentration
    1, with a snapshot every snapshot_every, or every T / SNAPSHOTS_PER_RUN
    as config's specs default it."""
    def run_at(epsilon):
        return dict(model=build_separable_1d(epsilon), grid=grid, T=T,
                    mu0=gaussian_initial(grid, epsilon, 1.0, 1.0),
                    snapshot_every=T / SNAPSHOTS_PER_RUN if snapshot_every is None
                    else snapshot_every)
    return run_at


class TestSweepConsistency:
    def test_single_epsilon_sweep_equals_individual_diagnostics(self):
        base = build_separable_1d(0.3)
        grid = Grid1D(8.0, 256)
        rep = epsilon_sweep((0.3,), _run_at(grid, 1.0, snapshot_every=0.25), t0=0.25)
        d = next(d for d in rep.diagnostics if d.epsilon == 0.3)
        assert d.status == "COMPLETED"
        run = solve_fp_1d(base, grid, gaussian_initial(grid, 0.3, 1.0, 1.0), 1.0,
                          snapshot_every=0.25)
        final = run.densities[-1]
        f = hopf_cole(final, 0.3)
        assert d.sup_phi_final == f.sup_phi
        assert d.support_width_final == support_width(final, grid.dx)
        assert d.i_final == run.i_values[-1]
        assert d.residual_sup_final == _single_snapshot_series(run, -1)["residual_sup"][0]
        assert d.residual_sup_final == _loop_residual_sup(run)[-1]
        assert d.theta == snapshot_series(run, 0.25)[3]
        assert d.theta == _loop_w_gradient_theta(run, 0.25)

    def test_t0_at_the_horizon_takes_the_last_snapshot(self):
        # 1458 steps of T / 1458 stamp the last snapshot 0.24999999999999997,
        # below T; a t0 of T still takes it, as the snapshot at step n_steps
        grid = Grid1D(8.0, 128)
        run = solve_fp_1d(build_separable_1d(0.2), grid, gaussian_initial(grid, 0.2), 0.25)
        assert run.meta["n_steps"] == 1458 and run.times[-1] < 0.25
        theta = snapshot_series(run, 0.25)[3]
        assert theta == _loop_w_gradient_theta(run, float(run.times[-1]))
        with pytest.raises(ValueError, match="no snapshots"):
            snapshot_series(run, math.nextafter(0.25, 1.0))

    def test_strictly_decreasing_epsilons_required(self):
        run_at = _run_at(Grid1D(8.0, 128), 1.0)
        with pytest.raises(ValueError):
            epsilon_sweep((0.2, 0.4), run_at)
        with pytest.raises(ValueError):
            epsilon_sweep((1.5, 0.4), run_at)

    def test_member_failure_recorded_sweep_continues(self):
        # the finer member's initial profile vanishes on the grid
        rep = epsilon_sweep((0.4, 1e-7), _run_at(Grid1D(8.0, 128), 1.0))
        diag = {d.epsilon: d for d in rep.diagnostics}
        assert diag[0.4].status == "COMPLETED"
        assert diag[1e-7].status == "FAILED"
        assert "profile vanishes" in diag[1e-7].error

    def test_each_member_is_transformed_once_and_dropped(self, monkeypatch):
        # the member's one transform and one kernel pass serve every
        # certificate, its run is gone before the next member is solved,
        # and the moment constant, which does not depend on epsilon, is
        # computed once for the sweep
        transforms, passes, constants, runs, alive = [], [], [], [], []

        def counted_kernel(phi, *args):
            passes.append(phi.shape)
            return snapshot_certificates(phi, *args)

        def counted_constant(*args):
            constants.append(args)
            return constructive_moment_constant(*args)

        def counted_hopf_cole(values, *args, **kwargs):
            transforms.append(values.shape)
            return hopf_cole(values, *args, **kwargs)

        def tracked_solve(*args, **kwargs):
            alive.append(sum(r() is not None for r in runs))
            run = solve_fp_1d(*args, **kwargs)
            runs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(hopfcole, "hopf_cole", counted_hopf_cole)
        monkeypatch.setattr(hopfcole, "solve_fp_1d", tracked_solve)
        monkeypatch.setattr(hopfcole, "c_twin", lambda name: counted_kernel)
        monkeypatch.setattr(hopfcole, "constructive_moment_constant", counted_constant)
        rep = epsilon_sweep((0.4, 0.2, 0.1, 0.05), _run_at(Grid1D(8.0, 256), 0.1), t0=0.02)
        assert [d.status for d in rep.diagnostics] == ["COMPLETED"] * 4
        assert rep.verdicts["envelope_uniform"]
        assert len(transforms) == 4
        assert passes == transforms
        assert len(constants) == 1
        assert alive == [0, 0, 0, 0]
        assert all(r() is None for r in runs)
