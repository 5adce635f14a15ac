import math
import re

import numpy as np
import pytest

from balancenet import pde
from balancenet._kernels import fp_chunk
from balancenet.models import SeparableModel1D, build_separable_1d
from balancenet.pde import (CflError, Grid1D, NegativityError, cfl_timestep,
                            gaussian_initial, solve_fp_1d)

from .oracles import density_from_values


def ou_model(sigma=1.0, epsilon=0.5):
    """alpha = 0 turns the equation into a plain Ornstein-Uhlenbeck
    Fokker-Planck with stationary law N(0, sigma^2/2)."""
    return SeparableModel1D(
        f=lambda x: -x, alpha=lambda x: 0.0 * np.asarray(x, dtype=float),
        beta=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        sigma=sigma, epsilon=epsilon, beta_floor=1.0)


def ou_l1_error(M, T=10.0):
    grid = Grid1D(8.0, M)
    mu0 = gaussian_initial(grid, epsilon=2.0, concentration=1.0, center=1.0)
    run = solve_fp_1d(ou_model(), grid, mu0, T, snapshot_every=T)
    x = grid.centers
    exact = np.exp(-x ** 2) / math.sqrt(math.pi)
    return float(np.abs(run.densities[-1] - exact).sum() * grid.dx), run


class TestOuOracle:
    def test_stationary_l1_error(self):
        err, _ = ou_l1_error(1024)
        assert err <= 1e-2

    def test_mass_conservation(self):
        _, run = ou_l1_error(1024, T=2.0)
        assert np.max(np.abs(run.mass - 1.0)) <= 1e-10

    def test_positivity(self):
        _, run = ou_l1_error(1024, T=2.0)
        assert run.densities.min() >= -1e-12

    def test_first_order_refinement(self):
        coarse, _ = ou_l1_error(512)
        fine, _ = ou_l1_error(1024)
        assert 1.5 <= coarse / fine <= 2.5


class TestSolverContracts:
    def test_explicit_dt_above_cfl_rejected(self):
        grid = Grid1D(8.0, 256)
        model = ou_model()
        mu0 = gaussian_initial(grid, 2.0)
        dt_max = cfl_timestep(model, grid)
        with pytest.raises(CflError):
            solve_fp_1d(model, grid, mu0, 1.0, dt=dt_max * 3)

    def test_step_budget_rejected(self):
        grid = Grid1D(8.0, 256)
        model = ou_model()
        mu0 = gaussian_initial(grid, 2.0)
        with pytest.raises(CflError):
            solve_fp_1d(model, grid, mu0, 10.0, dt=1e-9)

    def test_unstable_cfl_aborts_with_negativity(self):
        grid = Grid1D(8.0, 256)
        model = ou_model()
        mu0 = gaussian_initial(grid, 2.0)
        with pytest.raises(NegativityError):
            solve_fp_1d(model, grid, mu0, 1.0, cfl=40.0)

    def test_negativity_reported_at_its_step(self):
        # an unstable step (cfl=40) first leaves a negative density a few
        # steps in: the error names that step whatever the snapshot cadence,
        # also when the step ends a chunk or the whole run
        grid = Grid1D(8.0, 256)
        model = build_separable_1d(0.2)
        mu0 = gaussian_initial(grid, 2.0, 5.0)
        dt = 1.0 / math.ceil(1.0 / cfl_timestep(model, grid, 40.0) - 1e-12)
        # replay one step per call
        mu = mu0.copy()
        flux = np.zeros(grid.M + 1)
        args = (model.f(grid.faces), model.alpha(grid.faces),
                model.beta(grid.centers) * grid.dx, 1.0 / model.epsilon,
                0.5 * model.sigma ** 2, grid.dx, dt, 1)
        step = 0
        while mu.min() >= -1e-12 and np.isfinite(mu).all():
            fp_chunk(mu, flux, *args, np.zeros(1))
            step += 1
        assert step > 1 and step % 4 != 0
        for T, every in ((1.0, None), (1.0, 4 * dt), (step * dt, None),
                         (3 * step * dt, step * dt)):
            with pytest.raises(NegativityError) as err:
                solve_fp_1d(model, grid, mu0, T, dt=dt, snapshot_every=every, cfl=40.0)
            assert re.search(r"t=(\S+)$", str(err.value)).group(1) == f"{step * dt:.6g}"

    def test_unit_mass_required(self, monkeypatch):
        # a density of the wrong mass, of unit mass but the wrong shape, or
        # with a NaN or a value below the floor, is rejected before the
        # solver takes its kernel
        grid = Grid1D(8.0, 256)
        mu0 = gaussian_initial(grid, 2.0)
        monkeypatch.setattr(pde, "active", lambda name: pytest.fail("the solver stepped"))
        with_nan, negative = mu0.copy(), mu0.copy()
        with_nan[100] = np.nan
        negative[0] = -1e-9  # the mass stays within 1e-8 of one
        for bad, match in ((np.ones(256), "unit mass"), (np.append(mu0, 0.0), "shape"),
                           (mu0[None, :], "shape"), (with_nan, "finite"),
                           (negative, "-1e-12")):
            with pytest.raises(ValueError, match=match):
                solve_fp_1d(ou_model(), grid, bad, 1.0)

    def test_interaction_series_recorded_each_step(self):
        grid = Grid1D(8.0, 128)
        model = ou_model()
        mu0 = gaussian_initial(grid, 2.0)
        run = solve_fp_1d(model, grid, mu0, 0.1)
        assert len(run.i_values) == run.meta["n_steps"]
        # beta = 1: the interaction equals the mass
        np.testing.assert_allclose(run.i_values, 1.0, atol=1e-10)


_EPS = 0.1


@pytest.fixture(scope="module")
def pde_run():
    model = build_separable_1d(_EPS)
    grid = Grid1D(8.0, 1024)
    mu0 = gaussian_initial(grid, _EPS, 1.0, 1.0)
    return solve_fp_1d(model, grid, mu0, 1.0, snapshot_every=0.5)


@pytest.fixture(scope="module")
def ensemble():
    model = build_separable_1d(_EPS)
    rng = np.random.default_rng(99)
    n, dt, steps = 100_000, 1e-3, 1000
    x = 1.0 + math.sqrt(_EPS / 2.0) * rng.standard_normal(n)
    sq = math.sqrt(dt) * model.sigma
    for _ in range(steps):
        big_i = float(np.mean(model.beta(x)))
        x += (model.f(x) - big_i / _EPS * model.alpha(x)) * dt
        x += sq * rng.standard_normal(n)
    return x


class TestDefaultModelAgainstParticles:
    """Ensemble oracle: 1e5-particle Euler-Maruyama of the same
    interacting diffusion, compared against the deterministic solver."""

    def test_mode_at_alpha_zero(self, pde_run):
        grid = pde_run.grid
        x_mode = grid.centers[int(np.argmax(pde_run.densities[-1]))]
        assert abs(x_mode - 0.0) <= grid.dx

    def test_mean_and_spread_match(self, pde_run, ensemble):
        mu, grid = pde_run.densities[-1], pde_run.grid
        x = grid.centers
        m1 = float((x * mu).sum() * grid.dx)
        m2 = float((x ** 2 * mu).sum() * grid.dx)
        sd = math.sqrt(m2 - m1 ** 2)
        se = ensemble.std() / math.sqrt(len(ensemble))
        assert m1 == pytest.approx(ensemble.mean(), abs=5 * se + 2e-3)
        assert sd == pytest.approx(ensemble.std(), rel=0.03)

    def test_l1_distance_to_ensemble_histogram(self, pde_run, ensemble):
        mu, grid = pde_run.densities[-1], pde_run.grid
        counts, _ = np.histogram(ensemble, bins=grid.faces)
        hist_density = counts / (len(ensemble) * grid.dx)
        l1 = float(np.abs(hist_density - mu).sum() * grid.dx)
        assert l1 <= 0.08


class TestGridAndDensity:
    def test_grid_geometry(self):
        grid = Grid1D(8.0, 64)
        assert grid.dx == 0.25
        assert grid.centers[0] == -8.0 + 0.125
        assert len(grid.faces) == 65

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(8.0, 32)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 128)

    def test_initial_mass_exact(self):
        grid = Grid1D(8.0, 256)
        mu0 = gaussian_initial(grid, 0.05, 1.0, 1.0)
        assert mu0.shape == (256,)
        assert mu0.sum() * grid.dx == pytest.approx(1.0, abs=1e-12)

    def test_density_from_values_validates(self):
        grid = Grid1D(8.0, 128)
        with pytest.raises(ValueError):
            density_from_values(grid, -np.ones(128))
