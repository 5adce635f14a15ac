import numpy as np
import pytest

from balancenet import rng
from balancenet._kernels import (IMPLEMENTATIONS, _fp_chunk_loop,
                                 _network_chunk_loop, active, fp_chunk,
                                 network_chunk)
from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               ScalingRule, build_fhn_chemical,
                               build_fhn_electrical, conductance_source_maps)
from balancenet.network import (NOISE_CHUNK, CoordinateIC, InitialConditionSpec,
                                RecordSpec, draw_initial_state, simulate,
                                step_euler_maruyama)

ELECTRICAL_MAPS = (np.array([-1.0]), np.zeros((1, 2)), np.zeros(1), np.array([[1.0, 0.0]]))


def _electrical_args(n=64, steps=17, seed=5):
    g = np.random.default_rng(seed)
    states = g.normal(size=(n, 2))
    noise = g.normal(size=(steps, n))
    fhn = (-1.0, 5.0, -4.0, 4.0, 0.005, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return (states, noise, 1e-4, np.array([0, n]), np.array([[30.0]]),
            *ELECTRICAL_MAPS, fhn, 1.0)


def _chemical_args(n=32, steps=13, seed=6):
    g = np.random.default_rng(seed)
    states = g.normal(loc=1.0, size=(2 * n, 3))
    states[:, 2] = g.uniform(0, 1, size=2 * n)
    noise = g.normal(size=(steps, 2 * n))
    coef = 60.0 * np.array([[0.3, -1.0], [2.0, -10.0]])
    maps = conductance_source_maps([3.0, -1.0])
    offsets = np.array([0, n, 2 * n], dtype=np.int64)
    fhn = (-1.0, 1.3, -0.3, 0.0, 0.4, 1.5, 1.0, 1.0, 1.0, -2.0, 1.0)
    return (states, noise, 1e-5, offsets, coef,
            maps.alpha0, maps.alpha1, maps.beta0, maps.beta1, fhn, 1.0)


def _fp_args(m=128, steps=50):
    x = np.linspace(-4, 4, m + 1)
    centers = 0.5 * (x[:-1] + x[1:])
    dx = x[1] - x[0]
    mu = np.exp(-centers ** 2)
    mu /= mu.sum() * dx
    flux = np.zeros(m + 1)
    f_face = x - x ** 3
    a_face = x.copy()
    beta_w = (0.5 + 1.0 / (1.0 + np.exp(-centers))) * dx
    i_out = np.zeros(steps)
    return mu, flux, f_face, a_face, beta_w, 10.0, 0.5, dx, 1e-5, steps, i_out


@pytest.mark.parametrize("maker", [_electrical_args, _chemical_args])
def test_network_kernel_matches_loop_oracle(maker):
    args_np = maker()
    args_loop = maker()
    assert network_chunk(*args_np)
    assert _network_chunk_loop(*args_loop)
    np.testing.assert_allclose(args_np[0], args_loop[0], rtol=1e-11, atol=1e-13)


def test_fp_kernel_matches_loop_oracle():
    args_np = _fp_args()
    args_loop = _fp_args()
    fp_chunk(*args_np)
    _fp_chunk_loop(*args_loop)
    np.testing.assert_allclose(args_np[0], args_loop[0], rtol=1e-11, atol=1e-16)
    np.testing.assert_allclose(args_np[-1], args_loop[-1], rtol=1e-12)


def test_registry_keys():
    # traced runs label kernel time by these keys
    assert set(IMPLEMENTATIONS) == {"electrical_chunk", "chemical_chunk", "fp_chunk"}
    assert active("electrical_chunk") is active("chemical_chunk") is network_chunk
    assert active("fp_chunk") is fp_chunk


def test_kernel_rerun_bit_identical():
    a1 = _electrical_args()
    a2 = _electrical_args()
    network_chunk(*a1)
    network_chunk(*a2)
    np.testing.assert_array_equal(a1[0], a2[0])


def test_blowup_flag_from_kernel():
    args = _electrical_args()
    args[0][0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert not network_chunk(*args)


FIG1 = FhnElectricalParams((-1.0, 5.0, -4.0, 4.0), 0.005, 6.0, 1.0, 1.0)
FIG2A = FhnChemicalParams((-1.0, 1.3, -0.3, 0.0), 0.4, 1.5, 1.0, 1.0, 1.0, 1.0,
                          0.2, 3.0, -1.0, 0.3, 2.0, 1.0, 10.0, 1.0)


@pytest.mark.parametrize("family", ["electrical", "chemical"])
def test_simulate_matches_generic_step(family):
    # the kernel path of simulate against repeated step_euler_maruyama (the
    # exactly summed generic path), both fed the same noise blocks
    if family == "electrical":
        model = build_fhn_electrical(FIG1, n=6, scaling=ScalingRule("constant", 20.0))
        init = InitialConditionSpec(((CoordinateIC("normal", 1.0, 2.0),
                                      CoordinateIC("normal", 1.5, 2.0)),))
    else:
        model = build_fhn_chemical(FIG2A, n=4, scaling=ScalingRule("constant", 5.0))
        laws = (CoordinateIC("normal", 1.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
                CoordinateIC("uniform", 0.2, 1.0))
        init = InitialConditionSpec((laws, laws))
    seed, dt, steps = 31, 1e-4, 2 * NOISE_CHUNK - 100
    T = steps * dt
    run = simulate(model, init, T, dt, seed, RecordSpec(stride=steps, snapshot_times=(T,)))
    state = draw_initial_state(model, init, seed)
    N = state.states.shape[0]
    for step in range(steps):
        block = rng.normal_block(seed, rng.NOISE_STREAM, step // NOISE_CHUNK, (NOISE_CHUNK, N))
        state = step_euler_maruyama(state, model, dt, block[step % NOISE_CHUNK][:, None])
    np.testing.assert_allclose(run.snapshots[-1][1], state.states, rtol=1e-10)


class TestNoiseStream:
    def test_pure_function_of_key(self):
        a = rng.normal_block(42, rng.NOISE_STREAM, 3, (8, 4))
        b = rng.normal_block(42, rng.NOISE_STREAM, 3, (8, 4))
        np.testing.assert_array_equal(a, b)

    def test_blocks_independent(self):
        a = rng.normal_block(42, rng.NOISE_STREAM, 0, (16,))
        b = rng.normal_block(42, rng.NOISE_STREAM, 1, (16,))
        assert not np.array_equal(a, b)

    def test_purposes_independent(self):
        a = rng.normal_block(42, rng.NOISE_STREAM, 0, (16,))
        b = rng.normal_block(42, rng.INIT_STREAM, 0, (16,))
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            rng.normal_block(-1, 0, 0, (4,))
