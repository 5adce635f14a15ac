import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet import _fp_c, _kernels, rng
from balancenet._fp_c import _C_FLAGS, _C_SOURCE
from balancenet._kernels import (IMPLEMENTATIONS, _fp_chunk_loop,
                                 _network_chunk_loop, active, fp_backend, fp_chunk,
                                 network_chunk)
from balancenet.config import parse_config_dict
from balancenet.harness import run_experiment
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
    assert IMPLEMENTATIONS["fp_chunk"] is fp_chunk
    # the C twin once built; the numpy kernel only without a compiler
    if shutil.which("cc") is None:
        assert active("fp_chunk") is fp_chunk
    else:
        assert active("fp_chunk") is not fp_chunk
        assert fp_backend() == "c"


# ---------------------------------------------------------------------------
# the C twin of fp_chunk
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture(scope="module")
def c_fp_chunk():
    impl = active("fp_chunk")
    if impl is fp_chunk:
        pytest.skip("no C compiler: fp_chunk runs on numpy")
    return impl


def _random_fp_args(m, steps, seed, cfl):
    """Random faces and density with velocities of both signs; cfl above 1
    may leave a negative density part-way through."""
    g = np.random.default_rng(seed)
    dx = 8.0 / m
    mu = g.uniform(0.1, 1.0, size=m)
    mu /= mu.sum() * dx
    f_face = g.normal(scale=3.0, size=m + 1)
    alpha_face = g.normal(size=m + 1)
    beta_w = g.uniform(0.5, 1.5, size=m) * dx
    inv_eps = float(g.uniform(0.0, 5.0))
    half_sig2 = float(g.uniform(0.1, 1.0))
    vmax = np.abs(f_face).max() + inv_eps * 1.5 * np.abs(alpha_face).max()
    dt = cfl / (vmax / dx + 2.0 * half_sig2 / dx ** 2)
    v0 = f_face - inv_eps * (beta_w @ mu) * alpha_face
    assert (v0 > 0).any() and (v0 < 0).any()
    return [mu, np.zeros(m + 1), f_face, alpha_face, beta_w, inv_eps, half_sig2,
            dx, dt, steps, np.zeros(steps)]


@given(m=st.sampled_from((64, 65, 127, 128, 129, 1000, 1024)),
       steps=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       cfl=st.sampled_from((0.2, 0.9, 3.0)))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_c_fp_kernel_bit_identical_to_numpy(c_fp_chunk, m, steps, seed, cfl):
    a_np = _random_fp_args(m, steps, seed, cfl)
    a_c = _random_fp_args(m, steps, seed, cfl)
    done = fp_chunk(*a_np)
    assert c_fp_chunk(*a_c) == done
    np.testing.assert_array_equal(a_c[0], a_np[0])
    np.testing.assert_array_equal(a_c[-1][:done], a_np[-1][:done])


@pytest.mark.parametrize("backend", ["numpy", "c"])
def test_fp_kernel_chunking_bit_identical(backend, request):
    kernel = fp_chunk if backend == "numpy" else request.getfixturevalue("c_fp_chunk")
    whole = _random_fp_args(129, 30, 4, 0.9)
    stepped = _random_fp_args(129, 30, 4, 0.9)
    assert kernel(*whole) == 30
    for s in range(30):
        assert kernel(*stepped[:9], 1, stepped[-1][s:s + 1]) == 1
    np.testing.assert_array_equal(stepped[0], whole[0])
    np.testing.assert_array_equal(stepped[-1], whole[-1])


@pytest.mark.parametrize("backend", ["numpy", "c"])
def test_fp_kernel_stops_at_first_faulty_step(backend, request):
    kernel = fp_chunk if backend == "numpy" else request.getfixturevalue("c_fp_chunk")
    args = _random_fp_args(128, 20, 3, 0.9)
    args[0][70] = np.nan
    assert kernel(*args) == 1
    args = _random_fp_args(128, 20, 3, 0.9)
    args[0][5] = -1.0
    assert kernel(*args) == 1


def test_c_fp_kernel_rejects_mismatched_sizes(c_fp_chunk):
    args = _random_fp_args(64, 5, 1, 0.5)
    args[1] = np.zeros(64)
    with pytest.raises(ValueError):
        c_fp_chunk(*args)
    args = _random_fp_args(64, 5, 1, 0.5)
    args[-1] = np.zeros(4)
    with pytest.raises(ValueError):
        c_fp_chunk(*args)


@needs_cc
def test_c_source_compiles_without_warnings(tmp_path):
    subprocess.run([shutil.which("cc"), *_C_FLAGS, "-Wall", "-Wextra", "-Werror",
                    "-o", str(tmp_path / "fp_chunk.so"), str(_C_SOURCE)],
                   check=True, capture_output=True, timeout=120)


@needs_cc
def test_concurrent_first_requests_build_once(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(_fp_c, "_cache_dir", lambda: cache)
    monkeypatch.setattr(_kernels, "_fp_impl", None)
    builds = []
    compile_ = _fp_c._compile

    def counted(*args):
        builds.append(args)
        compile_(*args)

    monkeypatch.setattr(_fp_c, "_compile", counted)
    n = 4
    barrier = threading.Barrier(n)
    got = [None] * n

    def request(i):
        barrier.wait(timeout=60)
        got[i] = active("fp_chunk")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert got[0] is not fp_chunk and all(k is got[0] for k in got)
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@needs_cc
def test_unwritable_cache_builds_in_temp_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(_fp_c, "_cache_dir", lambda: blocker / "balancenet")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(_kernels, "_fp_impl", None)
    assert active("fp_chunk") is not fp_chunk
    assert fp_backend() == "c"
    assert list(tmp.iterdir()) == []  # the private copy is gone once loaded


PDE_RUN = {"kind": "pde-run", "seed": 1, "model": {"epsilon": 0.2},
           "grid": {"L": 8.0, "cells": 129}, "T": 0.05}


def test_missing_compiler_falls_back_to_numpy_with_same_bytes(tmp_path, monkeypatch):
    spec = parse_config_dict(PDE_RUN)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"]["fp_chunk"] == ("numpy" if shutil.which("cc") is None else "c")
    monkeypatch.setattr(_kernels, "_fp_impl", None)
    monkeypatch.setattr(_fp_c.shutil, "which", lambda name: None)
    assert active("fp_chunk") is fp_chunk
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"]["fp_chunk"] == "numpy"
    assert fallback["files"] == compiled["files"]
    on_disk = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert on_disk["backend"] == {"fp_chunk": "numpy", "numpy": np.__version__}


NETWORK_RUN = {"kind": "network-run", "seed": 3,
               "model": {"family": "fhn-electrical", "n": 12}, "T": 0.01, "dt": 1e-4}


def test_manifest_names_fp_backend_only_for_fokker_planck_runs(tmp_path):
    # a network run after a pde run in the same process solves no
    # Fokker-Planck equation, so its manifest names no fp_chunk backend
    run_experiment(parse_config_dict(PDE_RUN), out_dir=tmp_path / "pde")
    manifest = run_experiment(parse_config_dict(NETWORK_RUN), out_dir=tmp_path / "net")
    assert manifest["backend"] == {"numpy": np.__version__}


def test_network_run_imports_no_c_build(tmp_path):
    code = ("import sys\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            f"run_experiment(parse_config_dict({NETWORK_RUN!r}), out_dir={str(tmp_path)!r})\n"
            "assert 'balancenet._fp_c' not in sys.modules\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


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
