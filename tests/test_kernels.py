import ctypes
import fnmatch
import json
import math
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

from balancenet import _clib, _kernels, _selfcheck, rng
from balancenet._clib import _C_FLAGS, _C_LIBS, _C_SOURCES
from balancenet._kernels import (IMPLEMENTATIONS, active, backend, csv_body, fp_chunk,
                                 network_chunk, numpy_target, rk4_affine,
                                 snapshot_certificates)
from balancenet.config import parse_config_dict
from balancenet.harness import run_experiment
from balancenet.models import (FhnChemicalParams, FhnElectricalParams,
                               NetworkModel, ScalingRule, conductance_source_maps)
from balancenet.network import (NOISE_CHUNK, CoordinateIC, RecordSpec, draw_initial_state,
                                simulate, usable_cpus)

from .oracles import fp_chunk_loop, network_chunk_loop, pairwise_model, pairwise_step

ELECTRICAL_MAPS = (np.array([-1.0]), np.zeros((1, 2)), np.zeros(1), np.array([[1.0, 0.0]]))


def _electrical_args(n=64, steps=17, seed=5):
    g = np.random.default_rng(seed)
    states = g.normal(size=(n, 2))
    noise = g.normal(size=(steps, n))
    fhn = np.array([-1.0, 5.0, -4.0, 4.0, 0.005, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    return (states, noise, 1e-4, np.array([[30.0]]), *ELECTRICAL_MAPS, fhn, 1.0)


def _chemical_args(n=32, steps=13, seed=6):
    g = np.random.default_rng(seed)
    states = g.normal(loc=1.0, size=(2 * n, 3))
    states[:, 2] = g.uniform(0, 1, size=2 * n)
    noise = g.normal(size=(steps, 2 * n))
    coef = 60.0 * np.array([[0.3, -1.0], [2.0, -10.0]])
    maps = conductance_source_maps([3.0, -1.0])
    fhn = np.array([-1.0, 1.3, -0.3, 0.0, 0.4, 1.5, 1.0, 1.0, 1.0, -2.0, 1.0])
    return (states, noise, 1e-5, coef,
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
    assert network_chunk_loop(*args_loop)
    np.testing.assert_allclose(args_np[0], args_loop[0], rtol=1e-11, atol=1e-13)


def test_fp_kernel_matches_loop_oracle():
    args_np = _fp_args()
    args_loop = _fp_args()
    fp_chunk(*args_np)
    fp_chunk_loop(*args_loop)
    np.testing.assert_allclose(args_np[0], args_loop[0], rtol=1e-11, atol=1e-16)
    np.testing.assert_allclose(args_np[-1], args_loop[-1], rtol=1e-12)


def test_registry_keys():
    # traced runs label kernel time by these keys
    assert set(IMPLEMENTATIONS) == {"electrical_chunk", "chemical_chunk", "fp_chunk"}
    assert IMPLEMENTATIONS["electrical_chunk"] is IMPLEMENTATIONS["chemical_chunk"] is network_chunk
    assert IMPLEMENTATIONS["fp_chunk"] is fp_chunk
    assert active("electrical_chunk") is active("chemical_chunk")
    # the C twins once built; the numpy kernels only without a compiler
    if shutil.which("cc") is None:
        assert active("fp_chunk") is fp_chunk
        assert active("electrical_chunk") is network_chunk
    else:
        assert active("fp_chunk") is not fp_chunk
        assert active("electrical_chunk") is not network_chunk
        assert backend("fp_chunk") == backend("network_chunk") == backend("normal_block") == "c"
        # fetched by c_twin only: neither the ODE nor the certificates
        # have a kernel key to trace them by
        assert backend("rk4_affine") == backend("snapshot_certificates") == "c"


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
    np.testing.assert_array_equal(a_c[-1], a_np[-1])


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
    # the count is of the steps before the faulty one, so a fault in the
    # first step gives 0
    args = _random_fp_args(128, 20, 3, 0.9)
    args[0][70] = np.nan
    assert kernel(*args) == 0
    args = _random_fp_args(128, 20, 3, 0.9)
    args[0][5] = -1.0
    assert kernel(*args) == 0
    # past the CFL step a cell first dips below the floor on step k: a
    # chunk returns k whether step k is in mid-chunk or its last, and
    # leaves the density of step k, as one step per call does
    replay = _random_fp_args(128, 1, 4, 1.5)
    k = 0
    while kernel(*replay) == 1:
        k += 1
    assert k == 8 and replay[0].min() < -1e-12
    for steps in (k + 1, k + 5):
        args = _random_fp_args(128, steps, 4, 1.5)
        assert kernel(*args) == k
        assert args[0].tobytes() == replay[0].tobytes()


def test_c_fp_kernel_rejects_mismatched_sizes(c_fp_chunk):
    args = _random_fp_args(64, 5, 1, 0.5)
    args[1] = np.zeros(64)
    with pytest.raises(ValueError):
        c_fp_chunk(*args)
    args = _random_fp_args(64, 5, 1, 0.5)
    args[-1] = np.zeros(4)
    with pytest.raises(ValueError):
        c_fp_chunk(*args)


def _strided(a):
    out = np.empty(2 * a.size)[::2]
    out[:] = a
    return out


def _read_only(a):
    a.flags.writeable = False
    return a


FP_ARRAYS = {"mu": 0, "flux": 1, "f_face": 2, "alpha_face": 3, "beta_w": 4, "i_out": 10}
FP_BAD = {"float32": lambda a: a.astype(np.float32), "strided": _strided,
          "read-only": _read_only}


@pytest.mark.parametrize("name, defect", [
    *((name, defect) for name in FP_ARRAYS for defect in ("float32", "strided")),
    ("mu", "read-only"), ("flux", "read-only"), ("i_out", "read-only")])
def test_c_fp_kernel_rejects_bad_arrays_before_stepping(c_fp_chunk, name, defect):
    # each of the six arrays is checked before the C step reads or writes
    # any: the error is a ValueError naming the twin, and no array moves
    args = _random_fp_args(64, 5, 1, 0.5)
    args[FP_ARRAYS[name]] = FP_BAD[defect](args[FP_ARRAYS[name]])
    before = [np.array(args[i]) for i in FP_ARRAYS.values()]
    with pytest.raises(ValueError, match="^fp_chunk: "):
        c_fp_chunk(*args)
    for i, old in zip(FP_ARRAYS.values(), before):
        assert np.array(args[i]).tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# the C twin of snapshot_certificates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c_snapshot_certificates():
    twin = _kernels.c_twin("snapshot_certificates")
    if twin is None:
        pytest.skip("no C compiler: the certificates run on numpy")
    return twin


def _certificate_args(s, m, k, later, seed):
    """Random snapshot_certificates arguments: ragged masks (some rows with
    an empty core or no interior), phi NaN off them, NaN-filled outputs."""
    g = np.random.default_rng(seed)
    mask = g.random((s, m)) < g.uniform(0.2, 0.95, size=(s, 1))
    phi = np.where(mask, g.normal(size=(s, m)), np.nan)
    f2 = 2.0 * (1.0 + max(0.0, float(np.nanmax(phi, initial=0.0))))
    return [phi, mask, g.normal(size=m), g.normal(size=m), g.uniform(0.2, 1.0, size=s),
            g.uniform(0.0, 2.0, size=k), g.normal(0.5, 1.0, size=s), 0.5, 0.1, f2, later,
            np.full((k, s), np.nan), np.full(s, np.nan), np.full(s, np.nan)]


@given(s=st.integers(1, 8), m=st.integers(1, 70), k=st.sampled_from((0, 1, 16, 17, 33)),
       later=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_c_snapshot_certificates_bit_identical_to_numpy(c_snapshot_certificates, s, m, k,
                                                        later, seed):
    args = _certificate_args(s, m, k, min(later, s), seed)
    copy = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    c_snapshot_certificates(*args)
    snapshot_certificates(*copy)
    for i in (11, 12, 13):
        assert args[i].tobytes() == copy[i].tobytes()


def _strided_nd(a):
    out = np.empty((*a.shape, 2), dtype=a.dtype)[..., 0]
    out[...] = a
    return out


CERT_ARRAYS = {"phi": 0, "mask": 1, "lam": 2, "neg_alpha": 3, "big_i": 4, "slopes": 5,
               "floor": 6, "excess": 11, "residual_sup": 12, "w_grad_sup": 13}
CERT_BAD = {"float32": lambda a: a.astype(np.float32), "strided": _strided_nd,
            "shape": lambda a: a[..., :-1].copy(), "read-only": _read_only,
            "uint8": lambda a: a.astype(np.uint8), "float64": lambda a: a.astype(np.float64)}


@pytest.mark.parametrize("name, defect", [
    *((name, defect) for name in CERT_ARRAYS if name != "mask"
      for defect in ("float32", "strided", "shape")),
    *(("mask", defect) for defect in ("uint8", "float64", "strided", "shape")),
    ("excess", "read-only"), ("residual_sup", "read-only"), ("w_grad_sup", "read-only")])
def test_c_snapshot_certificates_rejects_bad_arrays_before_reading(c_snapshot_certificates,
                                                                    name, defect):
    # each array is checked before C reads or writes any: the error is a
    # ValueError naming the twin, and the outputs keep their NaNs
    args = _certificate_args(4, 30, 16, 1, 3)
    args[CERT_ARRAYS[name]] = CERT_BAD[defect](args[CERT_ARRAYS[name]])
    with pytest.raises(ValueError, match="^snapshot_certificates: "):
        c_snapshot_certificates(*args)
    assert all(np.isnan(args[i]).all() for i in (11, 12, 13))


def test_c_snapshot_certificates_rejects_bad_rows(c_snapshot_certificates):
    for later in (-1, 5):
        args = _certificate_args(4, 30, 16, later, 3)
        with pytest.raises(ValueError, match="^snapshot_certificates: "):
            c_snapshot_certificates(*args)
    args = _certificate_args(4, 30, 16, 1, 3)
    args[0] = args[0][0]
    with pytest.raises(ValueError, match="^snapshot_certificates: "):
        c_snapshot_certificates(*args)


@needs_cc
def test_c_source_compiles_without_warnings(tmp_path):
    # the library as _compile builds it, with every warning an error; a
    # static helper left unused fails under -Wunused-function
    assert {s.name for s in _C_SOURCES} == {"_fp_chunk.c", "_network_chunk.c", "_normal_block.c",
                                            "_rk4_affine.c", "_csv_body.c"}
    assert f"-march={_clib.C_TARGET}" in _C_FLAGS

    def build(*sources):
        return subprocess.run([shutil.which("cc"), *_C_FLAGS, "-Wall", "-Wextra", "-Werror",
                               "-o", str(tmp_path / "kernels.so"), *map(str, sources), *_C_LIBS],
                              capture_output=True, timeout=120)

    built = build(*_C_SOURCES)
    assert built.returncode == 0, built.stderr.decode()
    unused = tmp_path / "unused.c"
    unused.write_text("static double unused(double x)\n{\n    return x;\n}\n")
    rejected = build(*_C_SOURCES, unused)
    assert rejected.returncode != 0 and b"unused-function" in rejected.stderr


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_package_data_ships_every_c_source():
    # an installed copy compiles the twins from the sources it carries
    import tomllib

    pyproject = Path(_clib.__file__).resolve().parents[2] / "pyproject.toml"
    patterns = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    for src in _C_SOURCES:
        assert any(fnmatch.fnmatch(src.name, pat) for pat in patterns["balancenet"]), src.name


@needs_cc
def test_concurrent_first_requests_build_once(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(_clib, "_cache_dir", lambda: cache)
    monkeypatch.setattr(_kernels, "_c_twins", None)
    builds = []
    compile_ = _clib._compile

    def counted(*args):
        builds.append(args)
        compile_(*args)

    monkeypatch.setattr(_clib, "_compile", counted)
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
    # one library and the verdict of the one twin requested, nothing half-written
    assert sorted(p.suffix for p in cache.iterdir()) == [".so", ".verdict"]


@needs_cc
def test_unwritable_cache_builds_in_temp_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(_clib, "_cache_dir", lambda: blocker / "balancenet")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(_kernels, "_c_twins", None)
    assert active("fp_chunk") is not fp_chunk
    assert backend("fp_chunk") == "c"
    assert list(tmp.iterdir()) == []  # the private copy is gone once loaded


@needs_cc
def test_cache_hit_starts_no_process(tmp_path, monkeypatch):
    # a warm cache is found from the compiler binary's stat alone, and the
    # twins' verdicts are read from their files
    monkeypatch.setattr(_clib, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(_kernels, "_c_twins", None)
    assert backend("fp_chunk") == backend("network_chunk") == backend("normal_block") == "c"
    monkeypatch.setattr(_kernels, "_c_twins", None)

    def no_process(*args, **kwargs):
        raise AssertionError("a cache hit ran a subprocess")

    def no_check(twin):
        raise AssertionError("a cache hit ran a self-check")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    for name in _selfcheck.CHECKS:
        monkeypatch.setitem(_selfcheck.CHECKS, name, no_check)
    assert active("fp_chunk") is not fp_chunk
    assert backend("network_chunk") == backend("normal_block") == "c"
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".so"] + 3 * [".verdict"]


def test_library_name_keys_on_the_cpu(monkeypatch):
    cc = shutil.which("cc") or sys.executable  # any binary serves as the compiler key
    if os.path.exists("/proc/cpuinfo"):
        assert {"model name", "flags", "Features"} & set(_clib.cpu_identity())
    name = _clib._library_name(cc)
    assert _clib._library_name(cc) == name
    monkeypatch.setattr(_clib, "cpu_identity", lambda: {"model name": "another CPU", "flags": "sse2"})
    assert _clib._library_name(cc) != name


@needs_cc
def test_missing_or_unreadable_verdict_runs_the_check_again(tmp_path, monkeypatch):
    monkeypatch.setattr(_clib, "_cache_dir", lambda: tmp_path)
    checks = []
    check = _selfcheck.CHECKS["fp_chunk"]
    monkeypatch.setitem(_selfcheck.CHECKS, "fp_chunk", lambda twin: checks.append(1) or check(twin))

    def first_request():
        monkeypatch.setattr(_kernels, "_c_twins", None)
        assert backend("fp_chunk") == "c"
        return len(checks)

    assert first_request() == 1
    assert first_request() == 1  # warm: the verdict file answers
    (verdict,) = tmp_path.glob("*.fp_chunk.*.verdict")
    assert verdict.read_text() == "pass\n"
    for damage in (lambda: verdict.write_bytes(b"\xff\xfe"), lambda: verdict.write_text(""),
                   verdict.unlink):
        damage()
        runs = len(checks)
        assert first_request() == runs + 1
        assert verdict.read_text() == "pass\n"


@needs_cc
def test_verdict_is_not_read_under_another_reference_text(tmp_path, monkeypatch):
    # a change to the numpy kernels or to the check's cases checks again
    monkeypatch.setattr(_clib, "_cache_dir", lambda: tmp_path / "cache")
    refs = [tmp_path / ref.name for ref in _clib._CHECK_REFERENCES]
    for ref, copy in zip(_clib._CHECK_REFERENCES, refs):
        copy.write_text(ref.read_text())
    monkeypatch.setattr(_clib, "_CHECK_REFERENCES", tuple(refs))
    checks = []
    check = _selfcheck.CHECKS["fp_chunk"]
    monkeypatch.setitem(_selfcheck.CHECKS, "fp_chunk", lambda twin: checks.append(1) or check(twin))

    def first_request():
        monkeypatch.setattr(_kernels, "_c_twins", None)
        assert backend("fp_chunk") == "c"
        return len(checks)

    assert first_request() == 1
    assert first_request() == 1  # warm: the verdict file answers
    for ref in refs:
        ref.write_text(ref.read_text() + "# another reference\n")
        runs = len(checks)
        assert first_request() == runs + 1
        assert first_request() == runs + 1
    assert len(list((tmp_path / "cache").glob("*.fp_chunk.*.verdict"))) == 3


PDE_RUN = {"kind": "pde-run", "seed": 1, "model": {"epsilon": 0.2},
           "grid": {"L": 8.0, "cells": 129}, "T": 0.05}


def _c_build():
    """The manifest's record of the C build, when a kernel runs in C."""
    return {} if shutil.which("cc") is None else _clib.build_target()


def test_missing_compiler_falls_back_to_numpy_with_same_bytes(tmp_path, monkeypatch):
    spec = parse_config_dict(PDE_RUN)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"]["fp_chunk"] == ("numpy" if shutil.which("cc") is None else "c")
    monkeypatch.setattr(_kernels, "_c_twins", None)
    monkeypatch.setattr(_clib.shutil, "which", lambda name: None)
    assert active("fp_chunk") is fp_chunk
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"]["fp_chunk"] == "numpy"
    assert fallback["files"] == compiled["files"]
    on_disk = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert on_disk["backend"] == {"fp_chunk": "numpy", "snapshot_certificates": "numpy",
                                  "csv_body": "numpy",
                                  "numpy": np.__version__, "threads": 1,
                                  "numpy_dispatch": FP_DISPATCH}


NETWORK_RUN = {"kind": "network-run", "seed": 3,
               "model": {"family": "fhn-electrical", "n": 12}, "T": 0.01, "dt": 1e-4}
# the targets of numpy's float64 exp and log loops that a network run and a
# Fokker-Planck run record
NETWORK_DISPATCH = {"exp": numpy_target("exp")}
FP_DISPATCH = {"exp": numpy_target("exp"), "log": numpy_target("log")}


def test_manifest_names_fp_backend_only_for_fokker_planck_runs(tmp_path):
    # a network run after a pde run in the same process solves no
    # Fokker-Planck equation, so its manifest names no fp_chunk backend
    run_experiment(parse_config_dict(PDE_RUN), out_dir=tmp_path / "pde")
    manifest = run_experiment(parse_config_dict(NETWORK_RUN), out_dir=tmp_path / "net")
    assert manifest["backend"] == {"numpy": np.__version__, "threads": 1,
                                   "csv_body": backend("csv_body"),
                                   "network_chunk": backend("network_chunk"),
                                   "normal_block": backend("normal_block"),
                                   "numpy_dispatch": NETWORK_DISPATCH,
                                   "cpus": usable_cpus(), **_c_build()}


EARLY_RUN = {"kind": "rescaled-early", "seed": 2, "model": {"family": "fhn-chemical", "n": 6},
             "gammas": [10], "T_tilde": 0.01, "dt_tilde": 1e-3}
FIG1_RUN = {"kind": "figures", "seed": 2, "figure": "fig1",
            "model": {"family": "fhn-electrical", "n": 6}, "T": 0.002}
BALANCE_RUN = {"kind": "balance-analysis", "seed": 2, "model": {"family": "fhn-chemical"},
               "sbar": {"E": 0.5, "I": 0.4}}
MIXED_SWEEP = {"kind": "double-limit-sweep", "seed": 2,
               "network": {"model": {"family": "fhn-electrical"}, "n_values": [6],
                           "scalings": [{"kind": "linear"}], "T": 0.002},
               "pde": {"model": {}, "epsilons": [0.4], "grid": {"L": 8.0, "cells": 64},
                       "T": 0.01}}


PDE_SWEEP = {"kind": "double-limit-sweep", "seed": 2, "pde": MIXED_SWEEP["pde"]}
NOISE = ("network_chunk", "normal_block")
FP = ("fp_chunk", "snapshot_certificates")


@pytest.mark.parametrize("config, kernels", [
    (NETWORK_RUN, NOISE), (EARLY_RUN, (*NOISE, "rk4_affine")), (FIG1_RUN, NOISE),
    (MIXED_SWEEP, (*NOISE, *FP)), (PDE_SWEEP, FP), (PDE_RUN, FP), (BALANCE_RUN, ())])
def test_manifest_names_the_kernels_a_kind_steps(tmp_path, config, kernels):
    manifest = run_experiment(parse_config_dict(config), out_dir=tmp_path)
    kernels = (*kernels, "csv_body")  # every kind writes CSVs
    # a run that draws noise records the CPU set its prefetch is gated on,
    # and every run the targets of the exp and log loops it calls
    noise = {"cpus": usable_cpus()} if "network_chunk" in kernels else {}
    dispatch = {**(NETWORK_DISPATCH if "network_chunk" in kernels else {}),
                **(FP_DISPATCH if "fp_chunk" in kernels else {})}
    if dispatch:
        noise["numpy_dispatch"] = dispatch
    build = _c_build()
    assert manifest["backend"] == {"numpy": np.__version__, "threads": 1, **noise, **build,
                                   **{k: backend(k) for k in kernels}}
    expected = "numpy" if shutil.which("cc") is None else "c"
    assert all(manifest["backend"][k] == expected for k in kernels)


def test_process_loads_one_library_for_both_kernels(tmp_path):
    # a network run and a pde run in a fresh interpreter: one load serves
    # both kernels and the noise
    code = ("from balancenet import _clib\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            "calls = []\n"
            "load = _clib._load_c_library\n"
            "_clib._load_c_library = lambda: calls.append(1) or load()\n"
            f"net = run_experiment(parse_config_dict({NETWORK_RUN!r}), out_dir={str(tmp_path / 'net')!r})\n"
            f"pde = run_experiment(parse_config_dict({PDE_RUN!r}), out_dir={str(tmp_path / 'pde')!r})\n"
            "assert calls == [1], calls\n"
            "assert net['backend']['network_chunk'] == pde['backend']['fp_chunk']\n"
            "assert net['backend']['normal_block'] == pde['backend']['fp_chunk']\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


# per dispatch level of numpy's float64 exp and log, the features to
# disable to run them one level lower, and that level
LOWER_LEVEL = {"X86_V4": ("AVX512_ICL AVX512_SPR X86_V4", "X86_V3"),
               "X86_V3": ("AVX512_ICL AVX512_SPR X86_V4 X86_V3", "baseline(X86_V2)")}
EXP_LEVEL = numpy_target("exp")
lowers_exp = pytest.mark.skipif(EXP_LEVEL not in LOWER_LEVEL,
                                reason="numpy's float64 exp runs at no level lowered here")


@lowers_exp
def test_manifest_records_the_exp_dispatch_target(tmp_path):
    # the chemical gate's exp, and with it the chemical bytes, depends on
    # the loop numpy dispatches to; a run one level lower says which
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "network-run", "seed": 3,
                               "model": {"family": "fhn-chemical", "n": 8},
                               "T": 0.002, "dt": 1e-4}))
    src = str(Path(_kernels.__file__).resolve().parents[1])
    disabled, lowered = LOWER_LEVEL[EXP_LEVEL]
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled}
    subprocess.run([sys.executable, "-m", "balancenet", "simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "o")], check=True, env=env, timeout=120)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["backend"]["numpy_dispatch"] == {"exp": lowered}


EPSILON_SWEEP = {"kind": "epsilon-sweep", "seed": 2, "model": {}, "epsilons": [0.4, 0.2],
                 "grid": {"L": 8.0, "cells": 64}, "T": 0.01}


@lowers_exp
@pytest.mark.skipif(numpy_target("log") != EXP_LEVEL,
                    reason="numpy's float64 exp and log dispatch to different levels here")
def test_a_lower_dispatch_level_moves_no_byte_silently(tmp_path):
    # every kind, at numpy's default level and one level lower: the
    # inventories match or the manifests' backends differ, and the
    # Fokker-Planck kinds name the exp and log targets they ran on
    configs = [NETWORK_RUN, CHEMICAL_EVENT_RUN, EARLY_RUN, FIG1_RUN, MIXED_SWEEP,
               PDE_SWEEP, PDE_RUN, EPSILON_SWEEP, BALANCE_RUN]
    code = ("import json, sys\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            "out = sys.argv[1]\n"
            f"runs = [run_experiment(parse_config_dict(c), out_dir=f'{{out}}/{{i}}')\n"
            f"        for i, c in enumerate({configs!r})]\n"
            "with open(f'{out}/runs.json', 'w') as fh:\n"
            "    json.dump([[m['backend'], m['files']] for m in runs], fh)\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    disabled, lowered = LOWER_LEVEL[EXP_LEVEL]
    runs = []
    for name, level in (("default", {}), ("lowered", {"NPY_DISABLE_CPU_FEATURES": disabled})):
        env = {**os.environ, "PYTHONPATH": src, **level}
        (tmp_path / name).mkdir()
        subprocess.run([sys.executable, "-c", code, str(tmp_path / name)], check=True,
                       env=env, timeout=120)
        runs.append(json.loads((tmp_path / name / "runs.json").read_text()))
    for config, (backend0, files0), (backend1, files1) in zip(configs, *runs):
        assert files0 == files1 or backend0 != backend1, config["kind"]
        if config in (PDE_RUN, EPSILON_SWEEP, PDE_SWEEP, MIXED_SWEEP):
            assert backend0["numpy_dispatch"] == {"exp": EXP_LEVEL, "log": EXP_LEVEL}
            assert backend1["numpy_dispatch"] == {"exp": lowered, "log": lowered}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_manifest_records_the_cpu_set_the_prefetch_reads(tmp_path):
    # a process pinned to one CPU draws its noise inline, and says so
    code = ("import os\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"net = run_experiment(parse_config_dict({NETWORK_RUN!r}), out_dir={str(tmp_path)!r})\n"
            "assert net['backend']['cpus'] == 1, net['backend']\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
    manifest = run_experiment(parse_config_dict(NETWORK_RUN), out_dir=tmp_path / "here")
    assert manifest["backend"]["cpus"] == len(os.sched_getaffinity(0))


@needs_cc
def test_fokker_planck_process_starts_no_process_and_no_noise(tmp_path):
    # on a warm cache a pde run loads the library without running the
    # compiler, and never asks for the noise fill, whose self-check would
    # import numpy.random
    assert backend("fp_chunk") == backend("csv_body") == "c"
    code = ("import sys\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            f"pde = run_experiment(parse_config_dict({PDE_RUN!r}), out_dir={str(tmp_path)!r})\n"
            "assert pde['backend']['fp_chunk'] == 'c'\n"
            "assert 'subprocess' not in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


# ---------------------------------------------------------------------------
# the C twin of rk4_affine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c_rk4_affine():
    twin = _kernels.c_twin("rk4_affine")
    if twin is None:
        pytest.skip("no C compiler: rk4_affine runs on Python floats")
    return twin


@given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3),
       x=st.one_of(st.floats(-1e3, 1e3), st.just(-0.0), st.just(math.inf)),
       dt=st.floats(1e-5, 0.5), last=st.integers(1, 3000), width=st.integers(1, 4))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_c_rk4_affine_bit_identical_to_python(c_rk4_affine, a, b, x, dt, last, width):
    # growing solutions overflow part-way; each writes the last column of
    # a NaN-filled array and leaves the rest as it was
    out, ref = np.full((last + 1, width), np.nan), np.full((last + 1, width), np.nan)
    done = c_rk4_affine(a, b, x, dt, out[:, -1], last)
    assert done == rk4_affine(a, b, x, dt, ref[:, -1], last)
    assert out.tobytes() == ref.tobytes()


def test_c_rk4_affine_rejects_bad_columns(c_rk4_affine):
    col = np.zeros(5)
    for bad, last in ((col, 5), (col, -1), (col.astype(np.float32), 4), (np.zeros((5, 1)), 4),
                      (np.zeros(10).view(np.uint8)[3:43].view(np.float64), 4)):
        with pytest.raises(ValueError):
            c_rk4_affine(1.0, 0.0, 1.0, 0.1, bad, last)
    col.flags.writeable = False
    with pytest.raises(ValueError):
        c_rk4_affine(1.0, 0.0, 1.0, 0.1, col, 4)


# ---------------------------------------------------------------------------
# the C twin of csv_body
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c_csv_body():
    twin = _kernels.c_twin("csv_body")
    if twin is None:
        pytest.skip("no C compiler: CSV bodies are formatted in Python")
    return twin


def test_c_csv_body_matches_repr_on_random_bit_patterns(c_csv_body):
    bits = np.random.default_rng(20181).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    col = bits.view(np.float64)
    assert c_csv_body([col]) == "".join(f"{v!r}\n" for v in col.tolist())


@pytest.mark.parametrize("bits, text", [
    (0x0000000000000000, "0.0"), (0x8000000000000000, "-0.0"),
    (0x7FF0000000000000, "inf"), (0xFFF0000000000000, "-inf"),
    (0x7FF8000000000000, "nan"), (0xFFF8000000000000, "nan"),
    (0x7FF0000000000001, "nan"), (0xFFFFFFFFFFFFFFFF, "nan"),
    (0x0000000000000001, "5e-324"), (0x000FFFFFFFFFFFFF, "2.225073858507201e-308"),
    (0x0010000000000000, "2.2250738585072014e-308"),
    (0x7FEFFFFFFFFFFFFF, "1.7976931348623157e+308")])
def test_c_csv_body_writes_special_bit_patterns_as_repr(c_csv_body, bits, text):
    col = np.array([bits], dtype=np.uint64).view(np.float64)
    assert repr(float(col[0])) == text
    assert c_csv_body([col]) == text + "\n"


@pytest.mark.parametrize("value, text", [
    (1e-4, "0.0001"), (math.nextafter(1e-4, 0.0), "9.999999999999999e-05"),
    (1e-5, "1e-05"), (0.00012, "0.00012"), (1e15, "1000000000000000.0"),
    (math.nextafter(1e16, 0.0), "9999999999999998.0"), (1e16, "1e+16"),
    (1.2345678901234568e16, "1.2345678901234568e+16"), (1.5e-7, "1.5e-07"),
    (1e100, "1e+100"), (123.0, "123.0"), (0.5, "0.5"), (2.0 ** 53, "9007199254740992.0")])
def test_c_csv_body_lays_out_as_float_repr(c_csv_body, value, text):
    # positional for 1e-4 <= |x| < 1e16, with ".0" on a whole number; else
    # an exponent with a sign and at least two digits
    assert repr(value) == text
    col = np.array([value, -value])
    assert c_csv_body([col]) == f"{text}\n-{text}\n"


def test_c_csv_body_writes_int64_as_str(c_csv_body):
    ints = [-(1 << 63), -(1 << 63) + 1, -(10 ** 18), -1, 0, 7, 10 ** 18, (1 << 63) - 1]
    assert c_csv_body([np.array(ints)]) == "".join(f"{v}\n" for v in ints)


def test_c_csv_body_reads_strided_columns_to_the_shortest(c_csv_body):
    table = np.random.default_rng(3).normal(size=(50, 3))
    columns = [np.arange(40), table[:, 1], table[::-1, 2], table[::2, 0]]
    assert c_csv_body(columns) == _kernels.csv_body(columns)
    assert c_csv_body(columns).count("\n") == 25
    assert c_csv_body([]) == c_csv_body([np.arange(3), np.zeros(0)]) == ""


def test_c_csv_body_takes_1d_float_and_integer_arrays(c_csv_body):
    # narrower types, unaligned data and odd strides are copied as their
    # float64 or int64 values; uint64, bools, strings, 2-D arrays and
    # sequences are left to Python
    raw = np.arange(1.0, 21.0).view(np.uint8)
    good = [np.linspace(-1, 1, 9, dtype=np.float32), np.arange(-4, 5, dtype=np.int32),
            np.arange(9, dtype=np.uint32), np.arange(9, dtype=np.float16),
            raw[3:75].view(np.float64),  # unaligned
            np.lib.stride_tricks.as_strided(raw.view(np.float64), (9,), (12,))]
    assert c_csv_body(good) == _kernels.csv_body(good)
    for bad in (np.zeros(3, dtype=np.uint64), np.zeros(3, dtype=bool), np.array(["a", "b", "c"]),
                np.zeros((3, 1)), [0.5, 1.0, 2.0]):
        assert _kernels.csv_column_kind(bad) is None
        with pytest.raises(ValueError):
            c_csv_body([np.arange(3.0), bad])


@needs_cc
def test_pow5_tables_are_the_python_integer_ones():
    # Ryu's tables, as the library fills them when it is loaded: 5^i scaled
    # to 125 bits, and 2^(b - 1 + 125) // 5^i + 1 for the bit length b of
    # 5^i, each as {low 64 bits, high 64 bits}
    lib, _ = _clib._load_c_library()

    def loaded(name, size):
        words = list((ctypes.c_uint64 * (2 * size)).in_dll(lib, name))
        return [words[k] + (words[k + 1] << 64) for k in range(0, len(words), 2)]

    def scaled(p):
        shift = p.bit_length() - 125
        return p >> shift if shift >= 0 else p << -shift

    assert loaded("pow5_split", 326) == [scaled(5 ** i) for i in range(326)]
    assert loaded("pow5_inv_split", 292) == [
        (1 << (5 ** i).bit_length() - 1 + 125) // 5 ** i + 1 for i in range(292)]


# ---------------------------------------------------------------------------
# the C twin of network_chunk
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c_network_chunk():
    impl = active("electrical_chunk")
    if impl is network_chunk:
        pytest.skip("no C compiler: network_chunk runs on numpy")
    return impl


def _random_network_args(family, n, steps, seed, stride=0, step0=0, k_traces=0, P=None):
    """Kernel arguments for P populations of n agents (by default the
    family's: one electrical, two chemical), with record buffers (filled
    with NaN) for steps step0 + 1 ... step0 + steps."""
    g = np.random.default_rng(seed)
    if family == "electrical":
        P = P or 1
        states = g.normal(scale=2.0, size=(P * n, 2))
        coef = g.uniform(0.0, 50.0, size=(P, P))
        maps = (np.full(P, -1.0), np.zeros((P, 2)), np.zeros(P), np.tile([1.0, 0.0], (P, 1)))
        fhn = np.array([-1.0, 5.0, -4.0, 4.0, 0.005, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        dt = 1e-4
    else:
        P = P or 2
        states = g.normal(loc=1.0, size=(P * n, 3))
        states[:, 2] = g.uniform(0, 1, size=P * n)
        coef = g.uniform(10.0, 60.0) * np.array([[0.3, -1.0], [2.0, -10.0]])[:P, :P]
        m = conductance_source_maps([3.0, -1.0][:P])
        maps = (m.alpha0, m.alpha1, m.beta0, m.beta1)
        fhn = np.array([-1.0, 1.3, -0.3, 0.0, 0.4, 1.5, 1.0, 0.5, 1.0, -2.0, 1.0])
        dt = 1e-5
    d = states.shape[1]
    noise = g.normal(size=(steps, states.shape[0]))
    slots = (step0 + steps) // stride + 1 if stride else 1
    rec = [np.full((P, slots, d), np.nan), np.full((P, slots, d), np.nan),
           np.full((P, slots, k_traces), np.nan)]
    return [states, noise, dt, coef, *maps, fhn, 1.0, step0, stride, *rec]


def _assert_same_run(a, b):
    for i in (0, -3, -2, -1):  # states, means, stds, traces
        np.testing.assert_array_equal(a[i], b[i])


@given(family=st.sampled_from(("electrical", "chemical")), P=st.sampled_from((1, 2)),
       n=st.sampled_from((1, 7, 8, 9, 127, 128, 129, 4500)),
       steps=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       stride=st.sampled_from((1, 7, 300)), step0=st.integers(0, 700),
       k_traces=st.sampled_from((0, 1, 5, 200)))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_c_network_kernel_bit_identical_to_numpy(c_network_chunk, family, P, n, steps, seed,
                                                 stride, step0, k_traces):
    a_np = _random_network_args(family, n, steps, seed, stride, step0, k_traces, P)
    a_c = _random_network_args(family, n, steps, seed, stride, step0, k_traces, P)
    assert network_chunk(*a_np) == c_network_chunk(*a_c) == steps
    _assert_same_run(a_c, a_np)


def test_c_network_kernel_records_signed_zero_sums_as_numpy(c_network_chunk):
    # with a = 0 and b x + c < 0 every recovery value stays -0.0, whose
    # column mean numpy's sum (started from +0.0) makes +0.0
    a_np = _random_network_args("electrical", 9, 5, 3, stride=1, k_traces=2)
    a_np[0][:, 0] = -np.abs(a_np[0][:, 0]) - 1.0
    a_np[0][:, 1] = -0.0
    a_np[8] = np.array([-1.0, 5.0, -4.0, 4.0, 0.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    a_c = [v.copy() if isinstance(v, np.ndarray) else v for v in a_np]
    assert network_chunk(*a_np) == c_network_chunk(*a_c) == 5
    assert np.signbit(a_np[0][:, 1]).all()
    _assert_same_run(a_c, a_np)
    for a in (a_np, a_c):
        assert not np.signbit(a[-3][0, 1:, 1]).any()


def test_c_network_kernel_gate_uses_numpy_exp(c_network_chunk):
    # with the drift, coupling and noise off, dt = 1 and s = 0, one step
    # sets s to the sigmoid gain / (1 + exp(-x)) itself, so the last bit of
    # each exp shows (libm's exp differs from numpy's on AVX-512 CPUs)
    a_np = _random_network_args("chemical", 4500, 1, 4)
    a_np[0][:, 0] = np.random.default_rng(4).normal(scale=3.0, size=9000)
    a_np[0][:, 1:] = 0.0
    a_np[2], a_np[3] = 1.0, np.zeros((2, 2))
    a_np[8], a_np[9] = np.array([0.0] * 8 + [1.0, 0.0, 1.0]), 0.0
    a_c = [v.copy() if isinstance(v, np.ndarray) else v for v in a_np]
    assert network_chunk(*a_np) == c_network_chunk(*a_c) == 1
    x = a_np[0][:, 0]
    np.testing.assert_array_equal(a_np[0][:, 2], 1.0 / (1.0 + np.exp(0.0 - x)))
    np.testing.assert_array_equal(a_c[0], a_np[0])


@pytest.mark.parametrize("family", ["electrical", "chemical"])
@pytest.mark.parametrize("stride", [1, 7])
def test_c_network_kernel_stops_where_numpy_does(c_network_chunk, family, stride):
    # one agent far out overflows part-way through the block
    a_np = _random_network_args(family, 9, 60, 2, stride, 5, 3)
    a_c = _random_network_args(family, 9, 60, 2, stride, 5, 3)
    for a in (a_np, a_c):
        a[0][4, 0] = 1e5
        a[2] = 1e-3
    with np.errstate(over="ignore", invalid="ignore"):
        done = network_chunk(*a_np)
        assert c_network_chunk(*a_c) == done
    assert 1 < done < 60
    assert not np.isfinite(a_c[0]).all()
    _assert_same_run(a_c, a_np)


def test_network_kernel_stops_at_a_non_finite_gate(c_network_chunk):
    # uncoupled, a gate at -1.5e308 overflows in the first step while every
    # voltage stays finite; the voltages follow one step later
    a_np = _random_network_args("chemical", 9, 10, 2, 1, 0, 3)
    a_np[0][4, 2] = -1.5e308
    a_np[3] = np.zeros((2, 2))
    a_c = [v.copy() if isinstance(v, np.ndarray) else v for v in a_np]
    with np.errstate(over="ignore", invalid="ignore"):
        assert network_chunk(*a_np) == c_network_chunk(*a_c) == 0
    assert np.isfinite(a_np[0][:, :2]).all() and not np.isfinite(a_np[0][4, 2])
    _assert_same_run(a_c, a_np)


@pytest.mark.parametrize("family, n", [
    ("electrical", 6), ("chemical", 6),
    *((family, n) for family in ("electrical", "chemical") for n in (9, 129, 300))],
    ids=["electrical", "chemical",
         *(f"{family}-{n}" for family in ("electrical", "chemical") for n in (9, 129, 300))])
def test_network_kernel_records_its_own_steps(family, n):
    # stride-1 records of one call equal the 1-D moments of each column of
    # the step-by-step states; from 8 agents on, numpy's pairwise sum and a
    # sum taken in sequence (mean(axis=0)) can differ
    twin = _kernels.c_twin("network_chunk")
    for kernel in [network_chunk] + ([twin] if twin is not None else []):
        a = _random_network_args(family, n, 12, 9, stride=1, step0=3, k_traces=4)
        ref = _random_network_args(family, n, 12, 9)
        kernel(*a)
        for j in range(12):
            network_chunk(*ref[:1], ref[1][j:j + 1], *ref[2:10])
            for p in range(a[3].shape[0]):
                blk = ref[0][p * n:(p + 1) * n]
                np.testing.assert_array_equal(a[-3][p, 4 + j], [c.mean() for c in blk.T])
                np.testing.assert_array_equal(a[-2][p, 4 + j], [c.std() for c in blk.T])
                np.testing.assert_array_equal(a[-1][p, 4 + j], blk[:4, 0])
        np.testing.assert_array_equal(a[0], ref[0])
        assert np.isnan(a[-3][:, :4]).all()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 300, 1000, 4500, 9000])
def test_mean_std_is_ndarray_mean_and_std(n):
    # a recorded mean and std is the column's col.mean() and col.std() in
    # both twins, on either side of the edges of numpy's pairwise sum (8
    # and 128 values); a step with dt = 0 leaves every state as it was
    twin = _kernels.c_twin("network_chunk")
    for kernel in [network_chunk] + ([twin] if twin is not None else []):
        for offset in (0.0, 1e8):
            a = _random_network_args("chemical", n, 1, n, stride=1)
            a[0][:, :2] += offset
            a[2] = 0.0
            states = a[0].copy()
            assert kernel(*a) == 1
            np.testing.assert_array_equal(a[0], states)
            for p in range(2):
                cols = states[p * n:(p + 1) * n].T
                assert a[-3][p, 1].tolist() == [c.mean() for c in cols]
                assert a[-2][p, 1].tolist() == [c.std() for c in cols]


def test_c_network_kernel_rejects_bad_arguments(c_network_chunk):
    # each is rejected before C reads anything, and no argument is converted
    cases = [("electrical", 1, -3, lambda a: a[:, :-1]),  # one record slot too few
             ("electrical", 0, 1, lambda a: np.asfortranarray(np.zeros((5, 8)))[:, :7]),
             ("chemical", 0, 0, lambda a: a[:7].copy()),  # N = 7 in two populations
             ("electrical", 0, 0, lambda a: np.zeros((8, 4))),  # d = 4
             ("chemical", 0, 3, lambda a: a.astype(np.float32)),  # coef
             ("chemical", 0, 5, lambda a: np.repeat(a, 2, axis=1)[:, ::2]),  # strided alpha1
             ("chemical", 0, 8, lambda a: tuple(a.tolist()))]  # fhn
    for family, stride, at, bad in cases:
        a = _random_network_args(family, 8, 5, 1, stride=stride)
        a[at] = bad(a[at])
        states = a[0].copy()
        with pytest.raises(ValueError, match="network_chunk"):
            c_network_chunk(*a)
        np.testing.assert_array_equal(a[0], states)


SWEEP = {"kind": "double-limit-sweep", "seed": 4,
         "network": {"model": {"family": "fhn-electrical"}, "n_values": [20, 60],
                     "scalings": [{"kind": "linear"}, {"kind": "sqrt"}], "T": 0.02}}


def test_missing_compiler_runs_network_on_numpy_with_same_bytes(tmp_path, monkeypatch):
    spec = parse_config_dict(SWEEP)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled", threads=2)
    assert compiled["backend"]["network_chunk"] == backend("network_chunk")
    monkeypatch.setattr(_kernels, "_c_twins", None)
    monkeypatch.setattr(_clib.shutil, "which", lambda name: None)
    assert active("electrical_chunk") is active("chemical_chunk") is network_chunk
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy", threads=2)
    assert fallback["backend"] == {"network_chunk": "numpy", "normal_block": "numpy",
                                   "csv_body": "numpy",
                                   "numpy": np.__version__, "numpy_dispatch": NETWORK_DISPATCH,
                                   "threads": 2, "cpus": usable_cpus()}
    assert len(fallback["files"]) > 4
    assert fallback["files"] == compiled["files"]


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
    # the kernel path of simulate against repeated pairwise steps (the
    # interaction summed exactly over every pair), both fed the same noise
    # blocks
    if family == "electrical":
        model = NetworkModel(FIG1, n=6, scaling=ScalingRule("constant", 20.0))
        init = ((CoordinateIC("normal", 1.0, 2.0), CoordinateIC("normal", 1.5, 2.0)),)
    else:
        model = NetworkModel(FIG2A, n=4, scaling=ScalingRule("constant", 5.0))
        laws = (CoordinateIC("normal", 1.0, 1.0), CoordinateIC("normal", 2.0, 1.0),
                CoordinateIC("uniform", 0.2, 1.0))
        init = (laws, laws)
    seed, dt, steps = 31, 1e-4, 2 * NOISE_CHUNK - 100
    T = steps * dt
    run = simulate(model, init, T, dt, seed, RecordSpec(stride=steps, snapshot_times=(T,)))
    states = draw_initial_state(model, init, seed)
    N = states.shape[0]
    oracle = pairwise_model(model)
    for step in range(steps):
        block = rng.normal_block(seed, rng.NOISE_STREAM, step // NOISE_CHUNK, (NOISE_CHUNK, N))
        states = pairwise_step(states, oracle, dt, block[step % NOISE_CHUNK][:, None])
    np.testing.assert_allclose(run.snapshots[-1], states, rtol=1e-10)


# ---------------------------------------------------------------------------
# the C twin of rng.normal_block
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def c_normal_block():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: normal_block runs on numpy")
    fill = _kernels.c_twin("normal_block")
    # the library builds, so only a failed self-check can leave it out
    assert fill is not None, "the C normal fill does not match numpy's draws"
    return fill


def _numpy_normals(seed, purpose, block, shape):
    return rng._generator(rng._key(seed, purpose, block)).standard_normal(shape)


def _assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def _c_draws(fill, key, shape):
    """The C fill's draws of the given shape from the start of key's stream."""
    out = np.empty(shape)
    fill(*key, out)
    return out


@given(seed=st.one_of(st.sampled_from((0, 1, 2 ** 64 - 1)), st.integers(0, 2 ** 64 - 1)),
       purpose=st.integers(0, 2),
       block=st.one_of(st.sampled_from((0, 1, 2 ** 48 - 1)), st.integers(0, 2 ** 48 - 1)),
       shape=st.one_of(st.sampled_from(((0,), (1,), (0, 7), (3, 0))),
                       st.integers(1, 2000).map(lambda n: (2 * n + 1,)),
                       st.tuples(st.integers(1, 40), st.integers(1, 300))))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_c_normal_block_bit_identical_to_numpy(c_normal_block, seed, purpose, block, shape):
    expected = _numpy_normals(seed, purpose, block, shape)
    _assert_same_bytes(_c_draws(c_normal_block, rng._key(seed, purpose, block), shape),
                       expected)
    _assert_same_bytes(rng.normal_block(seed, purpose, block, shape), expected)


def test_c_normal_block_tail_draws_match_numpy(c_normal_block):
    # about one draw in 4,000 lies beyond the ziggurat's last layer and is
    # drawn by the tail path (two log1p calls per try)
    n = 1 << 22
    drawn = _c_draws(c_normal_block, rng._key(7, rng.NOISE_STREAM, 11), (n,))
    expected = _numpy_normals(7, rng.NOISE_STREAM, 11, (n,))
    tail = np.abs(expected) > 3.6541528853610088
    assert tail.sum() > 500
    _assert_same_bytes(drawn[tail], expected[tail])
    _assert_same_bytes(drawn, expected)


# The C fill makes the stream's words in batches of 2048 (512 Philox blocks
# of four), so a draw that reads word 2047 and then more words crosses into
# the second batch. Both keys were found by scanning numpy's Philox words
# (np.random.Philox(key).random_raw) over keys (seed, 0).
BATCH_WORDS = 2048
REJECT_AT_EDGE_KEY = _selfcheck._EDGE_KEY  # candidate on word 2047 rejected
TAIL_ACROSS_EDGE_KEY = (5434, 0)  # tail from word 2046, uniforms on 2047 and 2048


def _words_read(bits) -> int:
    """How many words of its stream a Philox bit generator has handed
    out, from its counter and buffer position."""
    state = bits.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])


def _draw_reading_word(key, word):
    """(first word, end word) of numpy's normal draw that reads the given
    word of key's Philox stream, from the bit generator's counter and buffer
    position around each draw."""
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
    normals = np.random.Generator(bits)
    while True:
        first = _words_read(bits)
        normals.standard_normal()
        end = _words_read(bits)
        if end > word:
            return first, end


def test_edge_keys_reach_the_batch_edge():
    source = Path(_clib.__file__).with_name("_normal_block.c").read_text()
    assert f"#define BATCH_REFILLS {BATCH_WORDS // 4}\n" in source
    edge = BATCH_WORDS - 1
    first, end = _draw_reading_word(REJECT_AT_EDGE_KEY, edge)
    assert first == edge and end > BATCH_WORDS
    first, end = _draw_reading_word(TAIL_ACROSS_EDGE_KEY, edge)
    layer = int(np.random.Philox(key=np.array(TAIL_ACROSS_EDGE_KEY, dtype=np.uint64))
                .random_raw(first + 1)[first]) & 0xFF
    assert layer == 0 and first < edge and end - 1 >= BATCH_WORDS


@pytest.mark.parametrize("key", [REJECT_AT_EDGE_KEY, TAIL_ACROSS_EDGE_KEY])
@pytest.mark.parametrize("n", [0, 1, BATCH_WORDS - 1, BATCH_WORDS, BATCH_WORDS + 1,
                               3 * BATCH_WORDS + 5])
def test_c_normal_block_matches_numpy_across_the_batch_edge(c_normal_block, key, n):
    _assert_same_bytes(_c_draws(c_normal_block, key, (n,)), rng._generator(key).standard_normal(n))


# A fill may start at any word of its stream and returns the word after
# the last one it read, so a block can be drawn in pieces (see
# network._NoiseFeed). The start words lie inside a block of four words
# and on both sides of the first batch edge.
RESUME_WORDS = [1, 2, 3, BATCH_WORDS - 1, BATCH_WORDS, BATCH_WORDS + 1]


def _fill(path, request):
    """The C fill or numpy's, as rng.normal_block calls them."""
    return request.getfixturevalue("c_normal_block") if path == "c" else rng._numpy_fill


@pytest.mark.parametrize("path", ["c", "numpy"])
@pytest.mark.parametrize("key", [REJECT_AT_EDGE_KEY, TAIL_ACROSS_EDGE_KEY])
@pytest.mark.parametrize("start", RESUME_WORDS)
def test_fill_resumes_the_stream_at_any_word(request, path, key, start):
    # numpy's normals once start words are read off the bit generator
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
    bits.random_raw(start)
    expected = np.random.Generator(bits).standard_normal(BATCH_WORDS + 5)
    out = np.empty(BATCH_WORDS + 5)
    assert _fill(path, request)(*key, out, start) == _words_read(bits)
    _assert_same_bytes(out, expected)


@pytest.mark.parametrize("path", ["c", "numpy"])
@pytest.mark.parametrize("key", [REJECT_AT_EDGE_KEY, TAIL_ACROSS_EDGE_KEY])
def test_pieces_laid_end_to_end_are_the_one_shot_draw(request, path, key):
    n = 2 * BATCH_WORDS + 7
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
    normals = np.random.Generator(bits)
    ends = []  # the word after each draw
    for _ in range(n):
        normals.standard_normal()
        ends.append(_words_read(bits))
    # pieces that stop at words 1, 2 and 3 mod 4, and next to the batch edge
    splits = {next(k for k, end in enumerate(ends, 1) if end % 4 == r) for r in (1, 2, 3)}
    splits |= {k for k, end in enumerate(ends, 1) if BATCH_WORDS - 2 <= end <= BATCH_WORDS + 1}
    assert len(splits) >= 5
    fill = _fill(path, request)
    pieces = np.full(n, np.nan)
    word = 0
    bounds = [0, *sorted(splits), n]
    for lo, hi in zip(bounds, bounds[1:]):
        word = fill(*key, pieces[lo:hi], word)
        assert word == ends[hi - 1]
    _assert_same_bytes(pieces, rng._generator(key).standard_normal(n))
    # an empty piece reads nothing
    assert fill(*key, np.empty(0), 4 * 7 + 3) == 4 * 7 + 3


def test_c_normal_block_rejects_bad_buffers(c_normal_block):
    for out in (np.empty((4, 6))[:, ::2], np.empty(4, dtype=np.float32), np.empty(4).tolist()):
        with pytest.raises(ValueError):
            c_normal_block(1, 2, out)
    frozen = np.empty(4)
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        c_normal_block(1, 2, frozen)
    for start in (-1, 2 ** 63):
        with pytest.raises(ValueError):
            c_normal_block(1, 2, np.empty(4), start)


def _patch_first_table_entry(source: str, table: str) -> str:
    """source with the first entry of the double table nudged by one ulp."""
    head, rest = source.split(f"{table}[256] = {{", 1)
    first, tail = rest.split(",", 1)
    nudged = float.hex(float(np.nextafter(float.fromhex(first.strip()), np.inf)))
    return f"{head}{table}[256] = {{\n    {nudged},{tail}"


@needs_cc
def test_self_check_falls_back_to_numpy_on_a_wrong_table(tmp_path, monkeypatch):
    sources = []
    for src in _C_SOURCES:
        text = src.read_text()
        if src.name == "_normal_block.c":
            text = _patch_first_table_entry(text, "wi_double")
            assert text != src.read_text()
        sources.append(tmp_path / src.name)
        sources[-1].write_text(text)
    monkeypatch.setattr(_clib, "_C_SOURCES", tuple(sources))
    monkeypatch.setattr(_clib, "_cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(_kernels, "_c_twins", None)
    assert _kernels.c_twin("normal_block") is None
    assert backend("normal_block") == "numpy"
    assert backend("network_chunk") == backend("fp_chunk") == "c"
    _assert_same_bytes(rng.normal_block(9, rng.NOISE_STREAM, 4, (256, 33)),
                       _numpy_normals(9, rng.NOISE_STREAM, 4, (256, 33)))


CHEMICAL_RUN = {"kind": "network-run", "seed": 9, "model": {"family": "fhn-chemical", "n": 40},
                "T": 0.06, "dt": 1e-4, "record": {"stride": 1, "traces": 3,
                                                   "snapshot_times": [0.03]}}
CHEMICAL_EVENT_RUN = {**CHEMICAL_RUN, "events": [{"t": 0.02, "multipliers": {"g_EE": 1.5}}]}


@needs_cc
@pytest.mark.parametrize("twin, kernel, config", [
    ("network_chunk", "chemical_chunk", CHEMICAL_EVENT_RUN),
    ("network_chunk", "electrical_chunk", NETWORK_RUN),
    ("fp_chunk", "fp_chunk", PDE_RUN),
    ("rk4_affine", None, {**EARLY_RUN, "gammas": [10, 100], "T_tilde": 0.05}),
    ("csv_body", None, CHEMICAL_RUN),
    ("snapshot_certificates", None, PDE_RUN)])
def test_failed_self_check_hands_out_numpy_with_same_bytes(tmp_path, monkeypatch, twin,
                                                          kernel, config):
    spec = parse_config_dict(config)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"][twin] == "c"
    monkeypatch.setattr(_clib, "_cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(_kernels, "_c_twins", None)
    monkeypatch.setitem(_selfcheck.CHECKS, twin, lambda fn: False)
    assert _kernels.c_twin(twin) is None
    if kernel is not None:  # the others are fetched by c_twin alone
        assert active(kernel) is IMPLEMENTATIONS[kernel]
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"][twin] == "numpy"
    assert len(fallback["files"]) >= 2
    assert fallback["files"] == compiled["files"]
    # the failed verdict is kept: the next process hands out numpy unchecked
    (verdict,) = (tmp_path / "cache").glob(f"*.{twin}.*.verdict")
    assert verdict.read_text() == "fail\n"
    monkeypatch.setattr(_kernels, "_c_twins", None)
    monkeypatch.setitem(_selfcheck.CHECKS, twin, None)
    assert backend(twin) == "numpy"
    assert backend({"fp_chunk": "network_chunk"}.get(twin, "fp_chunk")) == "c"


@needs_cc
@pytest.mark.parametrize("name", ["fp_chunk", "network_chunk", "rk4_affine", "csv_body",
                                  "snapshot_certificates"])
def test_self_check_catches_a_one_bit_difference(name):
    # a twin that is the Python function with one bit of its output moved
    numpy_kernel = {"fp_chunk": fp_chunk, "network_chunk": network_chunk,
                    "rk4_affine": rk4_affine, "csv_body": csv_body,
                    "snapshot_certificates": snapshot_certificates}[name]

    def off_by_one_bit(*args):
        done = numpy_kernel(*args)
        if name == "csv_body":  # the last digit of the last value
            return done[:-2] + chr(ord(done[-2]) ^ 1) + done[-1]
        if name == "rk4_affine":  # the first step of the column, finite in some case
            args[4][1] = np.nextafter(args[4][1], np.inf)
            return done
        # i_out, the w-gradient sup-norms, or the recorded stds
        target = args[-2] if name == "network_chunk" else args[-1]
        flat = target.reshape(-1)
        flat[-1] = np.nextafter(flat[-1], np.inf)
        return done

    check = _selfcheck.CHECKS[name]
    assert check(_kernels.c_twin(name))
    assert check(numpy_kernel)
    assert not check(off_by_one_bit)


@needs_cc
def test_warm_network_process_runs_no_self_check(tmp_path):
    # with the verdicts cached, a network run checks no twin and never
    # imports numpy.random, which only the noise fill's check would need
    assert backend("fp_chunk") == backend("network_chunk") == backend("normal_block") == "c"
    assert backend("csv_body") == "c"
    code = ("import sys\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            f"net = run_experiment(parse_config_dict({NETWORK_RUN!r}), out_dir={str(tmp_path)!r})\n"
            "assert net['backend']['network_chunk'] == net['backend']['normal_block'] == 'c'\n"
            "assert net['backend']['csv_body'] == 'c'\n"
            "assert 'balancenet._selfcheck' not in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


@needs_cc
def test_warm_rescaled_early_process_runs_no_self_check(tmp_path):
    # the early ODE's twin too is handed out on its cached verdict
    assert backend("network_chunk") == backend("normal_block") == backend("rk4_affine") == "c"
    code = ("import sys\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            f"run = run_experiment(parse_config_dict({EARLY_RUN!r}), out_dir={str(tmp_path)!r})\n"
            "assert run['backend']['rk4_affine'] == 'c', run['backend']\n"
            "assert 'balancenet._selfcheck' not in sys.modules\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_rescaled_early_without_compiler_has_same_bytes(tmp_path, monkeypatch):
    # three gammas, each run's gap to the early ODE in early_gaps.csv
    spec = parse_config_dict({**EARLY_RUN, "gammas": [10, 100, 1000], "T_tilde": 0.05})
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"]["rk4_affine"] == backend("rk4_affine")
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setattr(_kernels, "_c_twins", None)
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"]["rk4_affine"] == "numpy"
    assert fallback["status"] == "COMPLETED"
    assert "early_gaps.csv" in fallback["files"]
    assert fallback["files"] == compiled["files"]


def test_chemical_run_without_compiler_has_same_bytes(tmp_path, monkeypatch):
    # three noise blocks, the last one short, recorded every step
    spec = parse_config_dict(CHEMICAL_RUN)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"]["normal_block"] == backend("normal_block")
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setattr(_kernels, "_c_twins", None)
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"] == {"network_chunk": "numpy", "normal_block": "numpy",
                                   "csv_body": "numpy",
                                   "numpy": np.__version__, "numpy_dispatch": NETWORK_DISPATCH,
                                   "threads": 1, "cpus": usable_cpus()}
    assert fallback["status"] == "COMPLETED"
    assert len(fallback["files"]) >= 2
    assert fallback["files"] == compiled["files"]


def test_exp_loop_is_read_only_off_numpys_exp():
    # the layout is trusted only for a ufunc named "exp" with one input and
    # one output; np.exp's float64 loop is found by its type signature
    if sys.implementation.name == "cpython" and "t" not in sys.abiflags:
        loop, _ = _clib._exp_loop(np.exp)
        assert loop
    for other in (np.exp2, np.sin, np.add, np.frexp, len, "exp"):
        assert _clib._exp_loop(other) is None


@needs_cc
@pytest.mark.parametrize("break_lookup", [
    lambda mp: mp.setattr(_clib, "NPY_DOUBLE", -1),  # no (DOUBLE, DOUBLE) loop
    lambda mp: mp.setattr(sys, "abiflags", "t"),  # a free-threaded build
    lambda mp: mp.setattr(_clib._UFuncHead, "name", property(lambda head: b"exp2"))])
def test_failed_exp_lookup_hands_out_numpy_with_same_bytes(tmp_path, monkeypatch,
                                                           break_lookup):
    spec = parse_config_dict(CHEMICAL_EVENT_RUN)
    compiled = run_experiment(spec, out_dir=tmp_path / "compiled")
    assert compiled["backend"]["network_chunk"] == "c"
    break_lookup(monkeypatch)
    monkeypatch.setattr(_kernels, "_c_twins", None)
    assert _clib._exp_loop(np.exp) is None
    assert _kernels.c_twin("network_chunk") is None
    assert active("chemical_chunk") is active("electrical_chunk") is network_chunk
    fallback = run_experiment(spec, out_dir=tmp_path / "numpy")
    assert fallback["backend"]["network_chunk"] == "numpy"
    assert fallback["backend"]["normal_block"] == "c"
    assert len(fallback["files"]) >= 2
    assert fallback["files"] == compiled["files"]


@needs_cc
@lowers_exp
def test_chemical_twin_follows_numpys_exp_target(tmp_path):
    # with numpy's exp dispatched one level lower, the loop the C step calls
    # is that one, so the C twin still gives the numpy kernel's bytes
    disabled, lowered = LOWER_LEVEL[EXP_LEVEL]
    code = ("from balancenet import _kernels\n"
            "from balancenet.config import parse_config_dict\n"
            "from balancenet.harness import run_experiment\n"
            f"spec = parse_config_dict({CHEMICAL_EVENT_RUN!r})\n"
            f"c = run_experiment(spec, out_dir={str(tmp_path / 'c')!r})\n"
            "assert c['backend']['network_chunk'] == 'c', c['backend']\n"
            f"assert c['backend']['numpy_dispatch'] == {{'exp': {lowered!r}}}, c['backend']\n"
            "_kernels._c_twins = {k: v for k, v in _kernels._c_kernels().items()\n"
            "                     if k != 'network_chunk'}\n"
            f"n = run_experiment(spec, out_dir={str(tmp_path / 'n')!r})\n"
            "assert n['backend']['network_chunk'] == 'numpy', n['backend']\n"
            "assert len(c['files']) >= 2 and c['files'] == n['files']\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "NPY_DISABLE_CPU_FEATURES": disabled}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_self_check_takes_gates_past_exps_range():
    # exp's overflow (inf, so g = 0) and underflow (0) paths are compared
    # bit for bit too
    _, *chemical = _selfcheck._network_cases()
    assert len(chemical) == 2
    for states, *_, fhn, _sig, _step0, _stride, _means, _stds, _traces in chemical:
        arg = (fhn[9] - states[:, 0]) * fhn[10]
        assert arg.max() > 710 and arg.min() < -746
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(arg)).any() and (np.exp(arg) == 0.0).any()


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

    @pytest.mark.parametrize("k", [1, 7, 100, 160, 255])
    def test_first_rows_are_the_shorter_draw(self, k):
        # a run's last noise block is drawn only as far as the run reaches
        full = rng.normal_block(42, rng.NOISE_STREAM, 3, (NOISE_CHUNK, 37))
        np.testing.assert_array_equal(rng.normal_block(42, rng.NOISE_STREAM, 3, (k, 37)),
                                      full[:k])
        full = rng.normal_block(42, rng.NOISE_STREAM, 3, (NOISE_CHUNK, 37, 2))
        np.testing.assert_array_equal(rng.normal_block(42, rng.NOISE_STREAM, 3, (k, 37, 2)),
                                      full[:k])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            rng.normal_block(-1, 0, 0, (4,))

    @pytest.mark.parametrize("path", ["c", "numpy"])
    def test_keys_cannot_alias(self, path, monkeypatch):
        # purpose 0 with block 2^48 would be the key of purpose 1, block 0
        if path == "numpy":
            monkeypatch.setattr(_kernels, "_c_twins", {})
        elif shutil.which("cc") is None:
            pytest.skip("no C compiler: normal_block runs on numpy")
        else:
            assert backend("normal_block") == "c"
        for purpose, block in ((0, 2 ** 48), (0, -1), (2 ** 16, 0), (-1, 0)):
            for draw in (rng.normal_block, rng.uniform_block):
                with pytest.raises(ValueError):
                    draw(42, purpose, block, (4,))
        top = rng.normal_block(42, 2 ** 16 - 1, 2 ** 48 - 1, (4,))
        _assert_same_bytes(top, _numpy_normals(42, 2 ** 16 - 1, 2 ** 48 - 1, (4,)))
        assert rng.uniform_block(42, 2 ** 16 - 1, 2 ** 48 - 1, (4,)).shape == (4,)

    @pytest.mark.parametrize("path", ["c", "numpy"])
    def test_pieces_through_a_cursor_are_the_whole_block(self, path, monkeypatch):
        if path == "numpy":
            monkeypatch.setattr(_kernels, "_c_twins", {})
        whole = rng.normal_block(42, rng.NOISE_STREAM, 3, (NOISE_CHUNK, 37))
        cursor = rng.StreamCursor()
        out = np.empty((NOISE_CHUNK, 37))
        for lo, hi in ((0, 1), (1, 128), (128, 165), (165, NOISE_CHUNK)):
            got = rng.normal_block(42, rng.NOISE_STREAM, 3, (hi - lo, 37), out=out[lo:hi],
                                   cursor=cursor)
            assert np.shares_memory(got, out)
        _assert_same_bytes(out, whole)
        _assert_same_bytes(out, _numpy_normals(42, rng.NOISE_STREAM, 3, (NOISE_CHUNK, 37)))
        assert cursor.word > NOISE_CHUNK * 37

    def test_out_is_filled_in_place(self):
        out = np.full((300, 5), np.nan)
        got = rng.normal_block(42, rng.NOISE_STREAM, 3, (100, 5), out=out[:100])
        assert np.shares_memory(got, out)
        _assert_same_bytes(out[:100], rng.normal_block(42, rng.NOISE_STREAM, 3, (100, 5)))
        assert np.isnan(out[100:]).all()
        with pytest.raises(ValueError):
            rng.normal_block(42, rng.NOISE_STREAM, 3, (100, 4), out=out[:100])
