"""The C twins of ``_kernels.fp_chunk`` and ``_kernels.network_chunk``:
build, cache, load and wrap.

``_fp_chunk.c`` and ``_network_chunk.c`` are compiled together with
``cc -O3 -ffp-contract=off -shared -fPIC`` into one library in
``$XDG_CACHE_HOME/balancenet`` (default ``~/.cache/balancenet``), under a
name keyed by the sha256 of both sources, the flags, the compiler version
and the platform, so later processes load it without compiling. An
unwritable cache gets a private build under the temporary directory. The
library is called through ``ctypes``, which releases the GIL during each
call. ``_kernels`` imports this module on the first kernel request.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_C_SOURCES = tuple(Path(__file__).with_name(name)
                   for name in ("_fp_chunk.c", "_network_chunk.c"))
_C_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_C_LIBS = ("-lm",)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "balancenet"


def _compile(cc: str, target: Path) -> None:
    """Compile the C sources to a fresh file next to ``target``, then
    publish it there atomically (os.replace), so that a concurrent reader
    sees either no library or a whole one."""
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_C_FLAGS, "-o", tmp, *map(str, _C_SOURCES), *_C_LIBS],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_c_library():
    """Load the compiled C twins, building them first if the cache lacks
    them. Returns None when there is no compiler or the build or load
    fails."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        version = subprocess.run([cc, "--version"], check=True, capture_output=True,
                                 text=True, timeout=60).stdout
        key = hashlib.sha256("\0".join([
            *(src.read_text() for src in _C_SOURCES), " ".join(_C_FLAGS + _C_LIBS),
            version, sysconfig.get_platform()]).encode()).hexdigest()[:16]
        name = f"kernels-{key}.so"
        try:
            cache = _cache_dir()
            cache.mkdir(parents=True, exist_ok=True)
            target = cache / name
            if not target.exists():
                _compile(cc, target)
            return ctypes.CDLL(str(target))
        except OSError:
            # an unwritable cache: build a private copy, unlinked once loaded
            with tempfile.TemporaryDirectory(prefix="balancenet-") as tmp:
                target = Path(tmp) / name
                _compile(cc, target)
                return ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None


def _c_fp_chunk(lib):
    """Wrap the C ``fp_chunk`` of ``lib`` in the numpy kernel's signature."""
    vec = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    c_fn = lib.fp_chunk
    c_fn.argtypes = [out, out, vec, vec, vec, ctypes.c_long, ctypes.c_double,
                     ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_long, out]
    c_fn.restype = ctypes.c_long

    def fp_chunk(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
                 dx, dt, nsteps, i_out):
        """The numpy ``fp_chunk`` in C: same arguments, same result bits."""
        m = mu.shape[0]
        if not (flux.shape == f_face.shape == alpha_face.shape == (m + 1,)
                and beta_w.shape == (m,) and 0 <= nsteps <= i_out.shape[0]):
            raise ValueError("fp_chunk: array sizes do not match the grid")
        return c_fn(mu, flux, f_face, alpha_face, beta_w, m, inv_eps, half_sig2,
                    dx, dt, nsteps, i_out)

    return fp_chunk


def _address(a: np.ndarray, shape: tuple, writeable: bool = False) -> int:
    """The data address of a C-contiguous float64 array of ``shape``."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
            and a.flags.c_contiguous and (a.flags.writeable or not writeable)):
        raise ValueError(f"network_chunk: expected a C-contiguous float64 array of shape {shape}")
    return a.ctypes.data


def _c_network_chunk(lib):
    """Wrap the C ``network_chunk`` of ``lib`` in the numpy kernel's
    signature. The electrical family (no gate) runs a whole call in C; the
    chemical family alternates numpy's exp of the gate argument with one C
    step, so the gate gets numpy's exp bits."""
    c_fn = lib.network_chunk
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    c_fn.argtypes = [ptr, long_, long_, ptr, long_, double, ptr, long_, ptr, ptr, ptr, ptr, ptr,
                     ptr, double, ptr, long_, long_, long_, long_, ptr, ptr, ptr]
    c_fn.restype = long_

    def network_chunk(states, noise, dt, offsets, coef, alpha0, alpha1, beta0, beta1,
                      fhn, sig, step0=0, stride=0, means=None, stds=None, traces=None):
        """The numpy ``network_chunk`` in C: same arguments, same result bits."""
        n, d = states.shape
        steps = noise.shape[0]
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        npop = offsets.shape[0] - 1
        if d not in (2, 3) or npop < 1 or offsets[0] != 0 or offsets[-1] != n \
                or (np.diff(offsets) < 1).any():
            raise ValueError("network_chunk: offsets do not split the states into populations")
        fhn = np.asarray(fhn, dtype=np.float64)
        # the constant arguments: copies of the caller's arrays when needed
        const = [np.ascontiguousarray(v, dtype=np.float64) for v in (coef, alpha0, alpha1, beta0, beta1)]
        shapes = [(npop, npop), (npop,), (npop, d), (npop,), (npop, d)]
        args = [_address(states, (n, d), writeable=True), n, d,
                _address(noise, (steps, n)) if steps else None, steps, dt,
                offsets.ctypes.data, npop,
                *(_address(v, s) for v, s in zip(const, shapes)),
                _address(fhn, (11,)), sig, None, step0, stride, 0, 0, None, None, None]
        if stride > 0:
            slots, k = means.shape[1], traces.shape[2]
            if (step0 + steps) // stride >= slots:
                raise ValueError("network_chunk: too few record slots")
            args[18:] = [slots, k, _address(means, (npop, slots, d), True),
                         _address(stds, (npop, slots, d), True),
                         _address(traces, (npop, slots, k), True) if k else None]
        if d == 2:
            return c_fn(*args)
        # the gate's exp from numpy, one step per C call; the C step leaves
        # the next exp argument in gate
        theta, inv_slope = float(fhn[9]), float(fhn[10])
        gate = np.subtract(theta, states[:, 0])
        gate *= inv_slope
        args[15] = gate.ctypes.data
        args[4] = 1
        row = n * noise.itemsize
        base = args[3]
        for j in range(steps):
            np.exp(gate, out=gate)
            args[3] = base + j * row
            args[16] = step0 + j
            if c_fn(*args) == 0:
                return j
        return steps

    return network_chunk


def load_c_kernels() -> dict:
    """The C twins by the name of the numpy kernel they follow; empty when
    no C compiler can build them."""
    lib = _load_c_library()
    if lib is None:
        return {}
    return {"fp_chunk": _c_fp_chunk(lib), "network_chunk": _c_network_chunk(lib)}
