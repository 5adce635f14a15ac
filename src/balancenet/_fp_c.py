"""The C twin of ``_kernels.fp_chunk``: build, cache, load and wrap.

``_fp_chunk.c`` is compiled with ``cc -O2 -ffp-contract=off -shared -fPIC``
into ``$XDG_CACHE_HOME/balancenet`` (default ``~/.cache/balancenet``), under
a name keyed by the sha256 of the source, flags, compiler version and
platform, so later processes load it without compiling. An unwritable cache
gets a private build under the temporary directory. The library is called
through ``ctypes``, which releases the GIL during the call. ``_kernels``
imports this module on the first request for ``fp_chunk`` only.
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

_C_SOURCE = Path(__file__).with_name("_fp_chunk.c")
_C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "balancenet"


def _compile(cc: str, target: Path) -> None:
    """Compile the C source to a fresh file next to ``target``, then
    publish it there atomically (os.replace), so that a concurrent reader
    sees either no library or a whole one."""
    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_C_FLAGS, "-o", tmp, str(_C_SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_c_library():
    """Load the compiled C twin, building it first if the cache lacks it.
    Returns None when there is no compiler or the build or load fails."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        version = subprocess.run([cc, "--version"], check=True, capture_output=True,
                                 text=True, timeout=60).stdout
        key = hashlib.sha256("\0".join([
            _C_SOURCE.read_text(), " ".join(_C_FLAGS), version,
            sysconfig.get_platform()]).encode()).hexdigest()[:16]
        name = f"fp_chunk-{key}.so"
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


def load_fp_chunk():
    """The C ``fp_chunk``, or None when no C compiler can build it."""
    lib = _load_c_library()
    return _c_fp_chunk(lib) if lib is not None else None
