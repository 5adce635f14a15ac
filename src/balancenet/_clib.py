"""The C twins of ``_kernels.fp_chunk``, ``_kernels.snapshot_certificates``,
``_kernels.network_chunk``, ``_kernels.rk4_affine``, ``_kernels.csv_body``
and ``rng.normal_block``: build, cache, load, wrap and check.

``_fp_chunk.c``, ``_network_chunk.c``, ``_normal_block.c``,
``_rk4_affine.c`` and ``_csv_body.c`` are compiled together with ``cc -O3
-march=native -ffp-contract=off -shared -fPIC`` into one library in
``$XDG_CACHE_HOME/balancenet`` (default ``~/.cache/balancenet``), built for
the host CPU's vector unit. Its name is keyed by the sha256 of the
sources, the flags, the resolved path, size and mtime of the compiler
binary, the platform and the host CPU (its model and feature flags), so
later processes find it with a few ``stat`` calls and load it without
compiling or running the compiler, and a cache shared between machines
never loads a library built for another CPU. An unwritable cache gets a
private build under the temporary directory. The library is called
through ``ctypes``, which releases the GIL during each call. ``_kernels``
imports this module on the first kernel request.

The chemical family's gate needs numpy's exp, whose last bit differs from
libm's on some CPUs. ``network_chunk`` therefore calls the float64 inner
loop of the ``np.exp`` ufunc itself, read off the ufunc object (see
_exp_loop), so a whole noise block of either family is one C call. Where
that loop cannot be read safely, the numpy kernel runs.

Wider vectors change no result: without -ffast-math the compiler may not
reassociate a sum, and -ffp-contract=off forbids fused multiply-adds. The
normal fill's AVX-512 branch, written with intrinsics and compiled where
-march=native enables AVX-512F and AVX-512DQ, is integer arithmetic and
the scalar branch's double operations, so it gives the same bits;
build_target records which branch was built. Each twin still proves it
once: its ``self_check()`` runs it and the Python function it follows on a
fixed input and compares the bits, or for ``csv_body`` the text (see
``_selfcheck``), and its verdict is kept in a small file next to the
library, keyed on the library, the Python and numpy versions, numpy's exp
target and the source text of the Python references and of the check, so
a warm process runs no check.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import sys
import threading
from pathlib import Path

import numpy as np

from ._kernels import CSV_FLOAT64, CSV_INT64, _c_kernels, csv_column_kind, numpy_target

_C_SOURCES = tuple(Path(__file__).with_name(name)
                   for name in ("_fp_chunk.c", "_network_chunk.c", "_normal_block.c",
                                "_rk4_affine.c", "_csv_body.c"))
C_TARGET = "native"  # the instruction set the library is built for: the host CPU's
_C_FLAGS = ("-O3", f"-march={C_TARGET}", "-ffp-contract=off", "-shared", "-fPIC")
_C_LIBS = ("-lm",)
# what a self-check compares a twin against: the Python kernels and the
# check's cases, read as text (not imported) to key its cached verdict
_CHECK_REFERENCES = tuple(Path(__file__).with_name(name)
                          for name in ("_kernels.py", "_selfcheck.py"))
# the libraries a build leaves in the cache, itself included
KEEP_LIBRARIES = 4


class _CompileError(Exception):
    """The compiler failed or timed out."""


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "balancenet"


@functools.cache
def cpu_identity() -> dict:
    """The host CPU as -march=native sees it: the model name and feature
    flags of the first processor in /proc/cpuinfo ("Features" on ARM), or
    platform.processor() where that file is missing or names neither."""
    fields = {}
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, sep, value = line.partition(":")
                if not sep:
                    break  # the blank line after the first processor
                if key.strip() in ("model name", "flags", "Features"):
                    fields[key.strip()] = value.strip()
    except OSError:
        pass
    return fields or {"processor": platform.processor()}


def _library_name(cc: str) -> str:
    """The cached library's file name, keyed by everything that decides its
    bits. The compiler is identified by its binary, not by asking it, so a
    cache hit starts no process; an upgrade replaces the binary and with it
    the key."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    key = hashlib.sha256("\0".join([
        *(src.read_text() for src in _C_SOURCES), " ".join(_C_FLAGS + _C_LIBS),
        real, str(st.st_size), str(st.st_mtime_ns),
        f"{sys.platform}-{platform.machine()}",
        *(f"{k}: {v}" for k, v in sorted(cpu_identity().items()))]).encode()).hexdigest()[:16]
    return f"kernels-{key}.so"


def _compile(cc: str, target: Path) -> None:
    """Compile the C sources to a fresh file next to ``target``, then
    publish it there atomically (os.replace), so that a concurrent reader
    sees either no library or a whole one. Raises _CompileError when the
    compiler fails."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_C_FLAGS, "-o", tmp, *map(str, _C_SOURCES), *_C_LIBS],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    except subprocess.SubprocessError as err:
        raise _CompileError(str(err)) from err
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(cache: Path, built: Path) -> None:
    """Delete all but the KEEP_LIBRARIES newest libraries (by mtime) in the
    cache, never the one just built, then every verdict whose library is
    gone. Half-written files (*.tmp) are left to their writers, and a file
    that cannot be removed is skipped. Only on POSIX, where a process that
    has loaded a library keeps it mapped after its file is unlinked."""
    if os.name != "posix":
        return

    def mtime(path: Path) -> int:
        try:
            return path.stat().st_mtime_ns
        except OSError:  # removed meanwhile
            return -1

    others = sorted((lib for lib in cache.glob("kernels-*.so") if lib != built),
                    key=mtime, reverse=True)
    for path in others[KEEP_LIBRARIES - 1:]:
        with contextlib.suppress(OSError):
            path.unlink()
    for verdict in cache.glob("*.verdict"):
        if not verdict.with_name(verdict.name.split(".", 1)[0] + ".so").exists():
            with contextlib.suppress(OSError):
                verdict.unlink()


def _load_c_library():
    """Load the compiled C twins, building them first if the cache lacks
    them. Returns (library, its path in the cache, or None for a private
    build), or None when there is no compiler or the build or load fails. A
    build into the cache prunes it (_prune); the caller holds
    _kernels._load_lock."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        name = _library_name(cc)
        try:
            cache = _cache_dir()
            cache.mkdir(parents=True, exist_ok=True)
            target = cache / name
            if not target.exists():
                _compile(cc, target)
                with contextlib.suppress(OSError):  # an unreadable cache stays as it is
                    _prune(cache, target)
            return ctypes.CDLL(str(target)), target
        except OSError:
            import tempfile

            # an unwritable cache: build a private copy, unlinked once loaded
            with tempfile.TemporaryDirectory(prefix="balancenet-") as tmp:
                target = Path(tmp) / name
                _compile(cc, target)
                return ctypes.CDLL(str(target)), None
    except (OSError, _CompileError):
        return None


def _address(twin: str, a: np.ndarray, shape: tuple | None, writeable: bool = False,
             dtype=np.float64) -> int:
    """The data address of a C-contiguous array of ``dtype`` and ``shape``
    (any shape when None), checked for the C twin ``twin`` before it reads."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and (shape is None or a.shape == shape)
            and a.flags.c_contiguous and (a.flags.writeable or not writeable)):
        raise ValueError(f"{twin}: expected a {'writeable ' * writeable}C-contiguous "
                         f"{np.dtype(dtype)} array{f' of shape {shape}' if shape else ''}")
    return a.ctypes.data


def _c_fp_chunk(lib):
    """Wrap the C ``fp_chunk`` of ``lib`` in the numpy kernel's signature."""
    c_fn = lib.fp_chunk
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    c_fn.argtypes = [ptr, ptr, ptr, ptr, ptr, long_, double, double, double, double, long_, ptr]
    c_fn.restype = long_
    address = functools.partial(_address, "fp_chunk")

    def fp_chunk(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
                 dx, dt, nsteps, i_out):
        """The numpy ``fp_chunk`` in C: same arguments, same result bits."""
        m = mu.shape[0]
        if not 0 <= nsteps <= i_out.size:
            raise ValueError("fp_chunk: more steps than interaction slots")
        return c_fn(address(mu, (m,), True), address(flux, (m + 1,), True),
                    address(f_face, (m + 1,)), address(alpha_face, (m + 1,)),
                    address(beta_w, (m,)), m, inv_eps, half_sig2, dx, dt, nsteps,
                    address(i_out, (i_out.size,), True))

    return fp_chunk


def _c_snapshot_certificates(lib):
    """Wrap the C ``snapshot_certificates`` of ``lib`` in the numpy
    kernel's signature."""
    c_fn = lib.snapshot_certificates
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    c_fn.argtypes = [ptr, ptr, long_, long_, ptr, ptr, ptr, ptr, long_, ptr, double, double,
                     double, long_, ptr, ptr, ptr]
    c_fn.restype = None
    address = functools.partial(_address, "snapshot_certificates")

    def snapshot_certificates(phi, mask, lam, neg_alpha, big_i, slopes, floor, half_sig2, dx,
                              f2, later, excess, residual_sup, w_grad_sup):
        """The numpy ``snapshot_certificates`` in C: same arguments, same
        result bits."""
        if np.ndim(phi) != 2:
            raise ValueError("snapshot_certificates: expected (S, M) snapshots")
        s, m = np.shape(phi)
        k = np.size(slopes)
        if not 0 <= later <= s:
            raise ValueError(f"snapshot_certificates: first w-gradient row {later} outside "
                             f"[0, {s}]")
        c_fn(address(phi, (s, m)), address(mask, (s, m), dtype=np.bool_), s, m,
             address(lam, (m,)), address(neg_alpha, (m,)), address(big_i, (s,)),
             address(slopes, (k,)), k, address(floor, (s,)), half_sig2, dx, f2, later,
             address(excess, (k, s), True), address(residual_sup, (s,), True),
             address(w_grad_sup, (s,), True))

    return snapshot_certificates


NPY_DOUBLE = 12  # numpy's type number of float64 (NPY_TYPES in ndarraytypes.h)


class _UFuncHead(ctypes.Structure):
    """The leading fields of numpy's PyUFuncObject, as the installed
    numpy/_core/include/numpy/ufuncobject.h declares them, after the
    object header (object.__basicsize__ bytes)."""

    _fields_ = [("ob_base", ctypes.c_char * object.__basicsize__),
                ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
                ("identity", ctypes.c_int),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_byte))]


def _exp_loop(ufunc) -> tuple[int, int | None] | None:
    """(address, data) of the float64 -> float64 inner loop of numpy's exp
    ufunc ``ufunc``: the loop numpy's dispatcher chose for this CPU at
    import, and so np.exp's bits. None on a free-threaded build ("t" in its
    ABI flags), and unless ``ufunc`` is a CPython ufunc object named "exp"
    with one input, one output and such a loop; each field is checked
    before the pointer after it is read."""
    if (sys.implementation.name != "cpython" or "t" in getattr(sys, "abiflags", "")
            or type(ufunc) is not np.ufunc
            or np.ufunc.__basicsize__ < ctypes.sizeof(_UFuncHead)):
        return None
    head = _UFuncHead.from_address(id(ufunc))
    if (head.nin, head.nout, head.nargs) != (1, 1, 2) or head.name != b"exp" \
            or not 0 < head.ntypes <= 256 or not (head.functions and head.data and head.types):
        return None
    for i in range(head.ntypes):
        if head.types[2 * i] == head.types[2 * i + 1] == NPY_DOUBLE:
            loop = head.functions[i]
            return None if loop is None else (loop, head.data[i])
    return None


def _c_network_chunk(lib, exp_loop: int, exp_data: int | None):
    """Wrap the C ``network_chunk`` of ``lib`` in the numpy kernel's
    signature. A whole call runs in C for either family; the chemical gate
    is exponentiated by numpy's own exp loop ``exp_loop`` (see _exp_loop),
    so it gets np.exp's bits."""
    c_fn = lib.network_chunk
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    c_fn.argtypes = [ptr, long_, long_, ptr, long_, double, long_, ptr, ptr, ptr, ptr, ptr,
                     ptr, double, ptr, ptr, ptr, long_, long_, long_, long_, ptr, ptr, ptr, ptr]
    c_fn.restype = long_
    address = functools.partial(_address, "network_chunk")

    def network_chunk(states, noise, dt, coef, alpha0, alpha1, beta0, beta1,
                      fhn, sig, step0=0, stride=0, means=None, stds=None, traces=None):
        """The numpy ``network_chunk`` in C: same arguments, same result bits."""
        n, d = states.shape
        steps = noise.shape[0]
        npop = len(coef)
        if d not in (2, 3) or npop < 1 or n < npop or n % npop:
            raise ValueError(f"network_chunk: expected (N, 2) or (N, 3) states in {npop} "
                             f"equal blocks, got {states.shape}")
        gate = np.empty(n) if d == 3 else None  # the C step's scratch for the gate
        args = [address(states, (n, d), writeable=True), n, d,
                address(noise, (steps, n)) if steps else None, steps, dt, npop,
                address(coef, (npop, npop)), address(alpha0, (npop,)),
                address(alpha1, (npop, d)), address(beta0, (npop,)),
                address(beta1, (npop, d)), address(fhn, (11,)), sig,
                None if gate is None else gate.ctypes.data,
                exp_loop, exp_data, step0, stride, 0, 0, None, None, None, None]
        if stride > 0:
            slots, k = means.shape[1], traces.shape[2]
            if (step0 + steps) // stride >= slots:
                raise ValueError("network_chunk: too few record slots")
            scratch = np.empty(n)  # the C record's squared deviations of a column
            args[19:] = [slots, k, address(means, (npop, slots, d), True),
                         address(stds, (npop, slots, d), True),
                         address(traces, (npop, slots, k), True) if k else None,
                         scratch.ctypes.data]
        return c_fn(*args)

    return network_chunk


def _c_normal_block(lib):
    """Wrap the C ``normal_block`` of ``lib`` as fill(key0, key1, out,
    start=0), which writes numpy's Generator(Philox(key=[key0,
    key1])).standard_normal into out, drawn from word ``start`` of the
    stream on, and returns the word after the last one it read. Its
    ``lanes`` is how many ziggurat candidates the build tests at once: 8
    where -march=native has AVX-512 (F and DQ), else 1."""
    c_fn = lib.normal_block
    c_fn.argtypes = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_void_p,
                     ctypes.c_long]
    c_fn.restype = ctypes.c_uint64

    def normal_block(key0, key1, out, start=0):
        """numpy's Philox standard normals for the key, in C: same bits."""
        address = _address("normal_block", out, None, True)
        if not 0 <= start < 2 ** 63:
            raise ValueError(f"normal_block: start word {start} outside [0, 2^63)")
        return c_fn(key0, key1, start, address, out.size)

    lib.normal_block_lanes.argtypes = []
    lib.normal_block_lanes.restype = ctypes.c_long
    normal_block.lanes = lib.normal_block_lanes()
    return normal_block


def _c_rk4_affine(lib):
    """Wrap the C ``rk4_affine`` of ``lib`` in the Python loop's signature;
    ``col`` may be a strided view, such as one column of a trajectory."""
    c_fn = lib.rk4_affine
    double = ctypes.c_double
    c_fn.argtypes = [double, double, double, double, ctypes.c_void_p, ctypes.c_long,
                     ctypes.c_long]
    c_fn.restype = ctypes.c_long

    def rk4_affine(a, b, x, dt, col, last):
        """The Python ``rk4_affine`` in C: same arguments, same result bits."""
        if not (isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
                and col.flags.writeable and col.flags.aligned
                and col.strides[0] % col.itemsize == 0 and 0 <= last < col.shape[0]):
            raise ValueError("rk4_affine: expected a writeable aligned float64 column of "
                             "more than last entries")
        return c_fn(a, b, x, dt, col.ctypes.data, col.strides[0] // col.itemsize, last)

    return rk4_affine


def _c_csv_body(lib):
    """Wrap the C ``csv_body`` of ``lib`` in the Python function's
    signature, for 1-D numeric columns (see _kernels.csv_column_kind). They
    are copied, cut to the shortest, into one row-major block of 64-bit
    words, so the C loop reads each row from one place."""
    c_fn = lib.csv_body
    ptr, long_ = ctypes.c_void_p, ctypes.c_long
    c_fn.argtypes = [long_, long_, ptr, ptr, ptr, long_]
    c_fn.restype = long_
    width = {CSV_FLOAT64: 24, CSV_INT64: 20}  # the most bytes a value takes

    def csv_body(columns):
        """The Python ``csv_body`` in C: same arguments, same text."""
        ncols = len(columns)
        kinds = list(map(csv_column_kind, columns))
        if None in kinds:
            raise ValueError("csv_body: expected 1-D float or integer (not uint64) arrays")
        rows = min((col.shape[0] for col in columns), default=0)
        block = np.empty((rows, ncols))
        words = {CSV_FLOAT64: block, CSV_INT64: block.view(np.int64)}
        for c, (kind, col) in enumerate(zip(kinds, columns)):
            words[kind][:, c] = col[:rows]
        out = np.empty(rows * sum(width[kind] + 1 for kind in kinds), dtype=np.uint8)
        codes = np.array(kinds, dtype=np.int64)
        written = c_fn(rows, ncols, codes.ctypes.data, block.ctypes.data, out.ctypes.data,
                       out.size)
        if written < 0:
            raise ValueError("csv_body: the rows did not fit their worst-case size")
        return str(out[:written].data, "ascii")

    return csv_body


_VERDICTS = {"pass\n": True, "fail\n": False}


def _verdict(name: str, twin, library: Path | None) -> bool:
    """Whether the twin of the Python function ``name`` passes its check in
    _selfcheck.CHECKS. The verdict is read from its file next to ``library``,
    keyed on the library, the Python and numpy versions (repr is Python's),
    numpy's exp target and the text of the Python references and the check
    (_CHECK_REFERENCES); when that file is missing or unreadable the check
    runs and its verdict is stored there. A private build (library None) is
    checked in every process."""
    path = None
    if library is not None:
        key = hashlib.sha256("\0".join([
            library.name, name, sys.version, np.__version__, str(numpy_target("exp")),
            *(ref.read_text() for ref in _CHECK_REFERENCES)]).encode()).hexdigest()[:16]
        path = library.with_name(f"{library.stem}.{name}.{key}.verdict")
        try:
            stored = _VERDICTS.get(path.read_text())
        except (OSError, ValueError):
            stored = None
        if stored is not None:
            return stored
    from ._selfcheck import CHECKS

    passed = CHECKS[name](twin)
    if path is not None:
        # published whole (os.replace), so a concurrent reader sees no part
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tmp.write_text("pass\n" if passed else "fail\n")
            os.replace(tmp, path)
        except OSError:  # an unwritable cache: the next process checks again
            with contextlib.suppress(OSError):
                tmp.unlink()
    return passed


def load_c_kernels() -> dict:
    """The C twins by the name of the Python function they follow, each with
    a ``self_check()`` (see _verdict); empty when no C compiler can build
    them, and without network_chunk when numpy's exp loop cannot be read."""
    loaded = _load_c_library()
    if loaded is None:
        return {}
    lib, path = loaded
    twins = {"fp_chunk": _c_fp_chunk(lib),
             "snapshot_certificates": _c_snapshot_certificates(lib),
             "normal_block": _c_normal_block(lib),
             "rk4_affine": _c_rk4_affine(lib), "csv_body": _c_csv_body(lib)}
    exp = _exp_loop(np.exp)
    if exp is not None:
        twins["network_chunk"] = _c_network_chunk(lib, *exp)
    for name, twin in twins.items():
        twin.self_check = functools.partial(_verdict, name, twin, path)
    return twins


def build_target() -> dict:
    """What the library was built for, as the manifest records it: the
    instruction set (C_TARGET), the host CPU's model and the normal fill's
    lanes (see _c_normal_block), which say whether its AVX-512 branch was
    compiled."""
    cpu = cpu_identity()
    return {"c_target": C_TARGET, "cpu": cpu.get("model name", cpu.get("processor")),
            "normal_block_lanes": _c_kernels()["normal_block"].lanes}
