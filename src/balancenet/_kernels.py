"""Hot inner loops: Euler-Maruyama chunks of the FitzHugh-Nagumo network,
the finite-volume Fokker-Planck update, the Hopf-Cole certificates of its
snapshots, the scalar RK4 of the frozen-measure early-time ODE, and the
text of a CSV body.

Each network or Fokker-Planck kernel is one vectorized numpy function that
updates its arrays in place and is bit-reproducible for identical inputs,
however a run is cut into chunks; ``rk4_affine`` steps one population's
voltage on Python floats, and ``csv_body`` formats values with ``repr`` and
``str``. Timings are measured by the benchmark in perfbench/ (see
perfbench/README.md).

``active(name)`` hands a kernel out by name. Both network families step
through the one network kernel; they keep their own keys so that traced
runs attribute its time to the family that called it. Both kernels have C
twins (``_network_chunk.c``, ``_fp_chunk.c``, bit-identical to the numpy
kernels) that ``_clib`` compiles for the host CPU into one library on the
first request, cached per user, together with the C twins of
``rng.normal_block`` (``_normal_block.c``), of ``snapshot_certificates``
(in ``_fp_chunk.c``), of ``rk4_affine`` (``_rk4_affine.c``) and of
``csv_body`` (``_csv_body.c``, the same text), which are fetched with
``c_twin`` rather than ``active``. ``c_twin`` hands
a twin out once it has matched its Python function on a fixed input;
without a working C compiler, for a twin that fails its check, or for the
network twin where numpy's own exp loop cannot be read (see
``_clib._exp_loop``), the Python function runs.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np

# ---------------------------------------------------------------------------
# FitzHugh-Nagumo network in affine form, state (x, y) or (x, y, s) per agent
# ---------------------------------------------------------------------------


def network_chunk(states, noise, dt, coef, alpha0, alpha1, beta0, beta1,
                  fhn, sig, step0=0, stride=0, means=None, stds=None, traces=None):
    """Advance ``noise.shape[0]`` Euler-Maruyama steps in place.

    states: (N, 2) voltage x and recovery y per agent, or (N, 3) with a
    synaptic gate s, stacked as P = coef.shape[0] equal blocks of n = N / P
    agents: population p holds rows p n to (p + 1) n - 1.
    noise: (steps, N) standard normals for the voltage.

    The network input on an agent of population p at voltage x is
    A_p x + B_p with A_p = sum_q coef[p, q] alpha_q, where
    alpha_q = alpha0[q] + alpha1[q] . ybar_q is read off the current mean
    state ybar_q of population q (B and beta likewise).

    fhn = (f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope), an
    (11,) array, gives the intrinsic drift x' = f(x) - y with the cubic
    f(x) = ((f3 x + f2) x + f1) x + f0, y' = a (b x - y + c) and
    s' = gain (1 - s) / (1 + exp((theta - x) inv_slope)) - s inv_tau.

    With stride > 0 the kernel records: after each step whose absolute
    number step0 + j + 1 is a multiple of stride, slot (step0 + j + 1) //
    stride of means, stds and traces (see record_slot).

    Stops at the first step that leaves a non-finite entry, with the states
    of that step; returns the number of steps before it (noise.shape[0]
    when all stayed finite).
    """
    f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = fhn.tolist()
    n_steps = noise.shape[0]
    N, d = states.shape
    P = coef.shape[0]
    n = N // P
    segs = [slice(p * n, (p + 1) * n) for p in range(P)]
    coef = coef.tolist()
    alpha0 = alpha0.tolist()
    beta0 = beta0.tolist()
    alpha1 = alpha1.tolist()
    beta1 = beta1.tolist()
    # the population means the source maps read, with their weights
    reads = [[(k, alpha1[q][k], beta1[q][k]) for k in range(d)
              if alpha1[q][k] or beta1[q][k]] for q in range(P)]
    # struct of arrays: each step writes fresh contiguous coordinates, and
    # the last step's go back into the columns of states
    cols = [states[:, k] for k in range(d)]
    sq = sig * math.sqrt(dt)
    ady = a * dt
    vx = np.empty(N)
    done = n_steps
    for step in range(n_steps):
        x, y = cols[0], cols[1]
        al = list(alpha0)
        be = list(beta0)
        for q, seg in enumerate(segs):
            for k, wa, wb in reads[q]:
                # the value of ndarray.mean, without its Python-level overhead
                m = float(cols[k][seg].sum()) / n
                al[q] += wa * m
                be[q] += wb * m
        for p, seg in enumerate(segs):
            A = 0.0
            B = 0.0
            for q, c_pq in enumerate(coef[p]):
                A += c_pq * al[q]
                B += c_pq * be[q]
            # f(x) + A x + B: the network input shifts the lower coefficients
            xs = x[seg]
            vs = vx[seg]
            np.multiply(xs, f3, out=vs)
            vs += f2
            vs *= xs
            vs += f1 + A
            vs *= xs
            vs += f0 + B
        vx -= y
        vx *= dt
        vx += sq * noise[step]
        incs = [vx, ady * (b * x - y + c)]
        if d > 2:
            s = cols[2]
            gate = gain / (1.0 + np.exp((theta - x) * inv_slope))
            incs.append((gate * (1.0 - s) - s * inv_tau) * dt)
        cols = [np.add(col, inc) for col, inc in zip(cols, incs)]
        if not all(np.isfinite(col).all() for col in cols):
            done = step
            break
        if stride > 0 and (step0 + step + 1) % stride == 0:
            record_slot(cols, n, (step0 + step + 1) // stride, means, stds, traces)
    for k, col in enumerate(cols):
        states[:, k] = col
    return done


def record_slot(cols, n, slot, means, stds, traces):
    """Record slot ``slot`` of a run whose d coordinates are the columns
    ``cols``, each (N,) (the rows of states.T, say), in P blocks of n
    agents: that slot of means and stds (P, slots, d) receives each
    population's col.mean() and col.std() of each coordinate (numpy's 1-D
    pairwise sums), and the same slot of traces (P, slots, k) its first k
    voltages (fewer in a smaller population)."""
    for p in range(means.shape[0]):
        seg = slice(p * n, (p + 1) * n)
        for k, coord in enumerate(cols):
            col = coord[seg]
            means[p, slot, k], stds[p, slot, k] = col.mean(), col.std()
        k_tr = min(traces.shape[2], n)
        traces[p, slot, :k_tr] = cols[0][seg][:k_tr]


# ---------------------------------------------------------------------------
# 1D conservative finite-volume drift-diffusion update
# ---------------------------------------------------------------------------


NEGATIVITY_FLOOR = -1e-12


def fp_chunk(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
             dx, dt, nsteps, i_out):
    """Advance the density up to ``nsteps`` explicit steps in place.

    Velocity on interior faces is f(x) - I(t)/eps * alpha(x) with I(t)
    recomputed from the start-of-step density (beta_w = beta(centers)*dx);
    first-order upwind advection, centered diffusion, no-flux boundaries.
    i_out receives the start-of-step interaction values. Stops at the first
    step that leaves a value below NEGATIVITY_FLOOR or a non-finite value;
    returns the number of steps before it (nsteps if none faults).

    I(t) is summed by ``ndarray.sum`` (pairwise, in an order fixed by the
    length alone), not by ``@``, whose BLAS order depends on the CPU; the C
    twin copies that order.
    """
    m = mu.shape[0]
    inv_dx = 1.0 / dx
    prod = np.empty(m)
    for s in range(nsteps):
        big_i = float(np.multiply(beta_w, mu, out=prod).sum())
        i_out[s] = big_i
        v = f_face[1:m] - (inv_eps * big_i) * alpha_face[1:m]
        up = np.where(v > 0.0, mu[:-1], mu[1:])
        flux[1:m] = v * up - half_sig2 * (mu[1:] - mu[:-1]) * inv_dx
        flux[0] = 0.0
        flux[m] = 0.0
        mu += (dt * inv_dx) * (flux[:m] - flux[1:])
        if not (mu.min() >= NEGATIVITY_FLOOR and mu.max() <= sys.float_info.max):
            return s
    return nsteps


# ---------------------------------------------------------------------------
# Hopf-Cole certificates of a Fokker-Planck run's snapshots
# ---------------------------------------------------------------------------


def _interior_gradient(v, interior, dx):
    """The centered differences of v over 2 dx on the interior cells of
    each row, NaN elsewhere, in a new array."""
    grad = np.full_like(v, np.nan)
    sel = interior[:, 1:-1]
    np.subtract(v[:, 2:], v[:, :-2], out=grad[:, 1:-1], where=sel)
    np.divide(grad[:, 1:-1], 2 * dx, out=grad[:, 1:-1], where=sel)
    return grad


def snapshot_certificates(phi, mask, lam, neg_alpha, big_i, slopes, floor, half_sig2, dx,
                          f2, later, excess, residual_sup, w_grad_sup):
    """Write the sup-norms that certify S snapshots of a transform phi
    (S, M), NaN off its mask (S, M, bool), snapshot s at I = big_i[s]:

    - excess[k, s], for each of the K slopes a = slopes[k], the max over the
      mask of phi + (a I) lam, with lam (M,) the antiderivative of alpha;
    - residual_sup[s], the max over the support core (interior cells where
      phi >= floor[s]) of |((-alpha) I) g - (g g) half_sig2|, with
      neg_alpha (M,) = -alpha and g the centered difference of phi;
    - w_grad_sup[s] for s >= later, the max over the interior of
      |centered difference of w = sqrt(f2 - phi)|.

    A cell is interior when it and both its neighbours lie in the mask;
    each centered difference is over 2 dx. A max over no cell is -inf, and
    so are the rows of w_grad_sup before later.

    It is not in IMPLEMENTATIONS, whose kernels perfbench's tracer counts
    as steps: ``hopfcole`` fetches its C twin with
    ``c_twin("snapshot_certificates")``.
    """
    interior = np.zeros_like(mask)
    interior[:, 1:-1] = mask[:, :-2] & mask[:, 1:-1] & mask[:, 2:]
    big_i = big_i[:, None]
    for k, a_const in enumerate(slopes.tolist()):
        np.max(phi + a_const * big_i * lam, axis=-1, where=mask, initial=-np.inf,
               out=excess[k])
    grad = _interior_gradient(phi, interior, dx)
    res = neg_alpha * big_i
    res *= grad
    grad *= grad                          # then grad's buffer holds the quadratic term
    grad *= half_sig2
    res -= grad
    core = interior & (phi >= floor[:, None])
    np.max(np.abs(res, out=res), axis=-1, where=core, initial=-np.inf, out=residual_sup)
    w = np.subtract(f2, phi[later:])      # then w = sqrt(f2 - phi) in place
    np.sqrt(w, out=w)
    grad = _interior_gradient(w, interior[later:], dx)
    w_grad_sup[:later] = -np.inf
    np.max(np.abs(grad, out=grad), axis=-1, where=interior[later:], initial=-np.inf,
           out=w_grad_sup[later:])


# ---------------------------------------------------------------------------
# frozen-measure early-time ODE, one population's voltage
# ---------------------------------------------------------------------------


def rk4_affine(a: float, b: float, x: float, dt: float, col: np.ndarray, last: int) -> int:
    """Classical RK4 for the scalar ODE x' = a x + b from x, written to
    col[1:last + 1]. It does the operations of a numpy RK4 loop over the
    (P, d) states in the same order, so it is bit-identical to it, but on
    Python floats: a fraction of a microsecond per step against ~20 numpy
    dispatches. Returns the first step whose value is non-finite, or last.

    It is not in IMPLEMENTATIONS, whose kernels perfbench's tracer counts
    as network steps: ``balance.integrate_early_ode`` fetches its C twin
    with ``c_twin("rk4_affine")``.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    for s in range(1, last + 1):
        k1 = a * x + b
        k2 = a * (x + half * k1) + b
        k3 = a * (x + half * k2) + b
        k4 = a * (x + dt * k3) + b
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        col[s] = x
        if not isfinite(x):
            return s
    return last


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    """A CSV value's text: a string as it is, an integer as str gives it,
    anything else as repr gives its float."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _format_column(col) -> list[str]:
    """format_value of each entry of a column, in one pass per column: a
    float array's entries are Python floats once listed, an integer
    array's Python ints."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return list(map(repr, col.astype(np.float64, copy=False).tolist()))
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return list(map(format_value, col))


CSV_FLOAT64, CSV_INT64 = 0, 1  # the column kinds of _csv_body.c


def csv_column_kind(col) -> int | None:
    """How csv_body's C twin takes a column: CSV_FLOAT64 for a 1-D float
    array (as its float64 values), CSV_INT64 for a 1-D integer array whose
    type int64 holds (any but uint64), else None."""
    if not isinstance(col, np.ndarray) or col.ndim != 1:
        return None
    kind = col.dtype.kind
    if kind == "f":
        return CSV_FLOAT64
    if kind == "i" or (kind == "u" and col.dtype.itemsize < 8):
        return CSV_INT64
    return None


def csv_body(columns) -> str:
    """The rows of a CSV of ``columns`` (arrays or sequences of values, cut
    to the shortest), each value formatted as format_value does, joined by
    commas, each row ending in LF.

    It is not in IMPLEMENTATIONS: ``harness.write_csv`` fetches its C twin
    with ``c_twin("csv_body")``, which takes only the columns that
    csv_column_kind gives a kind.
    """
    rows = list(map(",".join, zip(*map(_format_column, columns))))
    return "\n".join(rows) + "\n" if rows else ""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

IMPLEMENTATIONS = {
    "electrical_chunk": network_chunk,
    "chemical_chunk": network_chunk,
    "fp_chunk": fp_chunk,
}

_load_lock = threading.Lock()
_c_twins = None  # the C twins by numpy kernel name, once a kernel is requested


def _c_kernels() -> dict:
    global _c_twins
    with _load_lock:
        if _c_twins is None:
            # imported on the first request, so a process that steps no
            # kernel imports, builds and loads nothing for them
            from ._clib import load_c_kernels
            _c_twins = load_c_kernels()
        return _c_twins


def active(name: str):
    """Return the kernel registered under ``name``: its C twin, built or
    loaded on the first request, or the numpy kernel when no C compiler can
    build it."""
    impl = IMPLEMENTATIONS[name]
    return c_twin(impl.__name__) or impl


@functools.cache
def _passes_self_check(twin) -> bool:
    """Whether a C twin passes its self-check. A twin is checked once, on
    its first request rather than when the library loads, so a process
    that never asks for it pays nothing for it; the verdict is cached next
    to the library (see _clib._verdict)."""
    return twin.self_check()


def c_twin(name: str):
    """The C twin of the function named ``name`` ("network_chunk",
    "fp_chunk", "snapshot_certificates", "normal_block", "rk4_affine" or
    "csv_body"), built or
    loaded on the first request; None when there is none or it fails its
    self-check."""
    twin = _c_kernels().get(name)
    return twin if twin is not None and _passes_self_check(twin) else None


def numpy_target(ufunc: str) -> str | None:
    """The SIMD target numpy dispatches the float64 loop of ``ufunc``
    ("exp", "log") to ("X86_V4", "X86_V3", ...): its results, and so the
    bytes of a run that calls it (the chemical gate's exp, the
    Fokker-Planck kinds' exp and log), can differ between targets. None for
    numpy before 2.0, which has no numpy.lib.introspect to ask."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name=f"^{ufunc}$", signature="float64")
    return info.get(ufunc, {}).get("dd", {}).get("current")


def backend(kernel: str) -> str:
    """What runs for the function named ``kernel`` (see c_twin): "c" for
    its C twin, else "numpy" (for rk4_affine, Python floats; for
    csv_body, repr and str)."""
    return "c" if c_twin(kernel) is not None else "numpy"
