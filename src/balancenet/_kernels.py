"""Hot inner loops: Euler-Maruyama chunks of the FitzHugh-Nagumo network and
the finite-volume Fokker-Planck update.

Each kernel is one vectorized numpy function that updates its arrays in
place and is bit-reproducible for identical inputs, however a run is cut
into chunks. The scalar ``_*_loop`` twins transcribe the same updates agent
by agent; they are test oracles for tiny sizes only. Timings are measured
by the benchmark in perfbench/ (see perfbench/README.md).

``active(name)`` hands a kernel out by name. Both network families step
through the one network kernel; they keep their own keys so that traced
runs attribute its time to the family that called it.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# FitzHugh-Nagumo network in affine form, state (x, y) or (x, y, s) per agent
# ---------------------------------------------------------------------------


def network_chunk(states, noise, dt, offsets, coef, alpha0, alpha1, beta0, beta1,
                  fhn, sig):
    """Advance ``noise.shape[0]`` Euler-Maruyama steps in place.

    states: (N, 2) voltage x and recovery y per agent, or (N, 3) with a
    synaptic gate s; population p holds rows offsets[p]:offsets[p + 1].
    noise: (steps, N) standard normals for the voltage.

    The network input on an agent of population p at voltage x is
    A_p x + B_p with A_p = sum_q coef[p, q] alpha_q, where
    alpha_q = alpha0[q] + alpha1[q] . ybar_q is read off the current mean
    state ybar_q of population q (B and beta likewise).

    fhn = (f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope) gives
    the intrinsic drift x' = f(x) - y with the cubic
    f(x) = ((f3 x + f2) x + f1) x + f0, y' = a (b x - y + c) and
    s' = gain (1 - s) / (1 + exp((theta - x) inv_slope)) - s inv_tau.
    Returns True when all entries stayed finite.
    """
    f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = fhn
    n_steps = noise.shape[0]
    d = states.shape[1]
    offsets = offsets.tolist()
    segs = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    coef = coef.tolist()
    alpha0 = alpha0.tolist()
    beta0 = beta0.tolist()
    alpha1 = alpha1.tolist()
    beta1 = beta1.tolist()
    # the population means the source maps read, with their weights
    reads = [[(k, alpha1[q][k], beta1[q][k]) for k in range(d)
              if alpha1[q][k] or beta1[q][k]] for q in range(len(segs))]
    # struct of arrays: each step writes fresh contiguous coordinates, the
    # last one straight back into the columns of states
    cols = [states[:, k] for k in range(d)]
    sq = sig * math.sqrt(dt)
    ady = a * dt
    vx = np.empty(states.shape[0])
    for step in range(n_steps):
        x, y = cols[0], cols[1]
        al = list(alpha0)
        be = list(beta0)
        for q, seg in enumerate(segs):
            for k, wa, wb in reads[q]:
                # the value of ndarray.mean, without its Python-level overhead
                m = float(cols[k][seg].sum()) / (seg.stop - seg.start)
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
        last = step == n_steps - 1
        for k in range(d):
            cols[k] = np.add(cols[k], incs[k], out=states[:, k] if last else None)
    return bool(np.isfinite(states).all())


def _network_chunk_loop(states, noise, dt, offsets, coef, alpha0, alpha1, beta0, beta1,
                        fhn, sig):
    f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = fhn
    npop = offsets.shape[0] - 1
    d = states.shape[1]
    sq = math.sqrt(dt)
    A = np.empty(npop)
    B = np.empty(npop)
    for step in range(noise.shape[0]):
        A[:] = 0.0
        B[:] = 0.0
        for q in range(npop):
            al = alpha0[q]
            be = beta0[q]
            for k in range(d):
                m = 0.0
                for i in range(offsets[q], offsets[q + 1]):
                    m += states[i, k]
                m /= offsets[q + 1] - offsets[q]
                al += alpha1[q, k] * m
                be += beta1[q, k] * m
            for p in range(npop):
                A[p] += coef[p, q] * al
                B[p] += coef[p, q] * be
        for p in range(npop):
            for i in range(offsets[p], offsets[p + 1]):
                x = states[i, 0]
                y = states[i, 1]
                fx = ((f3 * x + f2) * x + f1) * x + f0
                states[i, 0] = x + (fx - y + A[p] * x + B[p]) * dt + sig * sq * noise[step, i]
                states[i, 1] = y + a * (b * x - y + c) * dt
                if d > 2:
                    sv = states[i, 2]
                    gate = gain / (1.0 + math.exp((theta - x) * inv_slope))
                    states[i, 2] = sv + (gate * (1.0 - sv) - sv * inv_tau) * dt
    return bool(np.all(np.isfinite(states)))


# ---------------------------------------------------------------------------
# 1D conservative finite-volume drift-diffusion update
# ---------------------------------------------------------------------------


def fp_chunk(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
             dx, dt, nsteps, i_out):
    """Advance the density ``nsteps`` explicit steps in place.

    Velocity on interior faces is f(x) - I(t)/eps * alpha(x) with I(t)
    recomputed from the start-of-step density (beta_w = beta(centers)*dx);
    first-order upwind advection, centered diffusion, no-flux boundaries.
    i_out receives the start-of-step interaction values.
    """
    m = mu.shape[0]
    inv_dx = 1.0 / dx
    for s in range(nsteps):
        big_i = float(beta_w @ mu)
        i_out[s] = big_i
        v = f_face[1:m] - (inv_eps * big_i) * alpha_face[1:m]
        up = np.where(v > 0.0, mu[:-1], mu[1:])
        flux[1:m] = v * up - half_sig2 * (mu[1:] - mu[:-1]) * inv_dx
        flux[0] = 0.0
        flux[m] = 0.0
        mu += (dt * inv_dx) * (flux[:m] - flux[1:])


def _fp_chunk_loop(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
                   dx, dt, nsteps, i_out):
    m = mu.shape[0]
    inv_dx = 1.0 / dx
    for s in range(nsteps):
        big_i = 0.0
        for j in range(m):
            big_i += beta_w[j] * mu[j]
        i_out[s] = big_i
        ie = inv_eps * big_i
        flux[0] = 0.0
        flux[m] = 0.0
        for f in range(1, m):
            v = f_face[f] - ie * alpha_face[f]
            if v > 0.0:
                adv = v * mu[f - 1]
            else:
                adv = v * mu[f]
            flux[f] = adv - half_sig2 * (mu[f] - mu[f - 1]) * inv_dx
        for j in range(m):
            mu[j] += dt * inv_dx * (flux[j] - flux[j + 1])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

IMPLEMENTATIONS = {
    "electrical_chunk": network_chunk,
    "chemical_chunk": network_chunk,
    "fp_chunk": fp_chunk,
}


def active(name: str):
    """Return the kernel registered under ``name``."""
    return IMPLEMENTATIONS[name]
