"""Reference implementations the tests hold the package against: an
Euler-Maruyama step that sums the interaction over every pair of agents,
for plain drift and interaction callables, and scalar loop transcriptions
of the network and Fokker-Planck kernels. They are slow (O(N^2) per step,
or one Python operation per agent and cell) and meant for tiny sizes.
Below them, small helpers that only tests need: a network's input at a
point, the chemical family's balance voltages in closed form, a density
from grid values, and a two-group split of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from balancenet.pde import Grid1D

# ---------------------------------------------------------------------------
# pairwise Euler-Maruyama step
# ---------------------------------------------------------------------------


class BlowupError(ArithmeticError):
    """A step left a coordinate non-finite."""


@dataclass(frozen=True, eq=False)
class PairwiseModel:
    """An interacting network given by callables: drift(p, x) is the
    intrinsic drift of an agent of population p at state x, and
    interaction(p, q, x, y) the action b_pq(x, y) of a source agent at y in
    population q on a target at x in population p. coupling[p, q] is
    target-major, gamma multiplies the population-averaged interaction, and
    sigmas[p] is population p's (d, channels) noise loading."""

    offsets: np.ndarray
    coupling: np.ndarray
    gamma: float
    sigmas: tuple[np.ndarray, ...]
    drift: Callable
    interaction: Callable


def family_callables(params) -> tuple[Callable, Callable]:
    """drift(p, x) and interaction(p, q, x, y) of a built-in family, read
    off its fhn_constants() and source_maps()."""
    f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = params.fhn_constants()
    maps = params.source_maps()

    def drift(p, x):
        out = [((f3 * x[0] + f2) * x[0] + f1) * x[0] + f0 - x[1], a * (b * x[0] - x[1] + c)]
        if len(x) > 2:
            gate = gain / (1.0 + np.exp((theta - x[0]) * inv_slope))
            out.append(gate * (1.0 - x[2]) - x[2] * inv_tau)
        return np.array(out, dtype=float)

    def interaction(p, q, x, y):
        alpha, beta = maps(y)
        out = np.zeros(len(x))
        out[0] = alpha[q] * x[0] + beta[q]
        return out

    return drift, interaction


def pairwise_model(model) -> PairwiseModel:
    """The PairwiseModel of a built-in NetworkModel: one noise channel per
    agent, loaded onto the voltage with the family's sigma."""
    drift, interaction = family_callables(model.params)
    sigma = np.zeros((model.dim, 1))
    sigma[0, 0] = model.params.sigma
    offsets = np.arange(model.n_populations + 1) * model.n
    return PairwiseModel(offsets, model.coupling, model.gamma(),
                         (sigma,) * model.n_populations, drift, interaction)


def pairwise_input(model: PairwiseModel, p: int, x, blocks) -> np.ndarray:
    """sum_q coupling[p, q] mean_j interaction(p, q, x, y_j) over the agents
    y_j of each blocks[q], before the gamma factor. Each coordinate is summed
    exactly rounded (math.fsum), so permuting the agents of a population
    leaves it unchanged."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for q, Y in enumerate(blocks):
        contrib = np.stack([model.interaction(p, q, x, y) for y in Y])
        acc = np.array([math.fsum(contrib[:, k]) for k in range(x.shape[0])])
        out += model.coupling[p, q] * acc / Y.shape[0]
    return out


def pairwise_step(states: np.ndarray, model: PairwiseModel, dt: float,
                  noise: np.ndarray) -> np.ndarray:
    """One explicit step of every agent of the (N, d) states, population p
    in rows model.offsets[p]:model.offsets[p + 1]; noise holds (N, channels)
    standard normals. Returns the new states and raises BlowupError when an
    updated coordinate is non-finite."""
    offsets = model.offsets
    blocks = [states[offsets[q]:offsets[q + 1]] for q in range(len(offsets) - 1)]
    new = np.empty_like(states)
    sq = math.sqrt(dt)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, X in enumerate(blocks):
            lo, hi = offsets[p], offsets[p + 1]
            drift = np.stack([model.drift(p, x) + model.gamma * pairwise_input(model, p, x, blocks)
                              for x in X])
            xi = np.atleast_2d(noise[lo:hi])
            new[lo:hi] = X + drift * dt + sq * (xi @ model.sigmas[p].T)
    if not np.isfinite(new).all():
        raise BlowupError("non-finite state after the step")
    return new


# ---------------------------------------------------------------------------
# scalar loops of the kernels in balancenet._kernels
# ---------------------------------------------------------------------------


def network_chunk_loop(states, noise, dt, coef, alpha0, alpha1, beta0, beta1, fhn, sig):
    """network_chunk agent by agent, without recording; True when the
    states stayed finite."""
    f3, f2, f1, f0, a, b, c, inv_tau, gain, theta, inv_slope = fhn
    npop = coef.shape[0]
    n = states.shape[0] // npop
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
                for i in range(q * n, (q + 1) * n):
                    m += states[i, k]
                m /= n
                al += alpha1[q, k] * m
                be += beta1[q, k] * m
            for p in range(npop):
                A[p] += coef[p, q] * al
                B[p] += coef[p, q] * be
        for p in range(npop):
            for i in range(p * n, (p + 1) * n):
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


def fp_chunk_loop(mu, flux, f_face, alpha_face, beta_w, inv_eps, half_sig2,
                  dx, dt, nsteps, i_out):
    """fp_chunk cell by cell, without the negativity stop."""
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
# helpers that only tests need
# ---------------------------------------------------------------------------


def net_input(model, p: int, x, means) -> np.ndarray:
    """sum_q g_pq * mean_y b_pq(x, y) against an empirical measure with
    population means means, (P, d) (the un-gamma-scaled drift contribution
    of the network)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    A, B = model.affine_coefficients(means)
    out[0] = A[p] * x[0] + B[p]
    return out


def closed_form_balance(ghat, E_E: float, E_I: float, sbar_E: float,
                        sbar_I: float) -> tuple[float, float]:
    """The balance voltages of the two-population conductance model from
    its source-major signed conductances ghat[q][b] (source q onto target
    b; the transpose of NetworkModel.coupling), reversal potentials and
    mean gates:

        x*_b = (ghat[E,b] E_E sbar_E + ghat[I,b] E_I sbar_I)
               / (ghat[E,b] sbar_E + ghat[I,b] sbar_I)."""
    (gEE, gEI), (gIE, gII) = ghat
    return tuple(float((gE * E_E * sbar_E + gI * E_I * sbar_I) / (gE * sbar_E + gI * sbar_I))
                 for gE, gI in ((gEE, gIE), (gEI, gII)))


def density_from_values(grid: Grid1D, values, normalize: bool = True) -> np.ndarray:
    """A density on grid, an (M,) array, from nonnegative values,
    normalized to unit mass."""
    v = np.array(values, dtype=float)
    if v.shape != (grid.M,):
        raise ValueError(f"density values must have shape ({grid.M},)")
    if (v < 0).any():
        raise ValueError("density values must be nonnegative")
    if normalize:
        v /= v.sum() * grid.dx
    mass = v.sum() * grid.dx
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"density mass {mass} is not 1 within 1e-8")
    return v


def cluster_split(samples, pivot: float) -> tuple[float, float, float]:
    """(fraction at or above pivot, fraction below, minimal distance of any
    sample to the pivot)."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    above = float(np.count_nonzero(s >= pivot)) / s.size
    gap = float(np.min(np.abs(s - pivot)))
    return above, 1.0 - above, gap
