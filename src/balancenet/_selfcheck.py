"""The self-checks of the C twins that ``_clib`` builds: each runs a twin
and the Python function it follows on a fixed input and compares the
results bit for bit, or the CSV text byte for byte. ``_clib._verdict``
imports this module only when a verdict is not cached yet, so a warm
process neither runs nor compiles these checks.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import csv_body, fp_chunk, network_chunk, rk4_affine
from .models import conductance_source_maps

# the self-check's stream: its 65,536 draws take both slow paths of the
# ziggurat, 18 tails and 952 wedge tests
_CHECK_KEY = (0x243F6A8885A308D3, 0x13198A2E03707344)
_CHECK_DRAWS = 1 << 16
# a stream whose word 2047, the last of the C fill's first batch, is a
# rejected candidate, so its wedge test reads the next batch's first word
_EDGE_KEY = (33, 0)
_EDGE_DRAWS = 4096
# its first 2,019 draws read words 0 .. 2048, the last one across that
# batch edge, so a piece of that many draws stops at word 2049, inside a
# block of four words, and the next piece resumes there
_SPLIT_DRAWS = 2019


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # compared as bits: -0.0 and 0.0, or two NaNs, would pass as floats
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _wave(shape, phase: float) -> np.ndarray:
    """A fixed input that needs no random stream: sin(0.7 i + phase)."""
    return np.sin(np.arange(math.prod(shape)) * 0.7 + phase).reshape(shape)


def _check_normal_block(fill) -> bool:
    """Whether the C fill draws numpy's normals for two fixed keys, and for
    the second one also in two pieces, the second resuming the stream where
    the first stopped, so that tables, a libm, a batch edge or a resumed
    stream that do not match the running numpy leave the noise to numpy."""
    from .rng import _generator

    for key, n in ((_CHECK_KEY, _CHECK_DRAWS), (_EDGE_KEY, _EDGE_DRAWS)):
        out = np.empty(n)
        fill(*key, out)
        if not _same_bits(out, _generator(key).standard_normal(n)):
            return False
    pieces = np.empty(_EDGE_DRAWS)
    word = fill(*_EDGE_KEY, pieces[:_SPLIT_DRAWS])
    fill(*_EDGE_KEY, pieces[_SPLIT_DRAWS:], word)
    return _same_bits(pieces, out)


def _network_cases():
    """Fixed network_chunk arguments for both families: 130 electrical
    agents recorded every step, and chemical populations of 7 and 129
    agents recorded every third step, once in mid-call. The sizes lie on
    both sides of the 8- and 128-term edges of numpy's pairwise sum. Two
    chemical agents start with gate arguments past exp's range, above 710
    (exp overflows to inf) and below -746 (it underflows to 0)."""
    n = 130
    yield [2.0 * _wave((n, 2), 0.1), _wave((4, n), 0.2), 1e-3, np.array([0, n]),
           np.array([[30.0]]), np.array([-1.0]), np.zeros((1, 2)), np.zeros(1),
           np.array([[1.0, 0.0]]), (-1.0, 5.0, -4.0, 4.0, 0.005, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0),
           1.0, 0, 1, np.full((1, 5, 2), np.nan), np.full((1, 5, 2), np.nan),
           np.full((1, 5, 3), np.nan)]
    n = 136
    states = 1.0 + _wave((n, 3), 0.3)
    states[:, 2] = 0.5 + 0.4 * _wave((n,), 0.4)
    states[[3, 100], 0] = -720.0, 750.0  # theta - x = 718 and -752
    maps = conductance_source_maps([1.0, -1.0])
    yield [states, _wave((4, n), 0.5), 1e-4, np.array([0, 7, n]),
           20.0 * np.array([[0.3, -1.0], [2.0, -10.0]]),
           maps.alpha0, maps.alpha1, maps.beta0, maps.beta1,
           (-1.0, 1.3, -0.3, 0.0, 0.4, 1.5, 1.0, 0.5, 1.0, -2.0, 1.0), 1.0, 1, 3,
           np.full((2, 2, 3), np.nan), np.full((2, 2, 3), np.nan), np.full((2, 2, 2), np.nan)]


def _check_network_chunk(twin) -> bool:
    """Whether the C network_chunk steps and records the fixed cases as the
    numpy kernel does, in every bit."""
    for args in _network_cases():
        copy = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        with np.errstate(over="ignore"):  # the gates past exp's range
            if twin(*args) != network_chunk(*copy):
                return False
        if not all(_same_bits(a, b) for a, b in zip(args, copy) if isinstance(a, np.ndarray)):
            return False
    return True


def _fp_case(m: int) -> list:
    """Fixed fp_chunk arguments on m cells, three steps at half the CFL
    step, with velocities of both signs."""
    dx = 8.0 / m
    mu = 1.2 + _wave((m,), 0.6)
    mu /= mu.sum() * dx
    f_face = 3.0 * _wave((m + 1,), 0.7)
    alpha_face = _wave((m + 1,), 2.3)
    beta_w = (1.0 + 0.5 * _wave((m,), 0.8)) * dx
    inv_eps, half_sig2 = 2.5, 0.5
    vmax = 3.0 + inv_eps * 1.5
    dt = 0.5 / (vmax / dx + 2.0 * half_sig2 / dx ** 2)
    return [mu, np.zeros(m + 1), f_face, alpha_face, beta_w, inv_eps, half_sig2, dx, dt, 3,
            np.zeros(3)]


def _check_fp_chunk(twin) -> bool:
    """Whether the C fp_chunk updates the fixed grids of 7, 100 and 1000
    cells (both sides of numpy's 8- and 128-term pairwise-sum edges) as the
    numpy kernel does, in every bit."""
    for m in (7, 100, 1000):
        args, copy = _fp_case(m), _fp_case(m)
        if twin(*args) != fp_chunk(*copy):
            return False
        if not all(_same_bits(args[i], copy[i]) for i in (0, 1, 10)):
            return False
    return True


# (a, b, x, dt, last, width): a decaying and a growing solution, one that
# overflows to inf at step 169 of 400, and one from a NaN; each is written
# to column width // 2 of a NaN-filled (last + 1, width) array
_RK4_CASES = ((-3.7, 1.2, 0.4, 1e-2, 500, 1), (250.0, -1.0, 0.3, 1e-3, 400, 3),
              (50.0, 1.0, 1.0, 0.1, 400, 3), (-2.0, 0.5, math.nan, 1e-2, 5, 2))


def _check_rk4_affine(twin) -> bool:
    """Whether the C rk4_affine writes the fixed cases' columns and stops
    at the same step as the Python loop, in every bit, leaving the rest of
    each array (row 0 and the other columns) as it was."""
    for a, b, x, dt, last, width in _RK4_CASES:
        out, ref = np.full((last + 1, width), np.nan), np.full((last + 1, width), np.nan)
        col = width // 2
        if twin(a, b, x, dt, out[:, col], last) != rk4_affine(a, b, x, dt, ref[:, col], last):
            return False
        if not _same_bits(out, ref):
            return False
    return True


def _splitmix64(n: int, seed: int) -> np.ndarray:
    """n words of SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) from
    seed: fixed bit patterns that need no random stream."""
    # array arithmetic on uint64 wraps modulo 2^64, as SplitMix64 needs
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _csv_cases():
    """Fixed csv_body arguments: every power of two from 2^-1074 to
    2^1023; the 4,095 smallest and the 4,095 largest subnormals; every
    power of ten with its two neighbours, among them both switches between
    positional and exponent form (1e-4 and 1e16); all these negated; zeros,
    infinities and NaNs (payloads too) of both signs; 65,536 fixed bit
    patterns; and int64's extremes, 10^k - 1, 10^k and fixed patterns.
    The last case takes strided, reversed and shorter columns, its rows cut
    to the shortest."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    low = np.arange(1, 1 << 12, dtype=np.uint64)
    subnormals = np.concatenate([low, np.uint64(1 << 52) - low]).view(np.float64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf)])
    special = np.array([0x0, 0x7FF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
                        0x7FFFFFFFFFFFFFFF, 0x7FF4000000000000], dtype=np.uint64).view(np.float64)
    floats = np.concatenate([powers, subnormals, near, special])
    floats = np.concatenate([floats, -floats, _splitmix64(1 << 16, 0x3C6EF372FE94F82B)
                             .view(np.float64)])
    extremes = [-(1 << 63), -(1 << 63) + 1, -1, 0, 1, (1 << 63) - 2, (1 << 63) - 1]
    decades = [s * v for k in range(19) for v in (10 ** k - 1, 10 ** k) for s in (1, -1)]
    ints = np.concatenate([np.array(extremes + decades, dtype=np.int64),
                           _splitmix64(4096, 0xA54FF53A5F1D36F1).view(np.int64)])
    yield [floats]
    yield [ints]
    table = floats[:3 * 4096].reshape(-1, 3)
    yield [ints[:3000], table[:, 1], floats[::-7], table[:, 2][::-1], ints[::5]]


def _check_csv_body(twin) -> bool:
    """Whether the C csv_body writes the fixed cases as repr and str do,
    byte for byte."""
    return all(twin(columns) == csv_body(columns) for columns in _csv_cases())


CHECKS = {"fp_chunk": _check_fp_chunk, "network_chunk": _check_network_chunk,
          "normal_block": _check_normal_block, "rk4_affine": _check_rk4_affine,
          "csv_body": _check_csv_body}
