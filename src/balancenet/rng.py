"""Counter-based random streams.

Every random draw in a run is a pure function of (seed, purpose, block
index, position in block). Blocks are generated from independent Philox
streams keyed by that tuple, so results never depend on thread count,
chunking of the integration loop, or generation order across runs.

Normal blocks are drawn by a C twin of numpy's Philox4x64 ziggurat
(``_normal_block.c``, see ``_kernels.c_twin``) once it is built and has
matched numpy's draws, else by numpy; both give the same bits. A block may
be drawn in pieces that resume the stream through a StreamCursor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import c_twin

# purpose ids; keep stable, they are part of the reproducibility contract
NOISE_STREAM = 0
INIT_STREAM = 1

PURPOSE_BITS = 16
BLOCK_BITS = 48


def _key(seed: int, purpose: int, block: int) -> tuple[int, int]:
    """The Philox key of a stream: the seed, then the purpose above the
    block index. The bounds keep two streams from sharing a key."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a u64, got {seed}")
    if not 0 <= purpose < 2**PURPOSE_BITS:
        raise ValueError(f"purpose must be in [0, 2^{PURPOSE_BITS}), got {purpose}")
    if not 0 <= block < 2**BLOCK_BITS:
        raise ValueError(f"block must be in [0, 2^{BLOCK_BITS}), got {block}")
    return int(seed), (int(purpose) << BLOCK_BITS) + int(block)


def _generator(key: tuple[int, int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass
class StreamCursor:
    """A place in one Philox stream: the number of its 64-bit words read so
    far. normal_block draws from there and moves the cursor past the words
    it read, so a block drawn in pieces through one cursor is the block
    drawn whole."""

    word: int = 0


def _numpy_fill(key0: int, key1: int, out: np.ndarray, start: int = 0) -> int:
    """numpy's normals for ``out`` from word ``start`` of the key's stream
    on, as the C fill draws them; returns the word after the last one
    read."""
    bits = np.random.Philox(key=np.array((key0, key1), dtype=np.uint64))
    if start >= 4:
        bits.advance(start // 4)
    if start % 4:
        bits.random_raw(start % 4)
    np.random.Generator(bits).standard_normal(out=out)
    state = bits.state
    # the last counter used made words 4 (counter - 1) .. 4 counter - 1
    return 4 * (int(state["state"]["counter"][0]) - 1) + int(state["buffer_pos"])


def normal_block(seed: int, purpose: int, block: int, shape: tuple[int, ...],
                 out: np.ndarray | None = None,
                 cursor: StreamCursor | None = None) -> np.ndarray:
    """Standard-normal draws for one block of the stream (seed, purpose,
    block), in C order; written into ``out``, a C-contiguous float64 array
    of that shape, when given. With a ``cursor`` the draws continue the
    stream where the cursor stands, and the cursor moves past them."""
    key = _key(seed, purpose, block)
    if out is None:
        out = np.empty(shape)
    elif out.shape != tuple(shape):
        raise ValueError(f"out has shape {out.shape}, not {tuple(shape)}")
    fill = c_twin("normal_block") or _numpy_fill
    stop = fill(*key, out, 0 if cursor is None else cursor.word)
    if cursor is not None:
        cursor.word = stop
    return out


def uniform_block(seed: int, purpose: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    return _generator(_key(seed, purpose, block)).random(shape)
