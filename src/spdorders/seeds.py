"""Deterministic random streams: per-sample generators derived from a
master seed and sample indices, their seeds hashed for many samples at
once, and the stacked draws that read one generator per row."""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatch, InvalidParameters


def derive_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-sample generator from a master seed and sample indices.

    The stream depends only on (seed, indices), never on execution order,
    so batch loops may run concurrently without changing aggregates.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(i) & 0xFFFFFFFFFFFFFFFF for i in indices]
    return np.random.default_rng(entropy)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), ported to
# uint32 arrays so that every row is hashed at once.  Its multipliers walk
# fixed sequences that never depend on the entropy, so all rows share them.
_MASK32 = 0xFFFFFFFF
_MIX_A, _MIX_B = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# generate_state's, for 8 uint32 words: word i hashes pool word i % 4 with constants i (xor) and i + 1 (multiplier)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_STATE_XOR, _STATE_MULT = _STATE_CONSTANTS[:8].reshape(2, 4, 1), _STATE_CONSTANTS[1:].reshape(2, 4, 1)


@cache
def _pool_constants(width: int) -> np.ndarray:
    """mix_entropy's (xor, multiplier) hash constants for width words, read-only
    (stages, 2, 4, 1), per stage on the 4 pool words: the pool words' first hashes,
    each pool word's into the other three (its own pair unread), and each word
    past the pool's into all four."""
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * (width - 4))
    words = np.arange(4)
    starts = np.array([words] + [4 + 3 * src + words - (words >= src) for src in range(4)]
                      + [4 * src + words for src in range(4, width)])
    pairs = consts[np.stack((starts, starts + 1), axis=1)][..., None]
    pairs.flags.writeable = False
    return pairs


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of v, broadcast against its constants."""
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_A * x - _MIX_B * y
    return r ^ (r >> _SHIFT)


def derive_seed_words(seed: int, indices) -> np.ndarray:
    """PCG64 seed words of derive_rng(seed, *row) for each row of a (k, m)
    integer array, hashed in one pass; returns a (k, 4) uint64 array for
    seeded_rngs.

    Entries wrap to 64 bits as in derive_rng, and each splits into one
    uint32 word, or two when it is >= 2^32, so rows may differ in length;
    words past the 4-word pool get SeedSequence's extra mixing rounds.
    """
    idx = np.asarray(indices)
    if idx.ndim != 2:
        raise DimensionMismatch(f"expected a (k, m) array of indices, got shape {idx.shape}")
    values = np.empty((idx.shape[0], idx.shape[1] + 1), dtype=np.uint64)
    values[:, 0] = int(seed) & 0xFFFFFFFFFFFFFFFF
    values[:, 1:] = idx.astype(np.uint64)
    low, high = (values & np.uint64(_MASK32)).astype(np.uint32), (values >> np.uint64(32)).astype(np.uint32)
    lengths = np.full(len(values), values.shape[1])
    words = low
    if high.any():  # interleave the high words and move the zero ones to the row ends
        keep = np.stack([np.ones_like(high, dtype=bool), high != 0], axis=2).reshape(len(values), -1)
        words = np.stack([low, high], axis=2).reshape(keep.shape)
        words = np.take_along_axis(words, np.argsort(~keep, axis=1, kind="stable"), axis=1)
        lengths = keep.sum(axis=1)
    width = max(int(lengths.max(initial=0)), 4)
    # word-major: every operation runs along the k rows, not along a row's few words
    entropy = np.zeros((width, len(values)), dtype=np.uint32)  # zero words pad to the pool size
    entropy[:words.shape[1]] = words[:, :width].T
    stages = _pool_constants(width)
    pool = _hashmix(entropy[:4], *stages[0])
    for src in range(4):  # hashmix(pool[src]) into each other pool word, in order
        mixed = _mix(pool, _hashmix(pool[src], *stages[1 + src]))
        mixed[src] = pool[src]  # pool[src] itself is not mixed
        pool = mixed
    for src in range(4, width):
        mixed = _mix(pool, _hashmix(entropy[src], *stages[1 + src]))
        pool = np.where(lengths > src, mixed, pool)
    state = _hashmix(pool, _STATE_XOR, _STATE_MULT).reshape(8, len(values))
    return np.ascontiguousarray(state.T).view(np.uint64)


@cache
def _seed_words_type():
    # numpy.random loads only when a generator is built, so that importing
    # the package (every CLI process) does not pay for it
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A row of derive_seed_words posing as the seed sequence PCG64 reads.
        It holds the shared array and the row index, not a view of the row:
        every generator keeps its seed sequence alive."""

        __slots__ = ("words", "row")

        def __init__(self, words, row):
            self.words, self.row = words, row

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise InvalidParameters("seed words answer only PCG64's request for 4 uint64 words")
            return self.words[self.row]

    return SeedWords


def seeded_rngs(words) -> list[np.random.Generator]:
    """One generator per row of derive_seed_words(seed, indices): row i
    draws the stream of derive_rng(seed, *indices[i])."""
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_type()
    return [Generator(PCG64(seed_words(words, row))) for row in range(len(words))]


def _uniforms(rngs, low: float, high: float) -> np.ndarray:
    """rng.uniform(low, high) from each generator, stacked, bit for bit: numpy's own
    low + (high - low) * random(), without uniform's per-call argument handling."""
    return low + (high - low) * np.array([rng.random() for rng in rngs])


def _standard_normals(rngs, shape) -> np.ndarray:
    """A standard normal draw of the given shape from each generator, stacked."""
    g = np.empty((len(rngs), *shape))
    for row, rng in zip(g, rngs):
        rng.standard_normal(shape, out=row)
    return g


def _random_syms(n: int, rngs, scale: float = 1.0) -> np.ndarray:
    """random_sym's draw from each generator, stacked: (k, n, n)."""
    g = _standard_normals(rngs, (n, n))
    return scale * 0.5 * (g + g.swapaxes(1, 2))
