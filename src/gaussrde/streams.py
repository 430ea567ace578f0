"""Counter-based normal streams: sample k of a run draws from numpy's
default_rng([seed, k]), whatever batch it is drawn in.

default_rng([seed, k]) seeds a PCG64 with SeedSequence([seed, k])
.generate_state(4, np.uint64), a fixed sequence of 32-bit multiplies and
xor-shifts (O'Neill's seed_seq mixing).  Building one SeedSequence per
sample costs more than its draws, so `stream_states` runs that hash over a
batch's keys in one vectorised pass, with the same bits, and numpy seeds
each PCG64 from the words and draws from it.  numpy.random costs about
12 ms to import, so `gaussian.sample_paths` imports this module on its
first draw, not with the package.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence hash, with its pool of 4 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def standard_normals(seed: int, first: int, count: int, shape: tuple) -> np.ndarray:
    """(count, *shape) standard normals; row k is
    default_rng([seed, first + k]).standard_normal(shape), bit for bit."""
    z = np.empty((count, *shape))
    for k, words in enumerate(stream_states(seed, first, count)):
        Generator(PCG64(StateWords(words))).standard_normal(out=z[k])
    return z


class StateWords(ISeedSequence):
    """The seed words of one stream, as `stream_states` gives them, handed
    to PCG64 in place of the SeedSequence that would hash them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {self.words.size} {self.words.dtype} words")
        return self.words


def _entropy_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative integer: its 32-bit
    words, least significant first, and [0] for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"stream keys must be non-negative, got {value}")
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def stream_states(seed: int, first: int, count: int) -> np.ndarray:
    """Row k: the PCG64 seed words of sample first + k's stream, which are
    SeedSequence([seed, first + k]).generate_state(4, np.uint64), for all
    `count` keys in one vectorised pass of SeedSequence's hash."""
    seed_words = _entropy_words(seed)
    states = np.empty((count, 4), dtype=np.uint64)
    lo = operator.index(first)
    while lo < first + count:
        # a run of indices that differ only in their lowest word, so all keys
        # of the run have the same number of entropy words
        hi = min(first + count, ((lo >> 32) + 1) << 32)
        key = seed_words + _entropy_words(lo)
        key += [0] * (_POOL_SIZE - len(key))  # hashed as if padded with zero words
        entropy = np.tile(np.array(key, dtype=np.uint32), (hi - lo, 1))
        entropy[:, len(seed_words)] += np.arange(hi - lo, dtype=np.uint32)
        states[lo - first:hi - first] = _generate_state(_mix_entropy(entropy))
        lo = hi
    return states


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of a column of words under the hash constant
    `const`; returns the hashed words and the next constant, const * mult."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ value >> np.uint32(16), const


def _mix_entropy(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's pool of 4 words for each row of `entropy`, (keys,
    words) with at least 4 words."""
    with np.errstate(over="ignore"):
        const, pool = _INIT_A, []
        for i in range(_POOL_SIZE):
            value, const = _hashmix(entropy[:, i], const, _MULT_A)
            pool.append(value)
        # every pool word into every other, then each word beyond the pool's
        # size into every pool word
        sources = [(src, dst) for src in range(_POOL_SIZE)
                   for dst in range(_POOL_SIZE) if src != dst]
        sources += [(src, dst) for src in range(_POOL_SIZE, entropy.shape[1])
                    for dst in range(_POOL_SIZE)]
        for src, dst in sources:
            value, const = _hashmix(pool[src] if src < _POOL_SIZE else entropy[:, src],
                                    const, _MULT_A)
            mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * value
            pool[dst] = mixed ^ mixed >> np.uint32(16)
    return pool


def _generate_state(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) for each key of the pool:
    eight 32-bit words, paired little-endian into four 64-bit ones."""
    words, const = [], _INIT_B
    with np.errstate(over="ignore"):
        for i in range(8):
            value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
            words.append(value.astype(np.uint64))
    return np.column_stack([words[2 * j] | words[2 * j + 1] << np.uint64(32)
                            for j in range(4)])
