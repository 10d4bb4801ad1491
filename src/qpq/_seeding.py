"""Per-trial streams without a `SeedSequence` call each.

The drivers' trial t draws from the stream `np.random.default_rng([seed,
t])`. `streams` makes those generators for a range of t: `SeedSequence`'s
hash runs once per block of indices, in uint32 arithmetic, and each PCG64
takes its hashed words through `StateWords`, as `protocol._generator_at`'s
copies take zeros, with no hash of their own.

Its users import it where they first make a generator: defining
`StateWords` loads `numpy.random`, which importing the package does not.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

# `SeedSequence`'s hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

# `streams` hashes this many indices at a time, so its memory stays flat
# however many it makes.
STREAM_BLOCK = 1 << 12


class StateWords(np.random.bit_generator.ISeedSequence):
    """Seed material a bit generator takes as is: `words` when given (the 4
    uint64 words a PCG64 asks for), else zeros of the size and dtype asked
    for."""

    def __init__(self, words: np.ndarray | None = None):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype) if self.words is None else self.words


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2^32 for j = 0..count, as a uint32 column."""
    return np.array([init * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(count + 1)],
                    dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """`SeedSequence`'s hashmix: row r of the result mixes row r of `values`
    (or `values` itself, one row) with steps[r] and steps[r + 1]."""
    mixed = values ^ steps[:-1]
    mixed *= steps[1:]
    mixed ^= mixed >> 16
    return mixed


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """`SeedSequence`'s mix of each row of `pool` with that row of `hashed`."""
    mixed = pool * _MIX_L
    mixed -= hashed * _MIX_R
    mixed ^= mixed >> 16
    return mixed


def _stream_words(seed_words: list[int], index: np.ndarray) -> np.ndarray:
    """(index.size, 4) uint64: row i holds
    `SeedSequence([seed, index[i]]).generate_state(4, np.uint64)`, for the
    seed whose 32-bit words are `seed_words` and each index in [0, 2^32).
    The pool of 4 words is mixed as `mix_entropy` mixes it, for every index
    at once; the 3 words one source word mixes into are one step."""
    size = len(seed_words) + 1
    words = np.zeros((max(4, size), index.size), dtype=np.uint32)
    words[:size - 1] = np.array(seed_words, dtype=np.uint32)[:, None]
    words[size - 1] = index
    steps = _hash_steps(_INIT_A, _MULT_A, 16 + 4 * max(0, size - 4))
    pool = _hashmix(words[:4], steps[:5])
    for src, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps[4 + 3 * src:8 + 3 * src]))
    for src in range(4, size):
        pool = _mix(pool, _hashmix(words[src], steps[4 * src:4 * src + 5]))
    state = _hashmix(np.tile(pool, (2, 1)), _hash_steps(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def streams(seed: int, indices: range) -> Iterator[np.random.Generator]:
    """The generators `np.random.default_rng([seed, i])` gives, for each i of
    `indices`, in order, made lazily: each block of `STREAM_BLOCK` indices
    is hashed in one `_stream_words` pass, and each PCG64 takes its words
    through `StateWords`. A negative seed, or an index outside [0, 2^32),
    which would take two 32-bit words of the seed sequence, raises
    ValueError before any hash."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if indices and (min(indices[0], indices[-1]) < 0 or max(indices[0], indices[-1]) >= 2**32):
        raise ValueError(f"stream indices must lie in [0, 2^32), got {indices}")
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, seed.bit_length() or 1, 32)]
    return (np.random.Generator(np.random.PCG64(StateWords(words)))
            for lo in range(0, len(indices), STREAM_BLOCK)
            for part in [indices[lo:lo + STREAM_BLOCK]]
            for words in _stream_words(seed_words, np.arange(part.start, part.stop, part.step)))
