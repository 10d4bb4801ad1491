"""Stream making: `_seeding.streams(seed, indices)` gives, in one hash pass
per block of indices, the generators `np.random.default_rng([seed, i])`
gives, and `protocol._generator_at` copies a generator of any kind without
hashing a seed."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpq import _seeding, protocol
from qpq._seeding import StateWords

from conftest import BIT_GENERATORS

SEEDS = [0, 1, 7, 12345, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1]
INDICES = [0, 1, 2, 255, 2**16, 2**31, 2**32 - 1]


def assert_default_rng_streams(seed, indices) -> None:
    """Each stream of `indices` has the state and the next draws of
    `default_rng([seed, i])`."""
    got = list(_seeding.streams(seed, indices))
    assert len(got) == len(indices)
    for rng, index in zip(got, indices):
        want = np.random.default_rng([seed, index])
        assert type(rng.bit_generator) is np.random.PCG64
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random() == want.random()
        assert rng.bytes(5) == want.bytes(5)


@pytest.fixture
def passes(monkeypatch):
    """The number of indices of each `_stream_words` pass made."""
    sizes = []
    words = _seeding._stream_words
    monkeypatch.setattr(_seeding, "_stream_words",
                        lambda seed_words, index: sizes.append(index.size)
                        or words(seed_words, index))
    return sizes


class TestStreams:
    @pytest.mark.parametrize("index", INDICES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_stream_is_default_rngs(self, seed, index):
        """Seeds of 1 to 5 32-bit words, so the index lands in the pool or
        after it, and indices up to the largest one word holds."""
        assert_default_rng_streams(seed, range(index, index + 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_range_is_one_pass(self, seed, passes):
        assert_default_rng_streams(seed, range(3, 203))
        assert passes == [200]

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**63 + 9), np.int32(0)],
                             ids=["int64", "uint64", "int32"])
    def test_numpy_integer_seeds(self, seed):
        assert_default_rng_streams(seed, range(4))

    def test_blocks_are_hashed_as_the_streams_are_taken(self, monkeypatch, passes):
        """With blocks of 7, 35 streams are five passes, each made when the
        first stream of its block is taken, so at most one block of words is
        held at a time."""
        monkeypatch.setattr(_seeding, "STREAM_BLOCK", 7)
        streams = _seeding.streams(9, range(5, 40))
        assert passes == []
        first = next(streams)
        assert passes == [7]
        rest = list(streams)
        assert passes == [7] * 5
        want = [np.random.default_rng([9, i]) for i in range(5, 40)]
        assert [rng.bit_generator.state for rng in [first, *rest]] == [
            rng.bit_generator.state for rng in want]

    def test_no_index_makes_no_stream(self, passes):
        assert list(_seeding.streams(3, range(0))) == [] and passes == []

    @pytest.mark.parametrize("seed,indices,message", [
        (0, range(2**32, 2**32 + 1), "indices"),
        (7, range(2**32 - 2, 2**32 + 1), "indices"),
        (7, range(-1, 3), "indices"),
        (-1, range(3), "seed"),
    ], ids=["index-2^32", "range-past-2^32", "negative-index", "negative-seed"])
    def test_out_of_range_is_rejected_before_any_hash(self, seed, indices, message, passes):
        """An index of 2^32 or more would take two words of the seed sequence."""
        with pytest.raises(ValueError, match=message):
            _seeding.streams(seed, indices)
        assert passes == []

    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**224), start=st.integers(0, 2**32 - 1),
           count=st.integers(0, 4))
    def test_random_seeds_and_indices(self, seed, start, count):
        assert_default_rng_streams(seed, range(start, min(start + count, 2**32)))


@pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda kind: kind.__name__)
def test_a_generator_copy_hashes_no_seed(kind):
    """The copy starts from `StateWords` zeros (624 uint32 words for
    MT19937) and takes the state, spare half included, and the draws."""
    rng = np.random.Generator(kind(11))
    rng.bytes(3)
    copy = protocol._generator_at(rng.bit_generator.state)
    assert isinstance(copy.seed_seq, StateWords)
    assert repr(copy.state) == repr(rng.bit_generator.state)
    assert copy.random_raw(5).tolist() == rng.bit_generator.random_raw(5).tolist()
