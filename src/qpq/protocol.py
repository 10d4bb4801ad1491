"""Two-party oblivious-key protocol engine.

The flow per run: the provider (Bob) sends a long stream of signal qubits,
the user (Alice) measures each detected one in a random basis, Bob announces
a non-orthogonal state pair per kept qubit, Alice interprets her outcomes,
the raw string is XOR-folded into an N-bit oblivious key, and a single
database bit is retrieved through a user-chosen cyclic shift.

`interpret` is the per-qubit contract: it classifies one outcome against an
announced pair. `run_protocol` drives whole runs on columnar numpy arrays
through three strategy seams: Bob's `rounds` (preparation and announcement),
Alice's `respond` (measurement and interpretation) and Bob's `key_bits`
(his raw-key record: the lowest bit of each entry is his raw bit). A user
may also define `known_final`, her known final bits without records. Its
tables (`OUTCOME_SECOND_PROB`, `CONCLUSIVE_TABLE`, `BIT_TABLE`) are
tabulated at import time from the exact states and from `interpret`.
`respond` and `key_bits` get `kept`, which selects the detected qubits of
Bob's rounds: the all-True detection mask when every qubit was detected
(eta = 1), a read-only broadcast of one True, so no mask or index array is
built, and the increasing indices of the detected qubits under loss.

Bob's rounds carry one input from physics: the Born law of Alice's
measurement on what he sent. Each code of his `RoundLayout` states it as
`second`, the probability that her outcome is the second member of her
basis, per basis. Every such probability of an honest signal state is 0, 1/2
or 1, so an honest round needs only fair coins: each side draws one byte per
qubit, and one packed table gives outcome, conclusiveness and bit. A layout
whose law is not all 0, 1/2 or 1 (a biased preparation at a generic angle,
the entangled register) takes a float coin per qubit instead.

Every byte draw goes through a `_DrawReader`, the one place that knows how
`Generator.bytes` lays out the bit generator's 64-bit outputs (`random_raw`)
and its spare 32-bit half, so bytes and end state match one `rng.bytes`
call. `_byte_pieces` reads `rng`'s own generator `CHUNK` bytes at a time (a
bit generator without the spare, MT19937, through `rng.bytes`); the
streamed attempt enters a draw at any offset, on a copy of a PCG64 or
PCG64DXSM generator moved there with `advance`.
`_fair_bits` keeps the top bit of each 32-bit word, or of each byte, of a
byte draw, which gives the values and the state of `rng.integers(0, 2,
count)` of that dtype; the adversary layer draws its fair coins and the
experiments and the CLI their databases through it.
Bob's draw, masked to its three used bits, is his one per-qubit array
(`BobRounds.code`), and against pairs also his raw-key record. Alice's lands
in her records, where each chunk becomes her table index,
code * 4 + basis * 2 + coin, and is gathered in place, two qubits per
uint16, from one table cached per layout and announcement (`_respond_table`).
Her records keep the table entries packed (`AliceRecords`), which the fold
(`_fold_rows`) reads.

`_attempts` makes every attempt but a transcript's replay: each restart
round of `_rounds`, the one restart loop, which `run_protocol` and
`monte_carlo`'s trial batches both iterate, and the known-bit runs of the
provider reports. It alone picks how: through the user's own
`known_final` against `HonestBob` (`UsdAlice`,
`Bb84MemoryAlice`), with no records; for the honest pair, streamed in
O(n + CHUNK) memory or a batch of two or more gathered as one array; else
one `_run_attempt` each, which holds Bob's code and Alice's packed records
at raw length. Every route gives the keys, counts and generator state of
`_run_attempt`, as one `AttemptKeys` record per batch: Bob's keys, Alice's
known positions and bits and her conclusive counts as whole arrays, which
`monte_carlo` tallies without building an `ObliviousKey`. Only
`run_protocol` builds one, for its transcript. A transcript keeps its final
attempt's start state and strategies; the full-length per-qubit record
(`Transcript.records`), which derives every posterior whatever the
strategy, is made again from them when read.

`_generator_at` copies a generator through `_seeding.StateWords`, with
no `SeedSequence` hash; `_seeding.streams` makes the drivers' per-trial
streams the same way.

Each strategy class states its closed forms for a config as one `Law`
(`law`): the chance that a kept qubit is conclusive for Alice, and the
chance that one of her known final bits disagrees with Bob's key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .quantum import SargSymbol, sarg_state

ANNOUNCEMENT_MODES = ("sarg", "bb84")


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class EmptyKnownSet(ProtocolError):
    """Alice finished an attempt without a single known key bit."""


class RestartLimitExceeded(ProtocolError):
    """Every allowed attempt ended with an empty known set.

    `conclusive_counts` holds Alice's conclusive count of each attempt, so a
    caller can still count the qubits of a failed run.
    """

    def __init__(self, conclusive_counts: list[int]):
        self.attempts = len(conclusive_counts)
        self.conclusive_counts = conclusive_counts
        super().__init__(f"no known key bit after {self.attempts} attempt(s)")


@dataclass(frozen=True)
class AnnouncedPair:
    """Unordered pair of one vertical-basis and one diagonal-basis symbol.

    Only adjacent symbols form valid pairs; `pair_id` p denotes the pair
    {p, (p+1) mod 4}, giving {UP,RIGHT}, {RIGHT,DOWN}, {DOWN,LEFT},
    {LEFT,UP} for p = 0..3.
    """

    pair_id: int

    def __post_init__(self):
        if self.pair_id not in range(4):
            raise ValueError(f"pair id must lie in 0..3, got {self.pair_id}")

    @classmethod
    def from_symbols(cls, a: SargSymbol, b: SargSymbol) -> "AnnouncedPair":
        if (int(b) - int(a)) % 4 == 1:
            return cls(int(a))
        if (int(a) - int(b)) % 4 == 1:
            return cls(int(b))
        raise ValueError(f"{a!r} and {b!r} do not form an announceable pair")

    @property
    def members(self) -> tuple[SargSymbol, SargSymbol]:
        return (SargSymbol(self.pair_id), SargSymbol((self.pair_id + 1) % 4))

    def __contains__(self, symbol: SargSymbol) -> bool:
        return symbol in self.members

    def member_in_basis(self, basis_index: int) -> SargSymbol:
        """The unique pair member measured by the given basis."""
        a, b = self.members
        return a if a.basis_index == basis_index else b


@dataclass(frozen=True)
class Interpretation:
    """Alice's knowledge about one raw bit: certain, or a posterior only."""

    conclusive: bool
    bit: int | None = None
    posterior_bit1: float | None = None

    def __post_init__(self):
        if self.conclusive:
            if self.bit not in (0, 1) or self.posterior_bit1 is not None:
                raise ValueError("conclusive interpretation needs a bit and no posterior")
        else:
            if self.bit is not None:
                raise ValueError("inconclusive interpretation carries no bit")
            if self.posterior_bit1 is None or not 0.0 <= self.posterior_bit1 <= 1.0:
                raise ValueError(f"posterior {self.posterior_bit1!r} outside [0, 1]")

    @classmethod
    def conclusive_bit(cls, bit: int) -> "Interpretation":
        return cls(conclusive=True, bit=int(bit))

    @classmethod
    def inconclusive(cls, posterior_bit1: float) -> "Interpretation":
        return cls(conclusive=False, posterior_bit1=float(posterior_bit1))


@dataclass(frozen=True, eq=False)
class ObliviousKey:
    """Bob's full N-bit key plus Alice's sparse view of it: she knows bits[i]
    at known[i], for positions that increase within [0, n). It holds
    read-only views, so the caller's arrays stay writeable. `alice_known`,
    the entries as a dict, is built on first read; once a caller has taken
    it, the entry readers read it, so an edit to it shows."""

    bob_key: np.ndarray
    known: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        key = np.ascontiguousarray(self.bob_key, dtype=np.uint8).view()
        idx = np.asarray(self.known, dtype=np.intp).view()
        bits = np.asarray(self.bits, dtype=np.intp)
        n = key.size
        if idx.ndim != 1 or bits.shape != idx.shape:
            raise ValueError(f"positions {idx.shape} and bits {bits.shape} need one 1-D shape")
        # `count_nonzero` costs a fraction of `any` on the few entries of a
        # typical key.
        if idx.size and (idx[0] < 0 or idx[-1] >= n or np.count_nonzero(idx[1:] <= idx[:-1])):
            raise ValueError(f"known indices must increase within [0, {n})")
        if np.count_nonzero(bits >> 1):
            raise ValueError("known bits must be 0 or 1")
        for name, value in (("bob_key", key), ("known", idx), ("bits", bits.astype(np.uint8))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def alice_known(self) -> dict[int, int]:
        return dict(zip(self.known.tolist(), self.bits.tolist()))

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, bits) in position order; from `alice_known` once it is taken."""
        taken = self.__dict__.get("alice_known")
        if taken is None:
            return self.known, self.bits
        known = np.fromiter(taken, dtype=np.intp, count=len(taken))
        order = known.argsort()
        return known[order], np.fromiter(taken.values(), dtype=np.intp, count=len(taken))[order]

    @property
    def size(self) -> int:
        return int(self.bob_key.size)

    def known_indices(self) -> list[int]:
        return self._entries()[0].tolist()

    def mismatched_indices(self) -> list[int]:
        """Known positions where Alice's value disagrees with Bob's key."""
        known, bits = self._entries()
        return known[bits != self.bob_key.take(known)].tolist()


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: database size n, folding depth k, loss, restart cap.

    `announcement` selects the classical post-processing: "sarg" announces a
    state pair per qubit (the real protocol), "bb84" announces the
    preparation basis instead and is kept only as an insecure contrast mode.
    """

    n: int
    k: int
    eta: float = 1.0
    max_restarts: int = 20
    seed: int = 0
    announcement: str = "sarg"

    def __post_init__(self):
        # The rule `run_protocol` applies to the target: a Python or numpy
        # integer, not a bool; stored as a Python int.
        for name in ("n", "k", "max_restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        # The seed and eta are kept as given, so a report shows them unchanged.
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if isinstance(self.eta, bool) or not isinstance(self.eta, numbers.Real):
            raise ValueError(f"eta must be a real number, got {self.eta!r}")
        if self.n < 1:
            raise ValueError(f"database size must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"security parameter must be >= 1, got {self.k}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"detection probability must lie in (0, 1], got {self.eta}")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.announcement not in ANNOUNCEMENT_MODES:
            raise ValueError(f"announcement must be one of {ANNOUNCEMENT_MODES}")

    @property
    def raw_length(self) -> int:
        return self.n * self.k

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "eta": self.eta,
                "max_restarts": self.max_restarts, "seed": self.seed,
                "announcement": self.announcement}


# --------------------------------------------------------------------------
# per-qubit interpretation
# --------------------------------------------------------------------------

def interpret(basis_index: int, outcome: SargSymbol, pair: AnnouncedPair) -> Interpretation:
    """Classify one measurement against the announced pair.

    The outcome either equals the pair member living in Alice's basis
    (inconclusive, posterior 2/3 on that member by Bayes with a uniform
    prior) or is orthogonal to it (conclusive: the other member was sent).
    """
    outcome = SargSymbol(outcome)
    if outcome.basis_index != basis_index:
        raise ValueError(f"outcome {outcome!r} cannot occur in basis {basis_index}")
    same_basis = pair.member_in_basis(basis_index)
    other = pair.member_in_basis(1 - basis_index)
    if outcome == same_basis.orthogonal:
        return Interpretation.conclusive_bit(other.bit)
    # outcome == same_basis: that member would produce it with certainty,
    # the other member only half the time.
    return Interpretation.inconclusive(2.0 / 3.0 if same_basis.bit == 1 else 1.0 / 3.0)


# --------------------------------------------------------------------------
# lookup tables tabulated from the exact states and `interpret`
# --------------------------------------------------------------------------

def _tabulate_outcome_probs() -> np.ndarray:
    """P(outcome is the second basis member | sent symbol, basis).

    Basis b holds the symbols b and b + 2, in that outcome order.
    """
    table = np.zeros((4, 2))
    for s in SargSymbol:
        for basis in (0, 1):
            second = sarg_state(SargSymbol(basis + 2))
            table[int(s), basis] = sarg_state(s).overlap(second) ** 2
    return table


def _tabulate_interpretations() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (pair, outcome): conclusive flag, bit (-1 if none), posterior (nan)."""
    conclusive = np.zeros((4, 4), dtype=bool)
    bits = np.full((4, 4), -1, dtype=np.int8)
    posterior = np.full((4, 4), np.nan)
    for pid in range(4):
        for outcome in SargSymbol:
            res = interpret(outcome.basis_index, outcome, AnnouncedPair(pid))
            conclusive[pid, int(outcome)] = res.conclusive
            if res.conclusive:
                bits[pid, int(outcome)] = res.bit
            else:
                posterior[pid, int(outcome)] = res.posterior_bit1
    return conclusive, bits, posterior


OUTCOME_SECOND_PROB = _tabulate_outcome_probs()
CONCLUSIVE_TABLE, BIT_TABLE, POSTERIOR_TABLE = _tabulate_interpretations()

# An outcome probability counts as 0, 1/2 or 1 within this distance. The
# orthogonal entries of OUTCOME_SECOND_PROB hold round-off near 1e-33.
DYADIC_TOLERANCE = 1e-12

# Byte draws and Alice's interpretation work through this many qubits at a
# time, so their temporaries stay cache-sized instead of spanning the raw
# string. A multiple of 8, so every piece of a byte draw but the last takes
# whole 64-bit outputs and the pieces join into one draw's bytes.
CHUNK = 1 << 16

# Float coins are drawn, and Alice's uint16 table indices gathered, this many
# at a time, so each float64 temporary, and the intp copy of the indices that
# `take` makes, (64 KB) stays below glibc's 128 KB mmap threshold and reuses
# heap pages instead of faulting fresh ones in on every call. `rng.random`
# takes one output per double, so the pieces join into one draw.
FLOAT_PIECE = 1 << 13


def _pack(outcome, conclusive, bit) -> np.ndarray:
    """One byte per entry: outcome in bits 0-1, conclusive in bit 2, bit + 1 in
    bits 3-4, and bit 5 set where there is no outcome.

    Outcome and bit are read as int8 and kept as `outcome & 0x23` and
    `bit + 1`, so an outcome of -1 (no measurement) sets bits 0, 1 and 5
    and a bit of -1 packs as 0. Works in bytes, with `np.multiply` for the
    shifts.
    """
    packed = (np.asarray(bit, dtype=np.int8) + 1).view(np.uint8)
    packed *= 8
    packed |= np.asarray(conclusive, dtype=bool).view(np.uint8) * np.uint8(4)
    packed |= np.asarray(outcome, dtype=np.int8).view(np.uint8) & 0x23
    return packed


def _pair_table(single: np.ndarray) -> np.ndarray:
    """Read-only uint16 table: entry j holds `single` at each byte of j, in
    memory order, so one uint16 gather looks up two one-byte indices, each
    below `single.size` <= 256, on either byte order."""
    padded = np.zeros(256, dtype=np.uint8)
    padded[:single.size] = single
    table = padded[np.arange(256 * single.size, dtype=np.uint16).view(np.uint8)].view(np.uint16)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _respond_table(layout: RoundLayout,
                   announcement: str) -> tuple[np.ndarray, bool, np.ndarray]:
    """Alice's `_pair_table` over code * 4 + basis * 2 + coin, whether the coin
    is fair, and `layout.second` as a read-only (codes, 2) float array.

    The coin is fair when every entry of `layout.second` lies within 1e-12 of
    0, 1/2 or 1. A fair coin c is then an exact Bernoulli(p) draw of "Alice
    sees the second member of her basis" through 0.5 * (1 - c) < p; otherwise
    the coin is that event itself, drawn as a float. The announcement is the
    code's pair id against pairs and the basis of its sent symbol against
    bases, where the outcome in the announced basis is conclusive.
    """
    second = np.array(layout.second, dtype=float)
    second.setflags(write=False)
    halves = np.clip(np.rint(2.0 * second), 0, 2)
    fair = bool(np.abs(second - halves / 2.0).max() <= DYADIC_TOLERANCE)
    code, basis, coin = np.indices((len(second), 2, 2))
    seen = (1 - coin) < halves[code, basis] if fair else coin
    outcome = basis + 2 * seen
    if announcement == "sarg":
        pair = np.array(layout.pair)[code]
        conclusive, bit = CONCLUSIVE_TABLE[pair, outcome], BIT_TABLE[pair, outcome]
    else:
        conclusive = basis == (np.array(layout.sent)[code] & 1)
        bit = np.where(conclusive, seen, -1)
    return _pair_table(_pack(outcome, conclusive, bit).ravel()), fair, second


def _gather_in_place(table: np.ndarray, records: np.ndarray, code: np.ndarray,
                     scratch: np.ndarray) -> None:
    """Turn Alice's records into her `_respond_table` entries in place.

    `records` is uint8 and C-contiguous, with an even last axis whose first
    `code.shape[-1]` entries hold basis * 2 + coin for Bob's `code` of the
    same leading shape; the pad entry after them, if any, is zeroed. Each
    becomes her table index, code * 4 + basis * 2 + coin, and is gathered
    two qubits per uint16. `scratch` is a uint8 array of the shape of `code`.
    """
    size = code.shape[-1]
    index = records[..., :size]
    index |= np.multiply(code, 4, out=scratch)
    records[..., size:] = 0
    # Every index byte is below 4 * len(layout.second), so no entry is
    # clipped; `take` reads the indices before it writes `out`.
    gathered = records.view(np.uint16).ravel()
    for lo in range(0, gathered.size, FLOAT_PIECE):
        part = gathered[lo:lo + FLOAT_PIECE]
        table.take(part, out=part, mode="clip")


def _generator_at(state: dict):
    """A new bit generator of the `numpy.random` kind that `state` names, set
    to it; made from zeros (`StateWords`), not through a seed's hash."""
    from ._seeding import StateWords

    bitgen = getattr(np.random, state["bit_generator"])(StateWords())
    bitgen.state = state
    return bitgen


class _DrawReader:
    """One `rng.bytes` draw, read in order: the one place that knows its layout.

    `Generator.bytes` takes 32-bit words from `next_uint32`, which returns
    the low half of each 64-bit output and keeps the high half as a spare
    (`has_uint32`, `uinteger` in the state). So past the `head` bytes of a
    spare held at the draw's start, byte o is byte (o - head) % 8 of output
    (o - head) // 8, little-endian. The `left` high bytes of `last`, the
    last output taken (at first, the spare as a high half), are unread.

    With no `offset`, the reader takes `rng`'s own outputs, none before a
    byte past the head is read; MT19937, whose state holds no spare, is read
    through `rng.bytes`, in whole 32-bit words but the last. From an
    `offset`, 0 included, it reads a copy of a PCG64 or PCG64DXSM generator
    moved there with `advance` (a step is one output), so `rng` moves only
    at `finish(count)`: the state of one `rng.bytes(count)`, whose spare is
    `last`'s high half when an odd number of words came from outputs.
    """

    __slots__ = ("rng", "bitgen", "raw", "head", "last", "left")

    def __init__(self, rng: np.random.Generator, offset: int | None = None):
        self.rng = rng
        self.bitgen = rng.bit_generator
        state = self.bitgen.state
        self.raw = "has_uint32" in state
        self.head = 4 if self.raw and state["has_uint32"] else 0
        self.last, self.left = (state["uinteger"] << 32, 4) if self.head else (0, 0)
        if offset is None:
            return
        self.bitgen = _generator_at(state)
        if offset < self.head:
            self.left -= offset
        else:
            skip, drop = divmod(offset - self.head, 8)
            self.bitgen.advance(skip)
            self.last, self.left = self.bitgen.random_raw(), 8 - drop

    def read(self, out: np.ndarray) -> None:
        """Fill `out`, a uint8 array, with the draw's next `out.size` bytes."""
        if not self.raw:
            out[:] = np.frombuffer(self.rng.bytes(out.size), dtype=np.uint8)
            return
        have = min(self.left, out.size)
        if have:
            tail = int(self.last).to_bytes(8, "little")[8 - self.left:]
            out[:have] = np.frombuffer(tail[:have], dtype=np.uint8)
            self.left -= have
        size = out.size - have
        if size:
            raw = self.bitgen.random_raw(-(-size // 8))
            self.last, self.left = raw[-1], -size % 8
            out[have:] = raw.astype("<u8", copy=False).view(np.uint8)[:size]

    def finish(self, count: int) -> None:
        """Set `rng` to the end state of a draw of count >= 1 bytes."""
        if not self.raw:
            return
        state = self.bitgen.state
        if count <= self.head:
            state["has_uint32"] = 0
        else:
            state["has_uint32"] = -(-(count - self.head) // 4) % 2
            state["uinteger"] = int(self.last) >> 32
        self.rng.bit_generator.state = state


def _byte_pieces(rng: np.random.Generator, count: int,
                 out: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Draw the bytes of one `rng.bytes(count)` into `out`, a uint8 array of
    at least `count` bytes, piece by piece through one `_DrawReader`; yield
    (start, out[start:stop]).

    Every start is even and, past the spare's head, on a whole output.
    Run to its end, it leaves the state of the one call, set before the
    last piece is yielded; no other draw may come between its pieces.
    """
    reader = _DrawReader(rng)
    start = 0
    while start < count:
        stop = min(count, (start or reader.head) + CHUNK)
        piece = out[start:stop]
        reader.read(piece)
        if stop == count:
            reader.finish(count)
        yield start, piece
        start = stop


def _byte_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` independent uniform bytes: for count >= 1, the bytes of one
    `rng.bytes(count)`, leaving the generator in the same state; for
    count = 0, nothing drawn (`rng.bytes(0)` takes a 32-bit word). The caller
    owns the returned buffer and may overwrite it. The `_byte_pieces` are
    drawn straight into it.
    """
    out = np.empty(count, dtype=np.uint8)
    for _ in _byte_pieces(rng, count, out):
        pass
    return out


def _fair_bits(rng: np.random.Generator, count: int, dtype=np.uint32) -> np.ndarray:
    """`count` fair coins as 0s and 1s of `dtype`, uint32 or uint8: the values
    of one `rng.integers(0, 2, count)` (of dtype uint8 for uint8), leaving
    the generator in the same state.

    That call takes the top bit of each of `count` successive 32-bit words
    from `next_uint32`, or for uint8 of each byte of ceil(count / 4) such
    words, low byte first. `rng.bytes` of `count` words of `dtype` takes the
    same 32-bit words, so the coins are the top bits of its words.
    """
    size = np.dtype(dtype).itemsize
    words = _byte_draws(rng, count * size).view(f"<u{size}")
    words >>= 8 * size - 1
    return words


def _at_kept(values: np.ndarray, kept: np.ndarray, part=slice(None)) -> np.ndarray:
    """values[kept][part], for `part` a slice or an index array, and a view
    when `kept` selects every value and `part` is a slice.

    `kept` is the all-True detection mask when every qubit was detected, and
    increasing indices of the detected qubits otherwise; either way a `kept`
    as long as `values` selects all of them.
    """
    return values[part] if kept.size == values.size else values[kept[part]]


# --------------------------------------------------------------------------
# vectorized strategy interface
# --------------------------------------------------------------------------

class RoundLayout(NamedTuple):
    """What each value of a `BobRounds.code` stands for: entry c of each field
    is that field for code c. Hashable, so tables built from it are cached.

    `sent` is the prepared symbol, -1 when no definite symbol was prepared;
    `pair` the announced pair id, -1 when the announcement is a basis (bb84
    mode); `second` Alice's outcome law, the probabilities (p_v, p_h) that
    her outcome in the vertical or diagonal basis is its second member, DOWN
    or LEFT.
    """

    sent: tuple[int, ...]
    pair: tuple[int, ...]
    second: tuple[tuple[float, float], ...]


# An honest code keeps the sent symbol in bits 0-1 and the pair choice c in
# bit 2: the pair is symbol - c.
_SYMBOL_BITS = (0, 1, 2, 3) * 2
_HONEST_SECOND = tuple(tuple(OUTCOME_SECOND_PROB[c].tolist()) for c in _SYMBOL_BITS)
HONEST_LAYOUTS = {
    "sarg": RoundLayout(sent=_SYMBOL_BITS, pair=tuple((c - (c >> 2)) & 3 for c in range(8)),
                        second=_HONEST_SECOND),
    "bb84": RoundLayout(sent=_SYMBOL_BITS, pair=(-1,) * 8, second=_HONEST_SECOND),
}


class Law(NamedTuple):
    """A strategy's closed forms: the chance that a kept qubit is conclusive for
    Alice, and that one of her known final bits disagrees with Bob's key."""

    conclusive: float
    known_wrong: float = 0.0


# An honest round is conclusive with chance 1/4 against a pair (the other
# basis, then the orthogonal outcome) and 1/2 against a basis (the same basis).
HONEST_LAWS = {"sarg": Law(0.25), "bb84": Law(0.5)}


def _decode(code: np.ndarray, field: tuple[int, ...]) -> np.ndarray:
    """One `RoundLayout` field per code, as int8: one bitwise pass for the
    honest symbol bits, a gather from the field otherwise."""
    if field == _SYMBOL_BITS:
        return (code & 3).view(np.int8)
    return np.array(field, dtype=np.int8).take(code)


@dataclass(eq=False)
class BobRounds:
    """Columnar description of a batch of prepared qubits.

    `code` (uint8) is the one per-qubit array: each value, below
    len(layout.second) <= 64, names what was prepared and announced and
    Alice's outcome law on it, all stated by `layout`; `sent` and `pair`
    decode it on each read, as int8 arrays. The honest code is Bob's draw
    byte masked to its three used bits (`HONEST_LAYOUTS`), so its lowest
    bit is his raw bit against pairs.
    """

    code: np.ndarray
    layout: RoundLayout

    def __len__(self) -> int:
        return self.code.size

    @property
    def sent(self) -> np.ndarray:
        return _decode(self.code, self.layout.sent)

    @property
    def pair(self) -> np.ndarray:
        return _decode(self.code, self.layout.pair)


@dataclass(eq=False)
class AliceRecords:
    """Columnar measurement records for the kept qubits of one attempt.

    `packed` holds one `_pack` byte per qubit: the outcome in bits 0-1, the
    conclusive flag in bit 2, bit + 1 in bits 3-4 and bit 5 where Alice has
    no outcome (the memory attacks), so bit 4 is Alice's bit on a conclusive
    qubit and 0 elsewhere. It is the only array; every field decodes it on
    each read: `basis` (int8) is the outcome's basis, `packed & 1`, and
    `outcome` (int8) is `packed & 3`, each -1 where bit 5 is set;
    `conclusive` is bool and `bit` int8, -1 where inconclusive. The records
    carry no posterior; `_scatter_records` derives it when read.
    """

    packed: np.ndarray

    @classmethod
    def from_fields(cls, outcome, conclusive, bit) -> "AliceRecords":
        """Records from the decoded fields; an outcome of -1 means no measurement.

        `bit` is an array; outcome and conclusive may be scalars that hold
        for every qubit. Pass a scalar, not a broadcast view: numpy runs its
        slow generic loop on a zero stride (≈20× slower for `& 3`).
        """
        return cls(packed=_pack(outcome, conclusive, bit))

    def _unmeasured_as_minus_one(self, mask: int) -> np.ndarray:
        field = (self.packed & mask).view(np.int8)
        field[(self.packed & 32) != 0] = -1
        return field

    @property
    def basis(self) -> np.ndarray:
        return self._unmeasured_as_minus_one(1)

    @property
    def outcome(self) -> np.ndarray:
        return self._unmeasured_as_minus_one(3)

    @property
    def conclusive(self) -> np.ndarray:
        return np.not_equal(self.packed & 4, 0)

    @property
    def bit(self) -> np.ndarray:
        bit = self.packed >> 3
        bit &= 3
        return bit.view(np.int8) - 1


@dataclass(frozen=True)
class HonestBob:
    """Protocol-following provider."""

    kind = "honest"

    def law(self, config: ProtocolConfig) -> Law:
        return HONEST_LAWS[config.announcement]

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        code = _byte_draws(rng, count)
        code &= 7  # bits 0-1: sent symbol, bit 2: pair choice
        return BobRounds(code=code, layout=HONEST_LAYOUTS[config.announcement])

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        """His raw-key record of the kept qubits; the lowest bit of each entry is his bit.

        A symbol's bit is its lowest bit against pairs, so the record is his
        code itself, a view at eta = 1; against bases it is the code's bit 1.
        """
        code = _at_kept(rounds.code, kept)
        return code if config.announcement == "sarg" else code >> 1


@dataclass(frozen=True)
class HonestAlice:
    """Protocol-following user: direct measurement, mechanical interpretation."""

    kind = "honest"

    def law(self, config: ProtocolConfig) -> Law:
        return HONEST_LAWS[config.announcement]

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        count = kept.size
        table, fair, second = _respond_table(rounds.layout, config.announcement)
        # Alice's draw byte: bit 0 fair coin, bit 1 basis. Each piece of it
        # lands in her records and is gathered in place; an odd last piece
        # through the pad byte.
        records = np.empty(count + count % 2, dtype=np.uint8)
        scratch = np.empty(min(count, CHUNK + 4), dtype=np.uint8)
        pieces = _byte_pieces(rng, count, records)
        if not fair:
            # The float coins come after all of the bytes, as in one `rng.bytes` call.
            pieces = list(pieces)
        for start, index in pieces:
            size = index.size
            code = _at_kept(rounds.code, kept, slice(start, start + size))
            if fair:
                index &= 3
            else:
                index &= 2
                for lo in range(0, size, FLOAT_PIECE):
                    part = index[lo:lo + FLOAT_PIECE]
                    part |= rng.random(part.size) < second[code[lo:lo + FLOAT_PIECE], part >> 1]
            _gather_in_place(table, records[start:start + size + size % 2], code,
                             scratch[:size])
        return AliceRecords(packed=records[:count])


# --------------------------------------------------------------------------
# key reduction and retrieval
# --------------------------------------------------------------------------

def _fold(ufunc: np.ufunc, raw: np.ndarray, n: int, k: int) -> np.ndarray:
    """`ufunc` folded over the k rows of n entries of `raw`'s last axis; any
    leading axes are kept. `raw` is not copied when that axis is contiguous."""
    return ufunc.reduce(raw.reshape(raw.shape[:-1] + (k, n)), axis=-2)


@dataclass(eq=False)
class AttemptKeys:
    """The keys of B attempts as arrays: Bob's, (B, n) uint8; Alice's known
    positions, `rows` (the attempt) and `cols`, intp in row-major order, and
    her uint8 `bits` there; her `conclusive` count per attempt, (B,)."""

    bob_keys: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    bits: np.ndarray
    conclusive: np.ndarray

    def key(self, t: int) -> ObliviousKey:
        # A lone attempt's entries are all of them: no search (≈2-3 µs).
        entries = (slice(*self.rows.searchsorted((t, t + 1))) if len(self.bob_keys) > 1
                   else slice(None))
        return ObliviousKey(self.bob_keys[t], self.cols[entries], self.bits[entries])


def _fold_rows(bob_bits: np.ndarray, packed: np.ndarray, n: int, k: int) -> AttemptKeys:
    """The keys of attempts from their raw arrays, a row of n * k per attempt:
    Bob's raw bits (the lowest bit of each entry, of any integer dtype)
    XOR-folded; Alice's known columns, where the conclusive flag (bit 2) of
    her `AliceRecords.packed` is set in all k rows, and there the XOR of
    bit 4, her raw bit, over the rows; her conclusive counts, `CHUNK`
    columns at a time. See `_fold`."""
    bob_keys = _fold(np.bitwise_xor, bob_bits, n, k).astype(np.uint8, copy=False)
    bob_keys &= 1
    # `!= 0` makes bools, on which `flatnonzero` is several times faster than
    # on bytes, and than `nonzero` on two axes (4 against 32 µs at n = 10^4).
    rows, cols = np.divmod(np.flatnonzero((_fold(np.bitwise_and, packed, n, k) & 4) != 0), n)
    bits = np.bitwise_xor.reduce(packed.reshape(-1, k, n)[rows, :, cols], axis=1)
    bits >>= 4
    bits &= 1
    counts = [0] * len(packed)
    for start in range(0, packed.shape[1], CHUNK):
        # Row by row: `count_nonzero` along an axis casts to bool and sums,
        # 2-3x slower here and a further `CHUNK` bytes.
        counts = [count + np.count_nonzero(row)
                  for count, row in zip(counts, packed[:, start:start + CHUNK] & 4)]
    return AttemptKeys(bob_keys, rows, cols, bits, np.array(counts))


# --------------------------------------------------------------------------
# the streamed honest attempt
# --------------------------------------------------------------------------

# Bit 0 of each byte of a uint64 lane, and every bit.
_LOW_BITS = np.uint64(0x0101010101010101)
_ALL_BITS = np.uint64(0xFFFFFFFFFFFFFFFF)


def _state_after(rng: np.random.Generator, count: int) -> None:
    """Set `rng` to the state after one `rng.bytes(count)`, count >= 1,
    without drawing its bytes: a reader enters the draw at its last byte."""
    reader = _DrawReader(rng, count - 1)
    reader.read(np.empty(1, dtype=np.uint8))
    reader.finish(count)


def _streamed_attempt(config: ProtocolConfig, rng: np.random.Generator) -> AttemptKeys:
    """One honest attempt against pairs at eta = 1 on a PCG64 or PCG64DXSM
    generator, with n >= `CHUNK`: its key and Alice's conclusive count as a
    record of one attempt, exactly as `_run_attempt` and the folds give
    them, and the generator left in the same state.

    No raw-length array is made. Each of the k rows of Bob's draw and of
    Alice's, which follows it, is read through a `_DrawReader`, one column
    block of `CHUNK` at a time, and every row of a block is folded into that
    block's accumulators while they are in cache. The work is done in uint64
    lanes of eight qubits: with A Alice's draw byte and B Bob's, bit 0 of
    `((A >> 1) ^ B) & (A ^ B ^ (B >> 1) ^ (B >> 2))` is her conclusive flag,
    and `((A >> 1) & 1) ^ 1` her bit, the `_respond_table` entries of
    `HONEST_LAYOUTS["sarg"]`. Bob's key is bit 0 of the XOR of his bytes,
    and Alice's value of a known column bit 1 of the XOR of hers, flipped
    when k is odd.
    """
    n, k, count = config.n, config.k, config.raw_length
    bob = [_DrawReader(rng, row * n) for row in range(k)]
    _state_after(rng, count)
    alice = [_DrawReader(rng, row * n) for row in range(k)]
    a, b, flag, term, bob_xor, alice_xor, known = (np.empty(CHUNK // 8, dtype=np.uint64)
                                                   for _ in range(7))
    a_bytes, b_bytes = a.view(np.uint8), b.view(np.uint8)
    bob_key = np.empty(n, dtype=np.uint8)
    idx_parts, bit_parts = [], []
    conclusive = 0
    for start in range(0, n, CHUNK):
        size = min(CHUNK, n - start)
        # A short last block ends in zero bytes, which are never conclusive.
        a_bytes[size:] = 0
        b_bytes[size:] = 0
        known.fill(_ALL_BITS)
        bob_xor.fill(0)
        alice_xor.fill(0)
        for row in range(k):
            alice[row].read(a_bytes[:size])
            bob[row].read(b_bytes[:size])
            np.right_shift(b, 2, out=term)
            term ^= a
            term ^= b
            np.right_shift(b, 1, out=flag)
            term ^= flag
            np.right_shift(a, 1, out=flag)
            flag ^= b
            flag &= term
            known &= flag
            bob_xor ^= b
            alice_xor ^= a
            flag &= _LOW_BITS
            conclusive += int(np.count_nonzero(flag.view(np.uint8)))
        np.bitwise_and(bob_xor.view(np.uint8)[:size], 1, out=bob_key[start:start + size])
        known &= _LOW_BITS
        # On bools, `flatnonzero` is several times faster than on bytes.
        idx = np.flatnonzero(known.view(bool)[:size])
        bit_parts.append((alice_xor.view(np.uint8)[idx] >> 1) & 1)
        idx_parts.append(idx + start)
    alice[-1].finish(count)
    idx, bits = _joined(idx_parts), _joined(bit_parts)
    bits ^= k & 1
    return AttemptKeys(bob_key[None], np.zeros(idx.size, np.intp), idx, bits,
                       np.array([conclusive]))


def query_shift(known: np.ndarray, target_index: int, n: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """Pick a place p in `known` uniformly; return p and the shift (known[p] - i) mod n."""
    if not len(known):
        raise EmptyKnownSet("cannot build a query without a known key bit")
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} outside [0, {n})")
    place = int(rng.integers(len(known)))
    return place, (int(known[place]) - target_index) % n


def encrypt_database(database: np.ndarray, bob_key: np.ndarray, shift: int) -> np.ndarray:
    """Ciphertext C[m] = X[m] XOR key[(m + s) mod n]."""
    x = np.asarray(database, dtype=np.uint8)
    key = np.asarray(bob_key, dtype=np.uint8)
    if x.ndim != 1 or x.shape != key.shape:
        raise ValueError(f"database/key length mismatch: need two 1-D arrays of one "
                         f"length, got {x.shape} vs {key.shape}")
    r = shift % x.size
    out = np.empty_like(x)
    np.bitwise_xor(x[:x.size - r], key[r:], out=out[:x.size - r])
    np.bitwise_xor(x[x.size - r:], key[:r], out=out[x.size - r:])
    return out


def decrypt_bit(ciphertext: np.ndarray, target_index: int, known_bit: int) -> int:
    """Alice reads X[i] = C[i] XOR her known key bit."""
    return int(ciphertext[target_index]) ^ int(known_bit)


# --------------------------------------------------------------------------
# full runs
# --------------------------------------------------------------------------

@dataclass(eq=False)
class RawRecords:
    """Per-qubit record of one attempt, including undetected sends.

    Arrays are full length (one entry per prepared qubit); measurement
    fields hold -1/NaN where the qubit was not detected.
    """

    sent: np.ndarray
    detected: np.ndarray
    pair: np.ndarray
    basis: np.ndarray
    outcome: np.ndarray
    conclusive: np.ndarray
    alice_bit: np.ndarray
    posterior_bit1: np.ndarray
    bob_bit: np.ndarray

    def __len__(self) -> int:
        return self.sent.size

    @property
    def kept_count(self) -> int:
        return int(self.detected.sum())

    def iter_dicts(self) -> Iterator[dict]:
        for i in range(len(self)):
            det = bool(self.detected[i])
            yield {
                "sent": int(self.sent[i]) if self.sent[i] >= 0 else None,
                "detected": det,
                "pair": int(self.pair[i]) if det and self.pair[i] >= 0 else None,
                "basis": int(self.basis[i]) if det else None,
                "outcome": int(self.outcome[i]) if det else None,
                "conclusive": bool(self.conclusive[i]) if det else None,
                "bit": int(self.alice_bit[i]) if det and self.alice_bit[i] >= 0 else None,
                "posterior_bit1": (float(self.posterior_bit1[i])
                                   if det and np.isfinite(self.posterior_bit1[i]) else None),
                "bob_bit": int(self.bob_bit[i]) if det else None,
            }


@dataclass(eq=False)
class _Attempt:
    rounds: BobRounds
    detected: np.ndarray
    kept: np.ndarray           # `detected` itself when every qubit was detected
    alice: AliceRecords
    bob_bits: np.ndarray


@dataclass(eq=False)
class Transcript:
    """Everything one protocol run produced."""

    config: ProtocolConfig
    restarts: int
    key: ObliviousKey
    target_index: int
    chosen_index: int
    shift: int
    ciphertext: np.ndarray
    retrieved_bit: int
    # The bit generator state the final attempt started from, and its strategies.
    start: dict = field(repr=False)
    alice: object
    bob: object
    attempt_known_counts: list[int] = field(default_factory=list)
    attempt_conclusive_counts: list[int] = field(default_factory=list)

    @cached_property
    def final_attempt(self) -> _Attempt:
        """The final attempt, made again by `_run_attempt` from its start state
        on a new generator on first read."""
        return _run_attempt(self.config, self.alice, self.bob,
                            np.random.Generator(_generator_at(self.start)))

    @cached_property
    def records(self) -> RawRecords:
        """Per-qubit record of the final attempt, built on first read."""
        return _scatter_records(self.final_attempt)

    def to_dict(self, verbose: bool = False) -> dict:
        known, bits = self.key._entries()
        doc = {
            "config": self.config.to_dict(),
            "restarts": self.restarts,
            "known_indices": known.tolist(),
            "known_bits": {str(j): b for j, b in zip(known.tolist(), bits.tolist())},
            "target_index": self.target_index,
            "chosen_index": self.chosen_index,
            "shift": self.shift,
            "retrieved_bit": self.retrieved_bit,
            "attempt_known_counts": list(self.attempt_known_counts),
        }
        if verbose:
            doc["records"] = list(self.records.iter_dicts())
        return doc


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end; a single array itself, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _send(config: ProtocolConfig, bob,
          rng: np.random.Generator) -> tuple[BobRounds, np.ndarray, np.ndarray]:
    """Bob's rounds until n*k qubits are detected: (rounds, detected, kept).

    At eta = 1 `detected` and `kept` are one read-only broadcast True. Under
    loss Bob sends chunks, each sized to complete the raw string with room
    to spare and followed by its detection floats; `kept` holds the indices
    of the first n*k detected qubits, and the rounds and `detected` end at
    the last of them. One chunk, the common case, is not copied.
    """
    need = config.raw_length
    if config.eta == 1.0:
        detected = np.broadcast_to(np.True_, need)  # read-only, holds one byte
        return bob.rounds(need, config, rng), detected, detected
    chunks: list[BobRounds] = []
    detected_chunks: list[np.ndarray] = []
    have = 0
    while have < need:
        count = int((need - have) / config.eta * 1.05) + 16
        chunks.append(bob.rounds(count, config, rng))
        detected_chunks.append(rng.random(count) < config.eta)
        have += int(np.count_nonzero(detected_chunks[-1]))
    detected = _joined(detected_chunks)
    kept = np.nonzero(detected)[0][:need]
    # Drop everything after the qubit that completed the raw string.
    end = kept[-1] + 1
    code = _joined([c.code for c in chunks])[:end]
    return BobRounds(code=code, layout=chunks[0].layout), detected[:end], kept


def _run_attempt(config: ProtocolConfig, alice, bob, rng: np.random.Generator) -> _Attempt:
    """Send until n*k qubits are detected, then measure and announce."""
    rounds, detected, kept = _send(config, bob, rng)
    alice_rec = alice.respond(rounds, kept, config, rng)
    bob_bits = bob.key_bits(rounds, kept, alice_rec, config, rng)
    return _Attempt(rounds=rounds, detected=detected, kept=kept,
                    alice=alice_rec, bob_bits=bob_bits)


def _attempts(config: ProtocolConfig, alice, bob,
              rngs: list[np.random.Generator]) -> AttemptKeys:
    """One attempt per generator, drawn as `_run_attempt` draws it, all in one
    `AttemptKeys` record: row t holds the key and Alice's conclusive count
    of the attempt on rngs[t]. A user whose own class (not a parent)
    defines `known_final`, against `HonestBob` itself, gives her known
    final bits and count from it, with no records, and each Bob key row is
    the fold of his `key_bits`, read without her records. The honest pair
    itself (not a subclass) streams an attempt alone on a PCG64 or
    PCG64DXSM generator against pairs at eta = 1 with n >= `CHUNK`, and
    gathers a batch of two or more attempts that fits in `CHUNK` qubits in
    one array; every other attempt, lone or in a batch, is one
    `_run_attempt`. The raw arrays of a batch are folded once (`_fold_rows`).
    """
    n, k, need = config.n, config.k, config.raw_length
    if "known_final" in vars(type(alice)) and type(bob) is HonestBob:
        bob_keys = np.empty((len(rngs), n), dtype=np.uint8)
        finals = []
        for bob_key, rng in zip(bob_keys, rngs):
            rounds, _, kept = _send(config, bob, rng)
            finals.append(alice.known_final(rounds, kept, config, rng))
            raw = bob.key_bits(rounds, kept, None, config, rng)
            np.bitwise_xor.reduce(raw.reshape(k, n), axis=0, out=bob_key)
        bob_keys &= 1
        known, bits, conclusive = zip(*finals)
        rows = np.repeat(np.arange(len(rngs)), [cols.size for cols in known])
        return AttemptKeys(bob_keys, rows, np.concatenate(known),
                           np.concatenate(bits).astype(np.uint8), np.array(conclusive))
    honest = type(alice) is HonestAlice and type(bob) is HonestBob
    # `advance(d)` of PCG64 and PCG64DXSM moves exactly d outputs on.
    if (honest and len(rngs) == 1 and config.eta == 1.0 and config.announcement == "sarg"
            and n >= CHUNK
            and type(rngs[0].bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)):
        return _streamed_attempt(config, rngs[0])
    if honest and len(rngs) > 1 and len(rngs) * need <= CHUNK:
        layout = HONEST_LAYOUTS[config.announcement]
        codes = []
        records = np.empty((len(rngs), need + need % 2), dtype=np.uint8)
        for row, rng in zip(records, rngs):
            rounds, _, kept = _send(config, bob, rng)
            codes.append(_at_kept(rounds.code, kept))
            for _ in _byte_pieces(rng, need, row):
                pass
        codes = _joined(codes).reshape(len(rngs), need)
        packed = records[:, :need]
        packed &= 3  # Alice's draw byte: bit 0 fair coin, bit 1 basis
        _gather_in_place(_respond_table(layout, config.announcement)[0], records, codes,
                         np.empty_like(codes))
        # Bob's key record reads his kept codes alone: every code of the batch is kept.
        bob_bits = bob.key_bits(BobRounds(code=codes, layout=layout),
                                np.broadcast_to(np.True_, codes.shape), None, config, None)
    else:
        attempts = [_run_attempt(config, alice, bob, rng) for rng in rngs]
        bob_bits = _joined([att.bob_bits for att in attempts]).reshape(len(rngs), need)
        packed = _joined([att.alice.packed for att in attempts]).reshape(len(rngs), need)
    return _fold_rows(bob_bits, packed, n, k)


def _rounds(config: ProtocolConfig, alice, bob, rngs: list[np.random.Generator]
            ) -> Iterator[tuple[np.ndarray, AttemptKeys, np.ndarray]]:
    """The restart rule over the generators `rngs`: each round, one `_attempts`
    batch on those whose attempts so far all knew no bit, for at most
    `max_restarts` + 1 rounds. Yields (pending, keys, known): their indices
    into `rngs`, the round's record and each attempt's known count. A round
    is made only when the next one is asked for, so a caller may draw on a
    generator between rounds once its attempt knew a bit."""
    pending = np.arange(len(rngs))
    for _ in range(config.max_restarts + 1):
        keys = _attempts(config, alice, bob, [rngs[t] for t in pending.tolist()])
        known = np.bincount(keys.rows, minlength=pending.size)
        yield pending, keys, known
        del keys  # released before the next round's attempts
        pending = pending[known == 0]
        if not pending.size:
            return


def _scatter_records(att: _Attempt) -> RawRecords:
    total = len(att.rounds)
    pair = att.rounds.pair
    alice = att.alice
    kept_outcome, kept_conclusive = alice.outcome, alice.conclusive
    basis = np.full(total, -1, dtype=np.int8)
    outcome = np.full(total, -1, dtype=np.int8)
    conclusive = np.zeros(total, dtype=bool)
    alice_bit = np.full(total, -1, dtype=np.int8)
    posterior = np.full(total, np.nan)
    bob_bit = np.full(total, -1, dtype=np.int8)
    basis[att.kept] = alice.basis
    outcome[att.kept] = kept_outcome
    conclusive[att.kept] = kept_conclusive
    alice_bit[att.kept] = alice.bit
    bob_bit[att.kept] = att.bob_bits & 1
    # The table value for a symbol outcome against a pair, else NaN if conclusive, 1/2 if not.
    kept_pair = pair[att.kept]
    posterior[att.kept] = np.where(
        (kept_pair >= 0) & (kept_outcome >= 0), POSTERIOR_TABLE[kept_pair, kept_outcome],
        np.where(kept_conclusive, np.nan, 0.5))
    return RawRecords(sent=att.rounds.sent, detected=np.array(att.detected),
                      pair=pair, basis=basis, outcome=outcome,
                      conclusive=conclusive, alice_bit=alice_bit,
                      posterior_bit1=posterior, bob_bit=bob_bit)


def _strategies(alice, bob) -> tuple:
    """(alice, bob), honest where None; ValueError when both sides cheat."""
    alice = alice if alice is not None else HonestAlice()
    bob = bob if bob is not None else HonestBob()
    if not isinstance(alice, HonestAlice) and not isinstance(bob, HonestBob):
        raise ValueError("simultaneous cheating on both sides is not modeled")
    return alice, bob


def run_protocol(config: ProtocolConfig, database, target_index: int,
                 alice=None, bob=None, rng: np.random.Generator | None = None) -> Transcript:
    """Execute attempts until Alice knows a key bit, then retrieve one database bit.

    The attempts are the `_rounds` of `rng` alone. Raises
    RestartLimitExceeded when max_restarts + 1 attempts all end with
    an empty known set. The returned transcript keeps the final attempt's
    start state and strategies, from which its per-qubit record is made on
    first read, plus per-attempt summary counts. The database holds n bools
    or integers, each 0 or 1; any other dtype or value raises ValueError
    before it is cast to bytes. The target index is a Python or numpy
    integer, not a bool, in [0, n); anything else raises ValueError before
    any draw.
    """
    alice, bob = _strategies(alice, bob)
    x = np.asarray(database)
    if x.dtype.kind not in "biu":
        raise ValueError(f"database entries must be 0 or 1 as bool or integers, got {x.dtype}")
    if x.ndim != 1 or x.size != config.n:
        raise ValueError(f"database must hold {config.n} bits, got shape {x.shape}")
    if x.min() < 0 or x.max() > 1:
        raise ValueError("database entries must be 0 or 1")
    x = x.astype(np.uint8, copy=False)
    if isinstance(target_index, bool) or not isinstance(target_index, (int, np.integer)):
        raise ValueError(f"target index must be an integer, got {target_index!r}")
    target_index = int(target_index)
    if not 0 <= target_index < config.n:
        raise ValueError(f"target index {target_index} outside [0, {config.n})")
    rng = rng if rng is not None else np.random.default_rng(config.seed)

    known_counts: list[int] = []
    conclusive_counts: list[int] = []
    start = rng.bit_generator.state
    for _, keys, known in _rounds(config, alice, bob, [rng]):
        known_counts.append(int(known[0]))
        conclusive_counts.append(int(keys.conclusive[0]))
        if known[0]:
            break
        keys = None  # release this attempt's keys before the next one
        start = rng.bit_generator.state
    else:
        raise RestartLimitExceeded(conclusive_counts)

    key = keys.key(0)
    place, shift = query_shift(key.known, target_index, config.n, rng)
    ciphertext = encrypt_database(x, key.bob_key, shift)
    retrieved = decrypt_bit(ciphertext, target_index, key.bits[place])
    return Transcript(config=config, restarts=len(known_counts) - 1, key=key,
                      target_index=target_index, chosen_index=int(key.known[place]),
                      shift=shift, ciphertext=ciphertext, retrieved_bit=retrieved,
                      start=start, alice=alice, bob=bob, attempt_known_counts=known_counts,
                      attempt_conclusive_counts=conclusive_counts)
