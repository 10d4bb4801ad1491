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
(his raw-key record: the lowest bit of each entry is his raw bit). Its
tables (`OUTCOME_SECOND_PROB`, `CONCLUSIVE_TABLE`, `BIT_TABLE`) are
tabulated at import time from the exact states and from `interpret`.
`respond` and `key_bits` get `kept`, which selects the detected qubits of
Bob's rounds: the all-True detection mask when every qubit was detected
(eta = 1), a read-only broadcast of one True, so no mask or index array is
built, and the increasing indices of the detected qubits under loss.

Every outcome probability of an honest signal state is 0, 1/2 or 1, so an
honest round needs only fair coins. Each side draws one byte per qubit, and
one packed table (`fair_coin_table`), indexed by (kind, announcement, basis,
coin), gives outcome, conclusiveness and bit. A strategy whose outcome
probabilities are not all 0, 1/2 or 1 (a biased preparation at a generic
angle, the entangled register) takes a float coin per qubit instead. The
byte draws copy the bit generator's 64-bit outputs (`random_raw`) into
their output `CHUNK` bytes at a time and then set its spare 32-bit half as
`Generator.bytes` would, so bytes and state match one `rng.bytes` call; a
bit generator without that spare (MT19937) is read through `rng.bytes`.
Each side owns its draw and overwrites it: Bob's becomes the sent symbols,
which against pairs are also his raw-key record, and Alice's her bases.
Alice builds the table index `CHUNK` qubits at a time in one chunk-sized
scratch buffer and in the chunk of her records that the lookup then fills.
Her records keep the table entries packed (`AliceRecords`), and
`_reduce_arrays` folds the packed bytes, so an honest attempt at eta = 1
holds four raw-length arrays: Bob's symbols and pairs, Alice's bases and
her packed records.
The full-length per-qubit record (`Transcript.records`) is built only when
a caller reads it; it derives every posterior, whatever the strategy.

Each strategy class also states the analytic probability that one kept
qubit is conclusive for Alice (`expected_conclusive`) and whether Alice's
known bits always match Bob's key under it (`keeps_key_sound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .quantum import SargSymbol, sarg_state

ANNOUNCEMENT_MODES = ("sarg", "bb84")


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class EmptyKnownSet(ProtocolError):
    """Alice finished an attempt without a single known key bit."""


class RestartLimitExceeded(ProtocolError):
    """Every allowed attempt ended with an empty known set."""

    def __init__(self, attempts: int):
        super().__init__(f"no known key bit after {attempts} attempt(s)")
        self.attempts = attempts


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
    """Bob's full N-bit key plus Alice's sparse view of it."""

    bob_key: np.ndarray
    alice_known: dict[int, int]

    def __post_init__(self):
        key = np.ascontiguousarray(self.bob_key, dtype=np.uint8)
        key.setflags(write=False)
        object.__setattr__(self, "bob_key", key)
        n = key.size
        for j, bit in self.alice_known.items():
            if not 0 <= j < n or bit not in (0, 1):
                raise ValueError(f"known entry {j}: {bit} outside the key")

    @property
    def size(self) -> int:
        return int(self.bob_key.size)

    def known_indices(self) -> list[int]:
        return sorted(self.alice_known)

    def mismatched_indices(self) -> list[int]:
        """Known positions where Alice's value disagrees with Bob's key."""
        return [j for j, bit in sorted(self.alice_known.items())
                if bit != int(self.bob_key[j])]


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


def _pack(outcome, conclusive, bit) -> np.ndarray:
    """One byte per entry: outcome in bits 0-1, conclusive in bit 2, bit + 1 in bits 3-4.

    Outcome and bit are read as int8, so an outcome of -1 packs as 3 and a
    bit of -1 as 0. Works in bytes, with `np.multiply` for the shifts.
    """
    packed = (np.asarray(bit, dtype=np.int8) + 1).view(np.uint8)
    packed *= 8
    packed |= np.asarray(conclusive, dtype=bool).view(np.uint8) * np.uint8(4)
    packed |= np.asarray(outcome, dtype=np.int8).view(np.uint8) & 3
    return packed


@lru_cache(maxsize=None)
def _interpretation_table(announcement: str) -> np.ndarray:
    """Packed interpretation per (announcement, basis, second-outcome flag); read-only.

    The announcement is the pair id in "sarg" mode and the basis of the sent
    symbol in "bb84" mode, where only the values 0 and 1 occur.
    """
    announced, basis, second = np.indices((4, 2, 2))
    outcome = basis + 2 * second
    if announcement == "sarg":
        conclusive, bit = CONCLUSIVE_TABLE[announced, outcome], BIT_TABLE[announced, outcome]
    else:
        conclusive, bit = basis == announced, np.where(basis == announced, second, -1)
    table = _pack(outcome, conclusive, bit)
    table.setflags(write=False)
    return table


def _snap_to_halves(kind_table: np.ndarray) -> tuple[np.ndarray, float]:
    """2p of each entry rounded into {0, 1, 2}, and the largest rounding distance of p."""
    table = np.asarray(kind_table, dtype=float)
    halves = np.clip(np.rint(2.0 * table), 0, 2)
    return halves.astype(np.int8), float(np.abs(table - halves / 2.0).max())


def is_dyadic(kind_table: np.ndarray) -> bool:
    """True when every outcome probability lies within 1e-12 of 0, 1/2 or 1."""
    return _snap_to_halves(kind_table)[1] <= DYADIC_TOLERANCE


def fair_coin_table(kind_table: np.ndarray, announcement: str) -> np.ndarray:
    """Packed interpretation per (kind, announcement, basis, coin) for a dyadic table.

    A fair coin c is an exact Bernoulli(p) draw for p in {0, 1/2, 1} through
    0.5 * (1 - c) < p, so the coin fixes whether Alice sees the second member
    of her basis. Raises ValueError when an entry of `kind_table` is more
    than 1e-12 from 0, 1/2 or 1, or when it has more than 16 kinds (the
    packed index keeps 4 bits for the kind).
    """
    halves, miss = _snap_to_halves(kind_table)
    if miss > DYADIC_TOLERANCE:
        raise ValueError(f"outcome probabilities must lie within {DYADIC_TOLERANCE} "
                         f"of 0, 1/2 or 1; an entry is {miss:.3g} away")
    if len(halves) > 16:
        raise ValueError(f"the packed index holds at most 16 kinds, got {len(halves)}")
    kind, announced, basis, coin = np.indices((len(halves), 4, 2, 2))
    second = (1 - coin) < halves[kind, basis]
    return _interpretation_table(announcement)[announced, basis, second.astype(np.int8)]


@lru_cache(maxsize=64)
def _cached_fair_lookup(table_bytes: bytes, rows: int, announcement: str) -> np.ndarray | None:
    kind_table = np.frombuffer(table_bytes).reshape(rows, 2)
    if not is_dyadic(kind_table):
        return None
    lookup = fair_coin_table(kind_table, announcement).ravel()
    lookup.setflags(write=False)
    return lookup


def _fair_lookup(kind_table: np.ndarray, announcement: str) -> np.ndarray | None:
    """Flat `fair_coin_table` of a dyadic kind table, else None; cached by content."""
    table = np.ascontiguousarray(kind_table, dtype=float)
    return _cached_fair_lookup(table.tobytes(), len(table), announcement)


def _byte_draws(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` independent uniform bytes: for count >= 1, the bytes of one
    `rng.bytes(count)`, leaving the generator in the same state. The caller
    owns the returned buffer and may overwrite it.

    `Generator.bytes` takes 32-bit words from `next_uint32`, which splits
    each 64-bit output into its low half, returned, and its high half, kept
    as a spare (`has_uint32`, `uinteger` in the state). So the bytes are the
    little-endian bytes of consecutive `random_raw` outputs, once a spare
    held at entry is drained through `rng.bytes`. They are drawn `CHUNK`
    bytes at a time straight into the output, and the state's spare is then
    set as `next_uint32` would leave it: the last output's high half, marked
    unused when an odd number of words was taken. A bit generator whose
    state has no `has_uint32` (MT19937) fills the output from `CHUNK`-byte
    `rng.bytes` calls, which join into the one call's bytes because every
    call but the last takes whole words.
    """
    out = np.empty(count, dtype=np.uint8)
    bitgen = rng.bit_generator
    state = bitgen.state
    if "has_uint32" not in state:
        for start in range(0, count, CHUNK):
            part = out[start:start + CHUNK]
            part[:] = np.frombuffer(rng.bytes(part.size), dtype=np.uint8)
        return out
    head = min(count, 4) if state["has_uint32"] else 0
    if head:
        out[:head] = np.frombuffer(rng.bytes(head), dtype=np.uint8)
    if count > head:
        for start in range(head, count, CHUNK):
            part = out[start:start + CHUNK]
            words = bitgen.random_raw(-(-part.size // 8))
            part[:] = words.astype("<u8", copy=False).view(np.uint8)[:part.size]
        state = bitgen.state
        state["has_uint32"] = -(-(count - head) // 4) % 2
        state["uinteger"] = int(words[-1]) >> 32
        bitgen.state = state
    return out


def _at_kept(values: np.ndarray, kept: np.ndarray, part: slice = slice(None)) -> np.ndarray:
    """values[kept][part], and a view when `kept` selects every value.

    `kept` is the all-True detection mask when every qubit was detected, and
    increasing indices of the detected qubits otherwise; either way a `kept`
    as long as `values` selects all of them.
    """
    return values[part] if kept.size == values.size else values[kept[part]]


# --------------------------------------------------------------------------
# vectorized strategy interface
# --------------------------------------------------------------------------

@dataclass(eq=False)
class BobRounds:
    """Columnar description of a batch of prepared qubits.

    `kind` indexes `kind_table`, whose row [p_v, p_h] gives the probability
    that Alice's outcome is the second member of her basis (DOWN or LEFT)
    for the state she received. `sent` is -1 when no definite symbol was
    prepared; `pair` is -1 when the announcement is a basis (bb84 mode).
    `sent`, `pair` and `kind` are int8 arrays, which Alice reads as bytes.
    """

    sent: np.ndarray
    pair: np.ndarray
    kind: np.ndarray
    kind_table: np.ndarray

    def __len__(self) -> int:
        return self.sent.size


@dataclass(eq=False)
class AliceRecords:
    """Columnar measurement records for the kept qubits of one attempt.

    `basis` is int8, -1 where Alice measured in no basis (the memory
    attacks). `packed` holds one `_pack` byte per qubit: the outcome in bits
    0-1, the conclusive flag in bit 2 and bit + 1 in bits 3-4, so bit 4 is
    Alice's bit on a conclusive qubit and 0 elsewhere. `outcome` (int8),
    `conclusive` (bool) and `bit` (int8, -1 where inconclusive) decode it
    on each read; a missing outcome is not stored but read as -1 wherever
    `basis` is -1. The records carry no posterior; `_scatter_records`
    derives it when read.
    """

    basis: np.ndarray
    packed: np.ndarray

    @classmethod
    def from_fields(cls, basis, outcome, conclusive, bit) -> "AliceRecords":
        """Records from the decoded fields; basis and outcome are -1 together or not at all.

        `bit` is an array; outcome and conclusive may be scalars that hold
        for every qubit. Pass a scalar, not a broadcast view: numpy runs its
        slow generic loop on a zero stride (≈20× slower for `& 3`).
        """
        return cls(basis=basis, packed=_pack(outcome, conclusive, bit))

    @property
    def outcome(self) -> np.ndarray:
        outcome = (self.packed & 3).view(np.int8)
        outcome[self.basis < 0] = -1
        return outcome

    @property
    def conclusive(self) -> np.ndarray:
        return np.not_equal(self.packed & 4, 0)

    @property
    def bit(self) -> np.ndarray:
        return (self.packed >> 3).view(np.int8) - 1

    @property
    def conclusive_count(self) -> int:
        """Number of conclusive qubits, counted `CHUNK` at a time."""
        return sum(int(np.count_nonzero(self.packed[start:start + CHUNK] & 4))
                   for start in range(0, self.packed.size, CHUNK))


def _honest_conclusive(config: ProtocolConfig) -> float:
    """Conclusive probability of an honest round: 1/4 against a pair (the other
    basis, then the orthogonal outcome), 1/2 against a basis (the same basis)."""
    return 0.5 if config.announcement == "bb84" else 0.25


@dataclass(frozen=True)
class HonestBob:
    """Protocol-following provider."""

    kind = "honest"
    keeps_key_sound = True

    def expected_conclusive(self, config: ProtocolConfig) -> float:
        return _honest_conclusive(config)

    def rounds(self, count: int, config: ProtocolConfig, rng: np.random.Generator) -> BobRounds:
        draw = _byte_draws(rng, count)  # bits 0-1: sent symbol, bit 2: pair choice
        if config.announcement == "sarg":
            pair = draw >> 2
            pair &= 1
            np.subtract(draw, pair, out=pair)
            pair &= 3
            pair = pair.view(np.int8)
        else:
            pair = np.full(count, -1, dtype=np.int8)
        draw &= 3
        sent = draw.view(np.int8)
        return BobRounds(sent=sent, pair=pair, kind=sent, kind_table=OUTCOME_SECOND_PROB)

    def key_bits(self, rounds: BobRounds, kept: np.ndarray, alice: AliceRecords,
                 config: ProtocolConfig, rng: np.random.Generator) -> np.ndarray:
        """His raw-key record of the kept qubits; the lowest bit of each entry is his bit.

        Against pairs a symbol's lowest bit is its bit, so the record is
        `sent` itself, a view at eta = 1; against bases it is bit 1.
        """
        sent = _at_kept(rounds.sent, kept).view(np.uint8)
        return sent if config.announcement == "sarg" else sent >> 1


@dataclass(frozen=True)
class HonestAlice:
    """Protocol-following user: direct measurement, mechanical interpretation."""

    kind = "honest"
    keeps_key_sound = True

    def expected_conclusive(self, config: ProtocolConfig) -> float:
        return _honest_conclusive(config)

    def respond(self, rounds: BobRounds, kept: np.ndarray, config: ProtocolConfig,
                rng: np.random.Generator) -> AliceRecords:
        count = kept.size
        # Bit 0: fair coin, bit 1: basis; each chunk becomes the basis once read.
        draw = _byte_draws(rng, count)
        lookup = _fair_lookup(rounds.kind_table, config.announcement)
        fair = lookup is not None
        if not fair:
            lookup = _interpretation_table(config.announcement).ravel()
        announced_from = rounds.pair if config.announcement == "sarg" else rounds.sent
        # Each chunk of the records is scratch space until the lookup fills it.
        records = np.empty(count, dtype=np.uint8)
        index_buf = np.empty(min(count, CHUNK), dtype=np.uint8)
        for start in range(0, count, CHUNK):
            part = slice(start, start + CHUNK)
            basis, packed = draw[part], records[part]
            index = index_buf[:basis.size]
            kind = _at_kept(rounds.kind, kept, part).view(np.uint8)
            np.multiply(_at_kept(announced_from, kept, part).view(np.uint8), 4, out=index)
            if config.announcement != "sarg":
                index &= 4
            if fair:
                np.multiply(kind, 16, out=packed)
                index |= packed
                np.bitwise_and(basis, 3, out=packed)
                index |= packed
            basis >>= 1
            basis &= 1
            if not fair:
                np.multiply(basis, 2, out=packed)
                index |= packed
                index |= rng.random(basis.size) < rounds.kind_table[kind, basis]
            lookup.take(index, out=packed)
        return AliceRecords(basis=draw.view(np.int8), packed=records)


# --------------------------------------------------------------------------
# key reduction and retrieval
# --------------------------------------------------------------------------

def _reduce_arrays(bob_bits: np.ndarray, packed: np.ndarray, n: int, k: int) -> ObliviousKey:
    """XOR-fold k rows of n raw entries into Bob's key and Alice's known bits.

    Bob's raw bit is the lowest bit of each of his entries, which may have
    any integer dtype; `packed` is Alice's `AliceRecords.packed`. Neither is
    copied. Alice knows a key bit where the conclusive flag (bit 2) is set
    in all k rows; its value is the XOR of bit 4, her raw bit, over the
    rows.
    """
    bob_key = np.bitwise_xor.reduce(bob_bits.reshape(k, n), axis=0)
    bob_key &= 1
    rows = packed.reshape(k, n)
    # `!= 0` makes bools, on which `flatnonzero` is several times faster than on bytes.
    idx = np.flatnonzero((np.bitwise_and.reduce(rows, axis=0) & 4) != 0)
    vals = (np.bitwise_xor.reduce(rows, axis=0)[idx] >> 4) & 1
    alice_known = dict(zip(idx.tolist(), vals.tolist()))
    return ObliviousKey(bob_key=bob_key, alice_known=alice_known)


def query_shift(alice_known: dict[int, int], target_index: int, n: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """Pick a known key position j uniformly and announce s = (j - i) mod n."""
    if not alice_known:
        raise EmptyKnownSet("cannot build a query without a known key bit")
    if not 0 <= target_index < n:
        raise ValueError(f"target index {target_index} outside [0, {n})")
    known = sorted(alice_known)
    j = known[int(rng.integers(len(known)))]
    return j, (j - target_index) % n


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
    final_attempt: _Attempt = field(repr=False)
    attempt_known_counts: list[int] = field(default_factory=list)
    attempt_conclusive_counts: list[int] = field(default_factory=list)

    @cached_property
    def records(self) -> RawRecords:
        """Per-qubit record of the final attempt, built on first read."""
        return _scatter_records(self.final_attempt)

    def to_dict(self, verbose: bool = False) -> dict:
        doc = {
            "config": self.config.to_dict(),
            "restarts": self.restarts,
            "known_indices": self.key.known_indices(),
            "known_bits": {str(j): b for j, b in sorted(self.key.alice_known.items())},
            "target_index": self.target_index,
            "chosen_index": self.chosen_index,
            "shift": self.shift,
            "retrieved_bit": self.retrieved_bit,
            "attempt_known_counts": list(self.attempt_known_counts),
        }
        if verbose:
            doc["records"] = list(self.records.iter_dicts())
        return doc


def _run_attempt(config: ProtocolConfig, alice, bob, rng: np.random.Generator) -> _Attempt:
    """Send until n*k qubits are detected, then measure and announce."""
    need = config.raw_length
    if config.eta == 1.0:
        rounds = bob.rounds(need, config, rng)
        detected = kept = np.broadcast_to(np.True_, need)  # read-only, holds one byte
    else:
        chunks: list[BobRounds] = []
        detected_chunks: list[np.ndarray] = []
        have = 0
        while have < need:
            count = int((need - have) / config.eta * 1.05) + 16
            chunks.append(bob.rounds(count, config, rng))
            detected_chunks.append(rng.random(count) < config.eta)
            have += int(np.count_nonzero(detected_chunks[-1]))
        detected = np.concatenate(detected_chunks)
        kept = np.nonzero(detected)[0][:need]
        # Drop everything after the qubit that completed the raw string.
        end = kept[-1] + 1
        rounds = BobRounds(
            sent=np.concatenate([c.sent for c in chunks])[:end],
            pair=np.concatenate([c.pair for c in chunks])[:end],
            kind=np.concatenate([c.kind for c in chunks])[:end],
            kind_table=chunks[0].kind_table)
        detected = detected[:end]
    alice_rec = alice.respond(rounds, kept, config, rng)
    bob_bits = bob.key_bits(rounds, kept, alice_rec, config, rng)
    return _Attempt(rounds=rounds, detected=detected, kept=kept,
                    alice=alice_rec, bob_bits=bob_bits)


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


def run_protocol(config: ProtocolConfig, database, target_index: int,
                 alice=None, bob=None, rng: np.random.Generator | None = None) -> Transcript:
    """Execute attempts until Alice knows a key bit, then retrieve one database bit.

    Raises RestartLimitExceeded when max_restarts + 1 attempts all end with
    an empty known set. The returned transcript keeps the final attempt,
    whose per-qubit record is built on first read, plus per-attempt summary
    counts. The database holds n bools or integers, each 0 or 1; any other
    dtype or value raises ValueError before it is cast to bytes. The target
    index is a Python or numpy integer, not a bool, in [0, n); anything else
    raises ValueError before any draw.
    """
    alice = alice if alice is not None else HonestAlice()
    bob = bob if bob is not None else HonestBob()
    if not isinstance(alice, HonestAlice) and not isinstance(bob, HonestBob):
        raise ValueError("simultaneous cheating on both sides is not modeled")
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
    att = None
    key = None
    for _ in range(config.max_restarts + 1):
        att = _run_attempt(config, alice, bob, rng)
        key = _reduce_arrays(att.bob_bits, att.alice.packed, config.n, config.k)
        known_counts.append(len(key.alice_known))
        conclusive_counts.append(att.alice.conclusive_count)
        if key.alice_known:
            break
        att = key = None  # release this attempt's arrays before the next one
    else:
        raise RestartLimitExceeded(config.max_restarts + 1)

    chosen_j, shift = query_shift(key.alice_known, target_index, config.n, rng)
    ciphertext = encrypt_database(x, key.bob_key, shift)
    retrieved = decrypt_bit(ciphertext, target_index, key.alice_known[chosen_j])
    return Transcript(config=config, restarts=len(known_counts) - 1, key=key,
                      target_index=target_index, chosen_index=chosen_j,
                      shift=shift, ciphertext=ciphertext, retrieved_bit=retrieved,
                      final_attempt=att, attempt_known_counts=known_counts,
                      attempt_conclusive_counts=conclusive_counts)
