"""Exact linear algebra for real-amplitude qubit states.

Everything the simulator needs from quantum mechanics lives here: the four
SARG signal states and the two-state discrimination figures of merit (trace
distance, fidelity, Helstrom guessing probability, unambiguous-discrimination
bound). All states carry real amplitudes; the protocol never produces a
complex coefficient. The protocol engine samples from Born-rule outcome
tables that it builds from these states at import time.

The k-qubit parity mixtures behind one final key bit have two routes: the
closed forms of `parity_bounds` (capped at K_MAX), from the split of both
mixtures into 2**(k-1) planes in the |+/-> basis, which the drivers use;
and the dense 2**k x 2**k matrices (`parity_mixtures`, capped at
DENSE_K_MAX), which cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Tolerances used by the state validators and the discrimination routines.
NORM_TOL = 1e-12        # unit norm / unit trace / symmetry
EIG_FLOOR = -1e-10      # eigenvalues below this are an error, above are clipped
SUPPORT_TOL = 1e-10     # eigenvalue threshold defining the support of a state

K_MAX = 16              # largest k of parity_bounds and the drivers
DENSE_K_MAX = 12        # largest k of the dense route (two 2**k x 2**k matrices)


class SargSymbol(IntEnum):
    """The four signal states, ordered by Hilbert angle (multiples of pi/4).

    UP/DOWN span the vertical basis and code bit 0; RIGHT/LEFT span the
    diagonal basis and code bit 1. The integer value doubles as an index:
    angle = value * pi/4, orthogonal partner = (value + 2) % 4.
    """

    UP = 0
    RIGHT = 1
    DOWN = 2
    LEFT = 3

    @property
    def bit(self) -> int:
        """Key bit carried by this symbol (the basis codes the bit)."""
        return int(self) & 1

    @property
    def basis_index(self) -> int:
        """0 for the vertical basis (UP/DOWN), 1 for the diagonal one."""
        return int(self) & 1

    @property
    def orthogonal(self) -> "SargSymbol":
        return SargSymbol((int(self) + 2) % 4)

    @property
    def angle(self) -> float:
        return int(self) * np.pi / 4


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector with real amplitudes on one or more qubits.

    Invariants: the length is a power of two and the Euclidean norm is 1
    within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float).view()  # the caller's stays writeable
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and inf
            raise ValueError(f"state norm {norm!r} differs from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> float:
        """Inner product <self|other>."""
        return float(self.amplitudes @ other.amplitudes)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Real symmetric density matrix: unit trace, eigenvalues >= -1e-10."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).view()  # the caller's stays writeable
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not a square matrix: shape {m.shape}")
        n = m.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"dimension {n} is not a power of two >= 2")
        if not np.allclose(m, m.T, rtol=0.0, atol=NORM_TOL):
            raise ValueError("matrix is not symmetric within 1e-12")
        tr = float(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL * n:
            raise ValueError(f"trace {tr!r} differs from 1")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {low!r} below the {EIG_FLOOR} floor")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=None)
def _cached_symbol_state(symbol: int) -> PureState:
    return state_at_angle(SargSymbol(symbol).angle)


def state_at_angle(angle: float) -> PureState:
    """Single-qubit state (cos a, sin a) at Hilbert angle a."""
    return PureState(np.array([np.cos(angle), np.sin(angle)]))


def sarg_state(symbol: SargSymbol) -> PureState:
    """Signal state for a SARG symbol: UP=(1,0), RIGHT, DOWN, LEFT at pi/4 steps."""
    return _cached_symbol_state(int(symbol))


def _check_same_dim(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _clip_spectrum(eigenvalues: np.ndarray, context: str) -> np.ndarray:
    """Zero the round-off part of a PSD spectrum before square roots.

    Eigenvalues below -1e-10 are treated as real negativity and raise;
    anything within the relative noise floor of zero is truncated so that
    rank-deficient inputs do not leak O(sqrt(eps)) into trace roots.
    """
    low = float(eigenvalues.min()) if eigenvalues.size else 0.0
    if low < EIG_FLOOR:
        raise ValueError(f"{context}: eigenvalue {low!r} below the {EIG_FLOOR} floor")
    floor = eigenvalues.size * np.finfo(float).eps * max(float(eigenvalues.max()), 0.0)
    out = eigenvalues.copy()
    out[out < floor] = 0.0
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b. Lies in [0, 1]."""
    _check_same_dim(a, b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Square-root fidelity trace sqrt(sqrt(a) b sqrt(a)).

    Equals the absolute overlap |<psi0|psi1>| on pure states; 1 iff a == b.
    Computed by two symmetric eigendecompositions with eigenvalue clipping.
    """
    _check_same_dim(a, b)
    w, u = np.linalg.eigh(a.matrix)
    w = _clip_spectrum(w, "fidelity: first argument")
    sqrt_a = (u * np.sqrt(w)) @ u.T
    inner = sqrt_a @ b.matrix @ sqrt_a
    inner = 0.5 * (inner + inner.T)
    w2 = _clip_spectrum(np.linalg.eigvalsh(inner), "fidelity: inner product")
    return float(np.sqrt(w2).sum())


def helstrom_guess(a: DensityMatrix, b: DensityMatrix, prior_a: float = 0.5) -> float:
    """Minimum-error guessing probability between a (prior p) and b (1 - p).

    Returns (1 + ||p a - (1-p) b||_1) / 2, which never falls below
    max(p, 1-p): ignoring the measurement and guessing the prior is always
    available.
    """
    _check_same_dim(a, b)
    if not 0.0 <= prior_a <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {prior_a}")
    diff = prior_a * a.matrix - (1.0 - prior_a) * b.matrix
    return 0.5 * (1.0 + float(np.abs(np.linalg.eigvalsh(diff)).sum()))


class UsdBound(NamedTuple):
    """Equal-prior unambiguous-discrimination bound plus feasibility flag."""

    bound: float
    feasible: bool


def _has_support_outside(a: DensityMatrix, b: DensityMatrix) -> bool:
    """True if part of a's support lies outside b's support (threshold 1e-10)."""
    w, u = np.linalg.eigh(b.matrix)
    kernel = u[:, w <= SUPPORT_TOL]
    if kernel.shape[1] == 0:
        return False  # b has full support, nothing lies outside it
    leaked = float(np.einsum("ij,ik,kj->", kernel, a.matrix, kernel))
    return leaked > SUPPORT_TOL


def usd_bound(a: DensityMatrix, b: DensityMatrix) -> UsdBound:
    """Upper bound 1 - F(a, b) on the equal-prior unambiguous success rate.

    Unambiguously identifying both states is only possible when each state
    has support outside the other's support; the flag reports that
    feasibility via a rank/support comparison.
    """
    _check_same_dim(a, b)
    feasible = _has_support_outside(a, b) and _has_support_outside(b, a)
    return UsdBound(bound=1.0 - fidelity(a, b), feasible=feasible)


def kron_power(m: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of a square matrix."""
    out = np.array([[1.0]])
    for _ in range(k):
        out = np.kron(out, m)
    return out


def dense_route_bytes(k: int) -> int:
    """Bytes held by the two dense 2**k x 2**k float64 parity mixtures."""
    return 2 * 4 ** k * 8


def parity_mixtures(k: int) -> tuple[DensityMatrix, DensityMatrix]:
    """Even- and odd-parity mixtures of k-fold UP/RIGHT signal products.

    Bit 0 maps to UP and bit 1 to RIGHT (the canonical announced pair); the
    returned pair are the uniform mixtures over all k-bit strings of even
    and odd parity. Grouping the 2**k product terms by parity collapses the
    sum to two Kronecker powers:

        rho_even/odd = (M^(x)k +/- D^(x)k) / 2**k,
        M = P_up + P_right,  D = P_up - P_right.

    This is the dense cross-check route; k above DENSE_K_MAX is rejected
    before anything is allocated.
    """
    if not 1 <= k <= DENSE_K_MAX:
        raise ValueError(f"k must lie in 1..{DENSE_K_MAX} for the dense route, got {k} "
                         f"({dense_route_bytes(k)} bytes of matrices)")
    p_up = np.outer(*2 * (sarg_state(SargSymbol.UP).amplitudes,))
    p_right = np.outer(*2 * (sarg_state(SargSymbol.RIGHT).amplitudes,))
    total = kron_power(p_up + p_right, k) / 2.0 ** k
    signed = kron_power(p_up - p_right, k) / 2.0 ** k
    return DensityMatrix(total + signed), DensityMatrix(total - signed)


class ParityBounds(NamedTuple):
    """Discrimination figures of rho_even against rho_odd at equal priors."""

    fidelity: float
    trace_distance: float
    helstrom_guess: float


def parity_bounds(k: int) -> ParityBounds:
    """Fidelity, trace distance and Helstrom value of the parity mixtures.

    In the basis |+/-> ~ UP +/- RIGHT, UP = (a, b) and RIGHT = (a, -b) with
    a = cos(pi/8), b = sin(pi/8). Both mixtures are then block-diagonal on
    the 2**(k-1) planes span{|z>, |~z>} (~z flips every bit), and on each
    plane they are the pure states (c_z, +/-c_~z), c_z^2 = q^(k-|z|) p^|z|,
    p = b^2, q = a^2. A plane adds |c_z^2 - c_~z^2| to F, which the
    Ivanovic-Dieks-Peres measurement attains, and 4 c_z c_~z = 4 (pq)^(k/2)
    to the trace norm. Hence 1 - F = 2 P(B > k/2) + P(B = k/2) with
    B ~ Binomial(k, p), a sum of positive terms, and as pq = 1/8 the trace
    distance is 2**(k-1) * 2 (pq)^(k/2) = 2**(-k/2).
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"k must lie in 1..{K_MAX}, got {k}")
    p, q = math.sin(math.pi / 8) ** 2, math.cos(math.pi / 8) ** 2
    usd = math.fsum((1 + (2 * w > k)) * math.comb(k, w) * p ** w * q ** (k - w)
                    for w in range((k + 1) // 2, k + 1))
    distance = 2.0 ** (-k / 2)
    return ParityBounds(fidelity=1.0 - usd, trace_distance=distance,
                        helstrom_guess=0.5 * (1.0 + distance))


def helstrom_parity_table(k: int) -> np.ndarray:
    """p(even outcome | w), w = 0..k, of the joint Helstrom measurement.

    The measurement projects onto the positive part of rho_even - rho_odd
    = 2 D^(x)k / 2**k, i.e. onto (1 + sign(D)^(x)k) / 2, so a product of
    k - w UP and w RIGHT states gives the even outcome with probability
    (1 + t_up^(k-w) t_right^w) / 2, t = <phi|sign(D)|phi>. D^2 = 1/2, so
    sign(D) = sqrt(2) D and t_up = 1/sqrt(2) = -t_right.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weight = np.arange(k + 1)
    return 0.5 * (1.0 + (-1.0) ** weight * 2.0 ** (-k / 2))
