"""Exact linear algebra for real-amplitude qubit states.

Everything the simulator needs from quantum mechanics lives here: the four
SARG signal states and the two-state discrimination figures of merit (trace
distance, fidelity, Helstrom guessing probability, unambiguous-discrimination
bound). All states carry real amplitudes; the protocol never produces a
complex coefficient. The protocol engine samples from Born-rule outcome
tables that it builds from these states at import time.

The k-qubit parity mixtures behind one final key bit have two routes: the
dense 2**k x 2**k matrices (`parity_mixtures`, capped at DENSE_K_MAX) and
the permutation-symmetric blocks of size at most k + 1 (`parity_blocks`,
`parity_bounds`, capped at K_MAX), which the drivers use.
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

K_MAX = 16              # largest k of the block route (blocks of size k + 1)
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
        amps = np.asarray(self.amplitudes, dtype=float)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude count {amps.size} is not a power of two >= 2")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

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
        m = np.asarray(self.matrix, dtype=float)
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

    @property
    def num_qubits(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


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


def _parity_factor() -> np.ndarray:
    """G = [UP, RIGHT] as columns: M = G G^T and D = G diag(1, -1) G^T."""
    return np.column_stack([sarg_state(SargSymbol.UP).amplitudes,
                            sarg_state(SargSymbol.RIGHT).amplitudes])


def symmetric_power(a: np.ndarray, n: int) -> np.ndarray:
    """Action Sym^n(a) of a real 2x2 matrix on the symmetric subspace of n qubits.

    The basis is the orthonormal Dicke basis |n, j> (j qubits in state 1),
    in which Sym^n(a b) = Sym^n(a) Sym^n(b) and Sym^n(a^T) = Sym^n(a)^T.
    Column j holds the coefficients of (a00 + a10 y)^(n-j) (a01 + a11 y)^j,
    rescaled by sqrt(C(n, j) / C(n, i)) from monomials to Dicke states.
    """
    (a00, a01), (a10, a11) = np.asarray(a, dtype=float)
    out = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        column = np.ones(1)
        for _ in range(n - j):
            column = np.convolve(column, (a00, a10))
        for _ in range(j):
            column = np.convolve(column, (a01, a11))
        out[:, j] = column
    binom = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    return out * np.sqrt(binom / binom[:, None])


class ParityBlock(NamedTuple):
    """One spin block of rho_even and rho_odd and the number of its copies.

    `cross` is X_even^T X_odd for the factors rho = X X^T of the block, so
    its nuclear norm is the block's fidelity.
    """

    multiplicity: int
    even: np.ndarray
    odd: np.ndarray
    cross: np.ndarray


def parity_blocks(k: int) -> list[ParityBlock]:
    """Permutation-symmetric blocks of the k-qubit parity mixtures.

    By Schur-Weyl duality, for q = 0..k//2 and n = k - 2q, A^(x)k acts on
    C(k, q) - C(k, q - 1) copies of the spin block as det(A)^q Sym^n(A).
    With M = G G^T, D = G J G^T, J = diag(1, -1), det G^2 = 1/2 and
    Sym^n(J) = diag((-1)^j), each block is
        even_q = c_q S P_e S^T,  odd_q = c_q S P_o S^T,
        S = Sym^n(G),  c_q = 2 * 2^-q / 2^k,
    where P_e keeps the Dicke states with j + q even and P_o the rest.
    Both are PSD by construction; the total trace of each mixture must be
    1 within 1e-12, or the route raises.
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"k must lie in 1..{K_MAX}, got {k}")
    g = _parity_factor()
    blocks = []
    for q in range(k // 2 + 1):
        n = k - 2 * q
        s = symmetric_power(g, n)
        even_mask = (np.arange(n + 1) + q) % 2 == 0
        scale = 2.0 ** (1 - q - k)
        blocks.append(ParityBlock(
            multiplicity=math.comb(k, q) - (math.comb(k, q - 1) if q else 0),
            even=scale * (s * even_mask) @ s.T,
            odd=scale * (s * ~even_mask) @ s.T,
            cross=scale * (s.T @ s)[np.ix_(even_mask, ~even_mask)]))
    for name in ("even", "odd"):
        total = sum(b.multiplicity * float(np.trace(getattr(b, name))) for b in blocks)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"block route: trace of rho_{name} is {total!r}, not 1")
    return blocks


class ParityBounds(NamedTuple):
    """Discrimination figures of rho_even against rho_odd at equal priors."""

    fidelity: float
    trace_distance: float
    helstrom_guess: float


def parity_bounds(k: int) -> ParityBounds:
    """Fidelity, trace distance and Helstrom value of the parity mixtures.

    Block route: F = sum_q mult_q ||cross_q||_* (no square roots of
    rank-deficient spectra), and ||rho_even - rho_odd||_1 = sum_q mult_q
    ||even_q - odd_q||_1. The usd bound is 1 - F.
    """
    fid = 0.0
    norm1 = 0.0
    for block in parity_blocks(k):
        if block.cross.size:
            fid += block.multiplicity * float(np.linalg.svd(block.cross, compute_uv=False).sum())
        norm1 += block.multiplicity * float(
            np.abs(np.linalg.eigvalsh(block.even - block.odd)).sum())
    return ParityBounds(fidelity=fid, trace_distance=0.5 * norm1,
                        helstrom_guess=0.5 * (1.0 + 0.5 * norm1))


def helstrom_parity_table(k: int) -> np.ndarray:
    """p(even outcome | w), w = 0..k, of the joint Helstrom measurement.

    The measurement projects onto the positive part of rho_even - rho_odd
    = 2 D^(x)k / 2**k, i.e. onto (1 + sign(D)^(x)k) / 2, so a product of
    k - w UP and w RIGHT states gives the even outcome with probability
    (1 + t_up^(k-w) t_right^w) / 2, t = <phi|sign(D)|phi>.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = _parity_factor()
    w, u = np.linalg.eigh(g @ np.diag([1.0, -1.0]) @ g.T)
    sign_d = (u * np.sign(w)) @ u.T
    t_up, t_right = np.diag(g.T @ sign_d @ g)
    weight = np.arange(k + 1)
    return 0.5 * (1.0 + t_up ** (k - weight) * t_right ** weight)
