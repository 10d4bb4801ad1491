"""Kernel tests: states, distances, discrimination bounds, Born probabilities."""

import math
import tracemalloc

import numpy as np
import pytest

from qpq import quantum
from qpq.adversaries import BiasedBob
from qpq.protocol import OUTCOME_SECOND_PROB, HonestAlice, HonestBob, ProtocolConfig
from qpq.quantum import (
    DENSE_K_MAX,
    K_MAX,
    DensityMatrix,
    PureState,
    SargSymbol,
    dense_route_bytes,
    helstrom_guess,
    helstrom_parity_table,
    kron_power,
    parity_bounds,
    parity_mixtures,
    sarg_state,
)

from conftest import (
    fidelity,
    parity_bounds_dense,
    parity_mixtures_bruteforce,
    parity_usd_bound_50_digits,
    parity_usd_bound_closed_form_50_digits,
    random_density,
    random_pure,
    trace_distance,
    usd_bound,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Frozen oracle values for the discrimination-bound curve, computed ahead of
# the build with a 50-digit eigendecomposition on the enumeration
# construction. Adjacent (odd, even) depths share the exact same bound.
USD_BOUND_ORACLE = {
    1: 0.292893218813452476,
    2: 0.292893218813452476,
    3: 0.116116523516815594,
    4: 0.116116523516815594,
    5: 0.049825262780576764,
    6: 0.049825262780576764,
}


class TestStateTypes:
    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([bad, 0.0]))

    def test_pure_state_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.array([[1.1, 0.0], [0.0, -0.1]]))

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_states_freeze_their_own_array_not_the_callers(self):
        amplitudes = np.array([INV_SQRT2, INV_SQRT2])
        matrix = np.eye(2) / 2
        state, rho = PureState(amplitudes), DensityMatrix(matrix)
        assert amplitudes.flags.writeable and matrix.flags.writeable
        assert not state.amplitudes.flags.writeable and not rho.matrix.flags.writeable


class TestSargStates:
    def test_up_is_first_axis(self):
        np.testing.assert_allclose(sarg_state(SargSymbol.UP).amplitudes, [1.0, 0.0])

    def test_down_is_second_axis(self):
        np.testing.assert_allclose(sarg_state(SargSymbol.DOWN).amplitudes, [0.0, 1.0],
                                   atol=1e-15)

    def test_right_is_midway(self):
        np.testing.assert_allclose(sarg_state(SargSymbol.RIGHT).amplitudes,
                                   [INV_SQRT2, INV_SQRT2])

    def test_adjacent_overlaps_are_inv_sqrt2(self):
        """Every announceable pair has overlap 1/sqrt(2)."""
        for s in SargSymbol:
            other = SargSymbol((int(s) + 1) % 4)
            assert abs(abs(sarg_state(s).overlap(sarg_state(other))) - INV_SQRT2) < 1e-12

    def test_symbol_bit_follows_basis(self):
        assert SargSymbol.UP.bit == SargSymbol.DOWN.bit == 0
        assert SargSymbol.RIGHT.bit == SargSymbol.LEFT.bit == 1


class TestTraceDistance:
    def test_identical_states_are_at_zero(self, rng):
        rho = random_density(rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_up_right_value(self):
        """Pure-state closed form sqrt(1 - overlap**2)."""
        d = trace_distance(sarg_state(SargSymbol.UP).density(),
                           sarg_state(SargSymbol.RIGHT).density())
        assert d == pytest.approx(math.sqrt(1.0 - 0.5), abs=1e-12)

    def test_orthogonal_states_are_at_one(self):
        d = trace_distance(sarg_state(SargSymbol.UP).density(),
                           sarg_state(SargSymbol.DOWN).density())
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(50):
            a, b, c = (random_density(rng, dim=4) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_zero_iff_equal(self, rng):
        for _ in range(25):
            a = random_density(rng)
            b = random_density(rng)
            d = trace_distance(a, b)
            if np.allclose(a.matrix, b.matrix, atol=1e-12):
                assert d < 1e-9
            else:
                assert d > 1e-9

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(random_density(rng, 2), random_density(rng, 4))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        rho = random_density(rng, dim=4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_state_overlap_convention(self):
        f = fidelity(sarg_state(SargSymbol.UP).density(),
                     sarg_state(SargSymbol.RIGHT).density())
        assert f == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_orthogonal_states_have_zero_fidelity(self):
        f = fidelity(sarg_state(SargSymbol.LEFT).density(),
                     sarg_state(SargSymbol.RIGHT).density())
        assert f == pytest.approx(0.0, abs=1e-7)

    def test_random_pure_pairs_match_overlap(self, rng):
        for _ in range(25):
            a, b = random_pure(rng, 4), random_pure(rng, 4)
            f = fidelity(a.density(), b.density())
            assert f == pytest.approx(abs(a.overlap(b)), abs=1e-8)

    def test_fuchs_van_de_graaf_bounds(self, rng):
        """1 - F <= D <= sqrt(1 - F**2) on random pairs."""
        for _ in range(50):
            a = random_density(rng, dim=4, rank=int(rng.integers(1, 5)))
            b = random_density(rng, dim=4, rank=int(rng.integers(1, 5)))
            f = fidelity(a, b)
            d = trace_distance(a, b)
            assert 1.0 - f <= d + 1e-9
            assert d <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-9


class TestHelstromGuess:
    def test_indistinguishable_states_return_the_prior(self, rng):
        rho = random_density(rng)
        assert helstrom_guess(rho, rho, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_up_right_equal_priors(self):
        p = helstrom_guess(sarg_state(SargSymbol.UP).density(),
                           sarg_state(SargSymbol.RIGHT).density(), 0.5)
        assert p == pytest.approx(0.5 + 0.5 * INV_SQRT2, abs=1e-12)

    def test_never_below_the_prior(self, rng):
        for _ in range(50):
            prior = float(rng.random())
            p = helstrom_guess(random_density(rng, 4), random_density(rng, 4), prior)
            assert p >= max(prior, 1.0 - prior) - 1e-12

    def test_invalid_prior_raises(self, rng):
        with pytest.raises(ValueError, match="prior"):
            helstrom_guess(random_density(rng), random_density(rng), 1.2)


class TestUsdBound:
    def test_up_right_bound_and_feasibility(self):
        res = usd_bound(sarg_state(SargSymbol.UP).density(),
                        sarg_state(SargSymbol.RIGHT).density())
        assert res.bound == pytest.approx(1.0 - INV_SQRT2, abs=1e-12)
        assert res.feasible

    def test_identical_states_are_infeasible(self, rng):
        rho = random_density(rng)
        res = usd_bound(rho, rho)
        assert res.bound == pytest.approx(0.0, abs=1e-9)
        assert not res.feasible

    def test_full_rank_pair_is_infeasible(self, rng):
        res = usd_bound(random_density(rng, 2, rank=2), random_density(rng, 2, rank=2))
        assert not res.feasible

    def test_distinct_pure_states_are_feasible(self, rng):
        a, b = random_pure(rng), random_pure(rng)
        assert usd_bound(a.density(), b.density()).feasible


def born_second(state_matrix: np.ndarray, basis: int) -> float:
    """Tr(rho P) for the projector onto the second member (symbol basis + 2) of a basis."""
    second = sarg_state(SargSymbol(basis + 2)).amplitudes
    return float(second @ state_matrix @ second)


class TestMeasure:
    """The engine samples Alice's outcome from OUTCOME_SECOND_PROB (honest
    symbols) or a strategy's round layout; both must be the exact Born rule."""

    def test_eigenstate_is_deterministic(self):
        for s in SargSymbol:
            basis = s.basis_index
            expected = 1.0 if s in (SargSymbol.DOWN, SargSymbol.LEFT) else 0.0
            assert OUTCOME_SECOND_PROB[int(s), basis] == pytest.approx(expected, abs=1e-12)

    def test_right_in_vertical_basis_is_balanced(self):
        """Every symbol lands on either member of the other basis with chance 1/2."""
        for s in SargSymbol:
            assert OUTCOME_SECOND_PROB[int(s), 1 - s.basis_index] == pytest.approx(
                0.5, abs=1e-15)

    def test_intermediate_state_down_rate(self):
        """State midway between UP and RIGHT lands on DOWN (and LEFT) at sin^2(pi/8)."""
        config = ProtocolConfig(n=4, k=1)
        table = BiasedBob(math.pi / 8.0).rounds(4, config, None).layout.second
        p = math.sin(math.pi / 8.0) ** 2
        np.testing.assert_allclose(table, [[p, p]], rtol=0.0, atol=1e-15)

    def test_density_matrix_input_matches_pure_input(self):
        for s in SargSymbol:
            rho = sarg_state(s).density().matrix
            for basis in (0, 1):
                assert born_second(rho, basis) == pytest.approx(
                    OUTCOME_SECOND_PROB[int(s), basis], abs=1e-15)

    def test_probabilities_sum_to_one_on_random_inputs(self, rng):
        for _ in range(50):
            rho = random_density(rng).matrix
            for basis in (0, 1):
                first = sarg_state(SargSymbol(basis)).amplitudes
                assert float(first @ rho @ first) + born_second(rho, basis) == \
                    pytest.approx(1.0, abs=1e-12)
        assert OUTCOME_SECOND_PROB.min() >= 0.0 and OUTCOME_SECOND_PROB.max() <= 1.0

    def test_deterministic_given_stream(self):
        config = ProtocolConfig(n=64, k=1)

        def outcomes(seed):
            rng = np.random.default_rng(seed)
            rounds = HonestBob().rounds(config.raw_length, config, rng)
            return HonestAlice().respond(rounds, np.arange(len(rounds)), config, rng).outcome

        for seed in range(8):
            assert np.array_equal(outcomes(seed), outcomes(seed))


class TestParityMixtures:
    def test_k1_reduces_to_the_pure_pair(self):
        even, odd = parity_mixtures(1)
        np.testing.assert_allclose(even.matrix, sarg_state(SargSymbol.UP).density().matrix,
                                   atol=1e-12)
        np.testing.assert_allclose(odd.matrix, sarg_state(SargSymbol.RIGHT).density().matrix,
                                   atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_bruteforce_enumeration(self, k):
        even, odd = parity_mixtures(k)
        even_bf, odd_bf = parity_mixtures_bruteforce(k)
        np.testing.assert_allclose(even.matrix, even_bf.matrix, atol=1e-12)
        np.testing.assert_allclose(odd.matrix, odd_bf.matrix, atol=1e-12)

    def test_k2_trace_distance_is_half(self):
        even, odd = parity_mixtures_bruteforce(2)
        assert trace_distance(even, odd) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_trace_distance_closed_form(self, k):
        even, odd = parity_mixtures(k)
        assert abs(trace_distance(even, odd) - 2.0 ** (-k / 2.0)) < 1e-9

    def test_k7_helstrom_value(self):
        even, odd = parity_mixtures(7)
        assert helstrom_guess(even, odd, 0.5) == pytest.approx(0.544, abs=5e-4)

    @pytest.mark.parametrize("k", sorted(USD_BOUND_ORACLE))
    def test_usd_bound_matches_frozen_oracle(self, k):
        even, odd = parity_mixtures(k)
        assert 1.0 - fidelity(even, odd) == pytest.approx(USD_BOUND_ORACLE[k], abs=1e-8)

    def test_usd_bound_non_increasing_and_steps_at_even_to_odd(self):
        """The bound never grows with k; the genuine drops happen entering odd k."""
        bounds = []
        for k in range(1, 9):
            even, odd = parity_mixtures(k)
            bounds.append(1.0 - fidelity(even, odd))
        for prev, cur in zip(bounds, bounds[1:]):
            assert cur <= prev + 1e-9
        for k in range(3, 9, 2):  # 2 -> 3, 4 -> 5, 6 -> 7
            assert bounds[k - 1] < bounds[k - 2] - 1e-3

    def test_k_out_of_range_raises(self):
        with pytest.raises(ValueError, match="k must"):
            parity_mixtures(0)
        with pytest.raises(ValueError, match="k must"):
            parity_mixtures(17)

    def test_dense_route_rejects_k_above_its_cap_before_allocating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense route allocated")
        monkeypatch.setattr(quantum, "kron_power", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense route") as info:
                parity_mixtures(DENSE_K_MAX + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(dense_route_bytes(DENSE_K_MAX + 1)) in str(info.value)
        assert peak < 64 * 1024

    def test_dense_byte_estimate(self):
        assert dense_route_bytes(1) == 64
        assert dense_route_bytes(13) == 2 * 4 ** 13 * 8


class TestParityBlocks:
    """`parity_bounds` by its route: in the |+/-> basis the mixtures are
    block-diagonal, one 2x2 block per plane {z, ~z}."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_block_route_matches_dense_route(self, k):
        plane = parity_bounds(k)
        dense = parity_bounds_dense(k)
        assert abs(plane.fidelity - dense.fidelity) <= 1e-12
        assert abs(plane.trace_distance - dense.trace_distance) <= 1e-12
        assert abs(plane.helstrom_guess - dense.helstrom_guess) <= 1e-12

    def test_block_route_at_50_digits(self):
        pytest.importorskip("mpmath")
        exact = float(parity_usd_bound_50_digits(5))
        assert abs((1.0 - parity_bounds(5).fidelity) - exact) <= 1e-12

    def test_block_route_matches_the_binomial_closed_form(self):
        pytest.importorskip("mpmath")
        for k in range(1, K_MAX + 1):
            exact = float(parity_usd_bound_closed_form_50_digits(k))
            assert abs((1.0 - parity_bounds(k).fidelity) - exact) <= 1e-12, k

    def test_closed_form_matches_the_frozen_oracle(self):
        pytest.importorskip("mpmath")
        for k, value in USD_BOUND_ORACLE.items():
            assert float(parity_usd_bound_closed_form_50_digits(k)) == pytest.approx(
                value, abs=1e-17)

    @pytest.mark.parametrize("k", range(1, K_MAX + 1))
    def test_trace_distance_and_helstrom_closed_forms(self, k):
        bounds = parity_bounds(k)
        assert abs(bounds.trace_distance - 2.0 ** (-k / 2.0)) <= 1e-12
        assert abs(bounds.helstrom_guess - (0.5 + 0.5 * 2.0 ** (-k / 2.0))) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 8))
    def test_mixtures_split_into_pure_planes(self, k):
        """In the |+/-> basis both mixtures live on the planes {z, ~z}, where
        they are the outer products of (c_z, +/-c_~z)."""
        up = sarg_state(SargSymbol.UP).amplitudes
        right = sarg_state(SargSymbol.RIGHT).amplitudes
        plus_minus = np.column_stack([(up + right) / np.linalg.norm(up + right),
                                      (up - right) / np.linalg.norm(up - right)])
        basis = kron_power(plus_minus, k)
        z = np.arange(2 ** k)
        flip = z ^ (2 ** k - 1)
        on_plane = (z[:, None] == z[None, :]) | (flip[:, None] == z[None, :])
        p = math.sin(math.pi / 8) ** 2
        weight = np.array([bin(v).count("1") for v in z])
        c = np.sqrt((1.0 - p) ** (k - weight) * p ** weight)
        for sign, rho in zip((1.0, -1.0), parity_mixtures(k)):
            rotated = basis.T @ rho.matrix @ basis
            assert np.abs(rotated[~on_plane]).max(initial=0.0) <= 1e-12
            for v in z[z < flip]:
                plane = [v, flip[v]]
                vec = np.array([c[v], sign * c[flip[v]]])
                np.testing.assert_allclose(rotated[np.ix_(plane, plane)], np.outer(vec, vec),
                                           rtol=0.0, atol=1e-12)

    def test_k_range(self):
        with pytest.raises(ValueError, match="k must"):
            parity_bounds(0)
        with pytest.raises(ValueError, match="k must"):
            parity_bounds(K_MAX + 1)


class TestHelstromParityTable:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_table_matches_the_dense_projector(self, k):
        even, odd = parity_mixtures(k)
        w, u = np.linalg.eigh(even.matrix - odd.matrix)
        positive = u[:, w >= 0.0]
        up = sarg_state(SargSymbol.UP).amplitudes
        right = sarg_state(SargSymbol.RIGHT).amplitudes
        table = helstrom_parity_table(k)
        for weight in range(k + 1):
            state = np.ones(1)
            for i in range(k):
                state = np.kron(state, right if i < weight else up)
            assert abs(table[weight] - float(((state @ positive) ** 2).sum())) <= 1e-12

    def test_closed_form(self):
        table = helstrom_parity_table(9)
        expected = 0.5 * (1.0 + (-1.0) ** np.arange(10) * 2.0 ** (-9 / 2.0))
        np.testing.assert_allclose(table, expected, atol=1e-15)

    def test_k_below_one_raises(self):
        with pytest.raises(ValueError, match="k must"):
            helstrom_parity_table(0)
