import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    enumerate_event_probability,
    partial_trace_oracle,
    permute_qubits,
    random_state,
    residual_tangle_oracle,
)
from wqsc import (
    Axis,
    DensityMatrix,
    InvalidStateError,
    Outcome,
    Party,
    StateVector,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    collapse,
    eigenvalues_hermitian,
    ghz_state,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    partial_transpose,
    plus_probability,
    reduced_density,
    three_tangle,
    w_state,
)
from wqsc.qcore import _axis_components, _masses, _split_on_qubit

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE

PPT_MIN_EIG = (1.0 - math.sqrt(5.0)) / 6.0
HALF_PI = math.pi / 2.0


class TestStateVector:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_rejects_non_finite_amplitudes(self):
        with pytest.raises(InvalidStateError):
            StateVector(np.array([np.nan, 0.0], dtype=complex))
        with pytest.raises(InvalidStateError):
            StateVector(np.array([np.inf, 0.0], dtype=complex))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            StateVector(np.array([1.0], dtype=complex))
        with pytest.raises(ValueError):
            StateVector(np.zeros(64, dtype=complex))  # six qubits

    def test_amplitudes_are_frozen(self):
        state = w_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestDensityMatrix:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        # Tolerance checks compare False against NaN, so they cannot catch it.
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((2, 2), value, dtype=complex))
        entries = np.eye(4, dtype=complex) / 4.0
        entries[1, 2] = entries[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(entries)


class TestMakeBasisState:
    def test_all_plus_hits_index_zero(self):
        state = make_basis_state(3, [PLUS, PLUS, PLUS])
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_leading_minus_is_msb(self):
        state = make_basis_state(3, [MINUS, PLUS, PLUS])
        assert state.amplitudes[4] == 1.0

    def test_four_qubit_ordering(self):
        state = make_basis_state(4, [PLUS, PLUS, MINUS, MINUS])
        assert state.amplitudes[3] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_basis_state(3, [PLUS, PLUS])
        with pytest.raises(ValueError):
            make_basis_state(6, [PLUS] * 6)


class TestMeasureQubit:
    def test_w_charlie_z_high_draw_collapses_to_product(self):
        outcome, post, prob = measure_qubit(w_state(), C, Axis.Z, 0.9)
        assert outcome is MINUS
        assert prob == pytest.approx(1.0 / 3.0, abs=1e-12)
        expected = make_basis_state(3, [PLUS, PLUS, MINUS])
        assert np.max(np.abs(post.amplitudes - expected.amplitudes)) < 1e-12

    def test_w_charlie_z_low_draw_collapses_to_bell_pair(self):
        outcome, post, prob = measure_qubit(w_state(), C, Axis.Z, 0.1)
        assert outcome is PLUS
        assert prob == pytest.approx(2.0 / 3.0, abs=1e-12)
        expected = np.zeros(8, dtype=complex)
        expected[4] = expected[2] = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(post.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.999999])
    def test_eigenstate_is_unchanged(self, u):
        state = make_basis_state(3, [PLUS, PLUS, PLUS])
        outcome, post, prob = measure_qubit(state, A, Axis.Z, u)
        assert outcome is PLUS
        assert prob == 1.0
        assert np.array_equal(post.amplitudes, state.amplitudes)

    def test_draw_bounds_enforced(self):
        with pytest.raises(ValueError):
            measure_qubit(w_state(), A, Axis.Z, 1.0)
        with pytest.raises(ValueError):
            measure_qubit(w_state(), A, Axis.Z, -0.01)

    def test_qubit_index_checked(self):
        with pytest.raises(ValueError):
            measure_qubit(w_state(), 3, Axis.Z, 0.5)

    def test_probability_matches_joint_probability(self):
        # Measurement consistency over many random states and both axes.
        rng = np.random.default_rng(808)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            qubit = int(rng.integers(n))
            axis = Axis.Z if rng.random() < 0.5 else Axis.X
            outcome, post, prob = measure_qubit(state, qubit, axis, float(rng.random()))
            assert prob == pytest.approx(
                joint_probability(state, [(qubit, axis, outcome)]), abs=1e-12
            )
            assert post.squared_norm() == pytest.approx(1.0, abs=1e-9)
            # measure_qubit is exactly the composition of its two steps.
            p_plus = plus_probability(state, qubit, axis)
            assert prob == (p_plus if outcome is PLUS else 1.0 - p_plus)
            collapsed = collapse(state, qubit, axis, outcome)
            assert post.amplitudes.tobytes() == collapsed.amplitudes.tobytes()

    def test_collapses_onto_branch_of_subnormal_mass(self):
        # A weak coupling leaves amplitudes near 1e-161 whose squares are
        # subnormal; a draw of 0 selects that branch on C and must still
        # yield a normalized post-state.
        state = apply_attack(w_state(), UnitaryCouplingAttack(8.4e-161, Party.ALICE))
        for qubit in (A, B, C):
            outcome, state, prob = measure_qubit(state, qubit, Axis.Z, 0.0)
            assert outcome is PLUS
            assert prob > 0.0
            assert state.squared_norm() == pytest.approx(1.0, abs=1e-12)
        assert prob < sys.float_info.min

    def test_collapse_outcome_argument(self):
        # A plain bit selects the same branch as its Outcome.
        for bit, outcome in enumerate(Outcome):
            expected = collapse(w_state(), A, Axis.X, outcome).amplitudes
            assert np.array_equal(collapse(w_state(), A, Axis.X, bit).amplitudes, expected)
        with pytest.raises(ValueError):
            collapse(make_basis_state(3, [PLUS, PLUS, PLUS]), A, Axis.Z, MINUS)


class TestStackedMass:
    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_stacked_rows_match_single_states(self, num_qubits):
        # The outcome table's batched passes match plus_probability bit for
        # bit only if a stacked row's mass equals the single state's mass.
        # Middle qubits give strided components; x components are computed.
        rng = np.random.default_rng(50 + num_qubits)
        states = [random_state(rng, num_qubits) for _ in range(21)]
        stack = np.stack([state.amplitudes for state in states]).reshape(3, 7, -1)
        for qubit, axis in itertools.product(range(num_qubits), Axis):
            view = stack.reshape(3, 7, 1 << qubit, 2, -1)  # split on the qubit
            batched = [_masses(c) for c in _axis_components(view, axis)]
            assert batched[0].shape == (3, 7)
            for index, state in enumerate(states):
                row = np.unravel_index(index, (3, 7))
                single = _axis_components(_split_on_qubit(state.amplitudes, qubit), axis)
                for outcome, component in enumerate(single):
                    assert _masses(component).tobytes() == batched[outcome][row].tobytes()
                p_plus = batched[0][row] / (batched[0][row] + batched[1][row])
                assert p_plus == plus_probability(state, qubit, axis)


class TestJointProbability:
    def test_single_matching_basis_term(self):
        p = joint_probability(w_state(), [(A, Axis.Z, PLUS), (B, Axis.Z, PLUS), (C, Axis.Z, MINUS)])
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mixed_axis_event_vanishes_on_w(self):
        p = joint_probability(w_state(), [(A, Axis.Z, PLUS), (B, Axis.X, PLUS), (C, Axis.X, MINUS)])
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_all_plus_x_on_w(self):
        p = joint_probability(w_state(), [(A, Axis.X, PLUS), (B, Axis.X, PLUS), (C, Axis.X, PLUS)])
        assert p == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError):
            joint_probability(w_state(), [(A, Axis.Z, PLUS), (A, Axis.X, PLUS)])

    def test_outcomes_sum_to_one(self):
        # Probability completeness for random states and axis assignments.
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            state = random_state(rng, n)
            k = int(rng.integers(1, n + 1))
            qubits = rng.choice(n, size=k, replace=False)
            axes = [Axis.Z if rng.random() < 0.5 else Axis.X for _ in range(k)]
            total = 0.0
            for combo in itertools.product(tuple(Outcome), repeat=k):
                constraints = [
                    (int(q), axis, outcome) for q, axis, outcome in zip(qubits, axes, combo)
                ]
                total += joint_probability(state, constraints)
            assert total == pytest.approx(1.0, abs=1e-9)


def joint_table(state: StateVector) -> np.ndarray:
    """The 8x8 outcome distribution entry by entry from joint_probability.

    Row s and column o carry the (A, B, C) bits of the axes (z as 0) and of
    the outcomes (PLUS as 0); any qubit past C is marginalized.
    """
    table = np.zeros((8, 8))
    for s, o in itertools.product(range(8), repeat=2):
        table[s, o] = joint_probability(state, [
            (p, Axis.X if (s >> (2 - p)) & 1 else Axis.Z, Outcome((o >> (2 - p)) & 1))
            for p in (A, B, C)
        ])
    return table


def assert_matches_joint_probability(state: StateVector) -> None:
    dist = outcome_distribution(state)
    oracle = joint_table(state)
    assert dist.shape == (8, 8)
    assert np.max(np.abs(dist - oracle)) <= 1e-15
    # Exact cancellations stay exact: a zero of the oracle is a zero here.
    assert np.array_equal(dist == 0.0, oracle == 0.0)
    assert np.max(np.abs(dist.sum(axis=1) - 1.0)) <= 1e-12


class TestOutcomeDistribution:
    @settings(max_examples=60, deadline=None)
    @given(
        phi=st.floats(min_value=0.0, max_value=HALF_PI),
        target=st.sampled_from([None, A, B, C]),
    )
    @example(phi=0.0, target=None)
    @example(phi=HALF_PI, target=C)
    @example(phi=8.4e-161, target=A)  # amplitudes whose squares are subnormal
    def test_attacked_states_match_joint_probability(self, phi, target):
        assert_matches_joint_probability(attacked_w_state(phi))
        if target is None:
            assert_matches_joint_probability(w_state())
        else:
            attack = UnitaryCouplingAttack(phi, target)
            assert_matches_joint_probability(apply_attack(w_state(), attack))

    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.sampled_from([3, 4, 5]), seed=st.integers(0, 2**32 - 1))
    def test_random_states_match_joint_probability(self, num_qubits, seed):
        assert_matches_joint_probability(random_state(np.random.default_rng(seed), num_qubits))

    def test_requires_three_party_qubits(self):
        with pytest.raises(ValueError):
            outcome_distribution(make_basis_state(2, [PLUS, PLUS]))


class TestReducedDensity:
    def test_w_pair_matrix(self):
        rho = reduced_density(w_state(), (A, B)).entries
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[1, 1] = expected[2, 2] = 1.0 / 3.0
        expected[1, 2] = expected[2, 1] = 1.0 / 3.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_ghz_single_qubit_is_maximally_mixed(self):
        rho = reduced_density(ghz_state(), (A,)).entries
        assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12

    def test_product_state_reduces_to_projector(self):
        state = make_basis_state(3, [PLUS, PLUS, PLUS])
        rho = reduced_density(state, (B, C)).entries
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_trace_preserved_for_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            state = random_state(rng, n)
            k = int(rng.integers(1, min(2, n - 1) + 1))
            keep = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            rho = reduced_density(state, keep).entries
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(rho - partial_trace_oracle(state, tuple(sorted(keep))))) < 1e-10

    def test_invalid_keep_sets(self):
        with pytest.raises(ValueError):
            reduced_density(w_state(), ())
        with pytest.raises(ValueError):
            reduced_density(w_state(), (A, B, C))
        with pytest.raises(ValueError):
            reduced_density(w_state(), (5,))


class TestPartialTranspose:
    def test_w_pair_has_negative_eigenvalue(self):
        transposed = partial_transpose(reduced_density(w_state(), (A, B)), "second")
        assert np.max(np.abs(transposed - transposed.conj().T)) < 1e-12
        assert eigenvalues_hermitian(transposed)[0] == pytest.approx(PPT_MIN_EIG, abs=1e-10)

    def test_diagonal_matrices_invariant(self):
        identity = DensityMatrix(np.eye(4) / 4.0)
        assert np.array_equal(partial_transpose(identity, "second"), identity.entries)
        ghz_pair = np.zeros((4, 4), dtype=complex)
        ghz_pair[0, 0] = ghz_pair[3, 3] = 0.5
        dm = DensityMatrix(ghz_pair)
        transposed = partial_transpose(dm, "second")
        assert np.array_equal(transposed, ghz_pair)
        assert eigenvalues_hermitian(transposed)[0] == pytest.approx(0.0, abs=1e-12)

    def test_first_and_second_agree_for_real_symmetric(self):
        dm = reduced_density(w_state(), (A, B))
        t_first = partial_transpose(dm, "first")
        t_second = partial_transpose(dm, "second")
        assert np.max(np.abs(t_first - t_second.T)) < 1e-12

    def test_rejects_single_qubit_matrix_and_bad_label(self):
        single = reduced_density(ghz_state(), (A,))
        with pytest.raises(ValueError):
            partial_transpose(single, "second")
        with pytest.raises(ValueError):
            partial_transpose(reduced_density(w_state(), (A, B)), "third")


class TestEigenvaluesHermitian:
    def test_half_identity(self):
        assert eigenvalues_hermitian(np.eye(2) / 2.0) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_diagonal_sorted(self):
        values = eigenvalues_hermitian(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))
        assert values == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-12)

    def test_w_pair_partial_transpose_spectrum(self):
        transposed = partial_transpose(reduced_density(w_state(), (B, C)), "second")
        values = eigenvalues_hermitian(transposed)
        expected = sorted(
            [(1.0 - math.sqrt(5.0)) / 6.0, 1.0 / 3.0, 1.0 / 3.0, (1.0 + math.sqrt(5.0)) / 6.0]
        )
        assert values == pytest.approx(expected, abs=1e-10)

    def test_recovers_planted_spectrum(self):
        # Oracle: matrices built as U diag(d) U^dagger must return d.
        rng = np.random.default_rng(37)
        for _ in range(200):
            dim = 4 if rng.random() < 0.7 else 2
            d = np.sort(rng.normal(size=dim))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            unitary, _ = np.linalg.qr(raw)
            matrix = unitary @ np.diag(d) @ unitary.conj().T
            values = eigenvalues_hermitian(matrix)
            assert np.max(np.abs(np.array(values) - d)) < 1e-8

    def test_rejects_non_hermitian_and_bad_dims(self):
        with pytest.raises(ValueError):
            eigenvalues_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eigenvalues_hermitian(np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_hermitian(np.full((2, 2), value))


class TestThreeTangle:
    def test_ghz_is_maximal(self):
        assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-9)

    def test_w_vanishes(self):
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-9)

    def test_unentangled_third_qubit(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b011] = 1.0 / math.sqrt(2.0)  # |+> x Bell(B, C)
        assert three_tangle(StateVector(amps)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("weight", [0.1, 0.25, 0.5, 0.8])
    def test_biseparable_superposition_value(self, weight):
        # For l1|000> + l2|111> the tangle equals (2 l1 l2)^2.
        l1 = math.sqrt(weight)
        l2 = math.sqrt(1.0 - weight)
        amps = np.zeros(8, dtype=complex)
        amps[0] = l1
        amps[7] = l2
        assert three_tangle(StateVector(amps)) == pytest.approx((2 * l1 * l2) ** 2, abs=1e-12)

    def test_matches_residual_construction(self):
        # The oracle takes square roots of near-zero eigenvalues, so its own
        # accuracy is around sqrt(machine eps); compare at that level.
        rng = np.random.default_rng(5150)
        for _ in range(200):
            state = random_state(rng, 3)
            assert three_tangle(state) == pytest.approx(
                residual_tangle_oracle(state), abs=5e-7
            )

    def test_invariant_under_qubit_relabeling(self):
        rng = np.random.default_rng(5151)
        for _ in range(20):
            state = random_state(rng, 3)
            reference = three_tangle(state)
            for perm in itertools.permutations(range(3)):
                assert three_tangle(permute_qubits(state, perm)) == pytest.approx(
                    reference, abs=1e-10
                )

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            three_tangle(make_basis_state(2, [PLUS, PLUS]))


class TestOutcomeEnumeration:
    def test_brute_force_oracle_matches_direct_projection(self):
        # joint_probability of a full constraint equals the single-string sum.
        state = w_state()
        p = enumerate_event_probability(
            state,
            [(A, Axis.Z), (B, Axis.Z), (C, Axis.Z)],
            lambda bits: bits[A] is PLUS and bits[B] is PLUS and bits[C] is MINUS,
        )
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
