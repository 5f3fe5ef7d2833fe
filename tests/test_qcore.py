import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    butterfly_outcome_distributions,
    enumerate_event_probability,
    gather_outcome_distributions,
    gather_outcome_masses,
    partial_trace_oracle,
    permute_qubits,
    random_state,
    residual_tangle_oracle,
    scalar_measure_qubit,
    weighted_event_masses,
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
    eigenvalues_hermitian,
    event_masses,
    ghz_state,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    outcome_distributions,
    partial_transpose,
    reduced_densities,
    reduced_density,
    three_tangle,
    w_state,
)
from wqsc import qcore
from wqsc.states import attacked_w_amplitudes
from wqsc.qcore import _axis_components, _masses, _split_on_qubit

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE

PPT_MIN_EIG = (1.0 - math.sqrt(5.0)) / 6.0
HALF_PI = math.pi / 2.0


# The former formulations, kept as references: the current code must give
# their results byte for byte.
def tensordot_reduced_density(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace onto the ascending ``keep`` by ``np.tensordot`` over the rest."""
    n = state.num_qubits
    discard = [q for q in range(n) if q not in keep]
    tensor = state.amplitudes.reshape((2,) * n)
    rho = np.tensordot(tensor, tensor.conj(), axes=(discard, discard))
    dim = 1 << len(keep)
    return rho.reshape(dim, dim)


def per_amplitude_three_tangle(state: StateVector) -> float:
    """The hyperdeterminant with each amplitude read by its own ``complex(a[i])``."""
    a = state.amplitudes

    def amp(i: int, j: int, k: int) -> complex:
        return complex(a[(i << 2) | (j << 1) | k])

    d1 = (
        amp(0, 0, 0) ** 2 * amp(1, 1, 1) ** 2
        + amp(0, 0, 1) ** 2 * amp(1, 1, 0) ** 2
        + amp(0, 1, 0) ** 2 * amp(1, 0, 1) ** 2
        + amp(1, 0, 0) ** 2 * amp(0, 1, 1) ** 2
    )
    d2 = (
        amp(0, 0, 0) * amp(1, 1, 1) * amp(0, 1, 1) * amp(1, 0, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(1, 0, 1) * amp(0, 1, 0) * amp(1, 1, 0) * amp(0, 0, 1)
    )
    d3 = amp(0, 0, 0) * amp(1, 1, 0) * amp(1, 0, 1) * amp(0, 1, 1) + amp(1, 1, 1) * amp(
        0, 0, 1
    ) * amp(0, 1, 0) * amp(1, 0, 0)
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


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
        with pytest.raises(ValueError, match="one-dimensional"):
            StateVector(np.eye(2, dtype=complex) / math.sqrt(2.0))

    def test_amplitudes_are_frozen(self):
        state = w_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    # NORM_ATOL is 1e-6: a squared norm 5e-7 off 1 is admitted, 2e-6 off is not.
    @pytest.mark.parametrize("excess", [5e-7, -5e-7])
    def test_admits_a_squared_norm_within_tolerance(self, excess):
        state = StateVector(w_state().amplitudes * math.sqrt(1.0 + excess))
        assert state.squared_norm() == pytest.approx(1.0 + excess, abs=1e-15)

    @pytest.mark.parametrize("excess", [2e-6, -2e-6])
    def test_refuses_a_squared_norm_beyond_tolerance(self, excess):
        with pytest.raises(InvalidStateError, match="squared norm"):
            StateVector(w_state().amplitudes * math.sqrt(1.0 + excess))


def off_norm_stack(excess: float) -> np.ndarray:
    """Four attacked amplitude rows, the last scaled to squared norm 1 + ``excess``."""
    stack = attacked_w_amplitudes([0.0, 0.4, 1.1, HALF_PI])
    stack[-1] *= math.sqrt(1.0 + excess)
    return stack


class TestAmplitudeStackGate:
    """``outcome_distributions`` runs the StateVector gate on each row of an amplitude stack."""

    @pytest.mark.parametrize("excess", [5e-7, -5e-7])
    def test_admits_a_last_row_within_tolerance(self, excess):
        stack = off_norm_stack(excess)
        live = outcome_distributions(stack)
        for row, dist in zip(stack, live):
            assert dist.tobytes() == outcome_distribution(StateVector(row)).tobytes()

    @pytest.mark.parametrize("excess", [2e-6, -2e-6])
    def test_refuses_a_last_row_beyond_tolerance(self, excess):
        with pytest.raises(InvalidStateError, match="squared norm"):
            outcome_distributions(off_norm_stack(excess))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_a_last_row_that_is_not_finite(self, value):
        stack = off_norm_stack(0.0)
        stack[-1, 3] = value
        with pytest.raises(InvalidStateError, match="finite"):
            outcome_distributions(stack)

    @pytest.mark.parametrize("amps, message", [
        (np.zeros(16, dtype=complex), "two-dimensional"),
        (np.zeros((2, 2, 16), dtype=complex), "two-dimensional"),
        (np.zeros((0, 16), dtype=complex), "at least one state"),
        (np.zeros((2, 12), dtype=complex), "power of two"),
        (np.zeros((2, 64), dtype=complex), "qubit count"),
        (np.eye(4, dtype=complex), "at least three qubits"),
    ], ids=["1-d", "3-d", "empty", "12-amplitudes", "six-qubits", "two-qubits"])
    def test_refuses_a_malformed_stack(self, amps, message):
        with pytest.raises(ValueError, match=message):
            outcome_distributions(amps)

    def test_reads_each_total_from_a_contiguous_row(self):
        # A column-major stack is copied to rows first: np.vdot on a strided
        # row sums in another order and would move the quotients' bytes.
        stack = attacked_w_amplitudes(PLAN_PHIS[:40])
        strided = np.asfortranarray(stack)
        assert outcome_distributions(strided).tobytes() == outcome_distributions(stack).tobytes()


# Finite matrices whose Hermitian part overflows: its sum, or the
# difference the Hermiticity check reads.
OVERFLOWING_MATRICES = [
    np.array([[0.5, 1e308], [1e308, 0.5]]),
    np.array([[0.5, 1e308], [-1e308, 0.5]]),
    np.array([[0.5, 1e308j], [-1e308j, 0.5]]),
]
OVERFLOW_IDS = ["sum", "difference", "imaginary-sum"]


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

    @pytest.mark.parametrize("entries", OVERFLOWING_MATRICES, ids=OVERFLOW_IDS)
    def test_refuses_a_matrix_whose_hermitian_part_overflows(self, entries):
        # (m + m^dagger) / 2 or m - m^dagger overflows to inf and eigvalsh to
        # NaN, which passes the positivity compare; only a warning was raised.
        with pytest.raises(ValueError, match="density matrix entries must be finite, of modulus"):
            DensityMatrix(entries)

    def test_refuses_a_matrix_whose_eigenvalue_overflows(self):
        # Entries pass the half-the-largest-float gate, but the top eigenvalue
        # is twice the largest float: eigvalsh returned inf, and the trace
        # overflowed with a RuntimeWarning before its ValueError.
        with pytest.raises(ValueError, match="density matrix has an eigenvalue that is not finite"):
            DensityMatrix(np.full((4, 4), sys.float_info.max / 2.0))

    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.full((2, 4), 0.25), "must be square"),
            (np.full(4, 0.25), "must be square"),
            (np.eye(3) / 3.0, "dimension must be 2 or 4, got 3"),
            (np.eye(8) / 8.0, "dimension must be 2 or 4, got 8"),
            (np.eye(2), "trace .* deviates from 1"),
            (np.eye(4) / 2.0, "trace .* deviates from 1"),
            (np.diag([1.5, -0.5]), "eigenvalue below the positivity tolerance"),
            (np.diag([1.0 + 2e-9, 0.0, 0.0, -2e-9]), "eigenvalue below the positivity tolerance"),
        ],
        ids=["2x4", "1-d", "dim-3", "dim-8", "trace-2", "trace-2-dim-4", "negative",
             "just-below-tolerance"],
    )
    def test_rejects_each_contract_breach(self, entries, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(entries)

    def test_accepts_a_negative_eigenvalue_within_tolerance(self):
        assert DensityMatrix(np.diag([1.0 + 5e-10, 0.0, 0.0, -5e-10])).dim == 4

    # HERMITICITY_ATOL is 1e-9: one off-diagonal entry 2e-9 from the
    # conjugate of its mirror is refused, 5e-10 is admitted.
    @pytest.mark.parametrize("dim", [2, 4])
    def test_refuses_a_hermiticity_defect_beyond_tolerance(self, dim):
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(hermiticity_defect(np.eye(dim) / dim, 2e-9))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_admits_a_hermiticity_defect_within_tolerance(self, dim):
        assert DensityMatrix(hermiticity_defect(np.eye(dim) / dim, 5e-10)).dim == dim


def hermiticity_defect(matrices: np.ndarray, defect: float) -> np.ndarray:
    """A complex copy of a matrix or stack, ``defect`` added to its last matrix's entry (0, 1)."""
    defective = np.array(matrices, dtype=np.complex128)
    dim = defective.shape[-1]
    defective.reshape(-1, dim, dim)[-1, 0, 1] += defect
    return defective


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

    # The extreme draws pin that a branch of probability 0 is never chosen.
    @pytest.mark.parametrize("u", [0.0, 0.3, 0.999999, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("bit", [PLUS, MINUS])
    def test_eigenstate_is_unchanged(self, bit, u):
        state = make_basis_state(3, [bit, PLUS, PLUS])
        outcome, post, prob = measure_qubit(state, A, Axis.Z, u)
        assert outcome is bit
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


class TestMeasureQubitBytes:
    """``measure_qubit`` reads its masses as Python floats, with the former numpy-scalar bytes.

    The reference is ``helpers.scalar_measure_qubit``: the outcome, the
    probability and the post-state's amplitudes must match it byte for byte.
    """

    @staticmethod
    def assert_matches_scalar_reads(state, qubit, axis, u):
        outcome, post, probability = measure_qubit(state, qubit, axis, u)
        ref_outcome, ref_post, ref_probability = scalar_measure_qubit(state, qubit, axis, u)
        assert outcome is ref_outcome
        assert np.float64(probability).tobytes() == np.float64(ref_probability).tobytes()
        assert post.amplitudes.tobytes() == ref_post.amplitudes.tobytes()
        return outcome, post, probability

    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_draws_at_and_beside_the_plus_share(self, num_qubits):
        # u = p_plus draws MINUS and the float below it PLUS; the float
        # above it draws MINUS too.
        rng = np.random.default_rng(3500 + num_qubits)
        for _ in range(6):
            state = random_state(rng, num_qubits)
            for qubit, axis in itertools.product(range(num_qubits), Axis):
                p_plus = scalar_measure_qubit(state, qubit, axis, 0.0)[2]
                below, above = math.nextafter(p_plus, 0.0), math.nextafter(p_plus, 1.0)
                for u, expected in ((below, PLUS), (p_plus, MINUS), (above, MINUS)):
                    outcome = self.assert_matches_scalar_reads(state, qubit, axis, u)[0]
                    assert outcome is expected

    def test_branch_of_subnormal_mass(self):
        # phi = 8.4e-161 on A, then A, B and C along z with u = 0.0: C's
        # plus branch has subnormal mass and is rescaled before it is
        # renormalized.
        state = attacked_w_state(8.4e-161, A)
        for qubit in (A, B, C):
            outcome, state, probability = self.assert_matches_scalar_reads(
                state, qubit, Axis.Z, 0.0
            )
            assert outcome is PLUS
        assert probability < sys.float_info.min


class TestArgumentCoercion:
    # Axis and outcome values are coerced to their enums at every public
    # measurement entry point, so a string axis is never read as another.
    def test_string_axes_measure_along_their_axis(self):
        w = w_state()
        for axis in Axis:
            for outcome in Outcome:
                constraint = [(C, axis.value, int(outcome))]
                assert joint_probability(w, constraint) == joint_probability(
                    w, [(C, axis, outcome)]
                )
            for qubit, u in itertools.product((A, B, C), (0.0, 0.4, math.nextafter(1.0, 0.0))):
                single = measure_qubit(w, qubit, axis, u)
                coerced = measure_qubit(w, qubit, axis.value, u)
                assert coerced[0] is single[0] and coerced[2] == single[2]
                assert coerced[1].amplitudes.tobytes() == single[1].amplitudes.tobytes()
        assert measure_qubit(w, C, "z", 0.0)[2] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_bad_axis_or_outcome_raises_value_error(self):
        w = w_state()
        with pytest.raises(ValueError):
            measure_qubit(w, A, "y", 0.5)
        with pytest.raises(ValueError):
            measure_qubit(w, A, "Z", 0.5)
        with pytest.raises(ValueError):
            joint_probability(w, [(A, Axis.Z, 2)])
        with pytest.raises(ValueError):
            joint_probability(w, [(A, "y", PLUS)])


class TestStackedMass:
    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_stacked_rows_match_single_states(self, num_qubits):
        # _masses weighs a whole stack of components in one call: a stacked
        # row's mass must equal, bit for bit, the same component weighed
        # alone, as measure_qubit weighs it.
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
                assert measure_qubit(state, qubit, axis, 0.0)[::2] == (PLUS, p_plus)


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
    @example(phi=1.0717349051363885e-161, target=None)  # squares below half the least subnormal
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


# Attack angles with the edge cases of the butterfly: exact zeros, the
# maximal coupling, and amplitudes whose squares are subnormal or vanish.
EDGE_PHIS = st.sampled_from([0.0, HALF_PI, 1e-160, 8.4e-161, 5e-324])
ATTACKED_STATES = st.builds(
    lambda phi, target: attacked_w_state(phi) if target is None
    else apply_attack(w_state(), UnitaryCouplingAttack(phi, target)),
    st.one_of(EDGE_PHIS, st.floats(min_value=0.0, max_value=HALF_PI)),
    st.sampled_from([None, A, B, C]),
)
THREE_QUBIT_STATES = st.one_of(
    st.just(w_state()),
    st.just(ghz_state()),
    st.lists(st.sampled_from([PLUS, MINUS]), min_size=3, max_size=3).map(
        lambda bits: make_basis_state(3, bits)
    ),
)


class TestOutcomeDistributions:
    @settings(max_examples=60, deadline=None)
    @given(
        states=st.one_of(
            st.lists(ATTACKED_STATES, min_size=1, max_size=16),
            st.lists(THREE_QUBIT_STATES, min_size=1, max_size=8),
        )
    )
    @example(states=[attacked_w_state(phi) for phi in (0.0, HALF_PI, 1e-160, 5e-324)])
    def test_each_slice_is_the_state_alone(self, states):
        stacked = outcome_distributions(states)
        assert stacked.shape == (len(states), 8, 8)
        for index, state in enumerate(states):
            assert stacked[index].tobytes() == outcome_distribution(state).tobytes()

    @pytest.mark.parametrize("states", [
        [],
        [w_state(), attacked_w_state(0.5)],
        [w_state().amplitudes, attacked_w_state(0.5).amplitudes],
        [make_basis_state(2, [PLUS, MINUS])],
    ], ids=["empty", "mixed-qubit-counts", "mixed-row-lengths", "two-qubits"])
    def test_bad_stacks_raise_value_error(self, states):
        with pytest.raises(ValueError):
            outcome_distributions(states)


def edge_stack(rng: np.random.Generator, num_qubits: int, count: int) -> list[StateVector]:
    """Seeded random states with exact zeros, exact x cancellations and 1e-160 entries."""
    size = 1 << num_qubits
    states = []
    for _ in range(count):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps[rng.random(size) < 0.2] = 0.0
        amps[rng.random(size) < 0.2] *= 1e-160
        # a1 = +-a0 on a party qubit, then on one pair of any qubit: x components cancel exactly.
        halves = amps.reshape(1 << int(rng.integers(3)), 2, -1)
        halves[:, 1] = halves[:, 0] * rng.choice([1.0, -1.0])
        bit = 1 << int(rng.integers(num_qubits))
        low = int(rng.integers(size)) & ~bit
        amps[low | bit] = amps[low] * rng.choice([1.0, -1.0])
        amps /= np.abs(amps).max()  # so that the norm is not tiny itself
        states.append(StateVector(amps / np.linalg.norm(amps)))
    return states


# Attack angles with subnormal or vanishing squares, exact zeros and the
# maximal coupling, then 300 seeded angles.
PLAN_PHIS = [0.0, 5e-324, 8.4e-161, 1e-160, math.pi / 4, HALF_PI] + (
    np.random.default_rng(29).uniform(0.0, HALF_PI, 300).tolist()
)


class TestIndexPlans:
    """The index plans give the former butterfly's bytes (``helpers``)."""

    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_random_stacks_with_zeros_cancellations_and_tiny_entries(self, num_qubits):
        states = edge_stack(np.random.default_rng(290 + num_qubits), num_qubits, 60)
        for stack in (states, states[:1], states[7:8]):
            live = outcome_distributions(stack)
            assert live.tobytes() == butterfly_outcome_distributions(stack).tobytes()

    def test_w_and_ghz(self):
        for state in (w_state(), ghz_state()):
            live = outcome_distribution(state)
            assert live.tobytes() == butterfly_outcome_distributions([state])[0].tobytes()

    @pytest.mark.parametrize("target", list(Party), ids=lambda party: party.letter)
    def test_attacked_states(self, target):
        states = [attacked_w_state(phi, target) for phi in PLAN_PHIS]
        stacked = outcome_distributions(states)
        assert stacked.tobytes() == butterfly_outcome_distributions(states).tobytes()
        for index in (0, 1, 2, 3, 5, 100):
            assert outcome_distribution(states[index]).tobytes() == stacked[index].tobytes()



def edge_rows(rng: np.random.Generator, num_qubits: int, count: int, kind: str) -> np.ndarray:
    """:func:`edge_stack` as an amplitude stack: complex, real, imaginary or mixed rows.

    A real row is a state's real part and an imaginary row its imaginary
    part, each renormalized; exact zeros and cancellations survive both.  A
    mixed stack has a real second row and an imaginary third row, as far
    as it has them.
    """
    rows = np.array([state.amplitudes for state in edge_stack(rng, num_qubits, count)])
    parts = {"real": rows.real + 0j, "imaginary": 1j * rows.imag}
    if kind in parts:
        rows = parts[kind]
    elif kind == "mixed":
        rows[1:2], rows[2:3] = parts["real"][1:2], parts["imaginary"][2:3]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestMatrixLevels:
    """The matrix levels give the former gather plans' bytes (``helpers``).

    The plans' masses are summed by ``np.sum``, so the 3-, 4- and 5-qubit
    stacks pin the fold over 1, 2 and 4 extra-qubit squares to its order.

    Rows with 1e-160 entries also fail here if BLAS flushes subnormals to zero.
    """

    @pytest.mark.parametrize("kind", ["complex", "real", "imaginary", "mixed"])
    @pytest.mark.parametrize("count", [1, 7, 14])
    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_random_stacks(self, num_qubits, count, kind):
        rng = np.random.default_rng(3200 + 100 * num_qubits + count)
        rows = edge_rows(rng, num_qubits, count, kind)
        live = outcome_distributions(rows)
        assert live.tobytes() == gather_outcome_distributions(rows).tobytes()
        # The left fold over 1, 2 and 4 extra-qubit squares is np.sum's order.
        masses = qcore._distribution_masses(rows, num_qubits)
        assert masses.tobytes() == gather_outcome_masses(rows).tobytes()
        for row, dist in zip(rows, live):
            assert outcome_distribution(row).tobytes() == dist.tobytes()

    def test_w_and_ghz(self):
        for state in (w_state(), ghz_state()):
            reference = gather_outcome_distributions([state.amplitudes])[0]
            assert outcome_distribution(state).tobytes() == reference.tobytes()
            assert outcome_distributions([state])[0].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("target", list(Party), ids=lambda party: party.letter)
    def test_attacked_rows(self, target):
        stack = attacked_w_amplitudes(PLAN_PHIS, target)
        reference = gather_outcome_distributions(stack)
        assert outcome_distributions(stack).tobytes() == reference.tobytes()
        # event_masses adds each QKD set's two event cells: the 8-cell sum's bytes.
        assert event_masses(reference).tobytes() == weighted_event_masses(reference).tobytes()
        for row, dist in zip(stack, reference):
            assert outcome_distribution(row).tobytes() == dist.tobytes()
            assert event_masses(dist).tobytes() == weighted_event_masses(dist).tobytes()

    def test_a_row_a_stack_of_one_and_a_state_agree(self):
        rng = np.random.default_rng(3211)
        rows = list(attacked_w_amplitudes(PLAN_PHIS[:12], B)) + list(edge_rows(rng, 4, 6, "mixed"))
        for row in rows:
            one = outcome_distribution(row).tobytes()
            assert one == outcome_distributions([row])[0].tobytes()
            assert one == outcome_distributions(np.array([row]))[0].tobytes()
            assert one == outcome_distribution(StateVector(row)).tobytes()

    @pytest.mark.parametrize("flaw", ["norm", "nan"])
    def test_a_row_is_refused_with_the_gate_s_own_error(self, flaw):
        row = attacked_w_amplitudes([0.4])[0]
        if flaw == "norm":
            row *= math.sqrt(1.0 + 2e-6)
        else:
            row[5] = np.nan
        with pytest.raises(InvalidStateError) as from_state:
            StateVector(row)
        with pytest.raises(InvalidStateError) as from_row:
            outcome_distribution(row)
        assert str(from_row.value) == str(from_state.value)

    @pytest.mark.parametrize("amps, message", [
        (np.zeros((1, 16), dtype=complex), "one-dimensional"),
        (np.zeros(12, dtype=complex), "power of two"),
        (np.eye(4, dtype=complex)[0], "at least three qubits"),
    ], ids=["2-d", "12-amplitudes", "two-qubits"])
    def test_a_malformed_row_is_refused(self, amps, message):
        with pytest.raises(ValueError, match=message):
            outcome_distribution(amps)

    def test_levels_are_read_only(self):
        # Every call reads these; a write would change every distribution.
        outcome_distribution(make_basis_state(5, [PLUS] * 5))
        for qubits, levels in qcore._LEVELS.items():
            assert len(levels) == len(Party)
            for matrix, scale in levels:
                assert not matrix.flags.writeable and not scale.flags.writeable
                # Each output has one 1, and an x output (scale 1/sqrt(2)) one more +-1.
                assert set(np.unique(matrix).tolist()) <= {-1.0, 0.0, 1.0}
                assert (matrix.max(axis=0) == 1.0).all()
                assert np.array_equal(np.count_nonzero(matrix, axis=0), np.where(scale == 1.0, 1, 2))

    def test_levels_are_built_on_first_use(self):
        # No run, sweep or verify measures a 5-qubit state, so none builds its levels.
        code = """
import contextlib, io
from wqsc import cli, qcore
assert qcore._LEVELS == {}, sorted(qcore._LEVELS)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify"]) == 0
    cli.main(["run", "--mode", "qkd", "--trials", "50", "--seed", "1", "--phi", "0.5"])
    cli.main(["run", "--mode", "pqss", "--trials", "50", "--seed", "1"])
    cli.main(["sweep-phi", "--grid", "0.5", "--trials", "100", "--seed", "1"])
assert sorted(qcore._LEVELS) == [3, 4], sorted(qcore._LEVELS)
qcore.outcome_distribution(qcore.make_basis_state(5, [qcore.Outcome.PLUS] * 5))
assert sorted(qcore._LEVELS) == [3, 4, 5], sorted(qcore._LEVELS)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


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

    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_equals_the_tensordot_formulation_byte_for_byte(self, num_qubits):
        rng = np.random.default_rng(2700 + num_qubits)
        keep_sets = [keep for size in (1, 2)
                     for keep in itertools.combinations(range(num_qubits), size)]
        for _ in range(20):
            state = random_state(rng, num_qubits)
            for keep in keep_sets:
                rho = reduced_density(state, keep).entries
                assert rho.tobytes() == tensordot_reduced_density(state, keep).tobytes()

    def test_invalid_keep_sets(self):
        with pytest.raises(ValueError):
            reduced_density(w_state(), ())
        with pytest.raises(ValueError):
            reduced_density(w_state(), (A, B, C))
        with pytest.raises(ValueError):
            reduced_density(w_state(), (5,))
        with pytest.raises(ValueError, match="at most two qubits"):
            reduced_density(make_basis_state(4, [PLUS] * 4), (0, 1, 2))


class TestReducedDensities:
    """One density stack per call, slice for slice the stack of one's bytes."""

    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    @pytest.mark.parametrize("size", [1, 2])
    def test_each_slice_equals_the_tensordot_formulation_byte_for_byte(self, num_qubits, size):
        rng = np.random.default_rng(3100 + 10 * num_qubits + size)
        keep_sets = list(itertools.combinations(range(num_qubits), size))
        for _ in range(20):
            state = random_state(rng, num_qubits)
            stack = reduced_densities(state, keep_sets)
            assert len(stack) == len(keep_sets)
            for keep, dm in zip(keep_sets, stack):
                assert dm.entries.tobytes() == tensordot_reduced_density(state, keep).tobytes()
                assert dm.entries.tobytes() == reduced_density(state, keep).entries.tobytes()

    def test_w_pairs_in_one_stack(self):
        pairs = reduced_densities(w_state(), [(A, B), (C, A), (B, C)])
        assert [dm.dim for dm in pairs] == [4, 4, 4]
        for keep, dm in zip([(A, B), (A, C), (B, C)], pairs):
            assert np.array_equal(dm.entries, partial_trace_oracle(w_state(), keep))

    def test_slices_are_read_only(self):
        for dm in reduced_densities(w_state(), [(A,), (B,)]):
            with pytest.raises(ValueError):
                dm.entries[0, 0] = 1.0

    @pytest.mark.parametrize("keeps, message", [
        ([], "at least one kept set"),
        ([(A,), (A, B)], "same number of qubits"),
        ([(A, B), ()], "at least one qubit"),
        ([(A, B), (A, B, C)], "strict subset"),
        ([(A,), (5,)], "keep must be at most 2"),
    ], ids=["none", "mixed-sizes", "empty-set", "every-qubit", "out-of-range"])
    def test_bad_keep_sets(self, keeps, message):
        with pytest.raises(ValueError, match=message):
            reduced_densities(w_state(), keeps)

    @pytest.mark.parametrize("call", [
        lambda: reduced_density(w_state(), 0),
        lambda: reduced_density(w_state(), A),
        lambda: reduced_densities(w_state(), (A, B)),
    ], ids=["int", "party", "flat-tuple-of-parties"])
    def test_a_kept_set_that_is_not_a_collection(self, call):
        with pytest.raises(ValueError, match="^keep must be a collection of qubits, got "):
            call()

    def test_the_density_gate_runs_once_on_the_whole_stack(self, monkeypatch):
        # A Hermiticity defect of 2e-9 in the last slice alone is refused.
        gate = qcore._check_densities
        seen = []

        def defective(m):
            seen.append(m.shape)
            return gate(hermiticity_defect(m, 2e-9))

        monkeypatch.setattr(qcore, "_check_densities", defective)
        with pytest.raises(ValueError, match="not Hermitian"):
            reduced_densities(w_state(), [(A, B), (A, C), (B, C)])
        assert seen == [(3, 4, 4)]

    def test_a_defect_within_tolerance_in_the_last_slice_is_admitted(self, monkeypatch):
        gate = qcore._check_densities
        monkeypatch.setattr(qcore, "_check_densities",
                            lambda m: gate(hermiticity_defect(m, 5e-10)))
        assert len(reduced_densities(w_state(), [(A,), (B,), (C,)])) == 3


class TestReducedDensityNorm:
    """A state that StateVector admits off unit norm reduces to unit trace."""

    @pytest.mark.parametrize("excess", [5e-7, -5e-7])
    @pytest.mark.parametrize("keep", [(A,), (B,), (C,), (A, B), (A, C), (B, C)],
                             ids=["a", "b", "c", "ab", "ac", "bc"])
    def test_admitted_state_reduces_to_its_normalized_trace(self, keep, excess):
        state = StateVector(w_state().amplitudes * math.sqrt(1.0 + excess))
        total = state.squared_norm()
        rho = reduced_density(state, keep).entries
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - tensordot_reduced_density(state, keep) / total)) <= 1e-16

    @pytest.mark.parametrize("excess", [5e-7, -5e-7])
    def test_admitted_state_in_one_stack(self, excess):
        rng = np.random.default_rng(3131)
        amps = random_state(rng, 4).amplitudes * math.sqrt(1.0 + excess)
        state = StateVector(amps)
        for size in (1, 2):
            keep_sets = list(itertools.combinations(range(4), size))
            for keep, dm in zip(keep_sets, reduced_densities(state, keep_sets)):
                assert abs(np.trace(dm.entries) - 1.0) <= 1e-12
                assert dm.entries.tobytes() == reduced_density(state, keep).entries.tobytes()

    @pytest.mark.parametrize("excess", [2e-6, -2e-6])
    def test_a_state_beyond_tolerance_never_reaches_the_trace(self, excess):
        with pytest.raises(InvalidStateError):
            StateVector(w_state().amplitudes * math.sqrt(1.0 + excess))

    def test_a_state_normalized_to_rounding_is_not_divided(self):
        # W's squared norm is 1 + 2**-52: its pairs keep the undivided bytes,
        # so the PPT values of ``verify`` do not move.
        state = w_state()
        assert state.squared_norm() != 1.0
        for keep in [(A, B), (A, C), (B, C), (A,)]:
            rho = reduced_density(state, keep).entries
            assert rho.tobytes() == tensordot_reduced_density(state, keep).tobytes()


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
        with pytest.raises(ValueError, match="square"):
            eigenvalues_hermitian(np.zeros((2, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_hermitian(np.full((2, 2), value))

    @pytest.mark.parametrize("matrix", OVERFLOWING_MATRICES, ids=OVERFLOW_IDS)
    def test_refuses_a_matrix_whose_hermitian_part_overflows(self, matrix):
        with pytest.raises(ValueError, match="input matrix entries must be finite, of modulus"):
            eigenvalues_hermitian(matrix)

    def test_admits_entries_of_half_the_largest_float(self):
        half = sys.float_info.max / 2.0
        values = eigenvalues_hermitian(np.array([[0.0, half], [half, 0.0]]))
        assert values == pytest.approx([-half, half], rel=1e-15)

    def test_refuses_an_eigenvalue_that_overflows(self):
        # Exact eigenvalues [0, 0, 0, 2 * max]: eigvalsh returned inf for the last.
        with pytest.raises(ValueError, match="input matrix has an eigenvalue that is not finite"):
            eigenvalues_hermitian(np.full((4, 4), sys.float_info.max / 2.0))

    def test_admits_an_eigenvalue_of_the_largest_float(self):
        values = eigenvalues_hermitian(np.full((2, 2), sys.float_info.max / 2.0))
        assert values == pytest.approx([0.0, sys.float_info.max], rel=1e-15)


def hermitian_stack(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    raw = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return raw + raw.conj().swapaxes(-1, -2)


class TestEigenvaluesHermitianStack:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_each_row_is_one_call_per_matrix_byte_for_byte(self, dim):
        rng = np.random.default_rng(3140 + dim)
        for count in (1, 3, 17):
            stack = hermitian_stack(rng, count, dim)
            stacked = eigenvalues_hermitian(stack)
            single = [eigenvalues_hermitian(matrix) for matrix in stack]
            assert np.array(stacked).tobytes() == np.array(single).tobytes()

    def test_w_pair_partial_transposes(self):
        transposed = np.array([partial_transpose(dm, "second")
                               for dm in reduced_densities(w_state(), [(A, B), (A, C), (B, C)])])
        for values in eigenvalues_hermitian(transposed):
            assert values[0] == pytest.approx(PPT_MIN_EIG, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_refuses_a_hermiticity_defect_in_the_last_matrix(self, dim):
        stack = hermitian_stack(np.random.default_rng(3150 + dim), 5, dim)
        with pytest.raises(ValueError, match="not Hermitian"):
            eigenvalues_hermitian(hermiticity_defect(stack, 2e-9))
        assert len(eigenvalues_hermitian(hermiticity_defect(stack, 5e-10))) == 5

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_a_last_matrix_that_is_not_finite(self, value):
        stack = hermitian_stack(np.random.default_rng(3160), 3, 4)
        stack[-1, 2, 2] = value
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_hermitian(stack)

    @pytest.mark.parametrize("matrix, message", [
        (np.zeros((0, 4, 4)), "at least one matrix"),
        (np.zeros((3, 4, 2)), "square"),
        (np.zeros((2, 3, 3)), "dimensions are 2 and 4"),
        (np.zeros((1, 2, 2, 2)), "square"),
    ], ids=["empty", "not-square", "dim-3", "4-d"])
    def test_refuses_a_malformed_stack(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            eigenvalues_hermitian(matrix)


# Attack angles with vanishing or subnormal squares, pi/4 and the maximal
# coupling, then 100 seeded angles.
STACK_PHIS = [0.0, 5e-324, 8.4e-161, math.pi / 4, HALF_PI] + (
    np.random.default_rng(31).uniform(0.0, HALF_PI, 100).tolist()
)


class TestAttackedAmplitudeStack:
    """``attacked_w_amplitudes`` rows are the StateVector path's states, byte for byte."""

    @pytest.mark.parametrize("target", list(Party), ids=lambda party: party.letter)
    def test_distributions_equal_the_state_path(self, target):
        stack = attacked_w_amplitudes(STACK_PHIS, target)
        states = [attacked_w_state(phi, target) for phi in STACK_PHIS]
        assert stack.tobytes() == np.array([state.amplitudes for state in states]).tobytes()
        live = outcome_distributions(stack)
        assert live.tobytes() == outcome_distributions(states).tobytes()
        for index, state in enumerate(states):
            assert live[index].tobytes() == outcome_distribution(state).tobytes()

    @pytest.mark.parametrize("target", list(Party), ids=lambda party: party.letter)
    def test_rows_equal_the_attack_circuit(self, target):
        stack = attacked_w_amplitudes(STACK_PHIS[:8], target)
        for phi, row in zip(STACK_PHIS[:8], stack):
            circuit = apply_attack(w_state(), UnitaryCouplingAttack(phi, target))
            assert row.tobytes() == circuit.amplitudes.tobytes()


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

    def test_equals_the_per_amplitude_formulation_byte_for_byte(self):
        rng = np.random.default_rng(2703)
        states = [random_state(rng, 3) for _ in range(200)] + [w_state(), ghz_state()]
        for state in states:
            tangle = three_tangle(state)
            assert type(tangle) is float
            assert tangle.hex() == per_amplitude_three_tangle(state).hex()

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
