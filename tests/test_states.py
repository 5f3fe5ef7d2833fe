import itertools
import math

import numpy as np
import pytest

from helpers import nested_coupling_unitary, permute_qubits
from wqsc import (
    Axis,
    Outcome,
    Party,
    attacked_w_amplitudes,
    attacked_w_state,
    coupling_unitary,
    ghz_state,
    joint_probability,
    three_tangle,
    validate_attack_angle,
    w_state,
)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
INV_SQRT3 = 1.0 / math.sqrt(3.0)
HALF_PI = math.pi / 2.0

PHI_GRID = np.linspace(0.0, HALF_PI, 20)


class TestWState:
    def test_amplitudes_sit_on_single_minus_strings(self):
        amps = w_state().amplitudes
        for index in (4, 2, 1):
            assert amps[index] == pytest.approx(INV_SQRT3, abs=1e-15)
        for index in (0, 3, 5, 6, 7):
            assert amps[index] == 0.0

    def test_normalized(self):
        assert w_state().squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_has_no_tangle(self):
        assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-12)

    def test_outcome_statistics_are_permutation_symmetric(self):
        state = w_state()
        rng = np.random.default_rng(21)
        for _ in range(25):
            axes = [Axis.Z if rng.random() < 0.5 else Axis.X for _ in range(3)]
            outcomes = [Outcome(int(rng.integers(2))) for _ in range(3)]
            reference = joint_probability(
                state, [(q, axes[q], outcomes[q]) for q in range(3)]
            )
            for perm in itertools.permutations(range(3)):
                permuted = permute_qubits(state, perm)
                p = joint_probability(
                    permuted, [(q, axes[q], outcomes[q]) for q in range(3)]
                )
                assert p == pytest.approx(reference, abs=1e-12)


class TestGhzState:
    def test_amplitudes(self):
        amps = ghz_state().amplitudes
        assert amps[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert amps[7] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert np.count_nonzero(amps) == 2

    def test_has_maximal_tangle(self):
        assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-12)

    def test_all_x_equal_probability(self):
        state = ghz_state()
        total = 0.0
        for outcome in Outcome:
            total += joint_probability(state, [(q, Axis.X, outcome) for q in range(3)])
        assert total == pytest.approx(0.25, abs=1e-12)


class TestCouplingUnitary:
    def test_maximal_strength_swaps_the_excitation(self):
        u = coupling_unitary(HALF_PI)
        # |z- z+> is basis index 2; its image must be |z+ z-> (index 1).
        image = u[:, 2]
        assert image[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(image[0]) + abs(image[2]) + abs(image[3]) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 5e-324, 0.77, HALF_PI])
    def test_equals_the_nested_list_unitary_byte_for_byte(self, phi):
        # Every entry, -sin(phi) too: at phi = 0 it is -0.0.
        assert coupling_unitary(phi).tobytes() == nested_coupling_unitary(phi).tobytes()

    def test_zero_strength_is_identity(self):
        assert np.array_equal(coupling_unitary(0.0), np.eye(4, dtype=complex))

    @pytest.mark.parametrize("phi", [math.pi / 3.0, *PHI_GRID])
    def test_unitarity(self, phi):
        u = coupling_unitary(float(phi))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_angle_validation(self):
        for bad in (-0.1, HALF_PI + 0.01, math.nan):
            with pytest.raises(ValueError):
                coupling_unitary(bad)
        assert validate_attack_angle(HALF_PI) == HALF_PI


class TestAttackedWState:
    def test_zero_strength_factorizes(self):
        amps = attacked_w_state(0.0).amplitudes
        expected = np.zeros(16, dtype=complex)
        expected[[0b1000, 0b0100, 0b0010]] = INV_SQRT3  # W tensor |z+>
        assert np.max(np.abs(amps - expected)) < 1e-15

    def test_maximal_strength_moves_weight_to_ancilla(self):
        amps = attacked_w_state(HALF_PI).amplitudes
        expected = np.zeros(16, dtype=complex)
        expected[[0b1000, 0b0100, 0b0001]] = INV_SQRT3
        assert np.max(np.abs(amps - expected)) < 1e-15

    def test_normalized_at_interior_angle(self):
        assert attacked_w_state(math.pi / 5.0).squared_norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_matches_circuit_construction(self, phi):
        from wqsc import UnitaryCouplingAttack, apply_attack

        direct = attacked_w_state(float(phi))
        circuit = apply_attack(w_state(), UnitaryCouplingAttack(float(phi), C))
        assert np.max(np.abs(direct.amplitudes - circuit.amplitudes)) < 1e-12

    @pytest.mark.parametrize("phi", [0.3, 1.0, HALF_PI])
    def test_attacked_state_is_asymmetric(self, phi):
        from wqsc import event_masses, outcome_distribution

        masses = event_masses(outcome_distribution(attacked_w_state(phi)))
        charlie_z, alice_z = masses[C], masses[A]
        assert charlie_z == pytest.approx(math.sin(phi) ** 2 / 6.0, abs=1e-12)
        assert alice_z == pytest.approx((1.0 - math.cos(phi)) / 3.0, abs=1e-12)
        assert abs(charlie_z - alice_z) > 1e-6

    def test_completion_branch_never_touches_reachable_states(self):
        # Replace the completion columns by another valid completion and
        # check the attacked state is unchanged: the protocol never feeds
        # amplitude into those inputs.
        from wqsc.adversary import _apply_two_qubit_unitary

        phi = 0.9
        extended = np.zeros(16, dtype=complex)
        extended[::2] = w_state().amplitudes
        standard = coupling_unitary(phi)
        alternative = standard.copy()
        alternative[:, 1] = -standard[:, 1]
        alternative[:, 3] = -standard[:, 3]
        assert np.max(np.abs(alternative.conj().T @ alternative - np.eye(4))) < 1e-12
        out_standard = _apply_two_qubit_unitary(extended, standard, (2, 3), 4)
        out_alternative = _apply_two_qubit_unitary(extended, alternative, (2, 3), 4)
        assert np.array_equal(out_standard, out_alternative)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            attacked_w_state(2.0)


class TestAttackedWAmplitudes:
    def test_one_row_per_angle_in_order(self):
        phis = [HALF_PI, 0.0, math.pi / 5.0]
        stack = attacked_w_amplitudes(phis, B)
        assert stack.shape == (3, 16) and stack.dtype == np.complex128
        for phi, row in zip(phis, stack):
            assert row.tobytes() == attacked_w_state(phi, B).amplitudes.tobytes()

    def test_takes_a_numpy_grid_and_a_target_index(self):
        grid = np.linspace(0.0, HALF_PI, 5)
        assert attacked_w_amplitudes(grid, 0).tobytes() == attacked_w_amplitudes(
            grid.tolist(), A).tobytes()

    def test_no_angles_is_an_empty_stack(self):
        assert attacked_w_amplitudes([]).shape == (0, 16)

    @pytest.mark.parametrize("phis, target", [
        ([0.5, 2.0], C), ([0.1, float("nan")], C), ([True], C), ([0.5], 3), ([0.5], 1.0),
    ], ids=["out-of-range", "nan", "bool", "target-3", "float-target"])
    def test_refuses_a_bad_angle_or_target(self, phis, target):
        with pytest.raises(ValueError):
            attacked_w_amplitudes(phis, target)
