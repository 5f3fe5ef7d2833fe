import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import argsort_apply_attack, permute_qubits, random_state
from wqsc import (
    Axis,
    Outcome,
    Party,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    coupling_unitary,
    eve_ancilla_statistics,
    event_masses,
    joint_probability,
    outcome_distribution,
    reduced_density,
    w_state,
)
from wqsc.adversary import _apply_two_qubit_unitary

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
HALF_PI = math.pi / 2.0


def moveaxis_two_qubit_unitary(amps, unitary, qubits, num_qubits):
    """The former formulation, kept as the reference: the pair moved to the front and back."""
    tensor = amps.reshape((2,) * num_qubits)
    moved = np.moveaxis(tensor, qubits, (0, 1))
    updated = unitary @ moved.reshape(4, -1)
    return np.moveaxis(updated.reshape(moved.shape), (0, 1), qubits).reshape(-1)


class TestApplyAttack:
    def test_no_attack_returns_source(self):
        source = w_state()
        assert apply_attack(source, None) is source

    def test_maximal_attack_reproduces_closed_form(self):
        attacked = apply_attack(w_state(), UnitaryCouplingAttack(HALF_PI, C))
        expected = attacked_w_state(HALF_PI)
        assert np.max(np.abs(attacked.amplitudes - expected.amplitudes)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI))
    @example(phi=0.0)
    @example(phi=1e-12)
    @example(phi=8.4e-161)
    @example(phi=5e-324)
    @example(phi=HALF_PI)
    @pytest.mark.parametrize("target", [A, B, C])
    def test_closed_form_source_is_the_attack_circuit(self, target, phi):
        # run and sweep-phi sample attacked_w_state, the closed form; the
        # attack circuit is its check: one channel, byte for byte.
        circuit = apply_attack(w_state(), UnitaryCouplingAttack(phi, target))
        closed = attacked_w_state(phi, target)
        assert closed.amplitudes.tobytes() == circuit.amplitudes.tobytes()

    @pytest.mark.parametrize("target", [A, B, C])
    def test_equals_the_moveaxis_formulation_byte_for_byte(self, target):
        rng = np.random.default_rng(2710 + target)
        for _ in range(50):
            source = random_state(rng, 3)
            phi = float(rng.uniform(0.0, HALF_PI))
            extended = np.zeros(16, dtype=complex)
            extended[::2] = source.amplitudes
            expected = moveaxis_two_qubit_unitary(extended, coupling_unitary(phi), (target, 3), 4)
            attacked = apply_attack(source, UnitaryCouplingAttack(phi, target))
            assert attacked.amplitudes.tobytes() == expected.tobytes()

    # The axis order is inverted in Python; the former circuit inverted it
    # by np.argsort and built its unitary from nested lists.
    @pytest.mark.parametrize("phi", [0.0, 5e-324, 0.77, HALF_PI])
    @pytest.mark.parametrize("target", [A, B, C])
    def test_equals_the_argsort_circuit_byte_for_byte(self, target, phi):
        rng = np.random.default_rng(3540 + target)
        for source in [w_state()] + [random_state(rng, 3) for _ in range(5)]:
            attacked = apply_attack(source, UnitaryCouplingAttack(phi, target))
            expected = argsort_apply_attack(source, phi, target)
            assert attacked.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_qubits", [3, 4, 5])
    def test_every_ordered_pair_equals_the_moveaxis_formulation(self, num_qubits):
        rng = np.random.default_rng(2720 + num_qubits)
        unitary = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        for _ in range(10):
            amps = random_state(rng, num_qubits).amplitudes
            for pair in itertools.permutations(range(num_qubits), 2):
                result = _apply_two_qubit_unitary(amps, unitary, pair, num_qubits)
                expected = moveaxis_two_qubit_unitary(amps, unitary, pair, num_qubits)
                assert result.tobytes() == expected.tobytes()

    def test_identity_coupling_leaves_party_statistics_unchanged(self):
        attacked = apply_attack(w_state(), UnitaryCouplingAttack(0.0, C))
        assert attacked.num_qubits == 4
        for axis in Axis:
            for party in (A, B, C):
                for outcome in Outcome:
                    before = joint_probability(w_state(), [(party, axis, outcome)])
                    after = joint_probability(attacked, [(party, axis, outcome)])
                    assert after == pytest.approx(before, abs=1e-12)

    def test_requires_three_qubit_source(self):
        with pytest.raises(ValueError):
            apply_attack(attacked_w_state(0.1), UnitaryCouplingAttack(0.1, C))

    def test_attack_angle_validated(self):
        with pytest.raises(ValueError):
            UnitaryCouplingAttack(3.2, C)


class TestTargetSymmetry:
    @pytest.mark.parametrize("target,swap", [(A, (2, 1, 0, 3)), (B, (0, 2, 1, 3))])
    def test_attacking_other_parties_matches_relabeled_charlie_attack(self, target, swap):
        # Swapping the attacked party with Charlie must reproduce the
        # canonical attacked state, hence identical marginals.
        phi = 0.8
        attacked = apply_attack(w_state(), UnitaryCouplingAttack(phi, target))
        relabeled = permute_qubits(attacked, swap)
        reference = attacked_w_state(phi)
        for keep in [(0,), (1,), (2,)] + list(itertools.combinations(range(3), 2)):
            lhs = reduced_density(relabeled, keep).entries
            rhs = reduced_density(reference, keep).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestNoSignaling:
    def test_untouched_pair_z_statistics_are_preserved(self):
        attacked = apply_attack(w_state(), UnitaryCouplingAttack(1.1, C))
        for a_out, b_out in itertools.product(Outcome, repeat=2):
            before = joint_probability(
                w_state(), [(A, Axis.Z, a_out), (B, Axis.Z, b_out)]
            )
            after = joint_probability(
                attacked, [(A, Axis.Z, a_out), (B, Axis.Z, b_out)]
            )
            assert after == pytest.approx(before, abs=1e-12)


class TestAttackPerturbs:
    @pytest.mark.parametrize("phi", [0.05, 0.5, 1.2, HALF_PI])
    def test_some_security_event_mass_is_positive(self, phi):
        assert max(event_masses(outcome_distribution(attacked_w_state(phi)))) > 0.0


class TestEveAncillaStatistics:
    def test_known_values(self):
        assert eve_ancilla_statistics(attacked_w_state(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert eve_ancilla_statistics(attacked_w_state(HALF_PI)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )
        assert eve_ancilla_statistics(attacked_w_state(math.pi / 4.0)) == pytest.approx(
            1.0 / 6.0, abs=1e-12
        )

    def test_formula_over_strength_range(self):
        for phi in np.linspace(0.0, HALF_PI, 15):
            expected = math.sin(float(phi)) ** 2 / 3.0
            assert eve_ancilla_statistics(attacked_w_state(float(phi))) == pytest.approx(
                expected, abs=1e-12
            )

    def test_rejects_three_qubit_states(self):
        with pytest.raises(ValueError):
            eve_ancilla_statistics(w_state())

    def test_matches_direct_marginal_on_random_states(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            state = random_state(rng, 4)
            expected = joint_probability(state, [(3, Axis.Z, MINUS)])
            assert eve_ancilla_statistics(state) == pytest.approx(expected, abs=1e-15)
