import math

import numpy as np
import pytest

from helpers import enumerate_event_probability, random_product_state, random_state
from wqsc import (
    AT_LEAST_TWO,
    ALL_AXIS_SETS,
    Axis,
    AxisSet,
    AxisSetKind,
    Outcome,
    Party,
    QKD_AXIS_SETS,
    StrictPair,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    averaged_security_probability,
    ch_middle_term,
    ghz_state,
    make_basis_state,
    prob_two_z_plus,
    prob_x_all_equal,
    prob_z_plus_x_unequal,
    security_event_probability,
    w_state,
)

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
HALF_PI = math.pi / 2.0

ROLE_ASSIGNMENTS = [
    (A, B, C), (A, C, B), (B, A, C), (B, C, A), (C, A, B), (C, B, A)
]


class TestAxisSet:
    def test_exactly_eight_sets_with_fixed_classification(self):
        assert len(ALL_AXIS_SETS) == 8
        by_kind = {kind: [] for kind in AxisSetKind}
        for axis_set in ALL_AXIS_SETS:
            by_kind[axis_set.kind].append(axis_set.label)
        assert sorted(by_kind[AxisSetKind.QKD]) == ["xxz", "xzx", "zxx"]
        assert by_kind[AxisSetKind.PQSS] == ["zzz"]
        assert sorted(by_kind[AxisSetKind.USELESS]) == ["xxx", "xzz", "zxz", "zzx"]

    def test_decider_and_x_parties(self):
        xxz = AxisSet.from_label("xxz")
        assert xxz.decider is C
        assert xxz.x_parties == (A, B)
        assert AxisSet.from_label("xzx").decider is B
        assert AxisSet.from_label("zxx").x_parties == (B, C)
        assert AxisSet.from_label("zzz").decider is None
        assert AxisSet.from_label("xxx").x_parties is None

    def test_label_round_trip(self):
        for axis_set in ALL_AXIS_SETS:
            assert AxisSet.from_label(axis_set.label) == axis_set
        with pytest.raises(ValueError):
            AxisSet.from_label("xy z")
        with pytest.raises(ValueError):
            AxisSet.from_label("xx")


class TestWStateEventSuite:
    """The four closed-form event probabilities on the symmetric W state."""

    def test_at_least_two_plus_is_certain(self):
        assert prob_two_z_plus(w_state(), AT_LEAST_TWO) == pytest.approx(1.0, abs=1e-12)

    def test_strict_pair_reading_gives_one_third(self):
        for pair in (StrictPair(A, B), StrictPair(B, C), StrictPair(A, C)):
            assert prob_two_z_plus(w_state(), pair) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mixed_axis_events_vanish_for_every_role_assignment(self):
        for z_party, x1, x2 in ROLE_ASSIGNMENTS:
            assert prob_z_plus_x_unequal(w_state(), z_party, (x1, x2)) == 0.0

    def test_all_x_equal(self):
        assert prob_x_all_equal(w_state()) == pytest.approx(0.75, abs=1e-12)

    def test_ghz_and_product_values(self):
        assert prob_two_z_plus(ghz_state(), StrictPair(A, B)) == pytest.approx(0.5, abs=1e-12)
        assert prob_x_all_equal(ghz_state()) == pytest.approx(0.25, abs=1e-12)
        product = make_basis_state(3, [PLUS, PLUS, PLUS])
        assert prob_x_all_equal(product) == pytest.approx(0.25, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            prob_z_plus_x_unequal(w_state(), A, (A, B))
        with pytest.raises(ValueError):
            StrictPair(A, A)
        with pytest.raises(ValueError):
            prob_two_z_plus(attacked_w_state(0.1), AT_LEAST_TWO)


class TestChMiddleTerm:
    def test_existential_reading_violates_upper_bound(self):
        for roles in ROLE_ASSIGNMENTS:
            result = ch_middle_term(w_state(), AT_LEAST_TWO, roles)
            assert result.value == pytest.approx(0.25, abs=1e-12)
            assert result.violation

    def test_strict_reading_stays_local(self):
        for roles in ROLE_ASSIGNMENTS:
            result = ch_middle_term(w_state(), StrictPair(roles[0], roles[1]), roles)
            assert result.value == pytest.approx(-5.0 / 12.0, abs=1e-12)
            assert not result.violation

    def test_product_state_value(self):
        product = make_basis_state(3, [PLUS, PLUS, PLUS])
        result = ch_middle_term(product, StrictPair(A, B))
        assert result.value == pytest.approx(-0.25, abs=1e-12)
        assert not result.violation

    def test_components_are_reported(self):
        result = ch_middle_term(w_state(), AT_LEAST_TWO)
        assert result.a11 == pytest.approx(1.0, abs=1e-12)
        assert result.a12 == pytest.approx(0.0, abs=1e-12)
        assert result.a21 == pytest.approx(0.0, abs=1e-12)
        assert result.a22 == pytest.approx(0.75, abs=1e-12)

    def test_role_validation(self):
        with pytest.raises(ValueError):
            ch_middle_term(w_state(), AT_LEAST_TWO, (A, A, B))
        with pytest.raises(ValueError):
            ch_middle_term(w_state(), StrictPair(A, C), (A, B, C))

    def test_local_states_respect_the_bound(self):
        # Product states admit a local model, so the middle term must stay
        # inside [-1, 0] for every strict-pair evaluation.
        rng = np.random.default_rng(404)
        for _ in range(200):
            state = random_product_state(rng)
            result = ch_middle_term(state, StrictPair(A, B))
            assert -1.0 - 1e-12 <= result.value <= 1e-12
            assert not result.violation


class TestSecurityEventProbability:
    def test_charlie_z_case(self):
        state = attacked_w_state(math.pi / 4.0)
        p = security_event_probability(state, AxisSet.from_label("xxz"))
        assert p == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_charlie_x_cases(self):
        state = attacked_w_state(math.pi / 3.0)
        for label in ("zxx", "xzx"):
            p = security_event_probability(state, AxisSet.from_label(label))
            assert p == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_no_attack_means_no_event(self):
        # phi = 0 leaves the ancilla untouched: the event's amplitudes cancel
        # exactly, on the closed form and through the circuit on every target.
        states = [attacked_w_state(0.0)]
        states += [apply_attack(w_state(), UnitaryCouplingAttack(0.0, t)) for t in (A, B, C)]
        for state in states:
            for axis_set in QKD_AXIS_SETS:
                assert security_event_probability(state, axis_set) == 0.0

    def test_rejects_non_qkd_sets_and_plain_states(self):
        state = attacked_w_state(0.5)
        with pytest.raises(ValueError):
            security_event_probability(state, AxisSet.from_label("zzz"))
        with pytest.raises(ValueError):
            security_event_probability(w_state(), AxisSet.from_label("xxz"))


class TestAveragedSecurityProbability:
    def test_known_values(self):
        assert averaged_security_probability(HALF_PI) == pytest.approx(5.0 / 18.0, abs=1e-12)
        assert averaged_security_probability(0.0) == 0.0
        assert averaged_security_probability(math.pi / 3.0) == pytest.approx(
            11.0 / 72.0, abs=1e-12
        )

    def test_closed_form_equals_weighted_average(self):
        # 50 strengths: the closed form must match the 1/3 : 2/3 mix of the
        # per-axis-set probabilities.
        for phi in np.linspace(0.0, HALF_PI, 50):
            state = attacked_w_state(float(phi))
            per_set = [security_event_probability(state, s) for s in QKD_AXIS_SETS]
            weighted = sum(per_set) / 3.0
            assert averaged_security_probability(float(phi)) == pytest.approx(
                weighted, abs=1e-12
            )

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            averaged_security_probability(-0.2)


class TestBruteForceOracleAgreement:
    """Every closed-form probability against exhaustive enumeration."""

    def test_three_qubit_operations_on_random_states(self):
        rng = np.random.default_rng(1234)
        states = [w_state(), ghz_state()] + [random_state(rng, 3) for _ in range(20)]
        for state in states:
            expected = enumerate_event_probability(
                state,
                [(A, Axis.Z), (B, Axis.Z), (C, Axis.Z)],
                lambda bits: sum(1 for o in bits.values() if o is PLUS) >= 2,
            )
            assert prob_two_z_plus(state, AT_LEAST_TWO) == pytest.approx(expected, abs=1e-12)

            expected = enumerate_event_probability(
                state,
                [(A, Axis.Z), (B, Axis.Z)],
                lambda bits: bits[A] is PLUS and bits[B] is PLUS,
            )
            assert prob_two_z_plus(state, StrictPair(A, B)) == pytest.approx(
                expected, abs=1e-12
            )

            for z_party, x1, x2 in ROLE_ASSIGNMENTS:
                expected = enumerate_event_probability(
                    state,
                    [(z_party, Axis.Z), (x1, Axis.X), (x2, Axis.X)],
                    lambda bits: bits[z_party] is PLUS and bits[x1] is not bits[x2],
                )
                assert prob_z_plus_x_unequal(state, z_party, (x1, x2)) == pytest.approx(
                    expected, abs=1e-12
                )

            expected = enumerate_event_probability(
                state,
                [(A, Axis.X), (B, Axis.X), (C, Axis.X)],
                lambda bits: bits[A] is bits[B] is bits[C],
            )
            assert prob_x_all_equal(state) == pytest.approx(expected, abs=1e-12)

    def test_security_event_on_random_four_qubit_states(self):
        rng = np.random.default_rng(4321)
        states = [attacked_w_state(float(phi)) for phi in (0.0, 0.4, 1.1, HALF_PI)]
        states += [random_state(rng, 4) for _ in range(10)]
        for state in states:
            for axis_set in QKD_AXIS_SETS:
                decider = axis_set.decider
                x1, x2 = axis_set.x_parties
                expected = enumerate_event_probability(
                    state,
                    [(decider, Axis.Z), (x1, Axis.X), (x2, Axis.X), (3, Axis.Z)],
                    lambda bits: bits[decider] is PLUS and bits[x1] is not bits[x2],
                )
                assert security_event_probability(state, axis_set) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_ch_components_against_enumeration(self):
        rng = np.random.default_rng(5678)
        for _ in range(10):
            state = random_state(rng, 3)
            result = ch_middle_term(state, StrictPair(A, B))
            a22 = enumerate_event_probability(
                state,
                [(A, Axis.X), (B, Axis.X), (C, Axis.X)],
                lambda bits: bits[A] is bits[B] is bits[C],
            )
            assert result.a22 == pytest.approx(a22, abs=1e-12)
            assert result.value == pytest.approx(
                result.a11 - result.a12 - result.a21 - result.a22, abs=1e-15
            )
