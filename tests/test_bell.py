import math

import numpy as np
import pytest

from helpers import (
    enumerate_event_probability,
    random_product_state,
    random_state,
    weighted_event_masses,
)
from wqsc import (
    ALL_AXIS_SETS,
    Axis,
    AxisSet,
    Outcome,
    PQSS_AXIS_SET,
    Party,
    QKD_AXIS_SETS,
    StateVector,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    averaged_security_probability,
    ch_middle_term,
    event_masses,
    ghz_state,
    is_event,
    make_basis_state,
    outcome_distribution,
    outcome_distributions,
    two_z_plus,
    w_state,
    x_all_equal,
)
from wqsc import bell
from wqsc.bell import CH_BOUND_ATOL

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
HALF_PI = math.pi / 2.0
W = outcome_distribution(w_state())

ROLE_ASSIGNMENTS = [
    (A, B, C), (A, C, B), (B, A, C), (B, C, A), (C, A, B), (C, B, A)
]


class TestAxisSet:
    def test_every_set_has_its_fixed_role(self):
        # label -> (decider, x_parties, is the secret-sharing set)
        roles = {
            "zzz": (None, None, True),
            "zzx": (None, None, False),
            "zxz": (None, None, False),
            "zxx": (A, (B, C), False),
            "xzz": (None, None, False),
            "xzx": (B, (A, C), False),
            "xxz": (C, (A, B), False),
            "xxx": (None, None, False),
        }
        assert [axis_set.label for axis_set in ALL_AXIS_SETS] == list(roles)
        for axis_set in ALL_AXIS_SETS:
            decider, x_parties, pqss = roles[axis_set.label]
            assert axis_set.decider is decider, axis_set.label
            assert axis_set.x_parties == x_parties, axis_set.label
            assert (axis_set == PQSS_AXIS_SET) is pqss, axis_set.label

    def test_qkd_set_k_is_decided_by_party_k(self):
        # event_masses, which the sweep and verify read, indexes the QKD
        # sets by the deciding party.
        assert [axis_set.label for axis_set in QKD_AXIS_SETS] == ["zxx", "xzx", "xxz"]
        for k, axis_set in enumerate(QKD_AXIS_SETS):
            assert axis_set.decider is Party(k)
            # Its two event cells, flat at 8s + o, are the ones event_masses adds.
            s = ALL_AXIS_SETS.index(axis_set)
            events = [8 * s + o for o, outcomes in enumerate(bell.OUTCOME_STRINGS)
                      if is_event(axis_set, outcomes)]
            assert [bell._EVENT_FIRST[k], bell._EVENT_SECOND[k]] == events

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


class TestIsEvent:
    """The z measurer saw plus and the x measurers disagree; plain bits act as outcomes."""

    @pytest.mark.parametrize("label, outcomes, event", [
        ("xxz", (MINUS, PLUS, PLUS), True),
        ("xxz", (0, 1, 0), True),
        ("xxz", (0, 0, 0), False),
        ("xxz", (1, 0, 1), False),
        ("zxx", (0, 0, 1), True),
        ("zzz", (0, 1, 0), False),
    ])
    def test_event_rows(self, label, outcomes, event):
        assert is_event(AxisSet.from_label(label), outcomes) is event

    def test_an_outcome_that_is_not_a_bit_is_refused(self):
        with pytest.raises(ValueError, match="is not a valid Outcome$"):
            is_event(AxisSet.from_label("xxz"), (0, 0, 2))


class TestWStateEventSuite:
    """The four closed-form event probabilities on the symmetric W state."""

    def test_at_least_two_plus_is_certain(self):
        assert two_z_plus(W) == pytest.approx(1.0, abs=1e-12)

    def test_strict_pair_reading_gives_one_third(self):
        for pair in ((A, B), (B, C), (A, C), [C, A], (0, 2)):
            assert two_z_plus(W, pair) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mixed_axis_events_vanish_for_every_role_assignment(self):
        # The event is symmetric in the two x measurers, so the z measurer
        # names each of the six role assignments' values.
        assert event_masses(W).tolist() == [0.0, 0.0, 0.0]

    def test_all_x_equal(self):
        assert x_all_equal(W) == pytest.approx(0.75, abs=1e-12)

    def test_ghz_and_product_values(self):
        ghz = outcome_distribution(ghz_state())
        assert two_z_plus(ghz, (A, B)) == pytest.approx(0.5, abs=1e-12)
        assert x_all_equal(ghz) == pytest.approx(0.25, abs=1e-12)
        product = outcome_distribution(make_basis_state(3, [PLUS, PLUS, PLUS]))
        assert x_all_equal(product) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "pair", [(A, A), (A,), (A, B, C), "both"], ids=["A-A", "A", "A-B-C", "both"]
    )
    def test_argument_validation(self, pair):
        with pytest.raises(ValueError, match=r"^pair must name two distinct parties, got "):
            two_z_plus(W, pair)


class TestReaderShapes:
    """Each reader takes outcome distributions, and names any other shape it gets."""

    SINGLE = [
        two_z_plus,
        x_all_equal,
        ch_middle_term,
    ]

    @pytest.mark.parametrize("reader", SINGLE + [event_masses])
    def test_every_reader_refuses_a_short_row(self, reader):
        with pytest.raises(ValueError, match=r"got \(8, 7\)$"):
            reader(np.zeros((8, 7)))

    @pytest.mark.parametrize("reader", SINGLE)
    def test_single_distribution_readers_refuse_a_stack(self, reader):
        with pytest.raises(ValueError, match=r"shape \(8, 8\), got \(3, 8, 8\)$"):
            reader(outcome_distributions([w_state()] * 3))

    def test_event_masses_keeps_the_stack_shape(self):
        dists = outcome_distributions([attacked_w_state(phi) for phi in (0.0, 0.5)])
        assert event_masses(dists).shape == (2, 3)
        assert event_masses(dists.reshape(1, 2, 8, 8)).shape == (1, 2, 3)


class TestChMiddleTerm:
    def test_existential_reading_violates_upper_bound(self):
        for roles in ROLE_ASSIGNMENTS:
            result = ch_middle_term(W, roles=roles)
            assert result.value == pytest.approx(0.25, abs=1e-12)
            assert result.violation

    def test_strict_reading_stays_local(self):
        for roles in ROLE_ASSIGNMENTS:
            result = ch_middle_term(W, strict=True, roles=roles)
            assert result.value == pytest.approx(-5.0 / 12.0, abs=1e-12)
            assert not result.violation

    def test_product_state_value(self):
        product = outcome_distribution(make_basis_state(3, [PLUS, PLUS, PLUS]))
        result = ch_middle_term(product, strict=True)
        assert result.value == pytest.approx(-0.25, abs=1e-12)
        assert not result.violation

    def test_components_are_reported(self):
        result = ch_middle_term(W)
        assert result.a11 == pytest.approx(1.0, abs=1e-12)
        assert result.a12 == pytest.approx(0.0, abs=1e-12)
        assert result.a21 == pytest.approx(0.0, abs=1e-12)
        assert result.a22 == pytest.approx(0.75, abs=1e-12)

    def test_role_validation(self):
        with pytest.raises(ValueError):
            ch_middle_term(W, roles=(A, A, B))
        # strict and roles are keywords, so a pair cannot pass for either.
        with pytest.raises(TypeError):
            ch_middle_term(W, (A, C))

    # CH_BOUND_ATOL is 1e-12: a value 1e-6 outside [-1, 0] is flagged on
    # either side, and the bounds themselves are not.  Each distribution is
    # built directly, one term set: zzz row, cell +++ gives A11; xxx row,
    # cell +++ gives A22.
    @pytest.mark.parametrize("a11, a22, flagged", [
        (1e-6, 0.0, True),
        (0.0, 1.0 + 1e-6, True),
        (0.0, 0.0, False),
        (0.0, 1.0, False),
    ], ids=["above-0", "below-minus-1", "at-0", "at-minus-1"])
    def test_flags_a_value_just_outside_the_bounds(self, a11, a22, flagged):
        dist = np.zeros((8, 8))
        dist[0, 0], dist[7, 0] = a11, a22
        result = ch_middle_term(dist)
        assert result.value == a11 - a22
        assert result.violation is flagged

    @pytest.mark.parametrize("a11, a22", [(1e-6, 0.0), (0.0, 1.0 + 1e-6)],
                             ids=["above-0", "below-minus-1"])
    def test_flags_only_the_last_slice_of_a_stack(self, a11, a22):
        stack = np.zeros((4, 8, 8))
        stack[:, 7, 0] = [0.25, 0.5, 1.0, 0.0]  # values -0.25, -0.5, -1 and 0
        stack[-1, 0, 0], stack[-1, 7, 0] = a11, a22
        flags = [ch_middle_term(dist).violation for dist in stack]
        assert flags == [False, False, False, True]

    # (-sin(pi/8)|000> + cos(pi/8)(|011> + |101>) + sin(pi/8)|110>) / sqrt(2),
    # where a seeded hill-climb over 3-qubit states stopped: -(1 + sqrt(2))/2
    # on both readings, so the lower clause is live.
    BELOW_MINUS_ONE = [-0.2705980500730985, 0.0, 0.0, 0.6532814824381882,
                       0.0, 0.6532814824381882, 0.2705980500730985, 0.0]

    @pytest.mark.parametrize("strict", [False, True], ids=["any-two", "strict"])
    def test_a_state_reaches_the_lower_clause(self, strict):
        dist = outcome_distribution(StateVector(np.array(self.BELOW_MINUS_ONE)))
        result = ch_middle_term(dist, strict=strict)
        assert result.value < -1.0 - CH_BOUND_ATOL
        assert result.value == pytest.approx(-(1.0 + math.sqrt(2.0)) / 2.0, abs=1e-12)
        assert result.violation

    def test_local_states_respect_the_bound(self):
        # Product states admit a local model, so the middle term must stay
        # inside [-1, 0] for every strict-pair evaluation.
        rng = np.random.default_rng(404)
        for _ in range(200):
            state = random_product_state(rng)
            result = ch_middle_term(outcome_distribution(state), strict=True)
            assert -1.0 - 1e-12 <= result.value <= 1e-12
            assert not result.violation


def composed_ch_middle_term(dist, strict, roles):
    """``(value, a11, a12, a21, a22)`` composed from the public readers, each checking ``dist``."""
    i, j, _k = (Party(int(role)) for role in roles)
    a11 = two_z_plus(dist, (i, j) if strict else None)
    a12, a21 = event_masses(dist)[[i, j]].tolist()
    a22 = x_all_equal(dist)
    return a11 - a12 - a21 - a22, a11, a12, a21, a22


def literal_ch_terms(dist, strict, roles):
    """The same five numbers by index arithmetic on ``dist``, without the readers.

    Party ``p``'s bit of outcome string ``o`` is ``o >> (2 - p) & 1``;
    each event is its two cells' sum and A22 is ``dist[7, 0] + dist[7, 7]``.
    """
    i, j, _k = (int(role) for role in roles)

    def plus(p, o):
        return not o >> (2 - p) & 1

    if strict:
        cells = [o for o in range(8) if plus(i, o) and plus(j, o)]
    else:
        cells = [o for o in range(8) if sum(plus(p, o) for p in range(3)) >= 2]
    a11 = float(dist[0, cells].sum())

    def event(decider):
        row = 7 & ~(4 >> decider)  # the decider measures z, the others x
        first, second = (o for o in range(8) if plus(decider, o)
                         and sum(plus(p, o) for p in range(3) if p != decider) == 1)
        return float(dist[row, first] + dist[row, second])

    a12, a21, a22 = event(i), event(j), float(dist[7, 0] + dist[7, 7])
    return a11 - a12 - a21 - a22, a11, a12, a21, a22


def seeded_distributions():
    """(8, 8) arrays with exact zeros and entries near 1e-160, then ten states' distributions."""
    rng = np.random.default_rng(3535)
    dists = []
    for _ in range(40):
        dist = rng.random((8, 8))
        dist[rng.random((8, 8)) < 0.2] = 0.0
        dist[rng.random((8, 8)) < 0.2] *= 1e-160
        dists.append(dist)
    return dists + list(outcome_distributions([random_state(rng, 3) for _ in range(10)]))


class TestChMiddleTermBytes:
    """``ch_middle_term`` checks ``dist`` once and reads each term by the readers' own bodies.

    Every field must have the bytes of the public readers' composition, and
    of the same sums by index arithmetic, for every role order, as parties
    and as indices, on both readings.
    """

    DISTRIBUTIONS = seeded_distributions()

    @pytest.mark.parametrize("strict", [False, True], ids=["any-two", "strict"])
    @pytest.mark.parametrize("as_index", [False, True], ids=["party", "int"])
    @pytest.mark.parametrize("roles", ROLE_ASSIGNMENTS)
    def test_equals_the_composed_readers(self, roles, as_index, strict):
        if as_index:
            roles = tuple(int(role) for role in roles)
        for dist in self.DISTRIBUTIONS:
            result = ch_middle_term(dist, strict=strict, roles=roles)
            fields = (result.value, result.a11, result.a12, result.a21, result.a22)
            expected = composed_ch_middle_term(dist, strict, roles)
            assert np.array(fields).tobytes() == np.array(expected).tobytes()
            literal = literal_ch_terms(dist, strict, roles)
            assert np.array(fields).tobytes() == np.array(literal).tobytes()
            value = expected[0]
            assert result.violation == (value > CH_BOUND_ATOL or value < -1.0 - CH_BOUND_ATOL)

    SHORT = np.zeros((8, 7))

    @pytest.mark.parametrize("dist, roles, message", [
        (SHORT, (A, B, C), r"^outcome distribution must have shape \(8, 8\), got \(8, 7\)$"),
        (W, (A, A, B), r"^roles must be a permutation of \(ALICE, BOB, CHARLIE\)$"),
        (W, (True, B, C), r"^roles must be an integer, got True$"),
        (W, (0, 1, 3), r"^roles must be at most 2, got 3$"),
        # The roles are read before the distribution.
        (SHORT, (A, A, B), r"^roles must be a permutation of \(ALICE, BOB, CHARLIE\)$"),
        (SHORT, (A, B, False), r"^roles must be an integer, got False$"),
    ], ids=["short-dist", "repeated-role", "bool-role", "role-3", "repeated-role-and-short-dist",
            "bool-role-and-short-dist"])
    @pytest.mark.parametrize("strict", [False, True], ids=["any-two", "strict"])
    def test_refusals(self, dist, roles, message, strict):
        with pytest.raises(ValueError, match=message):
            ch_middle_term(dist, strict=strict, roles=roles)


class TestSecurityEventProbability:
    def test_charlie_z_case(self):
        masses = event_masses(outcome_distribution(attacked_w_state(math.pi / 4.0)))
        p = masses[AxisSet.from_label("xxz").decider]
        assert p == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_charlie_x_cases(self):
        masses = event_masses(outcome_distribution(attacked_w_state(math.pi / 3.0)))
        for label in ("zxx", "xzx"):
            p = masses[AxisSet.from_label(label).decider]
            assert p == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_no_attack_means_no_event(self):
        # phi = 0 leaves the ancilla untouched: the event's amplitudes cancel
        # exactly, on the closed form and through the circuit on every target.
        states = [attacked_w_state(0.0)]
        states += [apply_attack(w_state(), UnitaryCouplingAttack(0.0, t)) for t in (A, B, C)]
        for state in states:
            assert event_masses(outcome_distribution(state)).tolist() == [0.0, 0.0, 0.0]


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
            per_set = event_masses(outcome_distribution(state)).tolist()
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
            dist = outcome_distribution(state)
            expected = enumerate_event_probability(
                state,
                [(A, Axis.Z), (B, Axis.Z), (C, Axis.Z)],
                lambda bits: sum(1 for o in bits.values() if o is PLUS) >= 2,
            )
            assert two_z_plus(dist) == pytest.approx(expected, abs=1e-12)

            expected = enumerate_event_probability(
                state,
                [(A, Axis.Z), (B, Axis.Z)],
                lambda bits: bits[A] is PLUS and bits[B] is PLUS,
            )
            assert two_z_plus(dist, (A, B)) == pytest.approx(
                expected, abs=1e-12
            )

            for z_party, x1, x2 in ROLE_ASSIGNMENTS:
                expected = enumerate_event_probability(
                    state,
                    [(z_party, Axis.Z), (x1, Axis.X), (x2, Axis.X)],
                    lambda bits: bits[z_party] is PLUS and bits[x1] is not bits[x2],
                )
                assert event_masses(dist)[z_party] == pytest.approx(
                    expected, abs=1e-12
                )

            expected = enumerate_event_probability(
                state,
                [(A, Axis.X), (B, Axis.X), (C, Axis.X)],
                lambda bits: bits[A] is bits[B] is bits[C],
            )
            assert x_all_equal(dist) == pytest.approx(expected, abs=1e-12)

    def test_security_event_on_random_four_qubit_states(self):
        rng = np.random.default_rng(4321)
        states = [attacked_w_state(float(phi)) for phi in (0.0, 0.4, 1.1, HALF_PI)]
        states += [random_state(rng, 4) for _ in range(10)]
        singles = []
        for state in states:
            dist = outcome_distribution(state)
            masses = event_masses(dist)
            # Random states fill every cell; only the two event cells are added.
            assert masses.tobytes() == weighted_event_masses(dist).tobytes()
            singles.append(masses)
            for axis_set in QKD_AXIS_SETS:
                decider = axis_set.decider
                x1, x2 = axis_set.x_parties
                expected = enumerate_event_probability(
                    state,
                    [(decider, Axis.Z), (x1, Axis.X), (x2, Axis.X), (3, Axis.Z)],
                    lambda bits: bits[decider] is PLUS and bits[x1] is not bits[x2],
                )
                assert masses[decider] == pytest.approx(expected, abs=1e-12)
        # The sweep and verify read a stacked pass: each state's row has the
        # bytes of its own reading.
        dists = outcome_distributions(states)
        stacked = event_masses(dists)
        assert stacked.shape == (len(states), 3)
        assert stacked.tobytes() == np.array(singles).tobytes()
        assert stacked.tobytes() == weighted_event_masses(dists).tobytes()

    def test_ch_components_against_enumeration(self):
        rng = np.random.default_rng(5678)
        for _ in range(10):
            state = random_state(rng, 3)
            result = ch_middle_term(outcome_distribution(state), strict=True)
            a22 = enumerate_event_probability(
                state,
                [(A, Axis.X), (B, Axis.X), (C, Axis.X)],
                lambda bits: bits[A] is bits[B] is bits[C],
            )
            assert result.a22 == pytest.approx(a22, abs=1e-12)
            assert result.value == pytest.approx(
                result.a11 - result.a12 - result.a21 - result.a22, abs=1e-15
            )
