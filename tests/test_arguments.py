"""Integer and real arguments follow qcore's two rules at every public entry point.

The integer rule takes Python and numpy integers (and ``Party`` members);
the real rule takes Python and numpy reals.  Both refuse bool and every
other type, and a refused value raises ValueError whose message starts
with the argument's name.
"""

import functools

import numpy as np
import pytest

from wqsc import (
    Axis,
    Outcome,
    Party,
    ProtocolConfig,
    ProtocolMode,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_amplitudes,
    attacked_w_state,
    averaged_security_probability,
    binomial_sigma,
    ch_middle_term,
    joint_probability,
    key_accounting,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    reduced_density,
    sample_security_frequency,
    two_z_plus,
    w_state,
)
from wqsc.qcore import integer_argument, party_argument, real_argument

PLUS = Outcome.PLUS
W = w_state()


@pytest.mark.parametrize(
    "function, args, name",
    [
        (measure_qubit, (W, True, Axis.Z, 0.5), "qubit"),
        (measure_qubit, (W, 2.0, Axis.Z, 0.5), "qubit"),
        (measure_qubit, (W, 0, Axis.Z, "0.5"), "u"),
        (joint_probability, (W, [(2.0, Axis.Z, PLUS)]), "qubit"),
        (reduced_density, (W, [True]), "keep"),
        (make_basis_state, (3.0, [PLUS] * 3), "num_qubits"),
        (UnitaryCouplingAttack, (True,), "phi"),
        (UnitaryCouplingAttack, ("0.5",), "phi"),
        # Ints beyond float range; str() of the second one raises by itself.
        (UnitaryCouplingAttack, (10**400,), "phi"),
        (UnitaryCouplingAttack, (10**5000,), "phi"),
        (UnitaryCouplingAttack, (0.5, True), "target"),
        (ProtocolConfig, (ProtocolMode.QKD, 10, 1, 0.1, None, 1e-9, True), "dealer"),
        (ProtocolConfig, ("qkd", 10, 1, 10**400), "announce_rate"),
        (attacked_w_state, (True,), "phi"),
        (attacked_w_state, (0.5, True), "target"),
        (averaged_security_probability, (True,), "phi"),
        (key_accounting, (1.5, 0.25, 10, 0), "key_bits"),
        (binomial_sigma, (0.5, 2.5), "n"),
        (binomial_sigma, (10**400, 3), "p"),
        (sample_security_frequency, ([10**400], 10, 1), "phi"),
        (two_z_plus, (outcome_distribution(W), (True, 0)), "pair"),
        (two_z_plus, (outcome_distribution(W), (0, 1.0)), "pair"),
        # roles is a keyword; the partial keeps ch_middle_term's name as its id.
        (functools.update_wrapper(functools.partial(ch_middle_term, roles=(True, 0, 2)),
                                  ch_middle_term), (outcome_distribution(W),), "roles"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_bad_argument_raises_value_error_naming_it(function, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|real number), got "):
        function(*args)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (attacked_w_state, (0.5, 3), "target must be at most 2, got 3"),
        # str() of an int of more than 4300 digits raises by itself, so
        # such a value is named by its type and the bound.
        (measure_qubit, (W, 10**5000, Axis.Z, 0.5),
         "qubit must be at most 2, got int beyond that bound"),
        (measure_qubit, (W, -10**5000, Axis.Z, 0.5),
         "qubit must be at least 0, got int beyond that bound"),
        (make_basis_state, (10**5000, []),
         "num_qubits must be at most 5, got int beyond that bound"),
        (make_basis_state, (-10**5000, []),
         "num_qubits must be at least 1, got int beyond that bound"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_out_of_range_integer_raises_value_error_naming_it_and_the_bound(function, args, message):
    with pytest.raises(ValueError) as info:
        function(*args)
    assert str(info.value) == message


def test_numpy_numbers_pass_as_their_python_values():
    assert type(integer_argument("n", np.int64(2), 0)) is int
    assert type(real_argument("x", np.float32(0.5))) is float
    qubit, angle = np.int64(2), np.float32(0.5)
    assert joint_probability(W, [(qubit, Axis.Z, PLUS)]) == joint_probability(
        W, [(2, Axis.Z, PLUS)]
    )
    outcome, post, probability = measure_qubit(W, qubit, Axis.Z, angle)
    expected = measure_qubit(W, 2, Axis.Z, 0.5)
    assert (outcome, probability) == (expected[0], expected[2])
    assert np.array_equal(post.amplitudes, expected[1].amplitudes)
    assert UnitaryCouplingAttack(angle, np.int64(1)) == UnitaryCouplingAttack(0.5, 1)
    assert np.array_equal(attacked_w_state(angle).amplitudes, attacked_w_state(0.5).amplitudes)
    assert averaged_security_probability(angle) == averaged_security_probability(0.5)


@pytest.mark.parametrize(
    "value", [2, np.int64(2), Party.CHARLIE, Outcome.MINUS, Party.ALICE],
    ids=["int", "int64", "Party", "Outcome", "Party-at-low-bound"],
)
def test_integers_come_back_as_exactly_int(value):
    result = integer_argument("n", value, 0, 2)
    assert type(result) is int and result == int(value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "n must be an integer, got True"),
        (-1, "n must be at least 0, got -1"),
        (3, "n must be at most 2, got 3"),
        (10**5000, "n must be at most 2, got int beyond that bound"),
    ],
    ids=["bool", "below", "above", "huge"],
)
def test_integer_rule_messages_at_the_bounds(value, message):
    # A Python int in range returns at once; every other value keeps its message.
    with pytest.raises(ValueError) as info:
        integer_argument("n", value, 0, 2)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, low, high, bound",
    [(Party.ALICE, 1, 2, "at least 1"), (Party.CHARLIE, 0, 1, "at most 1")],
    ids=["below", "above"],
)
def test_intenum_out_of_range_keeps_its_message(value, low, high, bound):
    # An IntEnum member is shown by its own str, which differs across Python versions.
    with pytest.raises(ValueError) as info:
        integer_argument("n", value, low, high)
    assert str(info.value) == f"n must be {bound}, got {value}"


@pytest.mark.parametrize("party", list(Party))
@pytest.mark.parametrize("spelling", [Party, int, np.int64, np.uint8],
                         ids=["Party", "int", "int64", "uint8"])
def test_party_argument_gives_the_member_itself(party, spelling):
    assert party_argument("dealer", spelling(party)) is party


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "dealer must be an integer, got True"),
        (3, "dealer must be at most 2, got 3"),
        (-1, "dealer must be at least 0, got -1"),
        ("B", "dealer must be an integer, got 'B'"),
        (1.0, "dealer must be an integer, got 1.0"),
    ],
    ids=["bool", "above", "below", "letter", "float"],
)
def test_party_argument_refuses_naming_the_argument(value, message):
    with pytest.raises(ValueError) as info:
        party_argument("dealer", value)
    assert str(info.value) == message


def test_attacked_amplitudes_read_a_party_as_its_index():
    assert (attacked_w_amplitudes([0.5], Party.BOB).tobytes()
            == attacked_w_amplitudes([0.5], 1).tobytes())


@pytest.mark.parametrize(
    "function, args, message",
    [
        (Party.from_letter, (1,), "unknown party 1; expected one of A, B, C"),
        (Party.from_letter, (None,), "unknown party None; expected one of A, B, C"),
        (apply_attack, (W, 0.5), "attack must be None or a UnitaryCouplingAttack, got 0.5"),
        (apply_attack, (W, "C"), "attack must be None or a UnitaryCouplingAttack, got 'C'"),
    ],
    ids=["letter-int", "letter-None", "attack-float", "attack-str"],
)
def test_a_value_of_the_wrong_type_raises_value_error_naming_it(function, args, message):
    with pytest.raises(ValueError) as info:
        function(*args)
    assert str(info.value) == message
