"""Integer and real arguments follow qcore's two rules at every public entry point.

The integer rule takes Python and numpy integers (and ``Party`` members);
the real rule takes Python and numpy reals.  Both refuse bool and every
other type, and a refused value raises ValueError whose message starts
with the argument's name.
"""

import numpy as np
import pytest

from wqsc import (
    AT_LEAST_TWO,
    Axis,
    Outcome,
    ProtocolConfig,
    ProtocolMode,
    StrictPair,
    UnitaryCouplingAttack,
    attacked_w_state,
    averaged_security_probability,
    binomial_sigma,
    ch_middle_term,
    collapse,
    joint_probability,
    key_accounting,
    make_basis_state,
    measure_qubit,
    plus_probability,
    prob_z_plus_x_unequal,
    reduced_density,
    w_state,
)
from wqsc.qcore import integer_argument, real_argument

PLUS = Outcome.PLUS
W = w_state()


@pytest.mark.parametrize(
    "function, args, name",
    [
        (plus_probability, (W, True, Axis.Z), "qubit"),
        (plus_probability, (W, 2.0, Axis.Z), "qubit"),
        (collapse, (W, True, Axis.Z, PLUS), "qubit"),
        (collapse, (W, 2.0, Axis.Z, PLUS), "qubit"),
        (measure_qubit, (W, True, Axis.Z, 0.5), "qubit"),
        (measure_qubit, (W, 2.0, Axis.Z, 0.5), "qubit"),
        (measure_qubit, (W, 0, Axis.Z, "0.5"), "u"),
        (joint_probability, (W, [(2.0, Axis.Z, PLUS)]), "qubit"),
        (reduced_density, (W, [True]), "keep"),
        (make_basis_state, (3.0, [PLUS] * 3), "num_qubits"),
        (UnitaryCouplingAttack, (True,), "phi"),
        (UnitaryCouplingAttack, ("0.5",), "phi"),
        (UnitaryCouplingAttack, (0.5, True), "target"),
        (ProtocolConfig, (ProtocolMode.QKD, 10, 1, 0.1, None, 1e-9, True), "dealer"),
        (attacked_w_state, (True,), "phi"),
        (averaged_security_probability, (True,), "phi"),
        (key_accounting, (1.5, 0.25, 10, 0), "key_bits"),
        (binomial_sigma, (0.5, 2.5), "n"),
        (prob_z_plus_x_unequal, (W, True, (0, 2)), "z_qubit"),
        (prob_z_plus_x_unequal, (W, 1.0, (0, 2)), "z_qubit"),
        (prob_z_plus_x_unequal, (W, 1, (0, 2.0)), "x_qubits"),
        (StrictPair, (True, 0), "first"),
        (StrictPair, (0, 1.0), "second"),
        (ch_middle_term, (W, AT_LEAST_TWO, (True, 0, 2)), "roles"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_bad_argument_raises_value_error_naming_it(function, args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an? (integer|real number), got "):
        function(*args)


def test_numpy_numbers_pass_as_their_python_values():
    assert type(integer_argument("n", np.int64(2), 0)) is int
    assert type(real_argument("x", np.float32(0.5))) is float
    qubit, angle = np.int64(2), np.float32(0.5)
    assert plus_probability(W, qubit, Axis.X) == plus_probability(W, 2, Axis.X)
    assert joint_probability(W, [(qubit, Axis.Z, PLUS)]) == joint_probability(
        W, [(2, Axis.Z, PLUS)]
    )
    post = collapse(W, qubit, Axis.Z, PLUS)
    assert np.array_equal(post.amplitudes, collapse(W, 2, Axis.Z, PLUS).amplitudes)
    outcome, post, probability = measure_qubit(W, qubit, Axis.Z, angle)
    expected = measure_qubit(W, 2, Axis.Z, 0.5)
    assert (outcome, probability) == (expected[0], expected[2])
    assert np.array_equal(post.amplitudes, expected[1].amplitudes)
    assert UnitaryCouplingAttack(angle, np.int64(1)) == UnitaryCouplingAttack(0.5, 1)
    assert np.array_equal(attacked_w_state(angle).amplitudes, attacked_w_state(0.5).amplitudes)
    assert averaged_security_probability(angle) == averaged_security_probability(0.5)
