"""Analytic golden-value suite behind the ``verify`` command.

Every closed-form quantity the package must reproduce is evaluated here by
exact projection or closed formula (never by sampling) and compared against
its expected value.  Boolean claims are encoded as 1.0/0.0.  Everything is
built anew on every call, and each distinct state once: the attacked
states are the rows of one :func:`~wqsc.states.attacked_w_amplitudes`
stack, one row per distinct angle.  Each state's events are read by
``wqsc.bell``'s readers from its slice of a stacked
:func:`~wqsc.qcore.outcome_distributions` pass: one for the two
three-qubit states, and one for the fourteen rows of the attacked pass, whose
security events are one :func:`~wqsc.bell.event_masses` call.  The W
state's three pairs are one :func:`~wqsc.qcore.reduced_densities` stack,
whose partial transposes are one
:func:`~wqsc.qcore.eigenvalues_hermitian` call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .adversary import UnitaryCouplingAttack, apply_attack, eve_ancilla_statistics
from .bell import (
    ALL_AXIS_SETS,
    AxisSet,
    QKD_AXIS_SETS,
    averaged_security_probability,
    ch_middle_term,
    event_masses,
    two_z_plus,
    x_all_equal,
)
from .protocol import (
    MODE_SUCCESS_PROBABILITY,
    ProtocolMode,
    decider_step,
    key_accounting,
    partial_inference,
    reconstruct_dealer_bit,
)
from .qcore import (
    Axis,
    Outcome,
    Party,
    StateVector,
    eigenvalues_hermitian,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distributions,
    partial_transpose,
    reduced_densities,
    three_tangle,
)
from .states import attacked_w_amplitudes, ghz_state, w_state

VERIFY_TOL = 1e-9

_A, _B, _C = Party.ALICE, Party.BOB, Party.CHARLIE
_PLUS, _MINUS = Outcome.PLUS, Outcome.MINUS
_XXZ, _ZXX = AxisSet.from_label("xxz"), AxisSet.from_label("zxx")
_PAIRS = {"ab": (_A, _B), "ac": (_A, _C), "bc": (_B, _C)}
# The sweep of attack angles: pi/4 is its middle point and pi/2, the maximal coupling, its last.
_GRID = tuple(np.linspace(0.0, math.pi / 2.0, 11).tolist())


class GoldenCheck(NamedTuple):
    """One check; ``passed`` is whether ``value`` lies within ``VERIFY_TOL`` of ``expected``."""

    item: str
    value: float
    expected: float
    passed: bool


def _distance(a: np.ndarray, b: np.ndarray | float) -> float:
    """The largest absolute difference of two amplitude arrays."""
    return float(np.abs(a - b).max())


def golden_checks() -> list[GoldenCheck]:
    checks: list[GoldenCheck] = []

    def add(item: str, value: float, expected: float) -> None:
        value, expected = float(value), float(expected)
        # tuple.__new__ fills the four fields without the generated __new__'s call.
        checks.append(tuple.__new__(GoldenCheck, (item, value, expected,
                                                  abs(value - expected) <= VERIFY_TOL)))

    w = w_state()
    ghz = ghz_state()
    inv_sqrt3 = 1.0 / math.sqrt(3.0)

    # Source state.
    add("w-amplitude-single-minus-terms", _distance(w.amplitudes[[4, 2, 1]], inv_sqrt3), 0.0)
    add("w-squared-norm", w.squared_norm(), 1.0)

    # Measurement collapse on Charlie's qubit.
    out_minus, post_minus, p_minus = measure_qubit(w, _C, Axis.Z, 0.9)
    add("w-charlie-z-minus-probability", p_minus, 1.0 / 3.0)
    add("w-charlie-z-minus-outcome", 1.0 if out_minus is _MINUS else 0.0, 1.0)
    product = make_basis_state(3, [_PLUS, _PLUS, _MINUS]).amplitudes
    add("w-charlie-z-minus-collapse", _distance(post_minus.amplitudes, product), 0.0)
    out_plus, post_plus, p_plus = measure_qubit(w, _C, Axis.Z, 0.1)
    add("w-charlie-z-plus-probability", p_plus, 2.0 / 3.0)
    bell_pair = np.zeros(8, dtype=complex)
    bell_pair[4] = bell_pair[2] = 1.0 / math.sqrt(2.0)
    add("w-charlie-z-plus-collapse", _distance(post_plus.amplitudes, bell_pair), 0.0)

    # Event probabilities on the W and GHZ states, read from one stacked pass.
    w_dist, ghz_dist = outcome_distributions([w, ghz])
    add("two-z-plus-at-least-two-on-w", two_z_plus(w_dist), 1.0)
    add("two-z-plus-strict-pair-on-w", two_z_plus(w_dist, (_A, _B)), 1.0 / 3.0)
    # The event is symmetric in the two x measurers, so the z measurer
    # names each of the six role assignments' values.
    add("z-plus-x-unequal-on-w-all-roles", max(event_masses(w_dist).tolist()), 0.0)
    add("x-all-equal-on-w", x_all_equal(w_dist), 0.75)
    add("x-all-equal-on-ghz", x_all_equal(ghz_dist), 0.25)

    # CH middle term.
    existential = ch_middle_term(w_dist)
    add("ch-middle-term-at-least-two-on-w", existential.value, 0.25)
    add("ch-violation-flag-at-least-two", 1.0 if existential.violation else 0.0, 1.0)
    strict = ch_middle_term(w_dist, strict=True)
    add("ch-middle-term-strict-pair-on-w", strict.value, -5.0 / 12.0)
    add("ch-no-violation-strict-pair", 1.0 if strict.violation else 0.0, 0.0)

    # Entanglement classification.
    add("three-tangle-ghz", three_tangle(ghz), 1.0)
    add("three-tangle-w", three_tangle(w), 0.0)
    ppt_floor = (1.0 - math.sqrt(5.0)) / 6.0
    transposed = [partial_transpose(dm, "second") for dm in reduced_densities(w, _PAIRS.values())]
    for pair, eigenvalues in zip(_PAIRS, eigenvalues_hermitian(np.array(transposed))):
        add(f"ppt-min-eigenvalue-w-pair-{pair}", eigenvalues[0], ppt_floor)

    # Attacked channel states, one row per distinct angle: 0 and pi/4 are also grid points.
    angles = (math.pi / 4.0, math.pi / 3.0, 0.0, *_GRID)
    phi_probe = 0.77
    rows = {phi: row for row, phi in enumerate(dict.fromkeys((*angles, phi_probe)))}
    attacked = attacked_w_amplitudes(rows)
    maximal = attacked[rows[math.pi / 2.0]]
    expected = np.zeros(16, dtype=complex)
    expected[[0b1000, 0b0100, 0b0001]] = inv_sqrt3
    add("attacked-state-maximal-coupling-pattern", _distance(maximal, expected), 0.0)
    circuit = apply_attack(w, UnitaryCouplingAttack(phi_probe, _C))
    add(
        "attacked-state-circuit-equivalence",
        _distance(attacked[rows[phi_probe]], circuit.amplitudes),
        0.0,
    )

    # Security-check event under attack: the pass reads fourteen rows (0 and pi/4 twice).
    stack = attacked[[rows[phi] for phi in angles]]
    quarter, third, untouched, *swept = event_masses(outcome_distributions(stack)).tolist()
    add("security-event-charlie-z-quarter-pi", quarter[_XXZ.decider], 1.0 / 12.0)
    add("security-event-charlie-x-third-pi", third[_ZXX.decider], 1.0 / 6.0)
    add("security-event-no-attack", max(untouched), 0.0)
    add("averaged-security-probability-half-pi",
        averaged_security_probability(math.pi / 2.0), 5.0 / 18.0)
    add("averaged-security-probability-third-pi",
        averaged_security_probability(math.pi / 3.0), 11.0 / 72.0)
    add("averaged-security-probability-zero", averaged_security_probability(0.0), 0.0)
    mismatch = 0.0
    for phi, masses in zip(_GRID, swept):
        weighted = sum(masses) / 3.0
        mismatch = max(mismatch, abs(weighted - averaged_security_probability(phi)))
    add("averaged-matches-per-set-mean", mismatch, 0.0)

    # Eavesdropper's ancilla.
    quarter_pi = StateVector(attacked[rows[math.pi / 4.0]])
    add("eve-minus-rate-half-pi", eve_ancilla_statistics(StateVector(maximal)), 1.0 / 3.0)
    add("eve-minus-rate-quarter-pi", eve_ancilla_statistics(quarter_pi), 1.0 / 6.0)

    # The success probabilities the engine reports, against exact projection.
    decider_plus = joint_probability(w, [(_C, Axis.Z, _PLUS)])
    add("decider-plus-probability-on-w", decider_plus, 2.0 / 3.0)
    qkd_sets = len(QKD_AXIS_SETS) / len(ALL_AXIS_SETS)
    add("qkd-axis-set-probability", qkd_sets, 3.0 / 8.0)
    exact = {ProtocolMode.QKD: qkd_sets * decider_plus, ProtocolMode.PQSS: 1.0 / len(ALL_AXIS_SETS)}
    exact[ProtocolMode.SYNTH] = exact[ProtocolMode.PQSS] + exact[ProtocolMode.QKD]
    for mode in ProtocolMode:
        add(f"{mode.value}-success-probability", exact[mode], MODE_SUCCESS_PROBABILITY[mode])

    # Resource accounting constants (no announcements).
    for mode, per_bit in zip(ProtocolMode, (12.0, 24.0, 8.0)):
        cost = key_accounting(1, MODE_SUCCESS_PROBABILITY[mode], 1, 0)
        add(f"qubits-per-key-bit-{mode.value}", cost, per_bit)
    add("qubits-per-key-bit-epr-comparison",
        key_accounting(1, 2.0 / 9.0, 1, 0, qubits_per_trial=2), 9.0)
    add("qubits-per-key-bit-ghz-comparison",
        key_accounting(1, 0.5, 1, 0), 6.0)

    # Decider table rows.
    bits = decider_step(_XXZ, (_PLUS, _PLUS, _PLUS))
    add("decider-row-charlie-plus-keeps-pair",
        1.0 if bits == {_A: _PLUS, _B: _PLUS} else 0.0, 1.0)
    bits = decider_step(_XXZ, (_PLUS, _MINUS, _MINUS))
    add("decider-row-charlie-minus-discards", 1.0 if bits is None else 0.0, 1.0)
    bits = decider_step(_ZXX, (_PLUS, _MINUS, _MINUS))
    add("decider-row-alice-decides-for-bc",
        1.0 if bits is not None and set(bits) == {_B, _C} else 0.0, 1.0)

    # Secret-sharing relations.
    add("reconstruct-unequal-shares-gives-plus",
        1.0 if reconstruct_dealer_bit(_PLUS, _MINUS) is _PLUS else 0.0, 1.0)
    add("reconstruct-equal-plus-shares-gives-minus",
        1.0 if reconstruct_dealer_bit(_PLUS, _PLUS) is _MINUS else 0.0, 1.0)
    add("partial-inference-minus-certifies-plus",
        1.0 if partial_inference(_MINUS) is _PLUS else 0.0, 1.0)
    add("partial-inference-certifying-share-rate",
        joint_probability(w, [(_B, Axis.Z, _MINUS)]), 1.0 / 3.0)

    return checks


def run_verification() -> tuple[bool, list[GoldenCheck]]:
    checks = golden_checks()
    return all(check.passed for check in checks), checks
