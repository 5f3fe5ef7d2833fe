"""Analytic golden-value suite behind the ``verify`` command.

Every closed-form quantity the package must reproduce is evaluated here by
exact projection or closed formula (never by sampling) and compared against
its expected value.  Boolean claims are encoded as 1.0/0.0.  The events of
each state are read from one :func:`~wqsc.qcore.outcome_distribution`,
built anew on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import UnitaryCouplingAttack, apply_attack, eve_ancilla_statistics
from .bell import (
    AT_LEAST_TWO,
    AxisSet,
    QKD_AXIS_SETS,
    StrictPair,
    _ch_middle_term,
    _two_z_plus,
    _x_all_equal,
    _z_plus_x_unequal,
    averaged_security_probability,
)
from .protocol import (
    Outcome,
    decider_step,
    key_accounting,
    partial_inference,
    Inference,
    reconstruct_dealer_bit,
)
from .qcore import (
    Axis,
    Party,
    eigenvalues_hermitian,
    joint_probability,
    make_basis_state,
    measure_qubit,
    outcome_distribution,
    partial_transpose,
    reduced_density,
    three_tangle,
)
from .states import attacked_w_state, ghz_state, w_state

VERIFY_TOL = 1e-9

_A, _B, _C = Party.ALICE, Party.BOB, Party.CHARLIE
_PLUS, _MINUS = Outcome.PLUS, Outcome.MINUS


@dataclass(frozen=True)
class GoldenCheck:
    item: str
    value: float
    expected: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.expected) <= VERIFY_TOL


def _state_distance(actual, expected) -> float:
    return float(np.max(np.abs(actual.amplitudes - expected.amplitudes)))


def golden_checks() -> list[GoldenCheck]:
    checks: list[GoldenCheck] = []

    def add(item: str, value: float, expected: float) -> None:
        checks.append(GoldenCheck(item, float(value), float(expected)))

    w = w_state()
    ghz = ghz_state()
    inv_sqrt3 = 1.0 / math.sqrt(3.0)

    # Source state.
    add("w-amplitude-single-minus-terms", float(np.max(np.abs(
        w.amplitudes[[4, 2, 1]] - inv_sqrt3))), 0.0)
    add("w-squared-norm", w.squared_norm(), 1.0)

    # Measurement collapse on Charlie's qubit.
    out_minus, post_minus, p_minus = measure_qubit(w, _C, Axis.Z, 0.9)
    add("w-charlie-z-minus-probability", p_minus, 1.0 / 3.0)
    add("w-charlie-z-minus-outcome", 1.0 if out_minus is _MINUS else 0.0, 1.0)
    add(
        "w-charlie-z-minus-collapse",
        _state_distance(post_minus, make_basis_state(3, [_PLUS, _PLUS, _MINUS])),
        0.0,
    )
    out_plus, post_plus, p_plus = measure_qubit(w, _C, Axis.Z, 0.1)
    add("w-charlie-z-plus-probability", p_plus, 2.0 / 3.0)
    bell_pair = np.zeros(8, dtype=complex)
    bell_pair[4] = bell_pair[2] = 1.0 / math.sqrt(2.0)
    add(
        "w-charlie-z-plus-collapse",
        float(np.max(np.abs(post_plus.amplitudes - bell_pair))),
        0.0,
    )

    # Event probabilities on the W state, all read from one distribution.
    w_dist = outcome_distribution(w)
    add("two-z-plus-at-least-two-on-w", _two_z_plus(w_dist, AT_LEAST_TWO), 1.0)
    add("two-z-plus-strict-pair-on-w", _two_z_plus(w_dist, StrictPair(_A, _B)), 1.0 / 3.0)
    # The event is symmetric in the two x measurers, so the z measurer
    # names each of the six role assignments' values.
    worst = max(_z_plus_x_unequal(w_dist, z) for z in (_A, _B, _C))
    add("z-plus-x-unequal-on-w-all-roles", worst, 0.0)
    add("x-all-equal-on-w", _x_all_equal(w_dist), 0.75)
    add("x-all-equal-on-ghz", _x_all_equal(outcome_distribution(ghz)), 0.25)

    # CH middle term.
    existential = _ch_middle_term(w_dist, AT_LEAST_TWO, (_A, _B, _C))
    add("ch-middle-term-at-least-two-on-w", existential.value, 0.25)
    add("ch-violation-flag-at-least-two", 1.0 if existential.violation else 0.0, 1.0)
    strict = _ch_middle_term(w_dist, StrictPair(_A, _B), (_A, _B, _C))
    add("ch-middle-term-strict-pair-on-w", strict.value, -5.0 / 12.0)
    add("ch-no-violation-strict-pair", 1.0 if strict.violation else 0.0, 0.0)

    # Entanglement classification.
    add("three-tangle-ghz", three_tangle(ghz), 1.0)
    add("three-tangle-w", three_tangle(w), 0.0)
    ppt_floor = (1.0 - math.sqrt(5.0)) / 6.0
    for pair, keep in (("ab", (_A, _B)), ("ac", (_A, _C)), ("bc", (_B, _C))):
        transposed = partial_transpose(reduced_density(w, keep), "second")
        add(f"ppt-min-eigenvalue-w-pair-{pair}", eigenvalues_hermitian(transposed)[0], ppt_floor)

    # Attacked channel state.
    maximal = attacked_w_state(math.pi / 2.0)
    expected = np.zeros(16, dtype=complex)
    expected[[0b1000, 0b0100, 0b0001]] = inv_sqrt3
    add(
        "attacked-state-maximal-coupling-pattern",
        float(np.max(np.abs(maximal.amplitudes - expected))),
        0.0,
    )
    phi_probe = 0.77
    circuit = apply_attack(w, UnitaryCouplingAttack(phi_probe, _C))
    add(
        "attacked-state-circuit-equivalence",
        _state_distance(attacked_w_state(phi_probe), circuit),
        0.0,
    )

    # Security-check event under attack.
    xxz = AxisSet.from_label("xxz")
    zxx = AxisSet.from_label("zxx")
    add(
        "security-event-charlie-z-quarter-pi",
        _z_plus_x_unequal(outcome_distribution(attacked_w_state(math.pi / 4.0)), xxz.decider),
        1.0 / 12.0,
    )
    add(
        "security-event-charlie-x-third-pi",
        _z_plus_x_unequal(outcome_distribution(attacked_w_state(math.pi / 3.0)), zxx.decider),
        1.0 / 6.0,
    )
    untouched = outcome_distribution(attacked_w_state(0.0))
    add(
        "security-event-no-attack",
        max(_z_plus_x_unequal(untouched, axes.decider) for axes in QKD_AXIS_SETS),
        0.0,
    )
    add("averaged-security-probability-half-pi",
        averaged_security_probability(math.pi / 2.0), 5.0 / 18.0)
    add("averaged-security-probability-third-pi",
        averaged_security_probability(math.pi / 3.0), 11.0 / 72.0)
    add("averaged-security-probability-zero", averaged_security_probability(0.0), 0.0)
    mismatch = 0.0
    for phi in np.linspace(0.0, math.pi / 2.0, 11):
        dist = outcome_distribution(attacked_w_state(float(phi)))
        weighted = sum(_z_plus_x_unequal(dist, axes.decider) for axes in QKD_AXIS_SETS) / 3.0
        mismatch = max(mismatch, abs(weighted - averaged_security_probability(float(phi))))
    add("averaged-matches-per-set-mean", mismatch, 0.0)

    # Eavesdropper's ancilla.
    add("eve-minus-rate-half-pi", eve_ancilla_statistics(attacked_w_state(math.pi / 2)), 1.0 / 3.0)
    add("eve-minus-rate-quarter-pi", eve_ancilla_statistics(attacked_w_state(math.pi / 4)), 1.0 / 6.0)

    # Protocol-level constants, still by exact projection.
    decider_plus = joint_probability(w, [(_C, Axis.Z, _PLUS)])
    add("decider-plus-probability-on-w", decider_plus, 2.0 / 3.0)
    add("qkd-axis-set-probability", 3.0 / 8.0, 3.0 / 8.0)
    add("qkd-success-probability", (3.0 / 8.0) * decider_plus, 0.25)
    add("pqss-success-probability", 1.0 / 8.0, 0.125)
    add("synth-success-probability", 1.0 / 8.0 + (3.0 / 8.0) * decider_plus, 0.375)

    # Resource accounting constants (no announcements).
    add("qubits-per-key-bit-qkd", key_accounting(1, 0.25, 1, 0), 12.0)
    add("qubits-per-key-bit-pqss", key_accounting(1, 0.125, 1, 0), 24.0)
    add("qubits-per-key-bit-synth", key_accounting(1, 0.375, 1, 0), 8.0)
    add("qubits-per-key-bit-epr-comparison",
        key_accounting(1, 2.0 / 9.0, 1, 0, qubits_per_trial=2), 9.0)
    add("qubits-per-key-bit-ghz-comparison",
        key_accounting(1, 0.5, 1, 0), 6.0)

    # Decider table rows.
    bits = decider_step(xxz, (_PLUS, _PLUS, _PLUS))
    add("decider-row-charlie-plus-keeps-pair",
        1.0 if bits == {_A: _PLUS, _B: _PLUS} else 0.0, 1.0)
    bits = decider_step(xxz, (_PLUS, _MINUS, _MINUS))
    add("decider-row-charlie-minus-discards", 1.0 if bits is None else 0.0, 1.0)
    bits = decider_step(zxx, (_PLUS, _MINUS, _MINUS))
    add("decider-row-alice-decides-for-bc",
        1.0 if bits is not None and set(bits) == {_B, _C} else 0.0, 1.0)

    # Secret-sharing relations.
    add("reconstruct-unequal-shares-gives-plus",
        1.0 if reconstruct_dealer_bit(_PLUS, _MINUS) is _PLUS else 0.0, 1.0)
    add("reconstruct-equal-plus-shares-gives-minus",
        1.0 if reconstruct_dealer_bit(_PLUS, _PLUS) is _MINUS else 0.0, 1.0)
    add("partial-inference-minus-certifies-plus",
        1.0 if partial_inference(_MINUS) is Inference.DEALER_IS_PLUS else 0.0, 1.0)
    add("partial-inference-certifying-share-rate",
        joint_probability(w, [(_B, Axis.Z, _MINUS)]), 1.0 / 3.0)

    return checks


def run_verification() -> tuple[bool, list[GoldenCheck]]:
    checks = golden_checks()
    return all(check.passed for check in checks), checks
