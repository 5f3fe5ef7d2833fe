"""Canonical states and operators for the three-party protocols.

Builds the symmetric three-qubit W state, the GHZ comparison state, the
ancilla-coupling unitary used by the eavesdropping model, and the
post-attack four-qubit state (parties A, B, C plus the ancilla E), one
state or a stack of amplitude rows, one per coupling strength.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .qcore import Party, StateVector, integer_argument, real_argument

ATTACK_ANGLE_MAX = math.pi / 2.0

_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Basis indices of the single-MINUS strings |-++>, |+-+>, |++-> under the
# MSB-first convention.
_W_INDICES = (4, 2, 1)


def validate_attack_angle(phi: float) -> float:
    """The coupling strength, a real in [0, pi/2], as a float; else ValueError."""
    phi = real_argument("phi", phi)
    if not 0.0 <= phi <= ATTACK_ANGLE_MAX:
        raise ValueError(f"attack angle must lie in [0, pi/2], got {phi!r}")
    return phi


def w_state() -> StateVector:
    """Symmetric three-qubit W state: (|-++> + |+-+> + |++->)/sqrt(3)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[list(_W_INDICES)] = _INV_SQRT3
    return StateVector(amps)


def ghz_state() -> StateVector:
    """Maximal three-qubit GHZ state: (|+++> + |--->)/sqrt(2)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = _INV_SQRT2
    amps[7] = _INV_SQRT2
    return StateVector(amps)


def coupling_unitary(phi: float) -> np.ndarray:
    """Two-qubit unitary coupling an intercepted channel qubit to an ancilla.

    Acting on (channel, ancilla) with the channel qubit as the MSB:

        |z+ z+> -> |z+ z+>
        |z- z+> -> cos(phi) |z- z+> + sin(phi) |z+ z->

    The remaining two basis vectors are completed minimally as
    ``|z+ z-> -> cos(phi) |z+ z-> - sin(phi) |z- z+>`` and ``|z- z->``
    fixed; the ancilla is always prepared in ``|z+>``, so the completion
    never acts on a reachable state.
    """
    phi = validate_attack_angle(phi)
    c = math.cos(phi)
    s = math.sin(phi)
    unitary = np.zeros((4, 4), dtype=np.complex128)
    unitary[0, 0] = unitary[3, 3] = 1.0
    unitary[1, 1] = unitary[2, 2] = c
    unitary[1, 2] = s
    unitary[2, 1] = -s
    return unitary


def attacked_w_amplitudes(
    phis: Iterable[float], target: Party | int = Party.CHARLIE
) -> np.ndarray:
    """The amplitudes of :func:`attacked_w_state` at each strength of ``phis``, one row each.

    Returns the ``(n, 16)`` array whose row ``i`` is the closed form at
    ``phis[i]``: the target's single-minus amplitude is ``cos(phi) /
    sqrt(3)``, ``|+++->`` is ``sin(phi) / sqrt(3)`` and the other two stay
    ``1/sqrt(3)``.  Every angle is checked by :func:`validate_attack_angle`
    and ``target`` by :func:`~wqsc.qcore.integer_argument` before anything
    is built.  The rows are not checked as states here: an amplitude stack
    passed to :func:`~wqsc.qcore.outcome_distributions` is, row by row.
    """
    phis = [validate_attack_angle(phi) for phi in phis]
    target = integer_argument("target", target, 0, 2)
    amps = np.zeros((len(phis), 16), dtype=np.complex128)
    amps[:, 0b1000] = amps[:, 0b0100] = amps[:, 0b0010] = _INV_SQRT3
    amps[:, 0b1000 >> target] = [_INV_SQRT3 * math.cos(phi) for phi in phis]
    amps[:, 0b0001] = [_INV_SQRT3 * math.sin(phi) for phi in phis]
    return amps


def attacked_w_state(phi: float, target: Party | int = Party.CHARLIE) -> StateVector:
    """Four-qubit state (A, B, C, E) after coupling of strength phi on ``target``'s qubit.

    Closed form, here for the default target Charlie:

        (|-+++> + |+-++> + cos(phi) |++-+> + sin(phi) |+++->) / sqrt(3)

    The target's single-minus amplitude is scaled by cos(phi) and the
    other two stay 1/sqrt(3).  This is what appending an ancilla ``|z+>``
    to the W state and applying ``coupling_unitary(phi)`` to (target, E)
    produces: ``run`` samples this closed form, and
    :func:`~wqsc.adversary.apply_attack`, the circuit, is its check (the
    tests pin the two equal byte for byte for every target).  ``target``
    is a :class:`Party` or its qubit index and follows
    :func:`~wqsc.qcore.integer_argument`.  At phi = 0 the channel is
    untouched and the state factorizes as W tensor |z+>.  It is the stack
    of one of :func:`attacked_w_amplitudes`.
    """
    return StateVector(attacked_w_amplitudes([phi], target)[0])
