"""Individual-attack injection on the quantum channel.

The eavesdropper prepares one fresh ancilla per trial in ``|z+>``, couples
it to a single transmitted qubit with the unitary of
:func:`wqsc.states.coupling_unitary`, and later measures the ancilla in the
z basis.  There is no quantum memory across trials.  The trial engine does
not sample that measurement: it comes after the parties' measurements and
cannot change their outcomes.  Its statistics are exact here, in
:func:`eve_ancilla_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import Axis, Outcome, Party, StateVector, joint_probability, party_argument
from .states import coupling_unitary, validate_attack_angle


@dataclass(frozen=True)
class UnitaryCouplingAttack:
    """Couple an ancilla of strength ``phi`` to one party's qubit.

    ``phi = 0`` leaves the channel untouched (but still appends the
    ancilla); ``phi = pi/2`` is the maximal coupling.  ``target`` is a
    :class:`Party` or its qubit index.
    """

    phi: float
    target: Party = Party.CHARLIE

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", validate_attack_angle(self.phi))
        object.__setattr__(self, "target", party_argument("target", self.target))


def _apply_two_qubit_unitary(
    amps: np.ndarray, unitary: np.ndarray, qubits: tuple[int, int], num_qubits: int
) -> np.ndarray:
    """Apply a 4x4 unitary to the ordered qubit pair of a dense state."""
    order = (*qubits, *(q for q in range(num_qubits) if q not in qubits))
    moved = amps.reshape((2,) * num_qubits).transpose(order)
    updated = (unitary @ moved.reshape(4, -1)).reshape(moved.shape)
    return updated.transpose([order.index(q) for q in range(num_qubits)]).reshape(-1)


def apply_attack(source: StateVector, attack: UnitaryCouplingAttack | None) -> StateVector:
    """Return the channel state seen by the parties, with ancilla if attacked.

    With no attack the source is returned unchanged.  Otherwise the ancilla
    ``|z+>`` is appended as the last qubit and the coupling unitary acts on
    (target, ancilla).  An ``attack`` of any other type raises ValueError.
    """
    if attack is None:
        return source
    if not isinstance(attack, UnitaryCouplingAttack):
        raise ValueError(f"attack must be None or a UnitaryCouplingAttack, got {attack!r}")
    if source.num_qubits != 3:
        raise ValueError("the attack model couples to a three-qubit source state")
    n = source.num_qubits
    extended = np.zeros(2 << n, dtype=np.complex128)
    extended[::2] = source.amplitudes  # ancilla bit 0 == |z+>
    coupled = _apply_two_qubit_unitary(
        extended, coupling_unitary(attack.phi), (int(attack.target), n), n + 1
    )
    return StateVector(coupled)


def eve_ancilla_statistics(state: StateVector) -> float:
    """Marginal probability that a z measurement of the ancilla yields minus.

    On the attacked W state with coupling strength phi this equals
    sin(phi)^2 / 3, the weight the attack moves onto the ancilla.
    """
    if state.num_qubits != 4:
        raise ValueError("ancilla statistics require the four-qubit attacked state")
    return joint_probability(state, [(3, Axis.Z, Outcome.MINUS)])
