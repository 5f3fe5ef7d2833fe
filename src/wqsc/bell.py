"""Event probabilities on shared states and the CH-Bell inequality term.

All probabilities here are exact (never sampled): each is a sum of entries
of the state's :func:`~wqsc.qcore.outcome_distribution`, the joint outcome
probabilities of the three party qubits under all eight axis sets.  The
private ``_``-prefixed readers take that array, so a caller that needs
several events of one state (``wqsc.golden``) builds it once.  The module
also classifies the eight possible axis assignments of the three parties
and evaluates the security-check event used to expose the ancilla-coupling
attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Union

import numpy as np

from .qcore import Axis, Party, StateVector, outcome_distribution
from .states import validate_attack_angle

# Tolerance used when flagging a CH bound violation, so floating-point dust
# on local states never raises a false alarm.
CH_BOUND_ATOL = 1e-12

_PARTIES = (Party.ALICE, Party.BOB, Party.CHARLIE)


class AxisSetKind(Enum):
    """Classification of a joint axis assignment."""

    QKD = "qkd"  # exactly one z measurer: xxz, xzx, zxx
    PQSS = "pqss"  # all three z: zzz
    USELESS = "useless"  # anything else; discarded by every protocol


@dataclass(frozen=True)
class AxisSet:
    """The axes chosen by Alice, Bob, and Charlie for one trial."""

    alice: Axis
    bob: Axis
    charlie: Axis

    @property
    def axes(self) -> tuple[Axis, Axis, Axis]:
        return (self.alice, self.bob, self.charlie)

    def axis_of(self, party: Party) -> Axis:
        return self.axes[party]

    # kind, decider and x_parties are stored in the instance on first
    # access; equality and hashing read only the three axes.
    @cached_property
    def kind(self) -> AxisSetKind:
        z_count = sum(1 for axis in self.axes if axis is Axis.Z)
        if z_count == 1:
            return AxisSetKind.QKD
        if z_count == 3:
            return AxisSetKind.PQSS
        return AxisSetKind.USELESS

    @cached_property
    def decider(self) -> Party | None:
        """The lone z measurer of a QKD set; None for any other kind."""
        if self.kind is not AxisSetKind.QKD:
            return None
        return next(p for p in _PARTIES if self.axis_of(p) is Axis.Z)

    @cached_property
    def x_parties(self) -> tuple[Party, Party] | None:
        """The two x measurers of a QKD set; None for any other kind."""
        if self.kind is not AxisSetKind.QKD:
            return None
        first, second = (p for p in _PARTIES if self.axis_of(p) is Axis.X)
        return (first, second)

    @property
    def label(self) -> str:
        return "".join(axis.value for axis in self.axes)

    @classmethod
    def from_label(cls, label: str) -> "AxisSet":
        if len(label) != 3 or any(ch not in "xz" for ch in label.lower()):
            raise ValueError(f"axis-set label must be three of x/z, got {label!r}")
        a, b, c = (Axis(ch) for ch in label.lower())
        return cls(a, b, c)


ALL_AXIS_SETS: tuple[AxisSet, ...] = tuple(
    AxisSet(a, b, c) for a, b, c in product((Axis.Z, Axis.X), repeat=3)
)
QKD_AXIS_SETS: tuple[AxisSet, ...] = tuple(
    s for s in ALL_AXIS_SETS if s.kind is AxisSetKind.QKD
)


@dataclass(frozen=True)
class StrictPair:
    """Fixed-pair reading of the two-plus event: P(z_i = +, z_j = +)."""

    first: Party
    second: Party

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("strict pair must name two distinct parties")


@dataclass(frozen=True)
class AtLeastTwo:
    """Existential reading: at least two of the three z outcomes are plus."""


AT_LEAST_TWO = AtLeastTwo()

PairInterpretation = Union[StrictPair, AtLeastTwo]


@dataclass(frozen=True)
class ChBellResult:
    """Value of the CH middle term A11 - A12 - A21 - A22 with its components.

    ``violation`` is set when the value leaves [-1, 0], the range every
    local hidden-variable model must respect.
    """

    value: float
    violation: bool
    a11: float
    a12: float
    a21: float
    a22: float


def _require_three_qubits(state: StateVector) -> None:
    if state.num_qubits != 3:
        raise ValueError("this probability is defined on three-qubit states")


# Outcome strings o = 0..7 of an outcome_distribution row, as party bits
# (PLUS = 0, A the MSB): _BITS[p, o] is party p's bit, _MINUS_COUNT[o] the
# number of minus outcomes.
_BITS = np.array([[(o >> (2 - p)) & 1 for o in range(8)] for p in _PARTIES])
_MINUS_COUNT = _BITS.sum(axis=0)
# Per z measurer: the strings where it gets plus and the other two disagree.
_Z_PLUS_X_UNEQUAL = tuple(np.flatnonzero((bits == 0) & (_MINUS_COUNT == 1)) for bits in _BITS)


def _two_z_plus(dist: np.ndarray, interp: PairInterpretation) -> float:
    zzz = dist[0]
    if isinstance(interp, StrictPair):
        return float(zzz[(_BITS[interp.first] == 0) & (_BITS[interp.second] == 0)].sum())
    if isinstance(interp, AtLeastTwo):
        return float(zzz[_MINUS_COUNT <= 1].sum())
    raise TypeError(f"unsupported pair interpretation: {interp!r}")


def _z_plus_x_unequal(dist: np.ndarray, z_qubit: Party) -> float:
    """P(z_qubit measures z and gets plus, the other two measure x and disagree)."""
    # The row whose only z bit is z_qubit's.
    return float(dist[7 - (4 >> z_qubit), _Z_PLUS_X_UNEQUAL[z_qubit]].sum())


def _x_all_equal(dist: np.ndarray) -> float:
    return float(dist[7, 0] + dist[7, 7])


def _ch_middle_term(
    dist: np.ndarray, interp: PairInterpretation, roles: tuple[Party, Party, Party]
) -> ChBellResult:
    i, j, _k = roles
    a11 = _two_z_plus(dist, interp)
    a12 = _z_plus_x_unequal(dist, i)
    a21 = _z_plus_x_unequal(dist, j)
    a22 = _x_all_equal(dist)
    value = a11 - a12 - a21 - a22
    violation = value > CH_BOUND_ATOL or value < -1.0 - CH_BOUND_ATOL
    return ChBellResult(value, violation, a11, a12, a21, a22)


def prob_two_z_plus(state: StateVector, interp: PairInterpretation) -> float:
    """Probability of the two-plus z event under the chosen interpretation.

    StrictPair gives the marginal P(z_i = +, z_j = +).  AtLeastTwo gives
    P(at least two of the three z outcomes are plus), the reading under
    which the symmetric W state attains probability 1.
    """
    _require_three_qubits(state)
    return _two_z_plus(outcome_distribution(state), interp)


def prob_z_plus_x_unequal(
    state: StateVector, z_qubit: Party, x_qubits: tuple[Party, Party]
) -> float:
    """P(z outcome of one qubit is plus and the two x outcomes disagree).

    Defined for three- or four-qubit states; only the three party qubits
    may be named, so an attached ancilla is always marginalized.
    """
    if state.num_qubits not in (3, 4):
        raise ValueError("state must have three or four qubits")
    x1, x2 = x_qubits
    qubits = (z_qubit, x1, x2)
    if len(set(qubits)) != 3:
        raise ValueError("the z qubit and the two x qubits must be distinct")
    if any(q not in _PARTIES for q in qubits):
        raise ValueError("only the party qubits A, B, C can be measured here")
    return _z_plus_x_unequal(outcome_distribution(state), z_qubit)


def prob_x_all_equal(state: StateVector) -> float:
    """P(all three x outcomes coincide); 3/4 on the symmetric W state."""
    _require_three_qubits(state)
    return _x_all_equal(outcome_distribution(state))


def ch_middle_term(
    state: StateVector,
    interp: PairInterpretation,
    roles: tuple[Party, Party, Party] = (Party.ALICE, Party.BOB, Party.CHARLIE),
) -> ChBellResult:
    """Middle term of the CH inequality, -1 <= A11 - A12 - A21 - A22 <= 0.

    ``roles = (i, j, k)`` assigns the parties: A12 = P(z_i=+, x_j != x_k),
    A21 = P(z_j=+, x_i != x_k), A22 = P(x_i = x_j = x_k), and A11 is the
    two-plus probability under ``interp``.  A strict-pair interpretation
    must name the parties playing i and j.  All four terms are read from
    one :func:`outcome_distribution` of the state.
    """
    _require_three_qubits(state)
    if sorted(roles) != sorted(_PARTIES):
        raise ValueError("roles must be a permutation of (ALICE, BOB, CHARLIE)")
    i, j, _k = roles
    if isinstance(interp, StrictPair) and {interp.first, interp.second} != {i, j}:
        raise ValueError("strict pair must match the first two roles")
    return _ch_middle_term(outcome_distribution(state), interp, roles)


def security_event_probability(state: StateVector, axes: AxisSet) -> float:
    """Exact probability of the security-check event for a QKD axis set.

    The event: the z measurer obtains plus while the two x measurers
    disagree.  It has probability zero on the unattacked W state, and under
    the ancilla coupling of strength phi it evaluates to sin(phi)^2 / 6
    when Charlie measures z and (1 - cos(phi)) / 3 when Charlie measures x.
    """
    if state.num_qubits != 4:
        raise ValueError("security events are evaluated on the four-qubit attacked state")
    if axes.kind is not AxisSetKind.QKD:
        raise ValueError(f"axis set {axes.label!r} has no defined security event")
    return _z_plus_x_unequal(outcome_distribution(state), axes.decider)  # type: ignore[arg-type]


def averaged_security_probability(phi: float) -> float:
    """Security-event probability averaged over the three QKD axis sets.

    Closed form (1 - cos(phi)) (5 + cos(phi)) / 18, i.e. the 1/3 : 2/3
    weighted mean of the Charlie-measures-z and Charlie-measures-x cases.
    Zero exactly at phi = 0 and 5/18 at phi = pi/2.
    """
    phi = validate_attack_angle(phi)
    c = math.cos(phi)
    return (1.0 - c) * (5.0 + c) / 18.0
