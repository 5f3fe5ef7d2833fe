"""Event probabilities on shared states and the CH-Bell inequality term.

All probabilities here are exact (never sampled): each is a sum of entries
of the state's :func:`~wqsc.qcore.outcome_distribution`, the joint outcome
probabilities of the three party qubits under all eight axis sets.  Every
reader takes that array (:func:`event_masses` also a stack of them), so a
caller that needs several events of one state (``wqsc.golden``) builds it
once.  The module also gives each axis set its role, a lone z measurer
(its *decider*) or the all-z ``PQSS_AXIS_SET``, and defines the
security-check event that exposes the ancilla-coupling attack once:
:func:`is_event`, which the sampled event counts read, tabulated as
``EVENT_CELLS``, which :func:`event_masses` reads.  The CH middle term's
two-plus event is read for a given pair of parties, or for any two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .qcore import Axis, Outcome, Party, integer_argument
from .states import validate_attack_angle

# Tolerance used when flagging a CH bound violation, so floating-point dust
# on local states never raises a false alarm.
CH_BOUND_ATOL = 1e-12


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

    # decider and x_parties are stored in the instance on first access;
    # equality and hashing read only the three axes.
    @cached_property
    def decider(self) -> Party | None:
        """The lone z measurer; None unless exactly one party measures z."""
        z_parties = [p for p in Party if self.axis_of(p) is Axis.Z]
        return z_parties[0] if len(z_parties) == 1 else None

    @cached_property
    def x_parties(self) -> tuple[Party, Party] | None:
        """The two parties other than the decider; None without a decider."""
        if self.decider is None:
            return None
        first, second = (p for p in Party if p is not self.decider)
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
# zxx, xzx, xxz: set k is decided by Party(k).
QKD_AXIS_SETS: tuple[AxisSet, ...] = tuple(s for s in ALL_AXIS_SETS if s.decider is not None)
PQSS_AXIS_SET = AxisSet(Axis.Z, Axis.Z, Axis.Z)

# Outcome strings of (A, B, C); index 4a + 2b + c with PLUS as bit 0, the
# same bit order as ALL_AXIS_SETS uses for (z, x).
OUTCOME_STRINGS: tuple[tuple[Outcome, Outcome, Outcome], ...] = tuple(product(Outcome, repeat=3))


def is_event(axes: AxisSet, outcomes: tuple[Outcome, Outcome, Outcome]) -> bool:
    """Security-check event: the z measurer saw plus, the x measurers disagree.

    Defined only on axis sets with a decider; its probability is exactly
    zero without an attack, so any occurrence indicates tampering.  Each
    outcome read is coerced to its enum, so 0 and 1 act as PLUS and MINUS.
    """
    if axes.decider is None or Outcome(outcomes[axes.decider]) is not Outcome.PLUS:
        return False
    x1, x2 = axes.x_parties  # type: ignore[misc]
    return Outcome(outcomes[x1]) is not Outcome(outcomes[x2])


# EVENT_CELLS[s, o]: whether axis set s with outcome string o is an event.
EVENT_CELLS = np.array([[is_event(axes, o) for o in OUTCOME_STRINGS] for axes in ALL_AXIS_SETS])
# The flat cells 8s + o of each QKD set's two events, by decider: only QKD
# sets have events, two each, and the sets ascend in decider order.
_EVENT_FIRST, _EVENT_SECOND = np.flatnonzero(EVENT_CELLS).reshape(3, 2).T


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


# The parties by index, the order a permutation of roles sorts into.
_PARTIES = tuple(Party)


def _party(name: str, value: object) -> Party:
    """``value`` as a :class:`Party`, by :func:`~wqsc.qcore.integer_argument`."""
    return _PARTIES[integer_argument(name, value, 0, 2)]


def _pair(pair: object) -> tuple[Party, Party]:
    """``pair``, a tuple or list of two distinct parties, as two :class:`Party`, else ValueError."""
    parties = tuple(_party("pair", p) for p in pair) if isinstance(pair, (tuple, list)) else ()
    if len(parties) != 2 or parties[0] == parties[1]:
        raise ValueError(f"pair must name two distinct parties, got {pair!r}")
    return parties  # type: ignore[return-value]


def _distribution(dist: np.ndarray, stack: bool = False) -> np.ndarray:
    """``dist`` as an array if shaped (8, 8), or (..., 8, 8) with ``stack``; else ValueError."""
    shape = np.shape(dist)
    if shape[-2:] != (8, 8) or (len(shape) != 2 and not stack):
        expected = "(..., 8, 8)" if stack else "(8, 8)"
        raise ValueError(f"outcome distribution must have shape {expected}, got {shape}")
    return np.asarray(dist)


# Outcome strings o = 0..7 of an outcome_distribution row, as party bits
# (PLUS = 0, A the MSB): _BITS[p, o] is party p's bit, _MINUS_COUNT[o] the
# number of minus outcomes.
_BITS = np.array([[(o >> (2 - p)) & 1 for o in range(8)] for p in Party])
_MINUS_COUNT = _BITS.sum(axis=0)
_AT_LEAST_TWO_PLUS = _MINUS_COUNT <= 1


def _two_z_plus(dist: np.ndarray, pair: tuple[Party, Party] | None) -> float:
    """:func:`two_z_plus` on a checked ``(8, 8)`` array and a checked pair or None."""
    zzz = dist[0]
    if pair is None:
        return float(zzz[_AT_LEAST_TWO_PLUS].sum())
    first, second = pair
    return float(zzz[(_BITS[first] == 0) & (_BITS[second] == 0)].sum())


def two_z_plus(dist: np.ndarray, pair: tuple[Party, Party] | None = None) -> float:
    """Probability of the two-plus z event, for a fixed pair or for any two.

    ``dist`` is one state's :func:`~wqsc.qcore.outcome_distribution`.  A
    ``pair`` ``(i, j)``, each a :class:`Party` or its index, gives the
    marginal P(z_i = +, z_j = +).  Without one it is P(at least two of the
    three z outcomes are plus), the reading under which the symmetric W
    state attains probability 1.
    """
    dist = _distribution(dist)
    return _two_z_plus(dist, None if pair is None else _pair(pair))


def _event_masses(dist: np.ndarray) -> np.ndarray:
    """:func:`event_masses` on a checked ``(..., 8, 8)`` array."""
    flat = dist.reshape(dist.shape[:-2] + (64,))
    return flat[..., _EVENT_FIRST] + flat[..., _EVENT_SECOND]


def event_masses(dist: np.ndarray) -> np.ndarray:
    """Exact security-event probability of each QKD axis set, indexed by its decider.

    ``dist`` is an :func:`~wqsc.qcore.outcome_distribution` or any stack of
    them, ``(..., 8, 8)``; the result is ``(..., 3)``, entry ``k`` the
    probability that party ``k`` measures z and gets plus while the other
    two measure x and disagree.  It is zero on the unattacked W state, and
    under the ancilla coupling of strength phi it evaluates to sin(phi)^2 /
    6 when Charlie measures z and (1 - cos(phi)) / 3 when Charlie measures
    x.  Each event covers two cells of its row, and an entry is those two
    cells' sum, the one rounding, whatever else is stacked with ``dist``.
    """
    return _event_masses(_distribution(dist, stack=True))


def _x_all_equal(dist: np.ndarray) -> float:
    """:func:`x_all_equal` on a checked ``(8, 8)`` array."""
    return float(dist[7, 0] + dist[7, 7])


def x_all_equal(dist: np.ndarray) -> float:
    """P(all three x outcomes coincide); 3/4 on the symmetric W state.

    ``dist`` is one state's :func:`~wqsc.qcore.outcome_distribution`.
    """
    return _x_all_equal(_distribution(dist))


def ch_middle_term(
    dist: np.ndarray,
    *,
    strict: bool = False,
    roles: tuple[Party, Party, Party] = (Party.ALICE, Party.BOB, Party.CHARLIE),
) -> ChBellResult:
    """Middle term of the CH inequality, -1 <= A11 - A12 - A21 - A22 <= 0.

    ``roles = (i, j, k)`` assigns the parties: A12 = P(z_i=+, x_j != x_k),
    A21 = P(z_j=+, x_i != x_k), A22 = P(x_i = x_j = x_k), and A11 is
    :func:`two_z_plus`: for the pair ``(i, j)`` if ``strict``, else for any
    two of the three parties.  Each role is a :class:`Party` or its index,
    read by :func:`~wqsc.qcore.integer_argument`.  All four terms are read
    from ``dist``, one state's :func:`~wqsc.qcore.outcome_distribution`,
    which is checked once, after the roles, and read by the three readers'
    bodies.
    """
    roles = tuple(_party("roles", role) for role in roles)
    if tuple(sorted(roles)) != _PARTIES:
        raise ValueError("roles must be a permutation of (ALICE, BOB, CHARLIE)")
    i, j, _k = roles
    dist = _distribution(dist)
    a11 = _two_z_plus(dist, (i, j) if strict else None)
    a12, a21 = _event_masses(dist)[[i, j]].tolist()
    a22 = _x_all_equal(dist)
    value = a11 - a12 - a21 - a22
    violation = value > CH_BOUND_ATOL or value < -1.0 - CH_BOUND_ATOL
    return ChBellResult(value, violation, a11, a12, a21, a22)


def averaged_security_probability(phi: float) -> float:
    """Security-event probability averaged over the three QKD axis sets.

    Closed form (1 - cos(phi)) (5 + cos(phi)) / 18, i.e. the 1/3 : 2/3
    weighted mean of the Charlie-measures-z and Charlie-measures-x cases.
    Zero exactly at phi = 0 and 5/18 at phi = pi/2.
    """
    phi = validate_attack_angle(phi)
    c = math.cos(phi)
    return (1.0 - c) * (5.0 + c) / 18.0
