"""Deterministic few-qubit statevector and density-matrix mathematics.

Everything in this module is a pure function over immutable values: basis
states, projective measurement, joint outcome probabilities, partial
traces, partial transposition, eigenvalues of the small Hermitian matrices
that arise here (by LAPACK), and the three-qubit residual tangle.

A stack is the unit of the exact math, and the one-object form is its stack
of one.  The :class:`StateVector` and :class:`DensityMatrix` gates are
private checks that run on one array or on a stack at once;
:func:`reduced_densities` builds and checks all its kept sets as one
``(k, d, d)`` stack, :func:`eigenvalues_hermitian` diagonalizes a whole
stack in one LAPACK call, and :func:`outcome_distributions` takes a
sequence of states or an amplitude stack, one state per row.

:func:`measure_qubit` is the one measurement: it splits one qubit into its
components along the axis, weighs them, compares a caller's uniform draw
with the plus branch's share of the mass, and returns the outcome with its
renormalized post-state.

:func:`outcome_distributions` gives every joint outcome probability of the
three party qubits, for all eight axis sets, for a stack of states of one
qubit count.  Each party level is one real matrix product and a scale,
with matrices built for a qubit count the first time a state of that count
is measured.  Every output sums at most two exact products, so the one
rounding is that of the x-basis butterfly of :func:`measure_qubit`, and the
masses have that butterfly's bytes whatever BLAS does;
:func:`outcome_distribution` is its stack of one, and takes a state or one
amplitude row.  They are the one probability source from which
``wqsc.protocol`` samples: one row per ``run`` source, every grid point of
a sweep in one amplitude stack.
:func:`joint_probability` projects one event at a time and is kept as their
independent check.

Index convention (fixed for the whole package): qubit 0 (Alice) is the most
significant bit of the basis index, bit value 0 maps to ``|z+>`` and bit
value 1 to ``|z->``.  The x eigenbasis is ``|x±> = (|z+> ± |z->)/sqrt(2)``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Sequence

import numpy as np

# Tolerances: states produced by this package are normalized to machine
# precision; the looser NORM_ATOL is the admission gate for caller-built
# amplitudes.
NORM_ATOL = 1e-6
HERMITICITY_ATOL = 1e-9
PSD_ATOL = 1e-9

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_HALF_MAX = sys.float_info.max / 2.0  # the largest entry modulus a Hermitian part admits

MIN_QUBITS = 1
MAX_QUBITS = 5


class InvalidStateError(ValueError):
    """Raised when a state vector fails its normalization contract."""


def integer_argument(name: str, value: object, low: int, high: int | None = None) -> int:
    """``value`` as an int of at least ``low`` and at most ``high`` (if given).

    Python and numpy integers (and ``Party`` members) pass; bool, every
    other type and a value out of range raise ValueError naming ``name``.
    A value out of range too long for ``str`` (an int of more than 4300
    digits) is named by its type and the bound only.
    """
    # Any int but bool (IntEnum members such as Party too) skips the slower Integral ABC check.
    if (type(value) is not bool and isinstance(value, int)
            and value >= low and (high is None or value <= high)):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        bound = f"at least {low}"
    elif high is not None and value > high:
        bound = f"at most {high}"
    else:
        return int(value)
    try:
        shown = str(value)
    except ValueError:
        shown = f"{type(value).__name__} beyond that bound"
    raise ValueError(f"{name} must be {bound}, got {shown}")


def real_argument(name: str, value: object) -> float:
    """``value`` as a float: Python and numpy reals pass, bool and all else raise ValueError.

    A real beyond float range (a Python int of 400 digits, say) raises
    ValueError too, naming its type only: ``str`` of an int of more than
    4300 digits itself raises.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        kind = type(value).__name__
        raise ValueError(f"{name} must be a real number, got {kind} beyond float range") from None


class Axis(Enum):
    """Local measurement axis: the z or x Pauli observable."""

    Z = "z"
    X = "x"


class Outcome(IntEnum):
    """Binary measurement outcome; PLUS is the +1 eigenvalue (bit 0)."""

    PLUS = 0
    MINUS = 1


class Party(IntEnum):
    """Authorized communicator; the value is the party's qubit index."""

    ALICE = 0
    BOB = 1
    CHARLIE = 2

    @property
    def letter(self) -> str:
        return "ABC"[self]

    @classmethod
    def from_letter(cls, text: str) -> "Party":
        try:
            return _PARTY_KEYS[text.strip().upper()]
        except (AttributeError, KeyError):  # AttributeError: ``text`` is not a string
            raise ValueError(f"unknown party {text!r}; expected one of A, B, C") from None


# Each party by its letter, its name and its index.
_PARTY_KEYS = {key: party for party in Party for key in (party.letter, party.name, party.value)}


def party_argument(name: str, value: object) -> Party:
    """``value``, a :class:`Party` or its index by :func:`integer_argument`, as its member."""
    return _PARTY_KEYS[integer_argument(name, value, 0, 2)]


@dataclass(frozen=True)
class StateVector:
    """Pure state of 1..5 qubits as a dense complex amplitude array.

    The amplitude array is coerced to complex128, frozen (read-only), and
    must be normalized within ``NORM_ATOL``.  Qubit 0 is the most
    significant bit of the index.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional array")
        _qubit_count(amps.size)
        _state_norms(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def squared_norm(self) -> float:
        a = self.amplitudes
        return float(np.vdot(a, a).real)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive matrix of one or two qubits (dim 2 or 4)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        dim = m.shape[0]
        if dim not in (2, 4):
            raise ValueError(f"density matrix dimension must be 2 or 4, got {dim}")
        _check_densities(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _qubit_count(size: int) -> int:
    """The qubit count of ``size`` amplitudes: a power of two, 1 to 5 qubits, else ValueError."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude count must be a power of two, got {size}")
    n = size.bit_length() - 1
    if not MIN_QUBITS <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n}")
    return n


def _state_norms(amps: np.ndarray) -> list[float]:
    """The :class:`StateVector` gate on ``amps`` or each row of a stack: the squared norms.

    Each norm is read by ``np.vdot`` on its row, which must be contiguous
    (on a strided row BLAS sums in another order).  Raises
    :class:`InvalidStateError` unless every norm is finite and within
    ``NORM_ATOL`` of 1.
    """
    # Each total comes from the complex128 row: np.vdot of the real parts
    # alone sums in another order, and gave another total on 7500 of 60000
    # seeded attacked rows, so it would move run bytes.
    norms = [float(np.vdot(row, row).real) for row in ((amps,) if amps.ndim == 1 else amps)]
    for sq_norm in norms:
        # Squares are non-negative, so any inf/nan component makes the norm
        # non-finite; one scalar check covers finiteness and normalization.
        if not math.isfinite(sq_norm):
            raise InvalidStateError("amplitudes must be finite")
        if abs(sq_norm - 1.0) > NORM_ATOL:
            raise InvalidStateError(f"squared norm {sq_norm!r} deviates from 1 beyond {NORM_ATOL}")
    return norms


def _hermitian_eigenvalues(m: np.ndarray, name: str) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m`` (or of each matrix of a stack).

    Raises ``ValueError`` naming ``name`` unless ``m`` is Hermitian, its
    entries finite, of modulus at most half the largest float, and its
    eigenvalues finite.
    """
    # Checked first: every tolerance comparison with NaN is False, and no
    # entry of modulus at most half the largest float overflows a sum of two.
    if not np.abs(m).max() <= _HALF_MAX:
        raise ValueError(f"{name} entries must be finite, of modulus at most {_HALF_MAX!r}")
    adjoint = m.conj().swapaxes(-1, -2)
    if np.abs(m - adjoint).max() > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    eigenvalues = np.linalg.eigvalsh((m + adjoint) / 2.0)
    if not np.isfinite(eigenvalues).all():
        raise ValueError(f"{name} has an eigenvalue that is not finite")
    return eigenvalues


def _check_densities(m: np.ndarray) -> None:
    """The :class:`DensityMatrix` gate on a matrix or a stack ``(..., d, d)``.

    Raises ``ValueError`` unless every matrix is finite, Hermitian, of unit
    trace and positive, each within its tolerance.
    """
    eigenvalues = _hermitian_eigenvalues(m, "density matrix")
    for trace in m.trace(axis1=-2, axis2=-1).reshape(-1).tolist():
        if abs(trace - 1.0) > HERMITICITY_ATOL:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
    if eigenvalues[..., 0].min() < -PSD_ATOL:
        raise ValueError("density matrix has an eigenvalue below the positivity tolerance")


def _checked_density(entries: np.ndarray) -> DensityMatrix:
    """A :class:`DensityMatrix` of read-only ``entries`` that already passed its gate."""
    dm = object.__new__(DensityMatrix)
    object.__setattr__(dm, "entries", entries)
    return dm


def make_basis_state(num_qubits: int, bits: Sequence[Outcome]) -> StateVector:
    """Computational z-basis ket ``|b_0 b_1 ...>`` with qubit 0 as the MSB."""
    num_qubits = integer_argument("num_qubits", num_qubits, MIN_QUBITS, MAX_QUBITS)
    if len(bits) != num_qubits:
        raise ValueError(f"expected {num_qubits} outcomes, got {len(bits)}")
    index = 0
    for bit in bits:
        index = (index << 1) | int(Outcome(bit))
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def _split_on_qubit(amps: np.ndarray, qubit: int) -> np.ndarray:
    """View amplitudes as (leading, 2, trailing) with the target qubit in the middle."""
    return amps.reshape(1 << qubit, 2, -1)


def _axis_components(view: np.ndarray, axis: Axis) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude components along the PLUS/MINUS eigenvectors of the axis.

    ``view`` is a split view, or a stack of them ``(..., leading, 2, trailing)``.
    """
    a0 = view[..., 0, :]
    a1 = view[..., 1, :]
    if axis is Axis.Z:
        return a0, a1
    return (a0 + a1) * _SQRT1_2, (a0 - a1) * _SQRT1_2


def _masses(components: np.ndarray) -> np.ndarray:
    """Squared norm of each component in a stack ``(..., leading, trailing)``.

    ``re**2 + im**2`` is summed along one contiguous axis, so a stacked
    row's mass is bit-identical to the same component's mass on its own
    (``np.vdot``'s BLAS summation order is matched by no batched sum).  A
    component has up to 16 squares, and ``np.sum`` adds 8 or more pairwise,
    so no left fold has its bytes.
    """
    squares = components.real**2 + components.imag**2
    return squares.reshape(squares.shape[:-2] + (-1,)).sum(axis=-1)


# _PROJECTIONS[x, outcome] holds the factors of the two halves of a split
# view projected onto the outcome, x being 1 for the x axis and 0 for z: z
# keeps the outcome's half, x spreads the component over both, signed.
# Shaped (x, outcome, 1, half, 1) to broadcast against (leading, 1, trailing).
_PROJECTIONS = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]]],
    dtype=np.complex128,
).reshape(2, 2, 1, 2, 1)


def _project(x: int, outcome: int, component: np.ndarray) -> np.ndarray:
    """The qubit's projection onto ``outcome``, as a split view ``(leading, 2, trailing)``.

    ``component`` is the outcome's component from :func:`_axis_components`;
    ``x`` is 1 for the x axis, 0 for z.
    """
    return component[..., np.newaxis, :] * _PROJECTIONS[x, outcome]


def measure_qubit(
    state: StateVector, qubit: int, axis: Axis, u: float
) -> tuple[Outcome, StateVector, float]:
    """Projective single-qubit measurement with collapse.

    The outcome is PLUS iff ``u`` lies below ``m+ / (m+ + m-)``, the masses
    of the qubit's two components along the axis, so the caller supplies
    all randomness and a replay with the same ``u`` is bit-identical; a
    branch of mass 0.0 has probability 0.0 and is never drawn.  Returns the
    outcome, the renormalized post-state, and the probability of the
    observed outcome.  A branch of subnormal mass is scaled to unit peak
    amplitude before it is renormalized, so that its post-state is valid.
    """
    u = real_argument("u", u)
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw must lie in [0, 1), got {u!r}")
    axis = Axis(axis)
    qubit = integer_argument("qubit", qubit, 0, state.num_qubits - 1)
    components = np.array(_axis_components(_split_on_qubit(state.amplitudes, qubit), axis))
    masses = _masses(components).tolist()
    p_plus = masses[Outcome.PLUS] / (masses[Outcome.PLUS] + masses[Outcome.MINUS])
    if u < p_plus:
        outcome, probability = Outcome.PLUS, p_plus
    else:
        outcome, probability = Outcome.MINUS, 1.0 - p_plus
    component, mass = components[outcome], masses[outcome]
    if mass < sys.float_info.min:
        component = component / np.max(np.abs(component))
        mass = float(_masses(component))
    post = _project(int(axis is Axis.X), outcome, component)
    post /= math.sqrt(mass)
    return outcome, StateVector(post.reshape(-1)), probability


def joint_probability(
    state: StateVector, constraints: Iterable[tuple[int, Axis, Outcome]]
) -> float:
    """Exact probability that each constrained qubit yields its outcome.

    Computed by projecting the amplitudes (no sampling); unconstrained
    qubits are marginalized.  Constraint qubits follow :func:`integer_argument`
    and must be distinct; each axis and outcome is coerced to its enum.  A
    projection of subnormal mass is first scaled by an exact power of two to
    unit peak amplitude, so its squares are summed before they round, and
    the scale is undone on the quotient.
    """
    last = state.num_qubits - 1
    constraints = [
        (integer_argument("qubit", q, 0, last), Axis(axis), Outcome(outcome))
        for q, axis, outcome in constraints
    ]
    seen: set[int] = set()
    for qubit, _axis, _outcome in constraints:
        if qubit in seen:
            raise ValueError(f"duplicate constraint on qubit {qubit}")
        seen.add(qubit)

    work = state.amplitudes
    total = float(np.vdot(work, work).real)
    for qubit, axis, outcome in constraints:
        component = _axis_components(_split_on_qubit(work, qubit), axis)[outcome]
        work = _project(int(axis is Axis.X), outcome, component).reshape(-1)
    mass = float(np.vdot(work, work).real)
    if mass < sys.float_info.min and (peak := float(np.max(np.abs(work)))) > 0.0:
        # 2.0**e overflows for the smallest peaks, so each part is scaled elementwise.
        e = -math.frexp(peak)[1]
        scaled = np.ldexp(work.real, e) + 1j * np.ldexp(work.imag, e)
        return math.ldexp(float(np.vdot(scaled, scaled).real) / total, -2 * e)
    return mass / total


def _level(qubits: int, party: int) -> tuple[np.ndarray, np.ndarray]:
    """``(M, R)``: one party's level of :func:`outcome_distributions` on ``qubits`` qubits.

    The parts of a state hold one entry per (axis bits so far, amplitude
    index); the level doubles them, inserting the party's axis bit, as
    ``parts = (parts @ M) * R``.  A z entry keeps its amplitude: its column
    of ``M`` holds one 1, and ``R`` is 1.  An x entry is the butterfly of
    the party's two amplitudes ``a0`` and ``a1``: its column holds a 1 at
    ``a0`` and, at ``a1``, the sign of ``a1`` in the entry's outcome, and
    ``R`` is ``_SQRT1_2``.  Built by index arithmetic, read-only.
    """
    out = np.arange(2 << (party + qubits))
    x = out >> qubits & 1
    amp = out & ((1 << qubits) - 1)
    bit = 1 << (qubits - 1 - party)
    block = (out >> (qubits + 1)) << qubits  # the same axis bits so far, z and x alike
    matrix = np.zeros((out.size >> 1, out.size))
    matrix[block | amp & ~(bit * x), out] = 1.0
    x_out = out[x == 1]
    matrix[block[x_out] | amp[x_out] | bit, x_out] = np.where(amp[x_out] & bit, -1.0, 1.0)
    scale = np.where(x, _SQRT1_2, 1.0)
    matrix.flags.writeable = scale.flags.writeable = False
    return matrix, scale


# The three party levels of each qubit count, A first, each built on first use.  Two
# threads may both build a count's levels; the arrays they build are equal.
_LEVELS: dict[int, tuple[tuple[np.ndarray, np.ndarray], ...]] = {}


def _distribution_masses(amps: np.ndarray, qubits: int) -> np.ndarray:
    """The masses of :func:`outcome_distributions`, not yet divided by the totals.

    ``amps`` is one contiguous row of ``2**qubits`` finite amplitudes, or a
    stack of them; the masses are ``(8, 8)`` per row.  The parts are the
    real parts alone if every imaginary part is zero; else each state has
    two adjacent rows of parts, its real and its imaginary part.  Each party
    level is one real matrix product (:func:`_level`).  Each outcome's
    squares over the extra qubits, its ``2**(qubits - 3)`` trailing terms
    (1, 2 or 4), are summed as a left fold, the order in which ``np.sum``
    adds fewer than 8 terms.
    """
    levels = _LEVELS.get(qubits)
    if levels is None:
        levels = _LEVELS[qubits] = tuple(_level(qubits, party) for party in Party)
    real = not np.count_nonzero(amps.imag)
    if real:
        parts = amps.real
    else:
        size = amps.shape[-1]
        parts = amps.view(np.float64).reshape(-1, size, 2).swapaxes(1, 2).reshape(-1, size)
    for matrix, scale in levels:
        parts = (parts @ matrix) * scale
    squares = parts**2 if real else parts[0::2] ** 2 + parts[1::2] ** 2
    squares = squares.reshape(amps.shape[:-1] + (8, 8, -1))
    masses = squares[..., 0]
    for extra in range(1, squares.shape[-1]):
        masses = masses + squares[..., extra]
    return masses


def outcome_distributions(states: Sequence[StateVector] | np.ndarray) -> np.ndarray:
    """Exact joint outcome probabilities of the three party qubits, per axis set, per state.

    ``states`` share one qubit count of at least 3: a sequence of
    :class:`StateVector` or amplitude rows, or an amplitude stack, a 2-D
    array with one state per row.  Either is stacked into contiguous rows,
    and the :class:`StateVector` gate runs on each row.  Returns the
    ``(n, 8, 8)`` array ``P[i, s, o]``: ``i`` is the state's place in
    ``states``; row ``s`` is the axis set with bits (A, B, C), z as 0 and x
    as 1; column ``o`` is the outcome string with bits (A, B, C), PLUS as 0.
    Any further qubit (an attached ancilla) is marginalized.

    The amplitudes' real parts (and imaginary parts, unless all are zero)
    are a row each, and each party in turn doubles their entries by one
    real matrix product (:func:`_level`): ``parts = (parts @ M) * R``.  A
    column of ``M`` holds one 1, and an x column one more ±1, so each
    output sums at most two nonzero products, each exact: a z entry is its
    amplitude (up to the sign of a zero) and an x entry is ``(a0 ± a1) *
    _SQRT1_2``, the same IEEE operations on the same operands as the
    butterfly of :func:`_axis_components`.  The one rounding is that
    butterfly's own, so neither BLAS's order of summation nor its fused
    multiply-adds or threads can change a byte (the gate has refused every
    amplitude that is not finite, and ``0 * inf`` would be NaN).  A part
    of zero adds a square of zero, so the real parts alone give the bytes
    of the complex amplitudes.  So every mass has the bytes of that
    butterfly's, and an outcome whose amplitudes cancel exactly has
    probability exactly 0.0, as under :func:`joint_probability`.  Each
    state's masses are divided by its own total, ``np.vdot`` of its
    contiguous amplitudes, so a stack's row and the state built from it
    give the same bytes.  Every operation is elementwise or sums within one
    state, so a state's slice has the same bytes whatever else is stacked
    with it.
    """
    if not isinstance(states, np.ndarray):
        states = [state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
                  for state in states]
        if len(sizes := {row.size for row in states}) > 1:
            raise ValueError(f"stacked states must share an amplitude count, got {sorted(sizes)}")
    amps = np.ascontiguousarray(states, dtype=np.complex128)
    if not len(amps):
        raise ValueError("outcome distributions need at least one state")
    if amps.ndim != 2:
        raise ValueError("an amplitude stack must be a two-dimensional array")
    qubits = _qubit_count(amps.shape[1])
    if qubits < 3:
        raise ValueError("outcome distribution needs at least three qubits")
    totals = _state_norms(amps)
    return _distribution_masses(amps, qubits) / np.array(totals).reshape(-1, 1, 1)


def outcome_distribution(state: StateVector | np.ndarray) -> np.ndarray:
    """The 8x8 :func:`outcome_distributions` of one state, with the same bytes.

    ``state`` is a :class:`StateVector` or one amplitude row, a 1-D array
    that the :class:`StateVector` gate checks here.  The party levels run
    on it as a stack of one, without a stack's bookkeeping.
    """
    amps = state.amplitudes if isinstance(state, StateVector) else state
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    if amps.ndim != 1:
        raise ValueError("an amplitude row must be a one-dimensional array")
    qubits = _qubit_count(amps.size)
    if qubits < 3:
        raise ValueError("outcome distribution needs at least three qubits")
    (total,) = _state_norms(amps)
    return _distribution_masses(amps, qubits) / total


def _kept_qubits(keep: Iterable[int], num_qubits: int) -> list[int]:
    """One kept set of :func:`reduced_densities`: one or two of the qubits, ascending.

    A kept set that is not a collection (an int or a ``Party``, say)
    raises ValueError naming ``keep``, as a bad qubit in it does.
    """
    try:
        qubits = iter(keep)
    except TypeError:
        raise ValueError(f"keep must be a collection of qubits, got {keep!r}") from None
    kept = sorted({integer_argument("keep", q, 0, num_qubits - 1) for q in qubits})
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if len(kept) >= num_qubits:
        raise ValueError("keep must be a strict subset of the qubits")
    if len(kept) > 2:
        raise ValueError("at most two qubits can be kept")
    return kept


def reduced_densities(state: StateVector, keeps: Iterable[Iterable[int]]) -> list[DensityMatrix]:
    """Partial traces onto each kept set of ``keeps``, built and checked as one stack.

    Each kept set names one or two qubits (ascending order, at most two,
    a strict subset), and all name the same number.  Every set's ``rows @
    rows^H`` is one ``(k, d, d)`` product whose slices have the bytes of
    ``np.tensordot`` over the traced qubits, and the :class:`DensityMatrix`
    gate runs once on the stack; the matrices returned are its read-only
    slices.  A state whose squared norm lies off 1 by more than the trace
    tolerance (``StateVector`` admits up to ``NORM_ATOL``) has its stack
    divided by that norm; any other stack is left as built, so a state
    normalized to rounding keeps its bytes.
    """
    n = state.num_qubits
    kept_sets = [_kept_qubits(keep, n) for keep in keeps]
    if not kept_sets:
        raise ValueError("keeps must name at least one kept set")
    size = len(kept_sets[0])
    if any(len(kept) != size for kept in kept_sets):
        raise ValueError("every kept set must name the same number of qubits")
    tensor = state.amplitudes.reshape((2,) * n)
    rows = np.array([
        tensor.transpose(kept + [q for q in range(n) if q not in kept]).reshape(1 << size, -1)
        for kept in kept_sets
    ])
    rho = rows @ rows.conj().swapaxes(-1, -2)
    total = state.squared_norm()
    if abs(total - 1.0) > HERMITICITY_ATOL:
        rho /= total
    _check_densities(rho)
    rho.flags.writeable = False
    return [_checked_density(entries) for entries in rho]


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace onto the kept qubits (at most two, ascending order), a stack of one."""
    return reduced_densities(state, [keep])[0]


def partial_transpose(dm: DensityMatrix, subsystem: str) -> np.ndarray:
    """Transpose one tensor factor of a two-qubit density matrix.

    ``subsystem`` selects the factor: ``"first"`` or ``"second"``.  The
    result is Hermitian but may fail positivity, which is exactly the
    inseparability witness for two qubits.
    """
    if dm.dim != 4:
        raise ValueError("partial transposition requires a two-qubit (4x4) density matrix")
    tensor = dm.entries.reshape(2, 2, 2, 2)  # axes: row1, row2, col1, col2
    if subsystem == "first":
        swapped = tensor.transpose(2, 1, 0, 3)
    elif subsystem == "second":
        swapped = tensor.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    return np.ascontiguousarray(swapped.reshape(4, 4))


def eigenvalues_hermitian(matrix: np.ndarray) -> list[float] | list[list[float]]:
    """All eigenvalues of a small Hermitian matrix, ascending, or of each matrix of a stack.

    ``matrix`` is ``(d, d)`` or a stack ``(k, d, d)`` of at least one, with
    ``d`` 2 or 4, which covers every reduced state and partial transpose in
    this package; a stack gives one list per matrix.  Every matrix must be
    Hermitian within tolerance, its entries finite and of modulus at most
    half the largest float, so its Hermitian part cannot overflow.  The Hermitian parts are
    diagonalized by one LAPACK call (``numpy.linalg.eigvalsh``), and a
    stack's rows have the bytes of one call per matrix.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("input must be a square matrix or a stack of square matrices")
    dim = a.shape[-1]
    if dim not in (2, 4):
        raise ValueError(f"supported dimensions are 2 and 4, got {dim}")
    if not a.size:
        raise ValueError("an input stack must hold at least one matrix")
    return _hermitian_eigenvalues(a, "input matrix").tolist()


def three_tangle(state: StateVector) -> float:
    """Residual three-way entanglement of a pure three-qubit state.

    Uses the hyperdeterminant form of the residual tangle of Coffman,
    Kundu, and Wootters, Phys. Rev. A 61, 052306 (2000):
    ``tau = 4 |d1 - 2 d2 + 4 d3|`` over the basis amplitudes.  It is 1 for
    a maximal GHZ state and 0 for W-class and product states; for states of
    the form ``l1|000> + l2|111>`` it equals ``(2 l1 l2)^2``, i.e. the
    square of the Schmidt-coefficient product, which is the convention of
    the cited construction.
    """
    if state.num_qubits != 3:
        raise ValueError("three_tangle requires exactly three qubits")
    a000, a001, a010, a011, a100, a101, a110, a111 = state.amplitudes.tolist()
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
