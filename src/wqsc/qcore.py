"""Deterministic few-qubit statevector and density-matrix mathematics.

Everything in this module is a pure function over immutable values: basis
states, projective measurement, joint outcome probabilities, partial
traces, partial transposition, eigenvalues of the small Hermitian matrices
that arise here (by LAPACK), and the three-qubit residual tangle.

A measurement is two steps, each public: :func:`plus_probability` is the
threshold a uniform draw is compared against, and :func:`collapse` is the
renormalized post-state of a chosen outcome.  :func:`measure_qubit` is
their composition.  Both steps run on private helpers that also take a
stack of states: the outcome table of :mod:`wqsc.protocol` measures up to
16 states per pass with them.  One mass reduction, ``re**2 + im**2``
summed along one contiguous axis, serves a single state and a stacked row
alike, so the table matches the single-state steps bit for bit.

:func:`outcome_distribution` gives every joint outcome probability of the
three party qubits, for all eight axis sets, from one pass of the same
elementwise x-basis butterfly; :func:`joint_probability` projects one event
at a time and is kept as its independent check.

Index convention (fixed for the whole package): qubit 0 (Alice) is the most
significant bit of the basis index, bit value 0 maps to ``|z+>`` and bit
value 1 to ``|z->``.  The x eigenbasis is ``|x±> = (|z+> ± |z->)/sqrt(2)``.
"""

from __future__ import annotations

import math
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

MIN_QUBITS = 1
MAX_QUBITS = 5


class InvalidStateError(ValueError):
    """Raised when a state vector fails its normalization contract."""


class Axis(Enum):
    """Local measurement axis: the z or x Pauli observable."""

    Z = "z"
    X = "x"


class Outcome(IntEnum):
    """Binary measurement outcome; PLUS is the +1 eigenvalue (bit 0)."""

    PLUS = 0
    MINUS = 1

    @property
    def symbol(self) -> str:
        return "+" if self is Outcome.PLUS else "-"


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
        key = text.strip().upper()
        for party in cls:
            if key in (party.letter, party.name):
                return party
        raise ValueError(f"unknown party {text!r}; expected one of A, B, C")


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
        size = amps.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude count must be a power of two, got {size}")
        n = size.bit_length() - 1
        if not MIN_QUBITS <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {n}")
        # Squares are non-negative, so any inf/nan component makes the norm
        # non-finite; one scalar check covers finiteness and normalization.
        sq_norm = float(np.vdot(amps, amps).real)
        if not math.isfinite(sq_norm):
            raise InvalidStateError("amplitudes must be finite")
        if abs(sq_norm - 1.0) > NORM_ATOL:
            raise InvalidStateError(f"squared norm {sq_norm!r} deviates from 1 beyond {NORM_ATOL}")
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
        _check_hermitian(m, "density matrix")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > HERMITICITY_ATOL:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        if eigenvalues_hermitian(m)[0] < -PSD_ATOL:
            raise ValueError("density matrix has an eigenvalue below the positivity tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_hermitian(m: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless ``m`` is finite and Hermitian within tolerance."""
    # Checked first: every tolerance comparison with NaN is False.
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian within tolerance")


def make_basis_state(num_qubits: int, bits: Sequence[Outcome]) -> StateVector:
    """Computational z-basis ket ``|b_0 b_1 ...>`` with qubit 0 as the MSB."""
    if not MIN_QUBITS <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [{MIN_QUBITS}, {MAX_QUBITS}], got {num_qubits}")
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
    (``np.vdot``'s BLAS summation order is matched by no batched sum).  The
    outcome table's batched passes rely on this to match
    :func:`plus_probability` and :func:`collapse`.
    """
    squares = components.real**2 + components.imag**2
    return squares.reshape(squares.shape[:-2] + (-1,)).sum(axis=-1)


def _project(dest: np.ndarray, axis: Axis, outcome: Outcome, component: np.ndarray) -> None:
    """Write the qubit's projection onto ``outcome`` into the split view(s) ``dest``.

    ``component`` is the outcome's amplitude component from
    :func:`_axis_components`; both halves of ``dest`` are overwritten.
    """
    if axis is Axis.Z:
        dest[..., outcome, :] = component
        dest[..., 1 - outcome, :] = 0.0
    else:
        half = component * _SQRT1_2
        dest[..., 0, :] = half
        dest[..., 1, :] = half if outcome == Outcome.PLUS else -half


def _post_states(
    axis: Axis, outcome: Outcome, component: np.ndarray, mass: np.ndarray
) -> np.ndarray:
    """Renormalized projections of a stack of components, as split views.

    ``component`` has shape ``(..., leading, trailing)`` and ``mass`` is its
    :func:`_masses`; the result has shape ``(..., leading, 2, trailing)``.
    A component of subnormal mass is first scaled to unit peak amplitude,
    so that renormalizing it yields a valid state; every other component is
    divided by the square root of its mass alone.
    """
    tiny = mass < sys.float_info.min
    if tiny.any():
        peak = np.max(np.abs(component), axis=(-2, -1))
        if not peak[tiny].all():
            raise ValueError("cannot collapse onto an outcome of probability 0")
        component = component / np.where(tiny, peak, 1.0)[..., np.newaxis, np.newaxis]
        mass = _masses(component)
    post = np.empty(component.shape[:-1] + (2, component.shape[-1]), dtype=np.complex128)
    _project(post, axis, outcome, component)
    post /= np.sqrt(mass)[..., np.newaxis, np.newaxis, np.newaxis]
    return post


def _components(
    state: StateVector, qubit: int, axis: Axis
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(plus, minus)`` components of a normalized state."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    if abs(state.squared_norm() - 1.0) > NORM_ATOL:
        raise InvalidStateError("cannot measure an unnormalized state")
    return _axis_components(_split_on_qubit(state.amplitudes, qubit), axis)


def plus_probability(state: StateVector, qubit: int, axis: Axis) -> float:
    """Probability that measuring the qubit along the axis gives PLUS.

    Normalizing by the total mass keeps zero-amplitude branches exactly
    unreachable: a branch of mass 0.0 has probability 0.0, never sampled.
    """
    plus, minus = _components(state, qubit, axis)
    mass_plus = float(_masses(plus))
    return mass_plus / (mass_plus + float(_masses(minus)))


def collapse(state: StateVector, qubit: int, axis: Axis, outcome: Outcome) -> StateVector:
    """Renormalized post-measurement state for the given outcome.

    A branch of subnormal mass is first scaled to unit peak amplitude, so
    that renormalizing it yields a valid state; every other branch is
    divided by the square root of its mass alone.  An outcome of
    probability 0 has no post-state and raises ``ValueError``.
    """
    component = _components(state, qubit, axis)[outcome]
    return StateVector(_post_states(axis, outcome, component, _masses(component)).reshape(-1))


def measure_qubit(
    state: StateVector, qubit: int, axis: Axis, u: float
) -> tuple[Outcome, StateVector, float]:
    """Projective single-qubit measurement with collapse.

    The outcome is PLUS iff ``u < plus_probability(...)``, so the caller
    supplies all randomness and a replay with the same ``u`` is
    bit-identical.  Returns the outcome, its :func:`collapse` post-state,
    and the probability of the observed outcome.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw must lie in [0, 1), got {u!r}")
    p_plus = plus_probability(state, qubit, axis)
    if u < p_plus:
        outcome, probability = Outcome.PLUS, p_plus
    else:
        outcome, probability = Outcome.MINUS, 1.0 - p_plus
    return outcome, collapse(state, qubit, axis, outcome), probability


def joint_probability(
    state: StateVector, constraints: Iterable[tuple[int, Axis, Outcome]]
) -> float:
    """Exact probability that each constrained qubit yields its outcome.

    Computed by projecting the amplitudes (no sampling); unconstrained
    qubits are marginalized.  Constraint qubits must be distinct.
    """
    constraints = list(constraints)
    n = state.num_qubits
    seen: set[int] = set()
    for qubit, _axis, _outcome in constraints:
        if not 0 <= qubit < n:
            raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
        if qubit in seen:
            raise ValueError(f"duplicate constraint on qubit {qubit}")
        seen.add(qubit)

    work = state.amplitudes.copy()
    total = float(np.vdot(work, work).real)
    for qubit, axis, outcome in constraints:
        view = _split_on_qubit(work, qubit)
        _project(view, axis, outcome, _axis_components(view, axis)[outcome])
    return float(np.vdot(work, work).real) / total


def outcome_distribution(state: StateVector) -> np.ndarray:
    """Exact joint outcome probabilities of the three party qubits, per axis set.

    Returns the 8x8 array ``P[s, o]``: row ``s`` is the axis set with bits
    (A, B, C), z as 0 and x as 1; column ``o`` is the outcome string with
    bits (A, B, C), PLUS as 0.  Any further qubit (an attached ancilla) is
    marginalized.  Each party qubit is rotated into both eigenbases by the
    elementwise butterfly of :func:`_axis_components`, so an outcome whose
    amplitudes cancel exactly has probability exactly 0.0, as under
    :func:`joint_probability`; masses are divided by the state's total.
    """
    if state.num_qubits < 3:
        raise ValueError("outcome distribution needs at least three qubits")
    rotated = state.amplitudes
    for party in Party:
        # (axis prefixes, leading, 2, trailing) -> (axis prefixes, z|x, ...):
        # the z half is the view itself, the x half its butterfly.
        view = rotated.reshape(1 << party, 1 << party, 2, -1)
        rotated = np.empty((1 << party, 2) + view.shape[1:], dtype=np.complex128)
        rotated[:, 0] = view
        rotated[:, 1, ..., 0, :], rotated[:, 1, ..., 1, :] = _axis_components(view, Axis.X)
    return _masses(rotated.reshape(8, 8, 1, -1)) / state.squared_norm()


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace onto the kept qubits (at most two, ascending order)."""
    kept = sorted(set(keep))
    n = state.num_qubits
    if not kept:
        raise ValueError("keep must name at least one qubit")
    if any(q < 0 or q >= n for q in kept):
        raise ValueError(f"keep indices must lie in [0, {n})")
    if len(kept) >= n:
        raise ValueError("keep must be a strict subset of the qubits")
    if len(kept) > 2:
        raise ValueError("at most two qubits can be kept")
    discard = [q for q in range(n) if q not in kept]
    tensor = state.amplitudes.reshape((2,) * n)
    rho = np.tensordot(tensor, tensor.conj(), axes=(discard, discard))
    dim = 1 << len(kept)
    return DensityMatrix(rho.reshape(dim, dim))


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


def eigenvalues_hermitian(matrix: np.ndarray) -> list[float]:
    """All eigenvalues of a small Hermitian matrix, ascending.

    Supports dim 2 and 4 only, which covers every reduced state and partial
    transpose in this package.  The Hermitian part is diagonalized by
    LAPACK (``numpy.linalg.eigvalsh``).
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    dim = a.shape[0]
    if dim not in (2, 4):
        raise ValueError(f"supported dimensions are 2 and 4, got {dim}")
    _check_hermitian(a, "input matrix")
    return [float(x) for x in np.linalg.eigvalsh((a + a.conj().T) / 2.0)]


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
    a = state.amplitudes

    def amp(i: int, j: int, k: int) -> complex:
        return complex(a[(i << 2) | (j << 1) | k])

    d1 = (
        amp(0, 0, 0) ** 2 * amp(1, 1, 1) ** 2
        + amp(0, 0, 1) ** 2 * amp(1, 1, 0) ** 2
        + amp(0, 1, 0) ** 2 * amp(1, 0, 1) ** 2
        + amp(1, 0, 0) ** 2 * amp(0, 1, 1) ** 2
    )
    d2 = (
        amp(0, 0, 0) * amp(1, 1, 1) * amp(0, 1, 1) * amp(1, 0, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 0, 0) * amp(1, 1, 1) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 0, 1) * amp(0, 1, 0)
        + amp(0, 1, 1) * amp(1, 0, 0) * amp(1, 1, 0) * amp(0, 0, 1)
        + amp(1, 0, 1) * amp(0, 1, 0) * amp(1, 1, 0) * amp(0, 0, 1)
    )
    d3 = amp(0, 0, 0) * amp(1, 1, 0) * amp(1, 0, 1) * amp(0, 1, 1) + amp(1, 1, 1) * amp(
        0, 0, 1
    ) * amp(0, 1, 0) * amp(1, 0, 0)
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
