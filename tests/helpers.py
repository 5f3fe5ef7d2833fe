"""Shared test utilities: random states and independent oracles.

The oracles deliberately take different routes than the production code:
probabilities by exhaustive enumeration over outcome strings, eigenvalues
through numpy's LAPACK bindings, the three-way tangle through the
residual construction (pair concurrences subtracted from the one-vs-rest
tangle) instead of the hyperdeterminant, a protocol trial by a scalar
recursion of the interval-tree rule in Python integers instead of the
engine's vectorised trees, the chain-rule outcome table by sequential
statevector measurement (against which the trees' unreachable cells are
checked), and a run's report by folding its trial records one at a time
instead of multiplying the engine's weight matrix by its cell counts.

Former formulations are kept as byte references: the per-party
reshape-and-assign butterfly of ``outcome_distributions`` and the gather
plans that replaced it and that the matrix levels replaced in turn, with
``np.sum`` where the live masses fold; the 8-cell weighted sum that
``event_masses`` replaced by its two cells; the nested per-set walk of
the former split points, whose splits ``_cell_bounds`` holds by cell; and
the ``json.JSONEncoder`` and ``csv.writer`` renderers that the report
templates replaced; ``measure_qubit`` with its masses read as numpy
scalars, the attack circuit's ``np.argsort`` inverse order and its
nested-list coupling unitary.  The random stream has a numpy-free
statement too: Philox4x64-10 in Python integers.
"""

from __future__ import annotations

import collections
import csv
import enum
import io
import itertools
import json
import math
import sys

import numpy as np

from wqsc import (
    ALL_AXIS_SETS,
    Axis,
    AxisSet,
    InconsistentSharesError,
    Outcome,
    PQSS_AXIS_SET,
    Party,
    ProtocolConfig,
    ProtocolMode,
    QKD_AXIS_SETS,
    RunReport,
    StateVector,
    decider_step,
    is_event,
    iter_trials,
    joint_probability,
    key_accounting,
    measure_qubit,
    outcome_distribution,
    pqss_step,
    reconstruct_dealer_bit,
    security_verdict,
)
from wqsc import bell, protocol, qcore
from wqsc.protocol import MODE_SUCCESS_PROBABILITY, QUBITS_PER_TRIAL
from wqsc.reporting import report_to_dict


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def random_product_state(rng: np.random.Generator, num_qubits: int = 3) -> StateVector:
    amps = np.ones(1, dtype=complex)
    for _ in range(num_qubits):
        single = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, single / np.linalg.norm(single))
    return StateVector(amps)


def permute_qubits(state: StateVector, perm: tuple[int, ...]) -> StateVector:
    """Relabel qubits so that new qubit k is old qubit perm[k]."""
    n = state.num_qubits
    tensor = state.amplitudes.reshape((2,) * n)
    return StateVector(tensor.transpose(perm).reshape(-1))


def enumerate_event_probability(state, qubit_axes, predicate) -> float:
    """Brute-force oracle: sum joint_probability over all outcome strings.

    ``qubit_axes`` is a sequence of (qubit, Axis); ``predicate`` receives a
    dict mapping qubit -> Outcome and selects the event's strings.
    """
    qubits = [q for q, _ in qubit_axes]
    total = 0.0
    for combo in itertools.product(tuple(Outcome), repeat=len(qubits)):
        assignment = dict(zip(qubits, combo))
        if predicate(assignment):
            constraints = [(q, axis, assignment[q]) for q, axis in qubit_axes]
            total += joint_probability(state, constraints)
    return total


def butterfly_outcome_distributions(states) -> np.ndarray:
    """The former ``outcome_distributions``: a reshape/empty/assign butterfly per party.

    Each party's rows are the view itself (z) and its
    ``qcore._axis_components`` along x, assigned into a new array; the
    masses and the division by each state's total are the live code's.
    """
    n = len(states)
    rotated = np.array([state.amplitudes for state in states])
    for party in Party:
        view = rotated.reshape(n << party, 1 << party, 2, -1)
        rotated = np.empty((n << party, 2) + view.shape[1:], dtype=np.complex128)
        rotated[:, 0] = view
        rotated[:, 1, ..., 0, :], rotated[:, 1, ..., 1, :] = qcore._axis_components(view, Axis.X)
    totals = np.array([state.squared_norm() for state in states]).reshape(-1, 1, 1)
    return qcore._masses(rotated.reshape(n, 8, 8, 1, -1)) / totals


def gather_level_plan(qubits: int, party: int) -> tuple[np.ndarray, ...]:
    """``(I, J, S, R)``: one party's former gather level, row ``o`` being ``(v[I] + v[J] * S) * R``.

    A z row keeps its amplitude, ``I = J`` and ``(S, R) = (0, 1)``; an x row
    is the butterfly of the party's two amplitudes, ``I`` and ``J`` pointing
    at them, ``S`` the sign of the second in the row's outcome and ``R =
    1/sqrt(2)``, as complex columns.
    """
    rows = np.arange(2 << (party + qubits))
    x = rows >> qubits & 1
    amp = rows & ((1 << qubits) - 1)
    bit = 1 << (qubits - 1 - party)
    block = (rows >> (qubits + 1)) << qubits
    return (
        block | np.where(x, amp & ~bit, amp),
        block | np.where(x, amp | bit, amp),
        np.where(x, np.where(amp & bit, -1.0, 1.0), 0.0).astype(np.complex128)[:, np.newaxis],
        np.where(x, qcore._SQRT1_2, 1.0).astype(np.complex128)[:, np.newaxis],
    )


def gather_outcome_masses(amps: np.ndarray) -> np.ndarray:
    """The former masses of a contiguous amplitude stack: a gather plan per party.

    Each outcome's squares over the extra qubits are summed by ``np.sum``
    (through ``qcore._masses``), not folded.
    """
    rows = amps.T
    for party in Party:
        i, j, s, r = gather_level_plan(qcore._qubit_count(amps.shape[1]), party)
        rows = (rows.take(i, 0) + rows.take(j, 0) * s) * r
    return qcore._masses(rows.T.reshape(len(amps), 8, 8, 1, -1))


def gather_outcome_distributions(amps) -> np.ndarray:
    """The former ``outcome_distributions`` of an amplitude stack: a gather plan per party.

    Rows are gated, and each total read, as the live code does.
    """
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    totals = qcore._state_norms(amps)
    return gather_outcome_masses(amps) / np.array(totals).reshape(-1, 1, 1)


def weighted_event_masses(dist: np.ndarray) -> np.ndarray:
    """The former ``event_masses``: each QKD set's row weighted by ``EVENT_CELLS``, summed."""
    qkd_sets = [ALL_AXIS_SETS.index(axes) for axes in QKD_AXIS_SETS]
    return (np.asarray(dist) * bell.EVENT_CELLS).sum(axis=-1)[..., qkd_sets]


def scalar_measure_qubit(state: StateVector, qubit: int, axis: Axis, u: float):
    """The former ``measure_qubit`` arithmetic: its masses read as numpy scalars.

    ``p_plus`` is a numpy-scalar quotient, the chosen branch's mass stays a
    numpy scalar and the post-state is divided by ``np.sqrt`` of it.  The
    arguments are taken as checked.
    """
    components = np.array(
        qcore._axis_components(qcore._split_on_qubit(state.amplitudes, qubit), axis)
    )
    masses = qcore._masses(components)
    p_plus = float(masses[Outcome.PLUS] / (masses[Outcome.PLUS] + masses[Outcome.MINUS]))
    if u < p_plus:
        outcome, probability = Outcome.PLUS, p_plus
    else:
        outcome, probability = Outcome.MINUS, 1.0 - p_plus
    component, mass = components[outcome], masses[outcome]
    if mass < sys.float_info.min:
        component = component / np.max(np.abs(component))
        mass = qcore._masses(component)
    post = qcore._project(int(axis is Axis.X), outcome, component)
    post /= np.sqrt(mass)
    return outcome, StateVector(post.reshape(-1)), probability


def nested_coupling_unitary(phi: float) -> np.ndarray:
    """The former ``coupling_unitary``: nested Python lists converted to complex128."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, c, s, 0.0], [0.0, -s, c, 0.0], [0.0, 0.0, 0.0, 1.0]],
        dtype=np.complex128,
    )


def argsort_apply_attack(source: StateVector, phi: float, target: int) -> np.ndarray:
    """The former attack circuit's amplitudes: the axis order inverted by ``np.argsort``.

    The ancilla ``|z+>`` is appended as qubit 3 and
    :func:`nested_coupling_unitary` acts on (target, ancilla).
    """
    extended = np.zeros(16, dtype=np.complex128)
    extended[::2] = source.amplitudes
    order = (target, 3, *(q for q in range(4) if q not in (target, 3)))
    moved = extended.reshape((2,) * 4).transpose(order)
    updated = (nested_coupling_unitary(phi) @ moved.reshape(4, -1)).reshape(moved.shape)
    return updated.transpose(np.argsort(order)).reshape(-1)


_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = 2**64 - 1


def philox_block(counter: int, key: int) -> list[int]:
    """The four words of Random123's Philox4x64-10 at a 256-bit ``counter`` and 128-bit ``key``.

    The counter's words are its four 64-bit limbs, low first, and the key's
    its two.  Each of the 10 rounds multiplies words 0 and 2 by the two
    multipliers into high and low halves and mixes in the key, which grows
    by the two Weyl constants before every round but the first.
    """
    x = [counter >> shift & _WORD for shift in (0, 64, 128, 192)]
    k0, k1 = key & _WORD, key >> 64 & _WORD
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + _PHILOX_WEYL[0]) & _WORD, (k1 + _PHILOX_WEYL[1]) & _WORD
        p0 = _PHILOX_MULTIPLIERS[0] * x[0]
        p1 = _PHILOX_MULTIPLIERS[1] * x[2]
        x = [p1 >> 64 ^ x[1] ^ k0, p1 & _WORD, p0 >> 64 ^ x[3] ^ k1, p0 & _WORD]
    return x


def philox_words(key: int, first: int, count: int) -> list[int]:
    """Words ``first`` to ``first + count - 1`` of the Philox stream of ``key``.

    Word ``i`` is position ``i & 3`` of block ``(i >> 2) + 1`` (the counter
    is advanced before each block is drawn), the counter wrapping at
    ``2**256``.
    """
    words = []
    for index in range(first, first + count):
        if not words or index & 3 == 0:
            block = philox_block(((index >> 2) + 1) % 2**256, key)
        words.append(block[index & 3])
    return words


def encoder_report_json(report: RunReport) -> str:
    """The former ``render_report_json``: ``json.JSONEncoder`` on the report's dict."""
    body = json.JSONEncoder(separators=(",\n  ", ": ")).encode(report_to_dict(report))[1:-1]
    return "{\n  " + body + "\n}\n"


def writer_csv(columns, rows) -> str:
    """The former CSV writer: ``csv.writer`` on a header and each row's scalars."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            value.letter if isinstance(value, Party) else value.value
            if isinstance(value, enum.Enum) else value
            for value in vars(row).values()
        )  # None: an empty cell
    return buffer.getvalue()


def nested_walk_thresholds(dist: np.ndarray, announce: int) -> np.ndarray:
    """The former split points: per-set arrays of nodes, regrown at each depth.

    Position ``2**d * (16 + 2s + u) + i`` holds the split of party ``d``'s
    node ``i`` in tree ``2s + u``; positions 0 to 15 hold 0.
    """
    children = np.empty((8, 14))  # per set: A's 2 children, B's 4, C's 8, plus child first
    children[:, 6:] = dist
    np.add(dist[:, 0::2], dist[:, 1::2], out=children[:, 2:6])
    np.add(children[:, 2:6:2], children[:, 3:6:2], out=children[:, :2])
    plus = children[:, None, 0::2]
    total = plus + children[:, None, 1::2]
    ratio = plus / np.where(total > 0.0, total, 1.0)  # (8, 1, 7): A's node, B's 2, C's 4
    ann = float(announce)
    lo, width = np.array([[[0.0], [ann]]]), np.array([[[ann], [2.0**53 - ann]]])
    splits = np.zeros(128)
    for depth in range(len(Party)):
        nodes = 1 << depth
        plus_width = np.ceil(ratio[..., nodes - 1 : 2 * nodes - 1] * width)
        split = splits[16 << depth : 32 << depth].reshape(8, 2, nodes)
        np.add(lo, plus_width, out=split)
        if depth < 2:  # the children's nodes, plus child first
            lo_next, width_next = np.empty((8, 2, 2 * nodes)), np.empty((8, 2, 2 * nodes))
            lo_next[..., 0::2], lo_next[..., 1::2] = lo, split
            width_next[..., 0::2], width_next[..., 1::2] = plus_width, width - plus_width
            lo, width = lo_next, width_next
    return splits.astype(np.uint64)


def nested_cell_bounds(dist: np.ndarray, announce: int) -> np.ndarray:
    """:func:`nested_walk_thresholds` laid out by cell: each cell's lower bound at ``16s + 8u + o``.

    A tree's first string starts at its half's start, 0 or ``ann``; string
    ``o > 0`` starts at the split of the deepest node whose minus child it
    opens: party ``d``'s node ``o >> (3 - d)`` when ``o`` has ``3 - d`` low
    zero bits.
    """
    splits = nested_walk_thresholds(dist, announce).tolist()
    bounds = []
    for tree in range(16):
        bounds.append(announce if tree & 1 else 0)
        for o in range(1, 8):
            depth = 3 - (o & -o).bit_length()  # A for 4, B for 2 and 6, C for odd o
            bounds.append(splits[(1 << depth) * (16 + tree) + (o >> (3 - depth))])
    return np.array(bounds, dtype=np.uint64)


def unit(word) -> float:
    """The uniform a raw Philox word stands for: ``(x >> 11) * 2**-53``."""
    return (int(word) >> 11) * 2.0**-53


TREE_SPAN = 2**53  # the interval a run trial's draw walks down


def announce_split(announce_rate: float) -> int:
    """``ceil(r * 2**53)``: the first split of every set's tree, in Python integers."""
    return math.ceil(announce_rate * TREE_SPAN)


def oracle_intervals(row, lo: int = 0, hi: int = TREE_SPAN) -> list[tuple[int, int]]:
    """The interval of each outcome string in one distribution row's tree rooted at ``[lo, hi)``.

    A recursive, scalar statement of the run's tree rule in Python
    integers.  A node is the outcome strings that share a prefix of party
    bits (A first, plus first), and its mass is its plus half's plus its
    minus half's.  It splits ``[lo, hi)`` at ``lo + ceil(p * (hi - lo))``,
    ``p`` being its plus half's mass over its own, or at ``lo`` if its mass
    is 0.  A run's trees are rooted at the announced half ``[0, ann)`` and
    the unannounced half ``[ann, 2**53)``.
    """

    def mass(cells):
        if len(cells) == 1:
            return float(cells[0])
        return mass(cells[: len(cells) // 2]) + mass(cells[len(cells) // 2 :])

    def split(cells, lo, hi):
        if len(cells) == 1:
            return [(lo, hi)]
        plus, minus = cells[: len(cells) // 2], cells[len(cells) // 2 :]
        total = mass(cells)
        p = mass(plus) / total if total > 0.0 else 0.0
        mid = lo + math.ceil(p * (hi - lo))
        return split(plus, lo, mid) + split(minus, mid, hi)

    return split(list(row), lo, hi)


def kernel_intervals(source: StateVector, announce_rate: float) -> np.ndarray:
    """The engine's ``[lo, hi)`` of each (axis set, half, outcome string), shape (8, 2, 8, 2).

    Half 0 is the announced half ``[0, ann)``, half 1 the unannounced
    ``[ann, 2**53)``.  A cell's interval runs from its lower bound in the
    engine's cell bounds for ``source`` to the next cell's, the last cell of
    each set to ``2**53``.
    """
    bounds = protocol._cell_bounds(
        outcome_distribution(source), protocol._threshold(announce_rate)
    ).astype(np.int64).reshape(8, 16)
    upper = np.concatenate((bounds[:, 1:], np.full((8, 1), TREE_SPAN)), axis=1)
    return np.stack((bounds, upper), axis=-1).reshape(8, 2, 8, 2)


def oracle_trial(source: StateVector, word, announce_rate: float):
    """One run trial from its raw Philox word, by :func:`oracle_intervals`.

    The word announces when its uniform (:func:`unit`) lies below
    ``announce_rate``, and its low 3 bits choose the axes of A, B and C, A
    the highest, a 0 selecting z.  Its draw ``x >> 11`` picks the outcome
    string whose interval holds it in the chosen set's tree over its half:
    ``[0, ann)`` if announced, else ``[ann, 2**53)``, with ``ann =
    ceil(announce_rate * 2**53)``.  Returns (axes, outcomes, announced).
    """
    set_bits = int(word) & 7
    axes = AxisSet(*(Axis.X if set_bits >> shift & 1 else Axis.Z for shift in (2, 1, 0)))
    k = int(word) >> 11
    announced = unit(word) < announce_rate
    ann = announce_split(announce_rate)
    root = (0, ann) if announced else (ann, TREE_SPAN)
    intervals = oracle_intervals(outcome_distribution(source)[set_bits], *root)
    string = next(o for o, (lo, hi) in enumerate(intervals) if lo <= k < hi)
    outcomes = tuple(Outcome(string >> shift & 1) for shift in (2, 1, 0))
    return axes, outcomes, announced


# The smallest and largest uniform draws: they select PLUS and MINUS
# respectively wherever that outcome has nonzero probability.
_EXTREME_DRAWS = (0.0, math.nextafter(1.0, 0.0))


def oracle_table(source: StateVector) -> np.ndarray:
    """The (8, 7) chain-rule outcome table by a recursive walk over A -> B -> C.

    Row ``s`` is the axis set with bits (A, B, C), z as 0; the child of
    node ``n`` on outcome bit ``x`` is node ``2n + 1 + x``.  Each node is
    measured by :func:`measure_qubit` at the draws 0.0 and the largest
    float below 1.0: the first gives PLUS with its probability and
    post-state unless PLUS has probability 0, the second MINUS unless MINUS
    has probability 0.  The walk descends only into the outcome each draw
    asked for, never below C, so nodes behind an outcome of probability 0
    stay 0.
    """
    table = np.zeros((8, 7))

    def walk(state: StateVector, party: int, first_row: int, node: int) -> None:
        width = 4 >> party  # rows that share this party's axis
        for i, axis in enumerate((Axis.Z, Axis.X)):
            row = first_row + i * width
            for u, wanted in zip(_EXTREME_DRAWS, Outcome):
                outcome, post, probability = measure_qubit(state, party, axis, u)
                if outcome is Outcome.PLUS:
                    table[row : row + width, node] = probability
                if outcome is wanted and party != Party.CHARLIE:
                    walk(post, party + 1, row, 2 * node + 1 + outcome)

    walk(source, Party.ALICE, 0, 0)
    return table


_MODE_STEPS = {
    ProtocolMode.QKD: (decider_step,),
    ProtocolMode.PQSS: (pqss_step,),
    ProtocolMode.SYNTH: (decider_step, pqss_step),
}


def oracle_report(config: ProtocolConfig) -> RunReport:
    """The run's report by folding ``iter_trials(config)`` one record at a time.

    Each trial is decided by the mode's own steps (``decider_step`` for
    QKD, ``pqss_step`` for PQSS, the first of them that keeps the trial for
    SYNTH); the record must carry the kept bits unless it was announced.
    Key bits are counted per pair of parties, secrets are recombined by
    ``reconstruct_dealer_bit`` and announced QKD-set trials are checked by
    ``is_event``.
    """
    n = collections.Counter()
    for record in iter_trials(config):
        axes, outcomes = record.axes, record.outcomes
        decisions = ((step, step(axes, outcomes)) for step in _MODE_STEPS[config.mode])
        step, kept = next(((s, bits) for s, bits in decisions if bits is not None), (None, None))
        assert record.key_bits == (None if record.announced else kept)
        n["qkd_axis"] += axes.decider is not None
        n["pqss_axis"] += axes == PQSS_AXIS_SET
        n["qkd_success"] += step is decider_step
        n["pqss_success"] += step is pqss_step
        if record.announced:
            n["announced"] += 1
            if axes.decider is not None:
                n["announced_qkd"] += 1
                n["events"] += is_event(axes, outcomes)
        elif kept is None:
            n["discarded"] += 1
        elif step is decider_step:
            first, second = pair = tuple(sorted(kept))
            n[pair] += 1
            n["disagreements"] += kept[first] is not kept[second]
        else:
            n["secrets"] += 1
            shares = [kept[p] for p in Party if p is not config.dealer]
            try:
                recovered = reconstruct_dealer_bit(*shares)
            except InconsistentSharesError:
                recovered = None
            n["failures"] += recovered is not kept[config.dealer]

    trials = config.trials
    pair_bits = [n[pair] for pair in itertools.combinations(Party, 2)]
    total_key_bits = sum(pair_bits) + n["secrets"]
    success_trials = n["qkd_success"] + n["pqss_success"]
    p_s = MODE_SUCCESS_PROBABILITY[config.mode]
    frequency = n["events"] / n["announced_qkd"] if n["announced_qkd"] else None
    attack = config.attack
    return RunReport(
        mode=config.mode,
        trials=trials,
        seed=config.seed,
        announce_rate=config.announce_rate,
        attack_phi=None if attack is None else attack.phi,
        attack_target=None if attack is None else attack.target,
        epsilon=config.epsilon,
        dealer=config.dealer,
        announced_trials=n["announced"],
        qkd_axis_trials=n["qkd_axis"],
        pqss_axis_trials=n["pqss_axis"],
        qkd_success_trials=n["qkd_success"],
        pqss_success_trials=n["pqss_success"],
        success_trials=success_trials,
        empirical_success_rate=success_trials / trials,
        analytic_success_probability=p_s,
        key_bits_ab=pair_bits[0],
        key_bits_ac=pair_bits[1],
        key_bits_bc=pair_bits[2],
        pqss_secret_bits=n["secrets"],
        total_key_bits=total_key_bits,
        discarded_trials=n["discarded"],
        qkd_disagreements=n["disagreements"],
        pqss_reconstruction_failures=n["failures"],
        announced_qkd_trials=n["announced_qkd"],
        security_events=n["events"],
        security_event_frequency=frequency,
        qubits_consumed=QUBITS_PER_TRIAL * trials,
        formula_qubits=key_accounting(total_key_bits, p_s, trials, n["announced"]),
        qubits_per_key_bit=QUBITS_PER_TRIAL * trials / total_key_bits if total_key_bits else None,
        security_verdict=security_verdict(frequency, config.epsilon),
    )


def z_axes(*qubits: int) -> list[tuple[int, Axis]]:
    return [(q, Axis.Z) for q in qubits]


def partial_trace_oracle(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Independent partial trace by explicit summation over bit patterns."""
    n = state.num_qubits
    amps = state.amplitudes
    discard = [q for q in range(n) if q not in keep]

    def full_index(kept_bits: int, traced_bits: int) -> int:
        index = 0
        for pos, q in enumerate(keep):
            index |= ((kept_bits >> (len(keep) - 1 - pos)) & 1) << (n - 1 - q)
        for pos, q in enumerate(discard):
            index |= ((traced_bits >> (len(discard) - 1 - pos)) & 1) << (n - 1 - q)
        return index

    dim = 2 ** len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            for k in range(2 ** len(discard)):
                rho[i, j] += amps[full_index(i, k)] * np.conj(amps[full_index(j, k)])
    return rho


def concurrence_oracle(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix via numpy.linalg."""
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sigma_y, sigma_y)
    r = rho @ flip @ rho.conj() @ flip
    roots = np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None))
    roots = np.sort(roots)[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def residual_tangle_oracle(state: StateVector) -> float:
    """Three-way tangle as one-vs-rest tangle minus the squared pair concurrences."""
    rho_a = partial_trace_oracle(state, (0,))
    tau_one_vs_rest = 4.0 * float(np.linalg.det(rho_a).real)
    c_ab = concurrence_oracle(partial_trace_oracle(state, (0, 1)))
    c_ac = concurrence_oracle(partial_trace_oracle(state, (0, 2)))
    return tau_one_vs_rest - c_ab**2 - c_ac**2
