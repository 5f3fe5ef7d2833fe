"""Three-party protocol engine over the simulated W-state channel.

One trial: a fresh source state (attacked or not), independent axis choices,
local measurements, an optional public announcement of the outcomes, and a
decision: the key bits the mode keeps, or none.  Three modes share the
machinery and differ only in the steps they try:

* key distribution (QKD), :func:`decider_step`: on a set with a lone z
  measurer, the decider, a plus outcome makes the two x measurers keep their
  (equal) x outcomes as a shared pair key bit;
* partial secret sharing (PQSS), :func:`pqss_step`: on the all-z set the
  dealer's outcome is the secret bit and the other two are the shares,
  which :func:`reconstruct_dealer_bit` combines; one minus share alone
  fixes the dealer's bit as PLUS (:func:`partial_inference`);
* synthesis (SYNTH): both, the first step that keeps a trial deciding it.

Randomness and its draw order are part of the output contract: a change to
either changes report bytes for a given seed.

Draws come from a counter-based Philox stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011), read as uint64 words.  A
stream is an idle Philox instance re-keyed through its state to the
stream's key and first counter, the state the constructor would set; one
is built only when none is idle, and it is idle again once its stream
ends.  A word ``x`` draws ``k = x >> 11``, the uniform ``k * 2**-53`` that
``Generator.random()`` computes, and is compared with integers only.  Every
probability sampled is read from :func:`~wqsc.qcore.outcome_distribution`:
for ``run`` the source's, with its interval trees built once per (attack,
announce rate) key, and for ``sweep-phi`` one stacked
:func:`~wqsc.qcore.outcome_distributions` pass over every grid point.

* ``run`` (stream v5): key ``seed``.  Trial ``i`` reads raw word ``i``,
  position ``i & 3`` of ``Philox(key=seed, counter=i >> 2)``, so any trial
  replays in isolation from its counter (an idle instance re-keyed to
  ``(seed, i >> 2)``) and contiguous trials are one contiguous read.  The
  word's low 3 bits, which the shift drops, choose the axes of A, B and C,
  A the highest (0 selects z), each exactly 1/2 and independent of the
  draw.  A draw below ``ann = ceil(r * 2**53)``, ``r`` the announce rate,
  announces.  Each half of a set, ``[0, ann)`` and ``[ann, 2**53)``, is an
  interval tree through A, B and C whose leaves are the outcome strings: a
  node ``[lo, hi)`` splits at ``lo + ceil(p * (hi - lo))``, ``p`` being the
  node's plus mass over its total in the set's distribution row.  So
  P(announced) is exact on every set, and an outcome's mass is resolved to
  one unit of its half: ``1 / (r * 2**53)`` if announced, ``1 / ((1 - r) *
  2**53)`` if not.  The 16 trees are held as the ascending lower bounds of
  the run's 128 cells (:func:`_cell_bounds`); a trial lands in the last
  cell of its set whose bound its draw reaches.
  The source is ``w_state()``, or under an attack the closed form
  ``attacked_w_state(phi, target)``, read as its one amplitude row
  ``attacked_w_amplitudes([phi], target)[0]``; the attack circuit
  :func:`~wqsc.adversary.apply_attack` is its check, equal byte for byte.
  The eavesdropper's ancilla is never sampled: it is measured after the
  parties, so its outcome cannot change theirs.
* ``sweep-phi``: grid point ``k`` has key ``seed + (k + 1) * 2**64`` (key
  words ``(seed, k + 1)``, disjoint from every ``run`` key).  Sample ``j``
  is raw word ``j``, an event iff its draw lies below ``p_bar``, the mean
  of the three QKD axis sets' :func:`~wqsc.bell.event_masses` in
  ``attacked_w_state(phi)``, the closed form of the attack on Charlie; the
  grid is one amplitude stack, ``attacked_w_amplitudes(grid)``.

A draw ``k`` lies below a probability ``p`` iff ``k < ceil(p * 2**53)``,
exact because ``p * 2**53`` is; a cell of mass 0 gets an interval of width
0 and is never drawn.  A run is its 128 (axis set, announced, outcome
string) cells, the public layer: :func:`cell_counts` samples them in chunks,
a chunk's trial keys, each its axis set above its draw, sorted and the 129
cell keys searched into them; :func:`cell_probabilities` is the exact law
those draws follow; :func:`report_from_counts` reads a report from counts
through a weight matrix filled from the per-trial rules.  :func:`run_protocol`
is the two composed, so a report equals the fold of its trial records, each
found by searching its own key into the cell keys.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .adversary import UnitaryCouplingAttack
from .bell import (ALL_AXIS_SETS, OUTCOME_STRINGS, PQSS_AXIS_SET, AxisSet,
                   averaged_security_probability, event_masses, is_event)
from .qcore import (
    Outcome,
    Party,
    integer_argument,
    outcome_distribution,
    outcome_distributions,
    party_argument,
    real_argument,
)
from .states import attacked_w_amplitudes, validate_attack_angle, w_state

DEFAULT_ANNOUNCE_RATE = 0.1
DEFAULT_EPSILON = 1e-9
MAX_SEED = 2**64 - 1

QUBITS_PER_TRIAL = 3


class InconsistentSharesError(ValueError):
    """Raised for share pairs that no trial on the W channel can produce."""


class ProtocolMode(Enum):
    QKD = "qkd"
    PQSS = "pqss"
    SYNTH = "synth"


# Overall per-trial success probabilities: P(usable axis set) times
# P(success | set).  QKD: (3/8)(2/3) = 1/4; PQSS: 1/8 (every all-z trial
# succeeds); SYNTH is their sum.
MODE_SUCCESS_PROBABILITY: dict[ProtocolMode, float] = {
    ProtocolMode.QKD: 0.25,
    ProtocolMode.PQSS: 0.125,
    ProtocolMode.SYNTH: 0.375,
}


class SecurityVerdict(Enum):
    SECURE = "secure"
    COMPROMISED = "compromised"
    INCONCLUSIVE = "inconclusive"


def check_epsilon(epsilon: float) -> float:
    """The permitted security-event frequency ``epsilon`` as a float in (0, 1), else ValueError."""
    epsilon = real_argument("epsilon", epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters; a config plus the trial index determines a trial exactly.

    ``mode`` is coerced to its enum; ``dealer`` (a :class:`Party` or its
    index) follows :func:`~wqsc.qcore.party_argument`, ``trials`` and ``seed``
    :func:`~wqsc.qcore.integer_argument`, and ``announce_rate`` and
    ``epsilon`` :func:`~wqsc.qcore.real_argument`;
    ``attack`` must be None or a :class:`UnitaryCouplingAttack`.  A bad
    value raises ValueError here, before any draw.
    """

    mode: ProtocolMode
    trials: int
    seed: int
    announce_rate: float = DEFAULT_ANNOUNCE_RATE
    attack: UnitaryCouplingAttack | None = None
    epsilon: float = DEFAULT_EPSILON
    dealer: Party = Party.ALICE

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ProtocolMode(self.mode))
        object.__setattr__(self, "dealer", party_argument("dealer", self.dealer))
        object.__setattr__(self, "trials", integer_argument("trials", self.trials, 1))
        object.__setattr__(self, "seed", integer_argument("seed", self.seed, 0, MAX_SEED))
        announce_rate = real_argument("announce_rate", self.announce_rate)
        if not 0.0 <= announce_rate < 1.0:
            raise ValueError(f"announce_rate must lie in [0, 1), got {announce_rate!r}")
        object.__setattr__(self, "announce_rate", announce_rate)
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        if self.attack is not None and not isinstance(self.attack, UnitaryCouplingAttack):
            raise ValueError(f"attack must be None or a UnitaryCouplingAttack, got {self.attack!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Everything one trial produced.

    ``outcomes`` holds the parties' private results indexed by party.
    ``key_bits`` holds the bits the mode keeps, keyed by the parties that
    hold them: the pair for a key bit, all three for a secret and its
    shares.  It is None when the mode discards the trial, and for announced
    trials, whose outcomes are public and contribute no key material.
    """

    index: int
    axes: AxisSet
    outcomes: tuple[Outcome, Outcome, Outcome]
    announced: bool
    key_bits: Mapping[Party, Outcome] | None


@dataclass(frozen=True)
class RunReport:
    """Aggregated statistics of a full run; a pure function of the config."""

    mode: ProtocolMode
    trials: int
    seed: int
    announce_rate: float
    attack_phi: float | None
    attack_target: Party | None
    epsilon: float
    dealer: Party
    announced_trials: int
    qkd_axis_trials: int
    pqss_axis_trials: int
    qkd_success_trials: int
    pqss_success_trials: int
    success_trials: int
    empirical_success_rate: float
    analytic_success_probability: float
    key_bits_ab: int
    key_bits_ac: int
    key_bits_bc: int
    pqss_secret_bits: int
    total_key_bits: int
    discarded_trials: int
    qkd_disagreements: int
    pqss_reconstruction_failures: int
    announced_qkd_trials: int
    security_events: int
    security_event_frequency: float | None
    qubits_consumed: int
    formula_qubits: float
    qubits_per_key_bit: float | None
    security_verdict: SecurityVerdict


@dataclass(frozen=True)
class SweepRow:
    """One point of a coupling-strength sweep, written by ``wqsc sweep-phi``."""

    phi: float
    p_bar: float
    empirical: float
    sigma: float
    verdict: SecurityVerdict


def decider_step(
    axes: AxisSet, outcomes: tuple[Outcome, Outcome, Outcome]
) -> dict[Party, Outcome] | None:
    """Key-distribution decision for one trial: the pair's key bits, or None.

    On an axis set with a lone z measurer, that decider decides: a plus
    outcome tells the two x measurers to keep their (equal) x outcomes as a
    key bit for their pair, returned keyed by the pair in party order; a
    minus outcome leaves the pair in a product state with uncorrelated x
    outcomes, so the trial is discarded.  Any other axis set is discarded.
    Each outcome read is coerced to its enum, so 0 and 1 act as PLUS and
    MINUS.
    """
    decider = axes.decider
    if decider is None or Outcome(outcomes[decider]) is not Outcome.PLUS:
        return None
    x1, x2 = axes.x_parties  # type: ignore[misc]
    return {x1: Outcome(outcomes[x1]), x2: Outcome(outcomes[x2])}


def pqss_step(
    axes: AxisSet, outcomes: tuple[Outcome, Outcome, Outcome]
) -> dict[Party, Outcome] | None:
    """Secret-sharing decision: the all-z set succeeds, everything else restarts.

    The dealer's outcome is the secret bit; the other two parties record
    their outcomes as shares.  Returns all three outcomes keyed by party,
    each coerced to its enum, or None when the trial is discarded.
    """
    if axes != PQSS_AXIS_SET:
        return None
    return {p: Outcome(outcomes[p]) for p in Party}


def reconstruct_dealer_bit(share_b: Outcome, share_c: Outcome) -> Outcome:
    """Combine the two shares of a secret-sharing trial into the dealer's bit.

    Equal plus shares mean the dealer measured minus; unequal shares mean
    plus.  Two minus shares cannot arise on the W channel (the all-minus
    and double-minus strings have amplitude zero) and raise.  Each share is
    coerced to its enum, so 0 and 1 act as PLUS and MINUS.
    """
    share_b, share_c = Outcome(share_b), Outcome(share_c)
    if share_b is Outcome.MINUS and share_c is Outcome.MINUS:
        raise InconsistentSharesError("two minus shares cannot occur on the W channel")
    if share_b is share_c:
        return Outcome.MINUS
    return Outcome.PLUS


def partial_inference(own_share: Outcome) -> Outcome | None:
    """The dealer's bit when one share alone fixes it, else None.

    A minus share certifies that the dealer (and the other holder) measured
    plus, so it gives ``Outcome.PLUS``; a plus share is uninformative on
    its own.  Over many trials the certifying share occurs with probability
    1/3.  The share is coerced to its enum, so 0 and 1 act as PLUS and MINUS.
    """
    return Outcome.PLUS if Outcome(own_share) is Outcome.MINUS else None


def security_verdict(frequency: float | None, epsilon: float) -> SecurityVerdict:
    """Verdict from the security-event frequency over the checked trials.

    ``frequency`` is ``events / checked``, a real in [0, 1], or None when no
    trial was checked: there is then no evidence either way and the result
    is inconclusive rather than secure.  The event frequency is exactly zero on the
    unattacked channel, so the run is compromised as soon as it exceeds
    ``epsilon``; with the default epsilon a single event suffices.
    """
    check_epsilon(epsilon)
    if frequency is None:
        return SecurityVerdict.INCONCLUSIVE
    frequency = real_argument("frequency", frequency)
    if not 0.0 <= frequency <= 1.0:
        raise ValueError(f"frequency must lie in [0, 1], got {frequency!r}")
    return SecurityVerdict.COMPROMISED if frequency > epsilon else SecurityVerdict.SECURE


# The steps each mode tries.  Each step rejects every axis set but its own,
# so at most one keeps a trial.
_MODE_STEPS = {
    ProtocolMode.QKD: (decider_step,),
    ProtocolMode.PQSS: (pqss_step,),
    ProtocolMode.SYNTH: (decider_step, pqss_step),
}


def _kept_bits(
    mode: ProtocolMode, axes: AxisSet, outcomes: tuple[Outcome, Outcome, Outcome]
) -> dict[Party, Outcome] | None:
    """The key bits of the first of ``mode``'s steps that keeps the trial, or None."""
    for step in _MODE_STEPS[mode]:
        bits = step(axes, outcomes)
        if bits is not None:
            return bits
    return None


# Trials per chunk: one random_raw call, one key pass and one sort.  It
# bounds memory; counts add across chunks, so it never changes a report.  A
# chunk's words and keys, 256 kB, fit a 2 MB L2 cache, and a 10000-trial
# run is one chunk.
_CHUNK_TRIALS = 16384

# Each run cell's (axis set, outcome string, announced) at index 16s + 8u + o, u = unannounced.
_CELL_TABLE = tuple((axes, outcomes, announced) for axes in ALL_AXIS_SETS
                    for announced in (True, False) for outcomes in OUTCOME_STRINGS)
_CELLS = len(_CELL_TABLE)


def _threshold(p: float) -> int:
    """``ceil(p * 2**53)``: a draw ``k`` lies below ``p`` iff below this.

    ``p * 2**53`` is exact for every ``p`` in [0, 1], so the rule is exact.
    """
    return math.ceil(math.ldexp(p, 53))


def _cell_bounds(dist: np.ndarray, announce: int) -> np.ndarray:
    """Each run cell's lower bound at ``16s + 8u + o``, so set ``s``'s 16 cells tile ``[0, 2**53)``.

    ``dist`` is an :func:`~wqsc.qcore.outcome_distribution` and ``announce``
    the announce rate's threshold ``ann``.  Set ``s`` has a tree over the
    announced half ``[0, ann)`` (``u`` 0) and one over the unannounced half
    ``[ann, 2**53)``, its leaves the outcome strings ``o`` in order.  Tree
    ``2s + u`` has nine edges, 0 and 8 its half's ends: A's node splits at
    edge 4, B's nodes at edges 2 and 6, and C's at the odd edges, so edge
    ``o`` is string ``o``'s lower bound.  A node ``[lo, hi)`` splits at ``lo
    + ceil(p * (hi - lo))``, ``p`` being its plus child's mass over its own,
    or at ``lo`` if its mass is 0; ``p`` is the same in both halves.  A
    node's mass is summed as its plus child's plus its minus child's, so a
    child of mass 0 gets width 0 (``p`` is 0 or exactly 1).  A plus child of
    nonzero mass keeps at least width 1 of a node that has any; a minus
    child whose share is lost in rounding ``p * (hi - lo)`` up to ``hi -
    lo`` gets width 0.  Every edge is an integer no larger than ``2**53``,
    exact in a float, so only ``ceil(p * (hi - lo))`` rounds, on the same
    operands in any order of the walk.
    """
    leaves = dist.ravel()  # the outcome strings' masses, set by set
    c_nodes = leaves[0::2] + leaves[1::2]
    b_nodes = c_nodes[0::2] + c_nodes[1::2]
    # Per set, each node's plus child, then its minus child: A's, B's 2, C's 4.
    children = np.concatenate((b_nodes.reshape(8, 2), c_nodes.reshape(8, 4), dist), axis=1).ravel()
    plus = children[0::2]
    # The smallest subnormal stands in for a mass of 0, whose plus child is 0 too.
    ratio = (plus / np.maximum(plus + children[1::2], 5e-324)).reshape(8, 7).T.repeat(2, axis=1)
    edges = np.empty((9, 16))  # edge by tree 2s + u
    edges[::8] = float(announce)  # numpy fills faster from a float than from an int
    edges[0, 0::2] = 0.0
    edges[8, 1::2] = 2.0**53
    for step in (4, 2, 1):
        lo, nodes = edges[: 8 : 2 * step], 4 // step
        width = edges[2 * step :: 2 * step] - lo
        width *= ratio[nodes - 1 : 2 * nodes - 1]
        np.add(lo, np.ceil(width, out=width), out=edges[step :: 2 * step])
    return edges[:8].T.astype(np.uint64, order="C").ravel()


def _cell_keys(bounds: np.ndarray) -> np.ndarray:
    """Cell ``16s + 8u + o``'s key ``(s << 60) + (lb << 7)``, ``lb`` its bound, then ``2**63``.

    A bound of ``2**53`` carries into the next set's first key, so the keys
    ascend; the sentinel ``2**63`` lies above every trial key.
    """
    sets = np.arange(_CELLS, dtype=np.uint64) >> np.uint64(4)
    return np.append((sets << np.uint64(60)) + (bounds << np.uint64(7)), np.uint64(1 << 63))


def _trial_keys(raw: np.ndarray) -> np.ndarray:
    """Word ``x``'s key ``(x << 61) >> 1 | x >> 4``: its set in bits 60 to 62 above its draw.

    Bits 0 to 6 hold word bits 4 to 10 and bit 63 stays clear; ``raw`` is overwritten.
    """
    keys = raw >> np.uint64(4)
    raw <<= np.uint64(61)
    raw >>= np.uint64(1)
    keys |= raw
    return keys


def _trial_cells(cell_keys: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Each word's cell ``16s + 8u + o``, the last whose key its key reaches; overwrites ``raw``.

    Of tied keys, cells of width 0, that is the later.
    """
    return cell_keys.searchsorted(_trial_keys(raw), side="right") - 1


# Philox instances no stream holds.  A stream takes one, or builds one when
# none is idle (a constructor costs an entropy draw that the key overrides),
# and gives it back when it ends, so each instance serves one stream at a
# time: interleaved generators and threads never share one.
_IDLE_STREAMS: list[np.random.Philox] = []

_WORD = 2**64 - 1


def _chunks(key: int, first: int, count: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(offset, raw words)`` per chunk of ``count`` words of Philox ``key`` from word ``first``.

    Word ``w`` is position ``w & 3`` of ``Philox(key=key, counter=w >> 2)``.
    An idle instance is re-keyed through its state: the key's two words, the
    256-bit counter ``first >> 2`` as four words (low first) and an empty
    buffer, as the constructor sets them.  It is idle again once the
    generator ends, is closed or is collected.
    """
    counter = first >> 2
    try:
        bits = _IDLE_STREAMS.pop()
    except IndexError:
        bits = np.random.Philox(key=key, counter=counter)
    else:
        words = [counter & _WORD, counter >> 64 & _WORD, counter >> 128 & _WORD, counter >> 192]
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": words, "key": [key & _WORD, key >> 64]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
    try:
        if first & 3:  # a first word inside a block skips its block's earlier words
            bits.random_raw(first & 3)
        for start in range(0, count, _CHUNK_TRIALS):
            yield start, bits.random_raw(min(_CHUNK_TRIALS, count - start))
    finally:
        _IDLE_STREAMS.append(bits)


def _record(mode: ProtocolMode, index: int, cell: int) -> TrialRecord:
    axes, outcomes, announced = _CELL_TABLE[cell]
    key_bits = None if announced else _kept_bits(mode, axes, outcomes)
    return TrialRecord(index, axes, outcomes, announced, key_bits)


def run_trial(config: ProtocolConfig, index: int) -> TrialRecord:
    """Replay one trial from its counter alone; deterministic in (config.seed, index).

    Trial ``index`` reads its one Philox word, whose key is searched into
    the run's cell keys: the cell fixes the announcement and each party's
    outcome on the axis set the word's low bits chose.  Announced trials
    carry no key bits.  ``index`` runs from 0 to ``2**258 - 1``, the last word.
    """
    index = integer_argument("trial index", index, 0, 2**258 - 1)
    _, raw = next(_chunks(config.seed, index, 1))
    cells = _trial_cells(_trees(config.attack, config.announce_rate), raw)
    return _record(config.mode, index, int(cells[0]))


@functools.lru_cache(maxsize=64)
def _trees(attack: UnitaryCouplingAttack | None, announce_rate: float) -> np.ndarray:
    """The run source's :func:`_cell_keys` at this announce rate, built once per key, read-only.

    The source is ``w_state()``, or under ``attack`` the closed form's one
    row ``attacked_w_amplitudes([phi], target)[0]``, which
    :func:`~wqsc.qcore.outcome_distribution` takes as it is; the 64 keys
    last used are kept.
    """
    if attack is None:
        dist = outcome_distribution(w_state())
    else:
        dist = outcome_distribution(attacked_w_amplitudes([attack.phi], attack.target)[0])
    cell_keys = _cell_keys(_cell_bounds(dist, _threshold(announce_rate)))
    cell_keys.flags.writeable = False
    return cell_keys


def iter_trials(config: ProtocolConfig) -> Iterator[TrialRecord]:
    """Yield the run's trials in index order, building the cell keys once."""
    cell_keys = _trees(config.attack, config.announce_rate)
    for start, raw in _chunks(config.seed, 0, config.trials):
        for index, cell in enumerate(_trial_cells(cell_keys, raw).tolist(), start):
            yield _record(config.mode, index, cell)


def check_sweep_arguments(
    grid: Sequence[float], trials: int, seed: int
) -> tuple[list[float], int, int]:
    """:func:`sample_security_frequency`'s arguments, checked and coerced.

    ``grid`` must be a non-empty sequence (or numpy array of at least one
    dimension) of real numbers, not bool, each a valid attack angle;
    ``trials`` (samples per point) and ``seed`` follow the integer rule.  A
    bad value raises ValueError.
    """
    sequence = isinstance(grid, Sequence) and not isinstance(grid, (str, bytes))
    if not (sequence or isinstance(grid, np.ndarray) and grid.ndim) or any(
        isinstance(phi, bool) or not isinstance(phi, numbers.Real) for phi in grid
    ):
        raise ValueError(f"the phi grid must be a sequence of numbers, got {grid!r}")
    grid = [validate_attack_angle(phi) for phi in grid]
    if not grid:
        raise ValueError("the phi grid is empty")
    return grid, integer_argument("trials", trials, 1), integer_argument("seed", seed, 0, MAX_SEED)


def sample_security_frequency(grid: Sequence[float], trials: int, seed: int) -> list[float]:
    """Empirical security-event frequency at each attack strength of ``grid``.

    Every value is checked by :func:`check_sweep_arguments` before any state
    is built or any draw is made; the frequencies are the ``empirical``
    column of the checked values' :func:`sweep_rows`.
    """
    rows = sweep_rows(*check_sweep_arguments(grid, trials, seed), DEFAULT_EPSILON)
    return [row.empirical for row in rows]


def sweep_rows(grid: list[float], trials: int, seed: int, epsilon: float) -> list[SweepRow]:
    """The sweep's rows, one per point, on values :func:`check_sweep_arguments` returned.

    Each sample stands for one announced QKD-set trial against the attacked
    channel (target Charlie), and draws only whether it is a security
    event: its draw lies below the mean over the three QKD axis sets of the
    event mass in the point's :func:`~wqsc.states.attacked_w_state`.  All
    points' masses are read by one :func:`~wqsc.bell.event_masses` call
    from one :func:`~wqsc.qcore.outcome_distributions` pass over the
    grid's amplitude stack, :func:`~wqsc.states.attacked_w_amplitudes`.
    Point ``k`` draws from its own Philox key, ``seed + (k + 1) * 2**64``,
    so its frequency depends on its index and not on the rest of the grid.
    A row's ``p_bar`` is the closed form
    :func:`~wqsc.bell.averaged_security_probability`, ``sigma`` the
    :func:`binomial_sigma` of ``trials`` samples at it, and ``verdict`` the
    :func:`security_verdict` of ``empirical`` at ``epsilon``, a value
    :func:`check_epsilon` returned.  The values are not checked again:
    ``wqsc sweep-phi`` checks them before it opens its output.
    """
    dists = outcome_distributions(attacked_w_amplitudes(grid))
    rows = []
    for point, (phi, masses) in enumerate(zip(grid, event_masses(dists).tolist())):
        empirical = _event_frequency(sum(masses) / len(masses), seed + ((point + 1) << 64), trials)
        p_bar = averaged_security_probability(phi)
        verdict = security_verdict(empirical, epsilon)
        rows.append(SweepRow(phi, p_bar, empirical, binomial_sigma(p_bar, trials), verdict))
    return rows


def _event_frequency(p_bar: float, key: int, trials: int) -> float:
    """Event frequency over ``trials`` sweep samples, read from word 0 of Philox ``key``.

    A word ``x`` is an event iff its draw ``x >> 11`` lies below the
    threshold ``t``, that is iff ``x < t * 2**11``: one compare per word.
    At ``t = 2**53`` (``p_bar`` 1) every word is.  Its chunks are released
    as they are counted, so a sweep holds one at a time.
    """
    threshold = _threshold(p_bar)
    if threshold == 1 << 53:  # t * 2**11 is 2**64, above every word
        return 1.0
    bound = np.uint64(threshold << 11)
    events = 0
    for _, raw in _chunks(key, 0, trials):
        events += int(np.count_nonzero(raw < bound))
    return events / trials


def key_accounting(
    key_bits: int,
    success_probability: float,
    trials: int,
    announced_trials: int,
    qubits_per_trial: int = QUBITS_PER_TRIAL,
) -> float:
    """Nominal qubit cost of distributing ``key_bits`` key bits.

    The resource formula is q * K / (P_s * (1 + M/N)).  It is not the
    exact cost q * K / (P_s * (1 - M/N)), whose factor 1 / (1 - M/N) is 1 +
    M/N to first order: the formula divides by that factor where the exact
    form multiplies, so it undercounts, and the two agree only as M/N -> 0.
    The literal consumption q * N is the report's ``qubits_consumed``.
    With three qubits per trial and no announcements the nominal cost per
    key bit is 12 for QKD, 24 for PQSS, and 8 for the synthesis protocol.
    """
    key_bits = integer_argument("key_bits", key_bits, 0)
    success_probability = real_argument("success_probability", success_probability)
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(f"success_probability must lie in (0, 1], got {success_probability!r}")
    trials = integer_argument("trials", trials, 1)
    announced_trials = integer_argument("announced_trials", announced_trials, 0, trials)
    qubits_per_trial = integer_argument("qubits_per_trial", qubits_per_trial, 1)
    ratio = announced_trials / trials
    return qubits_per_trial * key_bits / (success_probability * (1.0 + ratio))


# The RunReport columns that count trials: each is a sum over the run's
# (axis set, outcome string, announced) cells of count x weight, with the
# weight a function of the mode and the dealer alone.
_COUNT_FIELDS = (
    "announced_trials", "qkd_axis_trials", "pqss_axis_trials", "qkd_success_trials",
    "pqss_success_trials", "success_trials", "key_bits_ab", "key_bits_ac", "key_bits_bc",
    "pqss_secret_bits", "total_key_bits", "discarded_trials", "qkd_disagreements",
    "pqss_reconstruction_failures", "announced_qkd_trials", "security_events",
)


def _cell_fields(
    mode: ProtocolMode,
    dealer: Party,
    axes: AxisSet,
    outcomes: tuple[Outcome, Outcome, Outcome],
    announced: bool,
) -> Iterator[str]:
    """The count fields to which one trial in this cell adds 1."""
    qkd = axes.decider is not None
    bits = _kept_bits(mode, axes, outcomes)
    if qkd:
        yield "qkd_axis_trials"
    elif axes == PQSS_AXIS_SET:
        yield "pqss_axis_trials"
    if bits is not None:
        yield "qkd_success_trials" if qkd else "pqss_success_trials"
        yield "success_trials"

    if announced:
        yield "announced_trials"
        if qkd:
            yield "announced_qkd_trials"
            if is_event(axes, outcomes):
                yield "security_events"
        return

    if bits is None:
        yield "discarded_trials"
    elif qkd:
        x1, x2 = bits
        yield f"key_bits_{x1.letter}{x2.letter}".lower()
        yield "total_key_bits"
        if is_event(axes, outcomes):  # a kept trial's decider saw plus
            yield "qkd_disagreements"
    else:
        yield "pqss_secret_bits"
        yield "total_key_bits"
        shares = [bits[p] for p in Party if p != dealer]
        try:
            recovered = reconstruct_dealer_bit(shares[0], shares[1])
        except InconsistentSharesError:
            recovered = None
        if recovered is not bits[dealer]:
            yield "pqss_reconstruction_failures"


@functools.cache
def _weights(mode: ProtocolMode, dealer: Party) -> np.ndarray:
    """The report's weight matrix, shape (len(_COUNT_FIELDS), 128), read-only.

    Entry ``[f, 16s + 8u + o]`` is 1 iff a trial on axis set ``s``, outcome
    string ``o`` and announced iff ``u`` is 0 adds 1 to ``_COUNT_FIELDS[f]``, so a
    run's count columns are this matrix times its 128 cell counts.  It is
    built on first use for each (mode, dealer), not at import.
    """
    rows = {name: row for row, name in enumerate(_COUNT_FIELDS)}
    weights = np.zeros((len(_COUNT_FIELDS), _CELLS), dtype=np.int64)
    for cell, (axes, outcomes, announced) in enumerate(_CELL_TABLE):
        for name in _cell_fields(mode, dealer, axes, outcomes, announced):
            weights[rows[name], cell] = 1
    weights.flags.writeable = False
    return weights


def cell_counts(config: ProtocolConfig) -> np.ndarray:
    """The run's fresh ``(128,)`` int64 counts at cell ``16s + 8u + o``; no record is built.

    Each chunk's trial keys are sorted in place: cell ``j`` counts the keys
    below cell key ``j + 1`` less those below cell key ``j``.
    """
    cell_keys = _trees(config.attack, config.announce_rate)
    counts = np.zeros(_CELLS, dtype=np.int64)
    for _, raw in _chunks(config.seed, 0, config.trials):
        keys = _trial_keys(raw)
        keys.sort()
        below = keys.searchsorted(cell_keys)
        counts += below[1:] - below[:-1]
    return counts


def cell_probabilities(config: ProtocolConfig) -> np.ndarray:
    """The exact law :func:`cell_counts` draws from: a fresh ``(128,)`` float array, same order.

    A cell's probability is its width, the gap to the next cell key shifted
    back by 7 (a set's last cell ends at ``2**53``), times ``2**-56``, exact.
    """
    return (np.diff(_trees(config.attack, config.announce_rate)) >> np.uint64(7)) * 2.0**-56


def report_from_counts(config: ProtocolConfig, counts: np.ndarray) -> RunReport:
    """The report of a run of ``config`` whose cells hold ``counts``, else ValueError.

    ``counts`` must be a ``(128,)`` int64 array of entries >= 0 summing to
    ``config.trials``.  The count columns are the (mode, dealer) weight
    matrix times ``counts``, and the rates and verdict follow from them.
    """
    # As uint64 a negative entry is >= 2**63, so one max keeps every entry in [0, trials].
    if not (isinstance(counts, np.ndarray) and counts.shape == (128,) and counts.dtype == np.int64
            and counts.view(np.uint64).max() <= config.trials and counts.sum() == config.trials):
        raise ValueError("counts must be a (128,) int64 array of entries >= 0 summing to trials")
    columns = dict(zip(_COUNT_FIELDS, (_weights(config.mode, config.dealer) @ counts).tolist()))
    trials = config.trials
    total_key_bits = columns["total_key_bits"]
    p_s = MODE_SUCCESS_PROBABILITY[config.mode]
    checked = columns["announced_qkd_trials"]
    frequency = columns["security_events"] / checked if checked else None
    return RunReport(
        mode=config.mode,
        trials=trials,
        seed=config.seed,
        announce_rate=config.announce_rate,
        attack_phi=config.attack.phi if config.attack is not None else None,
        attack_target=config.attack.target if config.attack is not None else None,
        epsilon=config.epsilon,
        dealer=config.dealer,
        empirical_success_rate=columns["success_trials"] / trials,
        analytic_success_probability=p_s,
        security_event_frequency=frequency,
        qubits_consumed=QUBITS_PER_TRIAL * trials,
        formula_qubits=key_accounting(total_key_bits, p_s, trials, columns["announced_trials"]),
        qubits_per_key_bit=QUBITS_PER_TRIAL * trials / total_key_bits if total_key_bits else None,
        security_verdict=security_verdict(frequency, config.epsilon),
        **columns,
    )


def run_protocol(config: ProtocolConfig) -> RunReport:
    """Execute all trials and aggregate; identical configs give identical reports."""
    return report_from_counts(config, cell_counts(config))


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of an empirical frequency of n Bernoulli(p) draws."""
    p, n = real_argument("p", p), integer_argument("n", n, 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return math.sqrt(p * (1.0 - p) / n)
