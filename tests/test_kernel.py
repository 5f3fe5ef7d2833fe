"""The interval-tree trial kernel against its scalar oracle and the statevector.

The kernel samples each run trial from one word of a counter-based Philox
stream: its draw first meets the announcement split ``ann``, then walks an
integer interval tree over its half, ``[0, ann)`` or ``[ann, 2**53)``,
built from the source's exact outcome distribution.  These tests check that
it lands, word for word, where the scalar oracle's intervals put it, on
both sides of every split; that the trees' widths are the distribution's
masses, within a derived bound, and that cells unreachable in the
chain-rule walk over the statevector are unreachable in both halves; and
that neither the chunk size nor the order in which trials are computed
changes a result.
"""

import dataclasses
import hashlib
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TREE_SPAN,
    announce_split,
    gather_outcome_distributions,
    kernel_intervals,
    nested_cell_bounds,
    oracle_intervals,
    oracle_table,
    oracle_trial,
    philox_block,
    philox_words,
    unit,
)
from wqsc import (
    Party,
    ProtocolConfig,
    ProtocolMode,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    event_masses,
    ghz_state,
    iter_trials,
    outcome_distribution,
    run_protocol,
    run_trial,
    w_state,
)
from wqsc import bell, protocol
from wqsc.states import attacked_w_amplitudes
from test_determinism import ATTACK_FLAGS, RUN_DIGESTS, RUN_FLAGS, digest
from wqsc.cli import main

HALF_PI = math.pi / 2.0
TARGETS = (None, Party.ALICE, Party.BOB, Party.CHARLIE)


def source_for(phi, target):
    attack = None if target is None else UnitaryCouplingAttack(phi, target)
    return apply_attack(w_state(), attack)


def kernel_cells(source, words, announce_rate):
    """The engine's cell ``16s + 8u + o`` of each raw word, ``u`` 1 if unannounced."""
    announce = protocol._threshold(announce_rate)
    bounds = protocol._cell_bounds(outcome_distribution(source), announce)
    return protocol._trial_cells(bounds, np.array(words, dtype=np.uint64), announce).tolist()


def kernel_trial(source, word, announce_rate):
    cell = kernel_cells(source, [word], announce_rate)[0]
    return cell >> 4, cell & 7, not cell & 8


def word(k, low_bits=0):
    """A raw Philox word whose draw ``x >> 11`` is ``k``."""
    return k << 11 | low_bits


def assert_cell_matches_oracle(source, word, announce_rate):
    set_index, outcome_index, announced = kernel_trial(source, word, announce_rate)
    axes, outcomes, oracle_announced = oracle_trial(source, word, announce_rate)
    assert bell.ALL_AXIS_SETS[set_index] == axes
    assert bell.OUTCOME_STRINGS[outcome_index] == outcomes
    assert announced == oracle_announced
    assert outcome_distribution(source)[set_index, outcome_index] > 0.0


def zero_branch_cells(table):
    """(8, 8) mask: whether a cell's chain-rule path has a branch of probability 0."""
    cells = np.zeros((8, 8), dtype=bool)
    for s, o in itertools.product(range(8), repeat=2):
        a, b, c = bell.OUTCOME_STRINGS[o]
        nodes = ((0, a), (1 + a, b), (3 + 2 * a + b, c))
        branches = [table[s, n] if bit == 0 else 1.0 - table[s, n] for n, bit in nodes]
        cells[s, o] = min(branches) == 0.0
    return cells


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
raw_words = st.integers(min_value=0, max_value=2**64 - 1)
# Announced halves from empty (0) to all but 1 unit (the largest rate below 1).
ANNOUNCE_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, float(np.nextafter(1.0, 0.0)))
# Attack strengths with branches of subnormal mass (8.4e-161, 5e-324), of
# mass far below 2**-53 (1e-12, pi/2, where cos(phi) = 6.1e-17) and none (0).
PINNED_PHIS = (0.0, 1e-12, HALF_PI, 8.4e-161, 5e-324)


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(min_value=0.0, max_value=HALF_PI),
        target=st.sampled_from(TARGETS),
        word=raw_words,
        announce_rate=unit_floats,
    )
    # Branches of subnormal mass, beside draws of exactly 0 and the largest draw.
    @example(phi=8.4e-161, target=Party.ALICE, word=0, announce_rate=0.5)
    @example(phi=8.4e-161, target=Party.ALICE, word=7, announce_rate=0.5)
    @example(phi=8.4e-161, target=Party.ALICE, word=2**64 - 1, announce_rate=0.5)
    def test_kernel_cell_equals_oracle(self, phi, target, word, announce_rate):
        assert_cell_matches_oracle(source_for(phi, target), word, announce_rate)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("phi", [0.0, 0.4, HALF_PI])
    def test_draws_at_each_threshold(self, phi, target):
        # Every split of a set's two trees is the bound of a leaf interval.
        # A draw k equal to a split K lies in the minus child, k = K - 1 in
        # the plus child; the announcement split ann, the bound between the
        # halves, splits the same way at each rate.  Kernel and oracle must
        # agree at both sides of every split.  The word's bits 3 to 10,
        # which the shift drops and the axis set does not read, are set to
        # check that they are dropped.
        source = source_for(phi, target)
        dist = outcome_distribution(source)
        rate = 0.3
        ann = announce_split(rate)
        for set_index in range(8):
            splits = {
                bound
                for root in ((0, ann), (ann, TREE_SPAN))
                for interval in oracle_intervals(dist[set_index], *root)
                for bound in interval
            }
            for split in splits:
                for k in (split - 1, split):
                    if 0 <= k < TREE_SPAN:
                        assert_cell_matches_oracle(source, word(k, 0x7F8 | set_index), rate)
        for rate, set_index in itertools.product(ANNOUNCE_RATES, range(8)):
            threshold = int(protocol._threshold(rate))
            for k in (threshold - 1, threshold):
                if 0 <= k < TREE_SPAN:
                    assert_cell_matches_oracle(source, word(k, set_index), rate)

    @pytest.mark.parametrize("rate", [0.0, 0.3, math.nextafter(1.0, 0.0)])
    def test_announcement_compare_at_its_threshold(self, rate):
        # The kernel compares the draw ``x >> 11`` with the threshold, so the
        # word's low bits, the axis set's among them, must not decide.  The
        # largest rate below 1 has the largest threshold, 2**53 - 1.
        threshold = int(protocol._threshold(rate))
        assert threshold < TREE_SPAN
        words = [word(k, low) for k in (threshold - 1, threshold) if k >= 0 for low in (0, 2047)]
        cells = kernel_cells(w_state(), words, rate)
        assert [not cell & 8 for cell in cells] == [w >> 11 < threshold for w in words]


class TestTreeConstruction:
    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI), rate=st.sampled_from(ANNOUNCE_RATES))
    @example(phi=HALF_PI, rate=0.1)
    @example(phi=8.4e-161, rate=0.1)  # a branch of subnormal mass
    @example(phi=0.0, rate=0.1)
    @pytest.mark.parametrize("target", TARGETS)
    def test_tree_equals_oracle_intervals(self, target, phi, rate):
        ann = announce_split(rate)
        roots = ((0, ann), (ann, TREE_SPAN))
        for source in (source_for(phi, target), attacked_w_state(phi)):
            oracle = [
                [list(map(list, oracle_intervals(row, *root))) for root in roots]
                for row in outcome_distribution(source)
            ]
            assert kernel_intervals(source, rate).tolist() == oracle

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI), target=st.sampled_from(TARGETS))
    @example(phi=8.4e-161, target=Party.ALICE)
    @example(phi=HALF_PI, target=Party.CHARLIE)
    def test_widths_are_the_distribution(self, phi, target):
        source = source_for(phi, target)
        dist = outcome_distribution(source)
        ann = announce_split(protocol.DEFAULT_ANNOUNCE_RATE)
        intervals = kernel_intervals(source, protocol.DEFAULT_ANNOUNCE_RATE)
        for half, span in enumerate((ann, TREE_SPAN - ann)):
            widths = intervals[:, half, :, 1] - intervals[:, half, :, 0]
            assert (widths.sum(axis=1) == span).all()
            assert (widths[dist == 0.0] == 0).all()
            assert np.max(np.abs(widths / span - dist)) <= 1e-12

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("phi", PINNED_PHIS)
    def test_unreachable_cells_are_the_chain_rule_walks(self, phi, target):
        # A cell of nonzero mass can still get width 0: its share of a node
        # rounds away.  At rate 0 the unannounced half is the whole of
        # [0, 2**53), and its unreachable cells are exactly those whose
        # sequential measurement path has a branch of probability exactly 0.
        # A narrower half can round more away, but at every rate each such
        # cell has width 0 in both halves.
        source = source_for(phi, target)
        zero_branch = zero_branch_cells(oracle_table(source))
        for rate in ANNOUNCE_RATES:
            intervals = kernel_intervals(source, rate)
            unreachable = intervals[..., 1] == intervals[..., 0]
            assert unreachable[:, 0][zero_branch].all() and unreachable[:, 1][zero_branch].all()
            if rate == 0.0:
                assert np.array_equal(unreachable[:, 1], zero_branch)

    def test_cells_of_nonzero_mass_can_be_unreachable(self):
        # At 8.4e-161 on A, cells of mass 5.9e-322 sit beside a sibling of
        # mass 1/3, so their node's p rounds to 1 and they get width 0 in
        # both halves.
        source = source_for(8.4e-161, Party.ALICE)
        dist = outcome_distribution(source)
        intervals = kernel_intervals(source, protocol.DEFAULT_ANNOUNCE_RATE)
        for half in (0, 1):
            rounded_away = (intervals[:, half, :, 1] == intervals[:, half, :, 0]) & (dist > 0.0)
            assert rounded_away.any()
            assert np.max(dist[rounded_away]) < 1e-320

    @pytest.mark.parametrize(
        "target,phi", [(None, 0.0)] + list(itertools.product(Party, PINNED_PHIS))
    )
    def test_halves_keep_the_announcement_exact_and_bound_each_leaf(self, target, phi):
        """What one word per trial gives up: resolution within each half, not P(announced).

        Each set's announced leaves tile ``[0, ann)`` and its unannounced
        leaves ``[ann, 2**53)``, so P(announced) is ``ann * 2**-53`` on
        every set.  A leaf's width ``w`` lies within ``B`` of ``dist[s, o] *
        H``, ``H`` its half's width.  The bound: a node of width ``w_d``
        gives its plus child ``ceil(fl(fl(plus / total) * w_d))``.  On
        party ``d``'s node (0 for A), ``plus`` is a float sum of ``2 - d``
        roundings over the row's cells and ``total`` of ``3 - d``, and the
        quotient and the product round once each, so ``fl(...)`` is ``p *
        w_d * (1 + eta)``, ``p`` the exact ratio, with ``|eta| <=
        gamma(7 - 2d)``, ``gamma(n) = n u / (1 - n u)``, ``u = 2**-53``
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.3).
        The ``ceil`` adds less than 1, and the minus child, ``w_d`` minus
        the plus child, takes the same error with its sign flipped, so each
        child's width is its exact share of ``w_d`` within ``1 + gamma(7 -
        2d) * H``.  The three levels' errors add, each scaled by exact
        ratios of at most 1, and the exact ratios multiply to ``dist[s, o] /
        S``, ``S`` the exact sum of the row.  So ``|w - dist[s, o] * H| <=
        3 + (gamma(7) + gamma(5) + gamma(3)) * H + dist[s, o] * H * |S - 1| /
        S``, about 18 units at most.  A subnormal quotient errs by at most
        ``2**-1075`` absolute instead, which times ``H`` is far below
        ``gamma(3) * H``.
        """
        source = source_for(phi, target)
        dist = outcome_distribution(source)
        u = Fraction(1, 2**53)
        gamma = sum(n * u / (1 - n * u) for n in (7, 5, 3))
        for rate in ANNOUNCE_RATES:
            ann = announce_split(rate)
            intervals = kernel_intervals(source, rate)
            widths = (intervals[..., 1] - intervals[..., 0]).tolist()
            for s, row in enumerate(dist.tolist()):
                row_sum = sum(map(Fraction, row))
                for half, span in enumerate((ann, TREE_SPAN - ann)):
                    assert sum(widths[s][half]) == span
                    for o, mass in enumerate(row):
                        ideal = Fraction(mass) * span
                        bound = 3 + gamma * span + ideal * abs(row_sum - 1) / row_sum
                        assert abs(widths[s][half][o] - ideal) <= bound, (rate, s, half, o)

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: "W" if t is None else t.letter)
    @pytest.mark.parametrize("rate", [0.0, 1e-300, 0.1, 0.3, math.nextafter(1.0, 0.0)])
    def test_trees_are_built_once_per_key_and_read_only(self, rate, target):
        # Every run with this attack and rate reads these bounds; a write would change them all.
        attack = None if target is None else UnitaryCouplingAttack(0.7, target)
        cached = protocol._trees(attack, rate)
        assert cached is protocol._trees(attack, rate)
        announce, bounds = cached
        assert not bounds.flags.writeable
        assert announce == protocol._threshold(rate)
        built = protocol._cell_bounds(outcome_distribution(source_for(0.7, target)), announce)
        assert bounds.tobytes() == built.tobytes()

    def test_interleaved_targets_read_their_own_trees(self):
        # One (phi, rate) on each target and unattacked, in one process and in
        # both orders: each report is the one its config gives alone, so no
        # target's trees are handed to another through the cache.
        configs = [
            ProtocolConfig(ProtocolMode.SYNTH, trials=3000, seed=9, announce_rate=0.4,
                           attack=None if target is None else UnitaryCouplingAttack(1.1, target))
            for target in TARGETS
        ]
        alone = []
        for config in configs:
            protocol._trees.cache_clear()
            alone.append(run_protocol(config))
        counts = {dataclasses.replace(r, attack_phi=None, attack_target=None) for r in alone}
        assert len(counts) == len(configs)  # the four sources give four different reports
        protocol._trees.cache_clear()
        assert [run_protocol(config) for config in configs] == alone
        assert [run_protocol(config) for config in configs[::-1]] == alone[::-1]
        protocol._trees.cache_clear()
        assert [run_protocol(config) for config in configs[::-1]] == alone[::-1]
        assert [run_protocol(config) for config in configs] == alone

    def test_pinned_runs_read_the_same_bytes_in_either_order(self, tmp_path):
        # The 12 pinned runs, forward and then backward in one process, each
        # beside an unattacked run at another rate: each still gives its
        # pinned digest, so no rate or attack leaks through the cached trees.
        configs = list(RUN_DIGESTS)
        for mode, fmt, attacked in configs + configs[::-1]:
            argv = ["run", "--mode", mode, *RUN_FLAGS, "--format", fmt]
            argv += ATTACK_FLAGS if attacked else []
            assert digest(tmp_path, *argv) == RUN_DIGESTS[mode, fmt, attacked]
            other = ("--trials", "50", "--seed", "1", "--announce-rate", "0.6")
            assert digest(tmp_path, "run", "--mode", mode, *other)[0] == 0


# Attack angles with subnormal or vanishing squares, exact zeros and the
# maximal coupling, then 300 seeded angles.
WALK_PHIS = [0.0, 5e-324, 8.4e-161, 1e-160, math.pi / 4, HALF_PI] + (
    np.random.default_rng(2929).uniform(0.0, HALF_PI, 300).tolist()
)
WALK_RATES = (0.0, 1e-300, 0.05, 0.1, 0.2, 0.3, math.nextafter(1.0, 0.0))


class TestFlatWalk:
    """The cell bounds hold the former nested walk's splits, byte for byte (``helpers``)."""

    @pytest.mark.parametrize("target", list(Party), ids=lambda party: party.letter)
    def test_attacked_states(self, target):
        for phi in WALK_PHIS:
            dist = outcome_distribution(attacked_w_state(phi, target))
            for rate in WALK_RATES:
                announce = protocol._threshold(rate)
                live = protocol._cell_bounds(dist, announce)
                assert live.tobytes() == nested_cell_bounds(dist, announce).tobytes(), phi

    def test_w_and_ghz(self):
        for state, rate in itertools.product((w_state(), ghz_state()), WALK_RATES):
            dist, announce = outcome_distribution(state), protocol._threshold(rate)
            live = protocol._cell_bounds(dist, announce)
            assert live.tobytes() == nested_cell_bounds(dist, announce).tobytes()

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: "W" if t is None else t.letter)
    def test_each_set_ascends_from_zero_through_ann(self, target):
        # Set s's 16 cells tile [0, 2**53) in order: the announced half's
        # first cell starts at 0, the unannounced half's at ann, and no
        # bound falls below the one before or beyond 2**53.
        for phi in [0.0] if target is None else WALK_PHIS[:6] + WALK_PHIS[6::25]:
            dist = outcome_distribution(source_for(phi, target))
            for rate in WALK_RATES:
                announce = protocol._threshold(rate)
                bounds = protocol._cell_bounds(dist, announce).reshape(8, 16)
                assert (bounds[:, 0] == 0).all() and (bounds[:, 8] == announce).all()
                assert (np.diff(bounds.astype(np.int64)) >= 0).all(), (phi, rate)
                assert (bounds <= TREE_SPAN).all()

    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: "W" if t is None else t.letter)
    def test_tree_misses_match_the_reference_path(self, target):
        # A _trees miss reads its source through outcome_distribution; the
        # former gather levels and the nested walk give the same bounds.
        build = protocol._trees.__wrapped__  # the miss path, past the cache
        phis = [None] if target is None else WALK_PHIS[:6] + WALK_PHIS[6::25]
        for phi in phis:
            if phi is None:
                attack, row = None, w_state().amplitudes
            else:
                attack = UnitaryCouplingAttack(phi, target)
                row = attacked_w_amplitudes([phi], target)[0]
            dist = gather_outcome_distributions([row])[0]
            for rate in WALK_RATES:
                announce, bounds = build(attack, rate)
                assert announce == protocol._threshold(rate)
                assert bounds.tobytes() == nested_cell_bounds(dist, announce).tobytes(), phi


class TestChunking:
    RUN = ("run", "--mode", "synth", "--trials", "1000", "--seed", "77",
           "--announce-rate", "0.3", "--phi", "1.0", "--target", "B", "--format", "csv")
    SWEEP = ("sweep-phi", "--grid", "0.3,1.2", "--trials", "500", "--seed", "8")

    CHUNK = protocol._CHUNK_TRIALS
    # Longer than two chunks of the engine's size, ending mid-chunk.
    LONG_RUN = ("run", "--mode", "qkd", "--trials", str(2 * CHUNK + 1001), "--seed", "5",
                "--announce-rate", "0.2", "--phi", "0.7", "--target", "A")

    @staticmethod
    def digest(tmp_path, argv):
        out = tmp_path / "out"
        main([*argv, "--output", str(out)])
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_reports_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        digests = set()
        for chunk in (1, 7, 4096, self.CHUNK):
            monkeypatch.setattr(protocol, "_CHUNK_TRIALS", chunk)
            digests.add((self.digest(tmp_path, self.RUN), self.digest(tmp_path, self.SWEEP)))
        assert len(digests) == 1

    def test_run_of_more_than_two_chunks_equals_chunks_of_seven(self, tmp_path, monkeypatch):
        engine = self.digest(tmp_path, self.LONG_RUN)
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", 7)
        assert self.digest(tmp_path, self.LONG_RUN) == engine

    @pytest.mark.parametrize(
        "chunk,indices",
        [(7, (0, 6, 7, 13, 14)), (4096, (4095, 4096)), (CHUNK, (CHUNK - 1, CHUNK))],
    )
    def test_replay_matches_iteration_across_chunk_boundaries(self, monkeypatch, chunk, indices):
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", chunk)
        config = ProtocolConfig(
            ProtocolMode.SYNTH, trials=max(indices) + 5, seed=31, announce_rate=0.4,
            attack=UnitaryCouplingAttack(HALF_PI, Party.CHARLIE),
        )
        records = list(iter_trials(config))
        for index in indices:
            assert run_trial(config, index) == records[index]


def chunk_words(key: int, first: int, count: int) -> list[int]:
    """The raw words ``protocol._chunks`` yields, in order."""
    return [word for _, raw in protocol._chunks(key, first, count) for word in raw.tolist()]


class TestPhiloxInPythonIntegers:
    """The stream ``_chunks`` reads, against Philox4x64-10 in Python integers (no numpy)."""

    # Random123's published answers for Philox4x64-10: (counter, key,
    # words), counter and key all zero, and both filled with digits of pi.
    KNOWN_ANSWERS = [
        (0, 0, [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]),
        (
            0x082EFA98EC4E6C89_A4093822299F31D0_13198A2E03707344_243F6A8885A308D3,
            0xBE5466CF34E90C6C_452821E638D01377,
            [0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6],
        ),
    ]

    @pytest.mark.parametrize("counter, key, words", KNOWN_ANSWERS, ids=["zeros", "pi"])
    def test_known_answers(self, counter, key, words):
        assert philox_block(counter, key) == words
        # Block c holds words 4(c - 1) to 4(c - 1) + 3; block 0 follows the
        # counter's last value, 2**256 - 1.
        first = (counter - 1) % 2**256 * 4
        assert philox_words(key, first, 4) == words
        assert chunk_words(key, first, 4) == words

    @pytest.mark.parametrize("key, first, count", [
        (1, 0, 9),
        (2**64 - 5, 0, 300),
        (3, 5, 11),  # a first word inside a block
        (2**64 - 1, 2, 13),
        (7, (2**64 - 1) * 4 + 1, 10),  # the counter carries into its second word
        (11, (2**256 - 1) * 4 + 3, 6),  # and wraps at 2**256
    ], ids=["seed-1", "seed-max-minus-4", "mid-block", "seed-max", "carry", "wrap"])
    def test_run_keys(self, key, first, count):
        assert chunk_words(key, first, count) == philox_words(key, first, count)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("point", [0, 1, 6])
    def test_sweep_keys(self, seed, point):
        key = seed + (point + 1) * 2**64
        assert chunk_words(key, 0, 64) == philox_words(key, 0, 64)

    def test_chunks_of_seven(self, monkeypatch):
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", 7)
        assert chunk_words(5, 3, 40) == philox_words(5, 3, 40)


class TestStreamContract:
    """The documented key and word layout, replayed through the oracles."""

    def test_run_trial_words(self):
        # Trial i reads raw word i of key seed, which is position i & 3 of
        # the block at counter i >> 2.
        config = ProtocolConfig(
            ProtocolMode.SYNTH, trials=300, seed=2**64 - 5, announce_rate=0.3,
            attack=UnitaryCouplingAttack(1.1, Party.ALICE),
        )
        source = source_for(1.1, Party.ALICE)
        stream = np.random.Philox(key=config.seed).random_raw(config.trials)
        for record in iter_trials(config):
            i = record.index
            block = np.random.Philox(key=config.seed, counter=i >> 2).random_raw(4)
            assert int(block[i & 3]) == int(stream[i])
            expected = oracle_trial(source, stream[i], config.announce_rate)
            assert (record.axes, record.outcomes, record.announced) == expected

    def test_interleaved_runs_yield_their_solo_records(self, monkeypatch):
        # iter_trials holds its Philox stream across yields, so each call
        # needs its own.  Two generators stepped in turn, with a whole
        # run_protocol call between steps, must each yield what they yield
        # alone.  Chunks of 7 make every generator draw new words while the
        # others are part-way through theirs.
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", 7)
        configs = [
            ProtocolConfig(ProtocolMode.SYNTH, trials=40, seed=3, announce_rate=0.3),
            ProtocolConfig(
                ProtocolMode.QKD, trials=40, seed=4, announce_rate=0.5,
                attack=UnitaryCouplingAttack(HALF_PI, Party.BOB),
            ),
        ]
        other = ProtocolConfig(ProtocolMode.PQSS, trials=30, seed=5, announce_rate=0.2)
        solo = [list(iter_trials(config)) for config in configs]
        report = run_protocol(other)
        generators = [iter_trials(config) for config in configs]
        interleaved = [[], []]
        for _ in range(40):
            for records, generator in zip(interleaved, generators):
                records.append(next(generator))
                assert run_protocol(other) == report
        assert interleaved == solo

    @pytest.mark.parametrize("idle", [False, True], ids=["built", "re-keyed"])
    @pytest.mark.parametrize("index", [6, 2**66 + 5, 2**130 + 3, 2**194 + 2, 2**258 - 1])
    def test_run_trial_reads_its_counter_in_every_word(self, monkeypatch, index, idle):
        # The counter i >> 2 fills one more of its four 64-bit words at each
        # index; a built and a re-keyed instance both read the word that a
        # fresh Philox(key=seed, counter=i >> 2) gives at position i & 3.
        spent = np.random.Philox(key=1, counter=2**200)
        spent.random_raw(3)  # mid-block, so a stale buffer would show
        monkeypatch.setattr(protocol, "_IDLE_STREAMS", [spent] if idle else [])
        config = ProtocolConfig(
            ProtocolMode.SYNTH, trials=1, seed=2**64 - 3, announce_rate=0.3,
            attack=UnitaryCouplingAttack(0.9, Party.BOB),
        )
        word = np.random.Philox(key=config.seed, counter=index >> 2).random_raw(4)[index & 3]
        record = run_trial(config, index)
        expected = oracle_trial(source_for(0.9, Party.BOB), word, config.announce_rate)
        assert (record.axes, record.outcomes, record.announced) == expected
        assert len(protocol._IDLE_STREAMS) == 1  # the stream is idle again

    def test_threads_give_their_solo_results(self, monkeypatch):
        # Four threads, each running one seed's run_protocol and iter_trials
        # again and again at once, with a switch interval of 1 us and chunks of
        # 7 words, so that streams are taken and given back while others
        # are in flight.  Each thread must see its solo results every time.
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", 7)
        configs = [
            ProtocolConfig(
                mode, trials=60, seed=seed, announce_rate=0.4,
                attack=None if seed % 2 else UnitaryCouplingAttack(1.2, Party(seed % 3)),
            )
            for seed, mode in zip((11, 12, 13, 14), itertools.cycle(ProtocolMode))
        ]
        solo = [(run_protocol(config), list(iter_trials(config))) for config in configs]
        start = threading.Barrier(len(configs))
        seen = [[] for _ in configs]

        def work(config, results):
            start.wait(timeout=60)
            for _ in range(15):
                results.append((run_protocol(config), list(iter_trials(config))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=pair) for pair in zip(configs, seen)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for alone, results in zip(solo, seen):
            assert results == [alone] * 15

    def test_closed_generator_and_replayed_trial_leave_the_next_run_unchanged(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=500, seed=21, announce_rate=0.2)
        other = ProtocolConfig(
            ProtocolMode.SYNTH, trials=500, seed=22, announce_rate=0.3,
            attack=UnitaryCouplingAttack(0.6, Party.ALICE),
        )
        report, records = run_protocol(config), list(iter_trials(config))
        idle = len(protocol._IDLE_STREAMS)
        generator = iter_trials(other)
        for _ in range(3):
            next(generator)
        assert len(protocol._IDLE_STREAMS) == idle - 1  # the generator holds one
        generator.close()
        assert len(protocol._IDLE_STREAMS) == idle
        run_trial(other, 2**130 + 3)
        assert len(protocol._IDLE_STREAMS) == idle
        assert run_protocol(config) == report
        assert list(iter_trials(config)) == records

    def test_sweep_point_words(self):
        # Point k reads key seed + (k + 1) * 2**64; sample j is raw word j, an
        # event iff its uniform lies below the mean event probability of the
        # three QKD axis sets.  The probe sits at index 2.
        seed, grid, samples = 19, [0.4, HALF_PI, 1.3], 400
        expected = []
        for point, phi in enumerate(grid):
            p_bar = sum(event_masses(outcome_distribution(attacked_w_state(phi))).tolist()) / 3
            words = np.random.Philox(key=seed + ((point + 1) << 64)).random_raw(samples)
            expected.append(sum(unit(w) < p_bar for w in words) / samples)
        assert protocol.sample_security_frequency(grid, samples, seed) == expected
        # A point's key depends on its index alone, not on the rest of the grid.
        assert protocol.sample_security_frequency(grid[:2], samples, seed) == expected[:2]

    SEEDED_THRESHOLDS = np.random.default_rng(34).integers(2, 2**53 - 1, 6).tolist()

    @pytest.mark.parametrize("threshold", [0, 1, 2**53 - 1, 2**53] + SEEDED_THRESHOLDS)
    def test_sweep_counts_each_word_in_one_compare(self, monkeypatch, threshold):
        # A word is an event iff x >> 11 < t, read as x < t * 2**11; the
        # words hold both ends of the range and each side of t * 2**11.
        edges = [0, 1, 2**64 - 1] + [(threshold << 11) + d for d in (-2, -1, 0, 1, 2)]
        seeded = np.random.PCG64(threshold % 1000).random_raw(500)
        words = np.concatenate(
            [np.array([w for w in edges if 0 <= w < 2**64], dtype=np.uint64), seeded]
        )
        monkeypatch.setattr(protocol, "_chunks", lambda key, first, count: iter([(0, words)]))
        p_bar = math.ldexp(threshold, -53)
        assert protocol._threshold(p_bar) == threshold
        expected = np.count_nonzero(words >> np.uint64(11) < threshold)
        assert protocol._event_frequency(p_bar, 0, words.size) == expected / words.size
