"""The table-driven trial kernel against the sequential statevector oracle.

The kernel samples trials from an exact chain-rule outcome table and a
counter-based Philox stream, comparing raw words with integer thresholds;
these tests check that it reproduces the statevector measurement, driven
by the same words decoded in floating point, word for word, that
unreachable branches stay unreachable, and that neither the chunk size nor
the order in which trials are computed changes a result.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_table, oracle_trial, unit
from wqsc import (
    ALL_AXIS_SETS,
    QKD_AXIS_SETS,
    Axis,
    Outcome,
    Party,
    ProtocolConfig,
    ProtocolMode,
    StateVector,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    is_event,
    iter_trials,
    joint_probability,
    outcome_table,
    run_trial,
    w_state,
)
from wqsc import bell, protocol
from wqsc.cli import main

HALF_PI = math.pi / 2.0
TARGETS = (None, Party.ALICE, Party.BOB, Party.CHARLIE)


def source_for(phi, target):
    attack = None if target is None else UnitaryCouplingAttack(phi, target)
    return apply_attack(w_state(), attack)


def kernel_trial(table, words, announce_rate):
    raw = np.array([words], dtype=np.uint64)
    thresholds = protocol._walk_thresholds(table)
    cell = int(protocol._trial_cells(thresholds, raw, protocol._threshold(announce_rate))[0])
    return cell >> 4, cell >> 1 & 7, bool(cell & 1)


def word(k, low_bits=0):
    """A raw Philox word whose draw ``x >> 11`` is ``k``."""
    return k << 11 | low_bits


def branch_probabilities(table, set_index, outcome_index):
    """The table's conditional probability of each outcome along the string's path."""
    a, b, c = bell.OUTCOME_STRINGS[outcome_index]
    nodes = ((0, a), (1 + a, b), (3 + 2 * a + b, c))
    return [
        table[set_index, node] if bit is Outcome.PLUS else 1.0 - table[set_index, node]
        for node, bit in nodes
    ]


def assert_cell_matches_oracle(source, table, words, announce_rate):
    set_index, outcome_index, announced = kernel_trial(table, words, announce_rate)
    axes, outcomes, oracle_announced = oracle_trial(source, words, announce_rate)
    assert ALL_AXIS_SETS[set_index] == axes
    assert bell.OUTCOME_STRINGS[outcome_index] == outcomes
    assert announced == oracle_announced
    assert min(branch_probabilities(table, set_index, outcome_index)) > 0.0


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
raw_words = st.integers(min_value=0, max_value=2**64 - 1)
HALF = 2**52  # the draw of the uniform 1/2
ANNOUNCE_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, float(np.nextafter(1.0, 0.0)))


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(min_value=0.0, max_value=HALF_PI),
        target=st.sampled_from(TARGETS),
        words=st.lists(raw_words, min_size=4, max_size=4),
        announce_rate=unit_floats,
    )
    # Branches of subnormal mass, selected by draws of exactly 0 on zzz and xxx.
    @example(phi=8.4e-161, target=Party.ALICE, words=[0, 0, 0, 0], announce_rate=0.5)
    @example(phi=8.4e-161, target=Party.ALICE, words=[0, 0, 0, 7], announce_rate=0.5)
    def test_kernel_cell_equals_oracle(self, phi, target, words, announce_rate):
        source = source_for(phi, target)
        table = outcome_table([source])[0]
        assert_cell_matches_oracle(source, table, words, announce_rate)

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI), target=st.sampled_from(TARGETS))
    @example(phi=8.4e-161, target=Party.ALICE)  # a branch of subnormal mass
    def test_unreachable_branches_have_probability_zero(self, phi, target):
        source = source_for(phi, target)
        table = outcome_table([source])[0]
        for set_index, axes in enumerate(ALL_AXIS_SETS):
            total = 0.0
            for outcome_index, outcomes in enumerate(bell.OUTCOME_STRINGS):
                branches = branch_probabilities(table, set_index, outcome_index)
                total += math.prod(branches)
                if min(branches) == 0.0:
                    constraints = [(p, axes.axis_of(p), outcomes[p]) for p in Party]
                    assert joint_probability(source, constraints) <= 1e-12
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("phi", [0.0, 0.4, HALF_PI])
    def test_draws_at_each_threshold(self, phi, target):
        # A draw k equal to a node's threshold K = ceil(P(plus) * 2**53) gives
        # minus, k = K - 1 gives plus; an announcement draw splits the same
        # way at its rate's threshold.  Kernel and oracle must agree at both
        # sides of every split.  The low bits of a measurement word, which
        # the shift drops, are set to check that they are dropped.
        source = source_for(phi, target)
        table = outcome_table([source])[0]
        for set_index, outcomes in itertools.product(range(8), range(8)):
            a, b, _ = bell.OUTCOME_STRINGS[outcomes]
            nodes = (0, 1 + a, 3 + 2 * a + b)
            for slot, node in enumerate(nodes):
                threshold = int(protocol._threshold(table[set_index, node]))
                for k in (threshold - 1, threshold):
                    if not 0 <= k < 2**53:
                        continue
                    words = [word(HALF, 0x7FF)] * 3 + [word(HALF, set_index)]
                    words[slot] = word(k, 0x7FF)
                    assert_cell_matches_oracle(source, table, words, 0.5)
        for rate, set_index in itertools.product(ANNOUNCE_RATES, range(8)):
            threshold = int(protocol._threshold(rate))
            for k in (threshold - 1, threshold):
                if 0 <= k < 2**53:
                    words = [word(HALF)] * 3 + [word(k, set_index)]
                    assert_cell_matches_oracle(source, table, words, rate)


class TestTableConstruction:
    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI))
    # At pi/2, cos(phi) = 6.1e-17 leaves branches of nonzero mass whose
    # probability rounds to exactly 0 or 1: the gate is on probability.
    @example(phi=HALF_PI)
    @example(phi=8.4e-161)  # a branch of subnormal mass
    @example(phi=0.0)
    @pytest.mark.parametrize("target", TARGETS)
    def test_table_equals_oracle_walk(self, target, phi):
        source = source_for(phi, target)
        assert outcome_table([source])[0].tobytes() == oracle_table(source).tobytes()
        swept = attacked_w_state(phi)
        assert outcome_table([swept])[0].tobytes() == oracle_table(swept).tobytes()


def tiny_plus_branch():
    """A four-qubit source whose A=z+ branch has subnormal mass (2.4e-321).

    Its probability is subnormal but not 0, so the table collapses onto it
    and the post-state is rescaled first.  An attack in [0, pi/2] never
    does this before C: at phi = 8.4e-161 on A the subnormal branch is
    C=z+, which only the sequential measurement collapses.
    """
    amps = np.zeros(16, dtype=np.complex128)
    amps[0b0001] = 4.84974226e-161
    amps[0b1000] = amps[0b1100] = amps[0b1010] = 1.0 / math.sqrt(3.0)
    return StateVector(amps)


# Sources of four qubits: every target's attack, the sweep's closed form and
# a source whose table rescales a branch of subnormal mass.
four_qubit_sources = st.one_of(
    st.builds(
        lambda phi, target, closed_form: (
            attacked_w_state(phi) if closed_form else source_for(phi, target)
        ),
        phi=st.one_of(
            st.sampled_from([0.0, HALF_PI, 8.4e-161]),
            st.floats(min_value=0.0, max_value=HALF_PI),
        ),
        target=st.sampled_from(TARGETS[1:]),
        closed_form=st.booleans(),
    ),
    st.builds(tiny_plus_branch),
)


# A stack of 1 to 8 such sources, with a permutation of its indices.
stacks = st.lists(four_qubit_sources, min_size=1, max_size=8).flatmap(
    lambda sources: st.tuples(st.just(sources), st.permutations(range(len(sources))))
)


class TestStackedTables:
    """A stack of sources builds each row as if it were built alone."""

    @settings(max_examples=60, deadline=None)
    @given(stack=stacks)
    # Subnormal-mass rows beside the exact endpoints and a generic attack.
    @example(stack=(
        [source_for(8.4e-161, Party.ALICE), source_for(0.0, Party.BOB), tiny_plus_branch(),
         attacked_w_state(HALF_PI), source_for(0.7, Party.CHARLIE)],
        [3, 0, 4, 2, 1],
    ))
    def test_rows_are_independent(self, stack):
        sources, order = stack
        tables = outcome_table(sources)
        assert tables.shape == (len(sources), len(ALL_AXIS_SETS), 7)
        for source, table in zip(sources, tables):
            assert table.tobytes() == oracle_table(source).tobytes()
            assert table.tobytes() == outcome_table([source])[0].tobytes()
        permuted = outcome_table([sources[k] for k in order])
        assert permuted.tobytes() == tables[order].tobytes()


class TestChunking:
    RUN = ("run", "--mode", "synth", "--trials", "1000", "--seed", "77",
           "--announce-rate", "0.3", "--phi", "1.0", "--target", "B", "--format", "csv")
    SWEEP = ("sweep-phi", "--grid", "0.3,1.2", "--trials", "500", "--seed", "8")

    @staticmethod
    def digest(tmp_path, argv):
        out = tmp_path / "out"
        main([*argv, "--output", str(out)])
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_reports_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        digests = set()
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(protocol, "_CHUNK_TRIALS", chunk)
            digests.add((self.digest(tmp_path, self.RUN), self.digest(tmp_path, self.SWEEP)))
        assert len(digests) == 1

    @pytest.mark.parametrize("chunk,indices", [(7, (0, 6, 7, 13, 14)), (4096, (4095, 4096))])
    def test_replay_matches_iteration_across_chunk_boundaries(self, monkeypatch, chunk, indices):
        monkeypatch.setattr(protocol, "_CHUNK_TRIALS", chunk)
        config = ProtocolConfig(
            ProtocolMode.SYNTH, trials=4100, seed=31, announce_rate=0.4,
            attack=UnitaryCouplingAttack(HALF_PI, Party.CHARLIE),
        )
        for index in indices:
            assert run_trial(config, index) == list(iter_trials(config))[index]


class TestStreamContract:
    """The documented key, counter and slot layout, replayed through the oracle."""

    def test_run_trial_slots(self):
        config = ProtocolConfig(
            ProtocolMode.SYNTH, trials=300, seed=2**64 - 5, announce_rate=0.3,
            attack=UnitaryCouplingAttack(1.1, Party.ALICE),
        )
        source = source_for(1.1, Party.ALICE)
        for record in iter_trials(config):
            words = np.random.Philox(key=config.seed, counter=record.index).random_raw(4)
            expected = oracle_trial(source, words, config.announce_rate)
            assert (record.axes, record.outcomes, record.announced) == expected

    def test_sweep_point_slots(self):
        # Point k reads key seed + (k + 1) * 2**64; the probe sits at index 2.
        seed, grid, samples = 19, [0.4, HALF_PI, 1.3], 400
        expected = []
        for point, phi in enumerate(grid):
            source = attacked_w_state(phi)
            key = seed + ((point + 1) << 64)
            events = 0
            for j in range(samples):
                words = np.random.Philox(key=key, counter=j).random_raw(4)
                axes = QKD_AXIS_SETS[int(unit(words[0]) * 3.0)]
                # The oracle reads a run trial's words: the sweep's
                # measurement words, then a word whose low bits select this
                # set (z as 0, A the highest) and which never announces.
                set_bits = sum(1 << 2 - p for p in Party if axes.axis_of(p) is Axis.X)
                _, outcomes, _ = oracle_trial(source, [*words[1:], set_bits], 0.0)
                events += is_event(axes, outcomes)
            expected.append(events / samples)
        assert protocol.sample_security_frequency(grid, samples, seed) == expected
        # A point's key depends on its index alone, not on the rest of the grid.
        assert protocol.sample_security_frequency(grid[:2], samples, seed) == expected[:2]


def test_sweep_set_thresholds():
    # floor(3u) of u = k * 2**-53 steps from 0 to 1 and from 1 to 2 exactly
    # between c - 1 and c, for the two integer thresholds of the sweep.
    for step, c in enumerate((-(-(2**53) // 3), (2**54 - 1) // 3), start=1):
        assert int((c - 1) * 2.0**-53 * 3.0) == step - 1
        assert int(c * 2.0**-53 * 3.0) == step
        assert protocol._THIRDS[step - 1] == c
