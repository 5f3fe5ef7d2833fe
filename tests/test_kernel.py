"""The table-driven trial kernel against the sequential statevector oracle.

The kernel samples trials from an exact chain-rule outcome table and a
counter-based Philox stream; these tests check that it reproduces the
statevector measurement uniform for uniform, that unreachable branches
stay unreachable, and that neither the chunk size nor the order in which
trials are computed changes a result.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_table, oracle_trial
from wqsc import (
    ALL_AXIS_SETS,
    QKD_AXIS_SETS,
    Axis,
    Outcome,
    Party,
    ProtocolConfig,
    ProtocolMode,
    UnitaryCouplingAttack,
    apply_attack,
    attacked_w_state,
    is_event,
    iter_trials,
    joint_probability,
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


def kernel_trial(table, uniforms, announce_rate):
    u = np.array([uniforms], dtype=np.float64)
    sets, outcomes, announced = protocol._trial_cells(table, u, announce_rate)
    return int(sets[0]), int(outcomes[0]), bool(announced[0])


def branch_probabilities(table, set_index, outcome_index):
    """The table's conditional probability of each outcome along the string's path."""
    a, b, c = bell.OUTCOME_STRINGS[outcome_index]
    nodes = ((0, a), (1 + a, b), (3 + 2 * a + b, c))
    return [
        table[set_index, node] if bit is Outcome.PLUS else 1.0 - table[set_index, node]
        for node, bit in nodes
    ]


def assert_cell_matches_oracle(source, table, uniforms, announce_rate):
    set_index, outcome_index, announced = kernel_trial(table, uniforms, announce_rate)
    axes, outcomes, oracle_announced = oracle_trial(source, uniforms, announce_rate)
    assert ALL_AXIS_SETS[set_index] == axes
    assert bell.OUTCOME_STRINGS[outcome_index] == outcomes
    assert announced == oracle_announced
    assert min(branch_probabilities(table, set_index, outcome_index)) > 0.0


unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestOracleAgreement:
    @settings(max_examples=300, deadline=None)
    @given(
        phi=st.floats(min_value=0.0, max_value=HALF_PI),
        target=st.sampled_from(TARGETS),
        uniforms=st.lists(unit_floats, min_size=8, max_size=8),
        announce_rate=unit_floats,
    )
    # Branches of subnormal mass, selected by draws of exactly 0.
    @example(phi=8.4e-161, target=Party.ALICE, uniforms=[0.0] * 8, announce_rate=0.5)
    @example(phi=8.4e-161, target=Party.ALICE, uniforms=[0.75] * 3 + [0.0] * 5, announce_rate=0.5)
    def test_kernel_cell_equals_oracle(self, phi, target, uniforms, announce_rate):
        source = source_for(phi, target)
        table = protocol._outcome_table(source)
        assert_cell_matches_oracle(source, table, uniforms, announce_rate)

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI), target=st.sampled_from(TARGETS))
    @example(phi=8.4e-161, target=Party.ALICE)  # a branch of subnormal mass
    def test_unreachable_branches_have_probability_zero(self, phi, target):
        source = source_for(phi, target)
        table = protocol._outcome_table(source)
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
        # A draw equal to a node's P(plus) gives minus, the draw just below
        # it gives plus; kernel and oracle must split there identically.
        source = source_for(phi, target)
        table = protocol._outcome_table(source)
        for set_index, outcomes in itertools.product(range(8), range(8)):
            axis_bits = [0.75 if set_index >> shift & 1 else 0.25 for shift in (2, 1, 0)]
            a, b, _ = bell.OUTCOME_STRINGS[outcomes]
            nodes = (0, 1 + a, 3 + 2 * a + b)
            for slot, node in enumerate(nodes):
                p_plus = float(table[set_index, node])
                for u in (p_plus, np.nextafter(p_plus, 0.0)):
                    if not 0.0 <= u < 1.0:
                        continue
                    uniforms = axis_bits + [0.5, 0.5, 0.5, 0.5, 0.0]
                    uniforms[3 + slot] = float(u)
                    assert_cell_matches_oracle(source, table, uniforms, 0.5)


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
        assert protocol._outcome_table(source).tobytes() == oracle_table(source).tobytes()
        swept = attacked_w_state(phi)
        assert protocol._outcome_table(swept).tobytes() == oracle_table(swept).tobytes()


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
            i = record.index
            uniforms = np.random.Generator(np.random.Philox(key=config.seed, counter=2 * i)).random(8)
            expected = oracle_trial(source, uniforms, config.announce_rate)
            assert (record.axes, record.outcomes, record.announced) == expected

    def test_sweep_point_slots(self):
        seed, point_index, phi, samples = 19, 2, 1.3, 400
        source = attacked_w_state(phi)
        key = seed + ((point_index + 1) << 64)
        events = 0
        for j in range(samples):
            u = np.random.Generator(np.random.Philox(key=key, counter=j)).random(4)
            axes = QKD_AXIS_SETS[int(u[0] * 3.0)]
            # The oracle reads run slots: axis draws that select this set,
            # then the sweep's measurement draws.
            axis_draws = [0.25 if axis is Axis.Z else 0.75 for axis in axes.axes]
            _, outcomes, _ = oracle_trial(source, [*axis_draws, *u[1:], 0.0, 0.0], 0.0)
            events += is_event(axes, outcomes)
        assert protocol.sample_security_frequency(phi, samples, seed, point_index) == events / samples
