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
    StateVector,
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
        table = protocol._outcome_table([source])[0]
        assert_cell_matches_oracle(source, table, uniforms, announce_rate)

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(min_value=0.0, max_value=HALF_PI), target=st.sampled_from(TARGETS))
    @example(phi=8.4e-161, target=Party.ALICE)  # a branch of subnormal mass
    def test_unreachable_branches_have_probability_zero(self, phi, target):
        source = source_for(phi, target)
        table = protocol._outcome_table([source])[0]
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
        table = protocol._outcome_table([source])[0]
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
        assert protocol._outcome_table([source])[0].tobytes() == oracle_table(source).tobytes()
        swept = attacked_w_state(phi)
        assert protocol._outcome_table([swept])[0].tobytes() == oracle_table(swept).tobytes()


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
        tables = protocol._outcome_table(sources)
        assert tables.shape == (len(sources), len(ALL_AXIS_SETS), 7)
        for source, table in zip(sources, tables):
            assert table.tobytes() == oracle_table(source).tobytes()
            assert table.tobytes() == protocol._outcome_table([source])[0].tobytes()
        permuted = protocol._outcome_table([sources[k] for k in order])
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
            i = record.index
            uniforms = np.random.Generator(np.random.Philox(key=config.seed, counter=2 * i)).random(8)
            expected = oracle_trial(source, uniforms, config.announce_rate)
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
                u = np.random.Generator(np.random.Philox(key=key, counter=j)).random(4)
                axes = QKD_AXIS_SETS[int(u[0] * 3.0)]
                # The oracle reads run slots: axis draws that select this
                # set, then the sweep's measurement draws.
                axis_draws = [0.25 if axis is Axis.Z else 0.75 for axis in axes.axes]
                _, outcomes, _ = oracle_trial(source, [*axis_draws, *u[1:], 0.0, 0.0], 0.0)
                events += is_event(axes, outcomes)
            expected.append(events / samples)
        assert protocol.sample_security_frequency(grid, samples, seed) == expected
        # A point's key depends on its index alone, not on the rest of the grid.
        assert protocol.sample_security_frequency(grid[:2], samples, seed) == expected[:2]
