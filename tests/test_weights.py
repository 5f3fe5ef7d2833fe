"""The report's weight matrix against the per-trial fold and exact means.

``run_protocol`` computes a report's count columns as a (mode, dealer)
weight matrix times the run's 128 (axis set, announced, outcome string)
cell counts.  These tests check each cell's column against the per-trial
rules, check the matrix against ``oracle_report``, which folds the run's
trial records one at a time, and check that the same matrix times the
probabilities of the cells the engine samples gives the closed-form means.
A chi-square test checks the 128 sampled counts against those
probabilities jointly.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import TREE_SPAN, chi_square_tail, kernel_intervals, oracle_report
from wqsc import (
    ALL_AXIS_SETS,
    Party,
    ProtocolConfig,
    ProtocolMode,
    UnitaryCouplingAttack,
    apply_attack,
    averaged_security_probability,
    is_event,
    joint_probability,
    run_protocol,
    w_state,
)
from wqsc import bell, protocol
from wqsc.protocol import MAX_SEED, MODE_SUCCESS_PROBABILITY

HALF_PI = math.pi / 2.0
TARGETS = (None, Party.ALICE, Party.BOB, Party.CHARLIE)
ANNOUNCE_RATES = (0.0, 0.1, 0.5, 0.9)


def make_config(mode, dealer, target, phi, announce_rate, trials, seed=7):
    attack = None if target is None else UnitaryCouplingAttack(phi, target)
    return ProtocolConfig(
        mode, trials=trials, seed=seed, announce_rate=announce_rate, attack=attack, dealer=dealer
    )


def row(field):
    return protocol._COUNT_FIELDS.index(field)


class TestCellWeights:
    @pytest.mark.parametrize("dealer", list(Party))
    @pytest.mark.parametrize("mode", list(ProtocolMode))
    def test_each_cell_follows_the_trial_rules(self, mode, dealer):
        weights = protocol._weights(mode, dealer)
        for s, axes in enumerate(ALL_AXIS_SETS):
            for o, outcomes in enumerate(bell.OUTCOME_STRINGS):
                kept = protocol._kept_bits(mode, axes, outcomes)
                for announced in (False, True):
                    cell = weights[:, 16 * s + 8 * (not announced) + o]
                    w = dict(zip(protocol._COUNT_FIELDS, cell.tolist()))
                    assert w["announced_trials"] + w["total_key_bits"] + w["discarded_trials"] == 1
                    assert w["announced_trials"] == announced
                    # An announced all-z trial is public but never checked.
                    assert w["announced_qkd_trials"] == (
                        announced and axes.decider is not None
                    )
                    assert w["security_events"] == (announced and is_event(axes, outcomes))
                    assert w["discarded_trials"] == (not announced and kept is None)


class TestReportOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        mode=st.sampled_from(ProtocolMode),
        dealer=st.sampled_from(Party),
        target=st.sampled_from(TARGETS),
        phi=st.floats(min_value=0.0, max_value=HALF_PI),
        announce_rate=st.sampled_from(ANNOUNCE_RATES),
        trials=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=MAX_SEED),
    )
    # A full-strength attack yields minus-minus shares, so secret reconstruction
    # fails: the only runs that reach the dealer-dependent failure weights.
    @example(ProtocolMode.PQSS, Party.ALICE, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    @example(ProtocolMode.PQSS, Party.BOB, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    @example(ProtocolMode.PQSS, Party.CHARLIE, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    @example(ProtocolMode.SYNTH, Party.ALICE, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    @example(ProtocolMode.SYNTH, Party.BOB, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    @example(ProtocolMode.SYNTH, Party.CHARLIE, Party.CHARLIE, HALF_PI, 0.1, 3000, 7)
    def test_report_equals_per_trial_fold(
        self, mode, dealer, target, phi, announce_rate, trials, seed
    ):
        config = make_config(mode, dealer, target, phi, announce_rate, trials, seed)
        assert run_protocol(config) == oracle_report(config)

    @pytest.mark.parametrize("dealer", list(Party))
    @pytest.mark.parametrize("mode", [ProtocolMode.PQSS, ProtocolMode.SYNTH])
    def test_full_strength_attack_breaks_reconstruction(self, mode, dealer):
        config = make_config(mode, dealer, Party.CHARLIE, HALF_PI, 0.1, 3000)
        assert run_protocol(config).pqss_reconstruction_failures > 0

    def test_weights_are_read_only_and_built_once(self):
        weights = protocol._weights(ProtocolMode.SYNTH, Party.BOB)
        assert weights is protocol._weights(ProtocolMode.SYNTH, Party.BOB)
        assert weights.shape == (len(protocol._COUNT_FIELDS), 128)
        with pytest.raises(ValueError):
            weights[0, 0] = 2


def cell_probabilities(source, announce_rate):
    """P(cell) as the engine samples it, leaf width / 2**53 / 8, in its ``16s + 8u + o`` order."""
    intervals = kernel_intervals(source, announce_rate)
    return ((intervals[..., 1] - intervals[..., 0]) / TREE_SPAN / len(ALL_AXIS_SETS)).reshape(-1)


def set_cell_probabilities(source, announce_rate):
    """P(axis set s, outcome string o) as the engine samples it: both halves' cells summed."""
    return cell_probabilities(source, announce_rate).reshape(8, 2, 8).sum(axis=1)


class TestExactMeans:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, HALF_PI])
    def test_cells_match_joint_probability(self, phi, target):
        attack = None if target is None else UnitaryCouplingAttack(phi, target)
        source = apply_attack(w_state(), attack)
        joints = [set_cell_probabilities(source, rate) for rate in ANNOUNCE_RATES]
        for s, axes in enumerate(ALL_AXIS_SETS):
            for o, outcomes in enumerate(bell.OUTCOME_STRINGS):
                constraints = [(p, axes.axis_of(p), outcomes[p]) for p in Party]
                expected = joint_probability(source, constraints) / len(ALL_AXIS_SETS)
                for joint in joints:
                    assert joint[s, o] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("announce_rate", ANNOUNCE_RATES)
    @pytest.mark.parametrize("mode", list(ProtocolMode))
    def test_unattacked_means(self, mode, announce_rate):
        n = 10_000
        cells = n * cell_probabilities(w_state(), announce_rate)
        for dealer in Party:
            means = protocol._weights(mode, dealer) @ cells
            expected_success = n * MODE_SUCCESS_PROBABILITY[mode]
            assert means[row("success_trials")] == pytest.approx(expected_success, rel=1e-12)
            for field in ("security_events", "qkd_disagreements", "pqss_reconstruction_failures"):
                assert means[row(field)] == 0.0, field

    @pytest.mark.parametrize("announce_rate", ANNOUNCE_RATES)
    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, HALF_PI])
    def test_security_event_mean_under_attack_on_charlie(self, phi, announce_rate):
        n = 10_000
        source = apply_attack(w_state(), UnitaryCouplingAttack(phi, Party.CHARLIE))
        cells = n * cell_probabilities(source, announce_rate)
        expected = n * announce_rate * (3.0 / 8.0) * averaged_security_probability(phi)
        for mode in ProtocolMode:
            means = protocol._weights(mode, Party.ALICE) @ cells
            assert means[row("security_events")] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# Fixed before the first run: the seeds, 200000 trials, cells of expected
# count below 5 pooled into one bin, and a false-alarm rate of 1e-4 per
# configuration.  If a row trips, investigate the engine; do not re-seed.
FIT_TRIALS = 200_000
FIT_ALPHA = 1e-4
FIT_SOURCES = [(None, 0.0)] + [(target, phi) for target in Party for phi in (HALF_PI, 0.3)]
FIT_RATES = (0.1, 0.5)


class TestGoodnessOfFit:
    """Pearson's chi-square of a run's 128 cell counts against the cells' exact probabilities."""

    @pytest.mark.parametrize("statistic", [0.0, 0.5, 1.0, 3.0, 3.999, 4.0, 10.0, 40.0, 100.0])
    def test_two_degrees_of_freedom_are_an_exponential_tail(self, statistic):
        assert chi_square_tail(2, statistic) == pytest.approx(math.exp(-statistic / 2), rel=1e-12)

    def test_one_degree_of_freedom_at_its_five_percent_point(self):
        assert chi_square_tail(1, 3.841458820694124) == pytest.approx(0.05, abs=1e-9)

    @pytest.mark.parametrize("rate", FIT_RATES)
    @pytest.mark.parametrize("target, phi", FIT_SOURCES, ids=[
        "W" if t is None else f"{t.letter}-{phi:.2f}" for t, phi in FIT_SOURCES
    ])
    def test_cell_counts_follow_their_probabilities(self, target, phi, rate):
        # The mode only picks the weight matrix, so one mode covers all three.
        seed = 3800 + 2 * FIT_SOURCES.index((target, phi)) + FIT_RATES.index(rate)
        config = make_config(ProtocolMode.SYNTH, Party.ALICE, target, phi, rate, FIT_TRIALS, seed)
        counts = protocol._cell_counts(config).tolist()
        expected = cell_probabilities(apply_attack(w_state(), config.attack), rate) * FIT_TRIALS
        assert all(n == 0 for n, e in zip(counts, expected.tolist()) if e == 0.0)
        bins = [(n, e) for n, e in zip(counts, expected.tolist()) if e >= 5.0]
        pooled = [(n, e) for n, e in zip(counts, expected.tolist()) if 0.0 < e < 5.0]
        if pooled:
            bins.append((sum(n for n, _ in pooled), sum(e for _, e in pooled)))
        statistic = sum((n - e) ** 2 / e for n, e in bins)
        assert chi_square_tail(len(bins) - 1, statistic) > FIT_ALPHA, (statistic, len(bins))
