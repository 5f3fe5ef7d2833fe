"""The cell layer: each cell's report, the cells' exact law, and what runs draw from it.

``run_protocol`` is ``report_from_counts(config, cell_counts(config))``: a
report's count columns are a (mode, dealer) weight matrix times the run's
128 (axis set, announced, outcome string) cell counts.  These tests read
each cell's one-trial report against the per-trial rules, check whole runs
against ``oracle_report``, which folds the run's trial records one at a
time, and check that each field's mean over ``cell_probabilities``, the law
the draws follow, gives the closed-form means.  Chi-square tests check the
128 sampled counts against that law jointly, and the verdicts of many short
runs against the verdict's exact law read from it.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import MODE_STEPS, chi_square_tail, oracle_report
from wqsc import (
    ALL_AXIS_SETS,
    Party,
    ProtocolConfig,
    ProtocolMode,
    SecurityVerdict,
    UnitaryCouplingAttack,
    apply_attack,
    averaged_security_probability,
    cell_counts,
    cell_probabilities,
    is_event,
    joint_probability,
    report_from_counts,
    run_protocol,
    w_state,
)
from wqsc import bell, protocol
from wqsc.protocol import MAX_SEED, MODE_SUCCESS_PROBABILITY

HALF_PI = math.pi / 2.0
TARGETS = (None, Party.ALICE, Party.BOB, Party.CHARLIE)
ANNOUNCE_RATES = (0.0, 0.1, 0.5, 0.9)


def make_config(mode, dealer, target, phi, announce_rate, trials, seed=7, epsilon=1e-9):
    attack = None if target is None else UnitaryCouplingAttack(phi, target)
    return ProtocolConfig(
        mode, trials=trials, seed=seed, announce_rate=announce_rate, attack=attack,
        epsilon=epsilon, dealer=dealer,
    )


def one_hot(cell):
    counts = np.zeros(128, dtype=np.int64)
    counts[cell] = 1
    return counts


@functools.cache
def cell_reports(mode, dealer):
    """Each cell's report: that of a one-trial run whose trial lies in the cell.

    A report's count columns depend on the config only through its mode and
    dealer, so these are each count column's weight on each cell.
    """
    config = ProtocolConfig(mode, trials=1, seed=0, dealer=dealer)
    return tuple(report_from_counts(config, one_hot(cell)) for cell in range(128))


def exact_mean(config, field):
    """``field``'s exact mean over runs of ``config``: ``n * sum_c p_c * field(report_c)``."""
    reports = cell_reports(config.mode, config.dealer)
    return config.trials * math.fsum(
        p * getattr(report, field)
        for p, report in zip(cell_probabilities(config).tolist(), reports)
    )


class TestCellWeights:
    @pytest.mark.parametrize("dealer", list(Party))
    @pytest.mark.parametrize("mode", list(ProtocolMode))
    def test_each_cell_follows_the_trial_rules(self, mode, dealer):
        reports = cell_reports(mode, dealer)
        for s, axes in enumerate(ALL_AXIS_SETS):
            for o, outcomes in enumerate(bell.OUTCOME_STRINGS):
                decisions = (step(axes, outcomes) for step in MODE_STEPS[mode])
                kept = next((bits for bits in decisions if bits is not None), None)
                for announced in (False, True):
                    w = reports[16 * s + 8 * (not announced) + o]
                    assert w.announced_trials + w.total_key_bits + w.discarded_trials == 1
                    assert w.announced_trials == announced
                    assert w.success_trials == (kept is not None)
                    # An announced all-z trial is public but never checked.
                    assert w.announced_qkd_trials == (announced and axes.decider is not None)
                    assert w.security_events == (announced and is_event(axes, outcomes))
                    assert w.discarded_trials == (not announced and kept is None)


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
        assert weights.shape == (16, 128)  # the report's 16 count columns by cell
        with pytest.raises(ValueError):
            weights[0, 0] = 2


def moved(counts, fullest, emptiest):
    """A copy of ``counts``: ``fullest`` added to its largest entry, ``emptiest`` to its least."""
    counts = counts.copy()
    counts[np.argmax(counts)] += fullest
    counts[np.argmin(counts)] += emptiest
    return counts


class TestCellLayerContract:
    CONFIG = make_config(ProtocolMode.SYNTH, Party.BOB, Party.CHARLIE, 1.0, 0.3, 500, seed=5)

    def test_run_is_the_report_of_its_counts(self):
        counts = cell_counts(self.CONFIG)
        assert counts.dtype == np.int64 and counts.shape == (128,)
        assert report_from_counts(self.CONFIG, counts) == run_protocol(self.CONFIG)

    @pytest.mark.parametrize("bad", [
        lambda counts: counts[:127],
        lambda counts: np.stack((counts, counts)),
        lambda counts: counts.astype(float),
        lambda counts: counts.astype(np.uint64),
        lambda counts: moved(counts, +1, -1),  # an empty cell to -1, the sum kept
        lambda counts: moved(counts, +1, 0),
        lambda counts: moved(counts, -1, 0),
        lambda counts: counts + np.repeat([2**62, 0], [4, 124]),  # the int64 sum wraps to trials
    ], ids=["127", "2x128", "float", "uint64", "negative", "sum+1", "sum-1", "sum-wraps"])
    def test_bad_counts_are_refused(self, bad):
        counts = cell_counts(self.CONFIG)
        assert counts.min() == 0  # an empty cell for the negative entry
        with pytest.raises(ValueError, match="counts"):
            report_from_counts(self.CONFIG, bad(counts))

    def test_bool_counts_are_refused(self):
        # A bool one-hot sums to 1, the trials of a one-trial run.
        config = dataclasses.replace(self.CONFIG, trials=1)
        with pytest.raises(ValueError, match="counts"):
            report_from_counts(config, one_hot(3).astype(bool))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("target", TARGETS, ids=["W", "A", "B", "C"])
    @pytest.mark.parametrize("phi", [0.3, HALF_PI])
    def test_probabilities_are_exact_and_sum_to_one(self, phi, target, rate):
        config = make_config(ProtocolMode.QKD, Party.ALICE, target, phi, rate, 1)
        law = cell_probabilities(config)
        assert law.shape == (128,)
        assert math.fsum(law.tolist()) == 1.0
        assert all((p * 2**56).is_integer() for p in law.tolist())

    def test_writing_to_returned_arrays_changes_no_run(self):
        report, law = run_protocol(self.CONFIG), cell_probabilities(self.CONFIG)
        cell_probabilities(self.CONFIG)[:] = 0.5
        cell_counts(self.CONFIG)[:] = 7
        assert run_protocol(self.CONFIG) == report
        assert cell_probabilities(self.CONFIG).tobytes() == law.tobytes()


class TestExactMeans:
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, HALF_PI])
    def test_cells_match_joint_probability(self, phi, target):
        attack = None if target is None else UnitaryCouplingAttack(phi, target)
        source = apply_attack(w_state(), attack)
        # P(axis set s, outcome string o): both halves' cells summed.
        joints = [
            cell_probabilities(make_config(ProtocolMode.QKD, Party.ALICE, target, phi, rate, 1))
            .reshape(8, 2, 8).sum(axis=1)
            for rate in ANNOUNCE_RATES
        ]
        for s, axes in enumerate(ALL_AXIS_SETS):
            for o, outcomes in enumerate(bell.OUTCOME_STRINGS):
                constraints = [(p, axes.axis_of(p), outcomes[p]) for p in Party]
                expected = joint_probability(source, constraints) / len(ALL_AXIS_SETS)
                for joint in joints:
                    assert joint[s, o] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("announce_rate", ANNOUNCE_RATES)
    @pytest.mark.parametrize("mode", list(ProtocolMode))
    def test_unattacked_means(self, mode, announce_rate):
        for dealer in Party:
            config = make_config(mode, dealer, None, 0.0, announce_rate, 10_000)
            expected_success = config.trials * MODE_SUCCESS_PROBABILITY[mode]
            mean = exact_mean(config, "success_trials")
            assert mean == pytest.approx(expected_success, rel=1e-12)
            for field in ("security_events", "qkd_disagreements", "pqss_reconstruction_failures"):
                assert exact_mean(config, field) == 0.0, field

    @pytest.mark.parametrize("announce_rate", ANNOUNCE_RATES)
    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.0, HALF_PI])
    def test_security_event_mean_under_attack_on_charlie(self, phi, announce_rate):
        n = 10_000
        expected = n * announce_rate * (3.0 / 8.0) * averaged_security_probability(phi)
        for mode in ProtocolMode:
            config = make_config(mode, Party.ALICE, Party.CHARLIE, phi, announce_rate, n)
            mean = exact_mean(config, "security_events")
            assert mean == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
        counts = cell_counts(config).tolist()
        expected = cell_probabilities(config) * FIT_TRIALS
        assert all(n == 0 for n, e in zip(counts, expected.tolist()) if e == 0.0)
        bins = [(n, e) for n, e in zip(counts, expected.tolist()) if e >= 5.0]
        pooled = [(n, e) for n, e in zip(counts, expected.tolist()) if 0.0 < e < 5.0]
        if pooled:
            bins.append((sum(n for n, _ in pooled), sum(e for _, e in pooled)))
        statistic = sum((n - e) ** 2 / e for n, e in bins)
        assert chi_square_tail(len(bins) - 1, statistic) > FIT_ALPHA, (statistic, len(bins))


def verdict_law(config):
    """Each verdict's exact probability for a run of ``config``, read from its cells' law.

    A trial is checked (an announced QKD-set trial) with probability ``a``
    and is a security event with probability ``q``, each the mass of the
    cells whose one-trial report counts it.  No checked trial is
    inconclusive, with probability ``(1 - a)**n``; ``m`` checked trials of
    which ``k`` are events are compromised iff ``k / m > epsilon``, summed
    exactly over the trinomial of events, checked non-events and the rest.
    """
    law = cell_probabilities(config).tolist()
    reports = cell_reports(config.mode, config.dealer)
    a = math.fsum(p for p, report in zip(law, reports) if report.announced_qkd_trials)
    q = math.fsum(p for p, report in zip(law, reports) if report.security_events)
    n = config.trials
    compromised = math.fsum(
        math.comb(n, m) * math.comb(m, k) * q**k * (a - q) ** (m - k) * (1 - a) ** (n - m)
        for m in range(1, n + 1)
        for k in range(m + 1)
        if k / m > config.epsilon
    )
    inconclusive = (1 - a) ** n
    return q, {
        SecurityVerdict.SECURE: 1 - compromised - inconclusive,
        SecurityVerdict.COMPROMISED: compromised,
        SecurityVerdict.INCONCLUSIVE: inconclusive,
    }


# Fixed before the first run: the rows, 4000 runs per row from seed
# VERDICT_SEED + 4000 * row, and a false-alarm rate of 1e-4 per row.  The
# first four rows are QKD; the verdict reads only the QKD sets, so the PQSS
# and SYNTH rows repeat the first and must follow its law.  The last row's
# epsilon lies above 1 / n.  If a row trips, investigate the engine; do not
# re-seed.
VERDICT_RUNS = 4000
VERDICT_SEED = 3900
VERDICT_ALPHA = 1e-4
VERDICT_ROWS = [
    # mode, dealer, target, phi, announce rate, trials, epsilon
    (ProtocolMode.QKD, Party.ALICE, Party.BOB, 0.5, 0.2, 40, 1e-9),
    (ProtocolMode.QKD, Party.ALICE, Party.ALICE, 0.25, 0.1, 60, 1e-9),
    (ProtocolMode.QKD, Party.ALICE, Party.CHARLIE, 1.2, 0.05, 10, 1e-9),
    (ProtocolMode.QKD, Party.ALICE, None, 0.0, 0.02, 20, 1e-9),
    (ProtocolMode.PQSS, Party.BOB, Party.BOB, 0.5, 0.2, 40, 1e-9),
    (ProtocolMode.SYNTH, Party.CHARLIE, Party.BOB, 0.5, 0.2, 40, 1e-9),
    (ProtocolMode.SYNTH, Party.ALICE, Party.CHARLIE, 1.0, 0.3, 30, 0.2),
]


class TestVerdictLaw:
    """Pearson's chi-square of many short runs' verdicts against the verdict's exact law."""

    @pytest.mark.parametrize("row", VERDICT_ROWS, ids=[
        f"{mode.value}-{'W' if t is None else t.letter}-n{n}-eps{eps:g}"
        for mode, _, t, _, _, n, eps in VERDICT_ROWS
    ])
    def test_verdicts_follow_their_law(self, row):
        mode, dealer, target, phi, rate, trials, epsilon = row
        config = make_config(mode, dealer, target, phi, rate, trials, epsilon=epsilon)
        q, law = verdict_law(config)
        first = VERDICT_SEED + VERDICT_RUNS * VERDICT_ROWS.index(row)
        tally = dict.fromkeys(SecurityVerdict, 0)
        for seed in range(first, first + VERDICT_RUNS):
            tally[run_protocol(dataclasses.replace(config, seed=seed)).security_verdict] += 1
        if q == 0.0:  # nothing can be an event, so nothing is compromised
            assert tally.pop(SecurityVerdict.COMPROMISED) == 0
            del law[SecurityVerdict.COMPROMISED]
        statistic = sum(
            (tally[v] - VERDICT_RUNS * p) ** 2 / (VERDICT_RUNS * p) for v, p in law.items()
        )
        assert chi_square_tail(len(law) - 1, statistic) > VERDICT_ALPHA, (statistic, tally, law)

    @pytest.mark.parametrize("row", VERDICT_ROWS[:-1])
    def test_small_epsilon_law_is_closed_form(self, row):
        # Below 1 / n one event compromises: P = 1 - (1 - q)**n.
        mode, dealer, target, phi, rate, trials, epsilon = row
        config = make_config(mode, dealer, target, phi, rate, trials, epsilon=epsilon)
        q, law = verdict_law(config)
        assert config.epsilon < 1 / config.trials
        closed = 1 - (1 - q) ** config.trials
        assert law[SecurityVerdict.COMPROMISED] == pytest.approx(closed, rel=1e-9, abs=1e-15)
