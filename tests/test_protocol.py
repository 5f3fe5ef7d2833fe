import itertools
import math

import numpy as np
import pytest

from wqsc import (
    ALL_AXIS_SETS,
    AxisSet,
    InconsistentSharesError,
    Outcome,
    Party,
    ProtocolConfig,
    ProtocolMode,
    SecurityVerdict,
    UnitaryCouplingAttack,
    averaged_security_probability,
    binomial_sigma,
    decider_step,
    is_event,
    iter_trials,
    key_accounting,
    partial_inference,
    pqss_step,
    reconstruct_dealer_bit,
    run_protocol,
    run_trial,
    security_verdict,
)
from wqsc.protocol import _kept_bits
from wqsc.reporting import parse_report_json, render_report

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
HALF_PI = math.pi / 2.0


def within_3_sigma(empirical: float, p: float, n: int) -> bool:
    return abs(empirical - p) <= 3.0 * binomial_sigma(p, n)


class TestAxisDraws:
    def test_set_frequencies(self):
        n = 100_000
        config = ProtocolConfig(ProtocolMode.QKD, trials=n, seed=2024)
        counts = {axes.label: 0 for axes in ALL_AXIS_SETS}
        for record in iter_trials(config):
            counts[record.axes.label] += 1
        for label, count in counts.items():
            assert within_3_sigma(count / n, 1.0 / 8.0, n), label
        qkd = sum(counts[axes.label] for axes in ALL_AXIS_SETS if axes.decider is not None)
        assert within_3_sigma(qkd / n, 3.0 / 8.0, n)
        assert within_3_sigma(counts["zzz"] / n, 1.0 / 8.0, n)

    def test_fixed_seed_replays_identically(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=200, seed=99)
        seq_a = [record.axes for record in iter_trials(config)]
        seq_b = [record.axes for record in iter_trials(config)]
        assert seq_a == seq_b
        assert len(set(seq_a)) == 8


class TestDeciderStep:
    def test_charlie_plus_authorizes_pair_key(self):
        bits = decider_step(AxisSet.from_label("xxz"), (PLUS, PLUS, PLUS))
        assert bits == {A: PLUS, B: PLUS}
        bits = decider_step(AxisSet.from_label("xxz"), (MINUS, MINUS, PLUS))
        assert bits == {A: MINUS, B: MINUS}

    def test_decider_minus_discards(self):
        assert decider_step(AxisSet.from_label("xxz"), (PLUS, MINUS, MINUS)) is None
        assert decider_step(AxisSet.from_label("xxz"), (0, 1, 1)) is None

    def test_plain_bits_act_as_their_outcomes(self):
        bits = decider_step(AxisSet.from_label("xxz"), (0, 0, 0))
        assert bits == {A: PLUS, B: PLUS}
        assert all(type(bit) is Outcome for bit in bits.values())
        assert decider_step(AxisSet.from_label("zxx"), (0, 1, 0)) == {B: MINUS, C: PLUS}
        with pytest.raises(ValueError, match="is not a valid Outcome$"):
            decider_step(AxisSet.from_label("xxz"), (0, 0, 2))

    def test_non_qkd_sets_discard(self):
        for label in ("zzx", "zzz", "xxx"):
            assert decider_step(AxisSet.from_label(label), (PLUS, PLUS, PLUS)) is None

    def test_other_deciders(self):
        bits = decider_step(AxisSet.from_label("xzx"), (MINUS, PLUS, MINUS))
        assert bits == {A: MINUS, C: MINUS}
        bits = decider_step(AxisSet.from_label("zxx"), (PLUS, PLUS, MINUS))
        assert bits == {B: PLUS, C: MINUS}


class TestPqssStep:
    def test_all_z_set_shares_the_dealer_bit(self):
        bits = pqss_step(AxisSet.from_label("zzz"), (PLUS, MINUS, PLUS))
        assert bits == {A: PLUS, B: MINUS, C: PLUS}
        bits = pqss_step(AxisSet.from_label("zzz"), (MINUS, PLUS, PLUS))
        assert bits[A] is MINUS
        assert (bits[B], bits[C]) == (PLUS, PLUS)

    def test_other_sets_discard(self):
        assert pqss_step(AxisSet.from_label("zzx"), (PLUS, PLUS, PLUS)) is None

    def test_plain_bits_act_as_their_outcomes(self):
        bits = pqss_step(AxisSet.from_label("zzz"), (0, 1, 0))
        assert bits == {A: PLUS, B: MINUS, C: PLUS}
        assert all(type(bit) is Outcome for bit in bits.values())
        with pytest.raises(ValueError, match="is not a valid Outcome$"):
            pqss_step(AxisSet.from_label("zzz"), (0, 1, 2))


class TestModeRouting:
    KEPT = {
        ProtocolMode.QKD: {"xxz", "xzx", "zxx"},
        ProtocolMode.PQSS: {"zzz"},
        ProtocolMode.SYNTH: {"xxz", "xzx", "zxx", "zzz"},
    }

    def test_each_mode_keeps_only_its_axis_sets(self):
        assert len(ALL_AXIS_SETS) == 8
        for mode, axes in itertools.product(ProtocolMode, ALL_AXIS_SETS):
            for outcomes in itertools.product((PLUS, MINUS), repeat=3):
                bits = _kept_bits(mode, axes, outcomes)
                if axes.label not in self.KEPT[mode]:
                    assert bits is None
                elif axes.label == "zzz":
                    assert bits == {A: outcomes[A], B: outcomes[B], C: outcomes[C]}
                else:
                    assert bits == decider_step(axes, outcomes)


class TestSecretReconstruction:
    # Plain bits act as their outcomes: 0 is PLUS and 1 is MINUS.
    def test_share_combinations(self):
        for b, c, dealer in ((PLUS, MINUS, PLUS), (MINUS, PLUS, PLUS), (PLUS, PLUS, MINUS),
                             (0, 1, PLUS), (1, 0, PLUS), (0, 0, MINUS)):
            assert reconstruct_dealer_bit(b, c) is dealer

    @pytest.mark.parametrize("shares", [(MINUS, MINUS), (1, 1), (1, MINUS)])
    def test_double_minus_is_impossible(self, shares):
        with pytest.raises(InconsistentSharesError):
            reconstruct_dealer_bit(*shares)

    def test_partial_inference_mapping(self):
        assert partial_inference(MINUS) is PLUS
        assert partial_inference(1) is PLUS
        assert partial_inference(PLUS) is None
        assert partial_inference(0) is None

    @pytest.mark.parametrize("function, args", [
        (reconstruct_dealer_bit, (2, PLUS)),
        (reconstruct_dealer_bit, (PLUS, None)),
        (partial_inference, (2,)),
        (partial_inference, ("-",)),
    ])
    def test_a_share_that_is_not_a_bit_is_refused(self, function, args):
        with pytest.raises(ValueError, match="is not a valid Outcome$"):
            function(*args)


class TestRunTrial:
    def test_deterministic_per_index(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=42)
        assert run_trial(config, 3) == run_trial(config, 3)
        assert run_trial(config, 3) != run_trial(config, 4)

    def test_announced_trials_carry_no_key_bits(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=42, announce_rate=0.999)
        records = [run_trial(config, i) for i in range(50)]
        announced = [r for r in records if r.announced]
        assert announced
        assert all(r.key_bits is None for r in announced)

    def test_key_bits_consistent_with_axes_and_outcomes(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=7)
        for i in range(300):
            record = run_trial(config, i)
            expected = None if record.announced else decider_step(record.axes, record.outcomes)
            assert record.key_bits == expected

    def test_replay_is_order_independent(self):
        config = ProtocolConfig(ProtocolMode.SYNTH, trials=10, seed=5, announce_rate=0.5)
        forward = [run_trial(config, i) for i in range(100, 116)]
        backward = [run_trial(config, i) for i in reversed(range(100, 116))]
        assert forward == backward[::-1]
        assert run_trial(config, 100) == forward[0]
        assert len({(r.axes, r.outcomes, r.announced) for r in forward}) > 1

    def test_negative_index_rejected(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=7)
        with pytest.raises(ValueError):
            run_trial(config, -1)

    def test_index_is_bounded_by_the_stream(self):
        # 2**258 words: four per value of Philox's 256-bit counter.
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=7)
        last = run_trial(config, 2**258 - 1)
        assert last.index == 2**258 - 1 and last == run_trial(config, 2**258 - 1)
        with pytest.raises(ValueError, match="^trial index must be at most "):
            run_trial(config, 2**258)

    @pytest.mark.parametrize("index", [1.5, True, 1.0, "1"])
    def test_non_integer_index_rejected(self, index):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=7)
        with pytest.raises(ValueError, match="trial index must be an integer"):
            run_trial(config, index)

    def test_numpy_index_is_coerced_to_int(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=10, seed=7)
        record = run_trial(config, np.int64(3))
        assert type(record.index) is int and record == run_trial(config, 3)

    def test_success_and_conditional_rates(self):
        n = 20_000
        config = ProtocolConfig(ProtocolMode.QKD, trials=n, seed=11, announce_rate=0.0)
        records = list(iter_trials(config))
        key_trials = sum(1 for r in records if r.key_bits is not None)
        qkd_axis = sum(1 for r in records if r.axes.decider is not None)
        assert within_3_sigma(key_trials / n, 0.25, n)
        assert within_3_sigma(key_trials / qkd_axis, 2.0 / 3.0, qkd_axis)

    def test_no_attack_never_produces_security_events(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=5000, seed=13, announce_rate=0.5)
        assert sum(is_event(r.axes, r.outcomes) for r in iter_trials(config)) == 0


class TestRunProtocol:
    def test_reports_are_deterministic(self):
        config = ProtocolConfig(ProtocolMode.SYNTH, trials=4000, seed=314, announce_rate=0.2)
        assert run_protocol(config) == run_protocol(config)

    def test_trial_partition_and_key_agreement(self):
        for mode in ProtocolMode:
            config = ProtocolConfig(mode, trials=8000, seed=271, announce_rate=0.15)
            report = run_protocol(config)
            assert (
                report.announced_trials + report.total_key_bits + report.discarded_trials
                == report.trials
            )
            assert report.qkd_disagreements == 0
            assert report.pqss_reconstruction_failures == 0
            assert report.security_events == 0
            assert report.security_verdict is SecurityVerdict.SECURE

    def test_success_rates_per_mode(self):
        n = 20_000
        expectations = {
            ProtocolMode.QKD: 0.25,
            ProtocolMode.PQSS: 0.125,
            ProtocolMode.SYNTH: 0.375,
        }
        for mode, p in expectations.items():
            report = run_protocol(ProtocolConfig(mode, trials=n, seed=1618, announce_rate=0.0))
            assert report.analytic_success_probability == p
            assert within_3_sigma(report.empirical_success_rate, p, n)

    def test_synthesis_key_split(self):
        n = 20_000
        report = run_protocol(ProtocolConfig(ProtocolMode.SYNTH, trials=n, seed=23, announce_rate=0.0))
        successes = report.success_trials
        assert within_3_sigma(report.qkd_success_trials / successes, 2.0 / 3.0, successes)
        assert report.qkd_success_trials + report.pqss_success_trials == successes

    def test_key_strings_match_between_pair_members(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=5000, seed=37, announce_rate=0.1)
        strings = {pair: ([], []) for pair in itertools.combinations(Party, 2)}
        for record in iter_trials(config):
            if record.key_bits is None:
                continue
            first, second = pair = tuple(record.key_bits)
            strings[pair][0].append(record.key_bits[first])
            strings[pair][1].append(record.key_bits[second])
        total = 0
        for pair, (lhs, rhs) in strings.items():
            assert lhs == rhs
            total += len(lhs)
        report = run_protocol(config)
        assert total == report.total_key_bits

    def test_pqss_secret_reconstruction_and_inference_rate(self):
        n = 20_000
        config = ProtocolConfig(ProtocolMode.PQSS, trials=n, seed=59, announce_rate=0.0)
        kept = 0
        certifying = 0
        for record in iter_trials(config):
            if record.key_bits is None:
                continue
            kept += 1
            secret = record.key_bits[A]
            recovered = reconstruct_dealer_bit(record.key_bits[B], record.key_bits[C])
            assert recovered is secret
            if partial_inference(record.key_bits[B]) is PLUS:
                certifying += 1
                assert secret is PLUS
        assert within_3_sigma(certifying / kept, 1.0 / 3.0, kept)

    @pytest.mark.parametrize("phi", [math.pi / 6.0, math.pi / 3.0, HALF_PI])
    def test_attack_frequency_converges_to_average(self, phi):
        n = 20_000
        config = ProtocolConfig(
            ProtocolMode.QKD,
            trials=n,
            seed=97,
            announce_rate=0.3,
            attack=UnitaryCouplingAttack(phi, C),
        )
        report = run_protocol(config)
        p_bar = averaged_security_probability(phi)
        assert report.announced_qkd_trials > 0
        assert within_3_sigma(
            report.security_event_frequency, p_bar, report.announced_qkd_trials
        )
        assert report.security_verdict is SecurityVerdict.COMPROMISED

    def test_dealer_is_configurable(self):
        config = ProtocolConfig(ProtocolMode.PQSS, trials=3000, seed=61, dealer=B)
        report = run_protocol(config)
        assert report.dealer is B
        assert report.pqss_reconstruction_failures == 0


class TestSecurityVerdict:
    def test_verdict_is_strict_at_epsilon(self):
        assert security_verdict(0.1, 0.1) is SecurityVerdict.SECURE
        assert security_verdict(0.1, 0.05) is SecurityVerdict.COMPROMISED
        assert security_verdict(None, 0.1) is SecurityVerdict.INCONCLUSIVE
        with pytest.raises(ValueError):
            security_verdict(None, 1.0)

    @pytest.mark.parametrize("frequency", [True, -1.0, 1.5, float("nan"), "0.1"])
    def test_frequency_must_be_a_real_in_the_unit_interval(self, frequency):
        with pytest.raises(ValueError, match="^frequency must"):
            security_verdict(frequency, 0.5)


class TestBinomialSigma:
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p}$"):
            binomial_sigma(p, 10)


class TestKeyAccounting:
    def test_per_protocol_costs(self):
        assert key_accounting(100, 0.25, 400, 0) / 100 == pytest.approx(12.0)
        assert key_accounting(100, 0.125, 800, 0) / 100 == pytest.approx(24.0)
        assert key_accounting(100, 0.375, 267, 0) / 100 == pytest.approx(8.0)

    def test_comparison_constants(self):
        epr = key_accounting(2, 2.0 / 9.0, 9, 0, qubits_per_trial=2)
        assert epr / 2 == pytest.approx(9.0)
        ghz = key_accounting(3, 0.5, 6, 0, qubits_per_trial=3)
        assert ghz / 3 == pytest.approx(6.0)

    def test_announcement_discount(self):
        # q K / (P_s (1 + M/N)) = 3 * 10 / (0.25 * 1.2).
        assert key_accounting(10, 0.25, 100, 20) == pytest.approx(100.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            key_accounting(1, 0.0, 10, 0)
        with pytest.raises(ValueError):
            key_accounting(1, 0.5, 10, 11)
        with pytest.raises(ValueError):
            key_accounting(1, 0.5, 0, 0)
        with pytest.raises(ValueError):
            key_accounting(-1, 0.5, 10, 0)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.QKD, trials=0, seed=1)
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.QKD, trials=10, seed=-1)
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.QKD, trials=10, seed=1, announce_rate=1.0)
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.QKD, trials=10, seed=1, epsilon=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig("bogus", trials=10, seed=1)
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.QKD, trials=10, seed=1, dealer=5)
        with pytest.raises(ValueError):
            ProtocolConfig(ProtocolMode.PQSS, trials=10, seed=1, dealer="A")

    def test_mode_and_dealer_values_are_coerced(self):
        config = ProtocolConfig("qkd", trials=10, seed=1, dealer=2)
        assert config.mode is ProtocolMode.QKD
        assert config.dealer is C

    @pytest.mark.parametrize(
        "trials, seed",
        [(10, 1.5), (10, 1.0), (True, 1), (10, False), (10.5, 1), (10, "1"), (np.float64(10), 1)],
    )
    def test_non_integer_trials_or_seed_rejected(self, trials, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            ProtocolConfig(ProtocolMode.QKD, trials=trials, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("announce_rate", False),
            ("announce_rate", "0.1"),
            ("announce_rate", None),
            ("epsilon", True),
            ("epsilon", "1e-9"),
            ("attack", "C"),
            ("attack", 0.5),
        ],
    )
    def test_bad_rate_epsilon_or_attack_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(ProtocolMode.QKD, trials=10, seed=1, **{field: value})

    def test_numpy_reals_are_coerced_to_float(self):
        config = ProtocolConfig(
            ProtocolMode.QKD, trials=300, seed=7, announce_rate=np.float32(0.1),
            epsilon=np.float32(0.5),
        )
        assert type(config.announce_rate) is float and type(config.epsilon) is float
        assert (config.announce_rate, config.epsilon) == (float(np.float32(0.1)), 0.5)
        report = run_protocol(config)
        parsed = parse_report_json(render_report(report, "json"))
        assert (parsed.announce_rate, parsed.epsilon) == (config.announce_rate, 0.5)

    def test_numpy_integers_are_coerced_to_int(self):
        config = ProtocolConfig(ProtocolMode.QKD, trials=np.int64(300), seed=np.uint64(7))
        assert type(config.trials) is int and type(config.seed) is int
        report = run_protocol(config)
        assert report == run_protocol(ProtocolConfig(ProtocolMode.QKD, trials=300, seed=7))
        parsed = parse_report_json(render_report(report, "json"))
        assert (parsed.trials, parsed.seed) == (300, 7)
