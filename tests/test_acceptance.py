"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion states its tolerance inline.
"""

import math
import time

import numpy as np
import pytest

from helpers import enumerate_event_probability, random_state
from wqsc import (
    Axis,
    Outcome,
    Party,
    ProtocolConfig,
    ProtocolMode,
    QKD_AXIS_SETS,
    attacked_w_state,
    averaged_security_probability,
    binomial_sigma,
    ch_middle_term,
    eigenvalues_hermitian,
    event_masses,
    ghz_state,
    iter_trials,
    key_accounting,
    outcome_distribution,
    partial_inference,
    partial_transpose,
    reduced_density,
    three_tangle,
    two_z_plus,
    w_state,
    x_all_equal,
)
from wqsc.cli import main as cli_main
from wqsc.reporting import parse_report_json

PLUS, MINUS = Outcome.PLUS, Outcome.MINUS
A, B, C = Party.ALICE, Party.BOB, Party.CHARLIE
HALF_PI = math.pi / 2.0
TRIALS = 100_000

ROLE_ASSIGNMENTS = [
    (A, B, C), (A, C, B), (B, A, C), (B, C, A), (C, A, B), (C, B, A)
]


def criterion(num: int, description: str, ok: bool) -> None:
    print(f"[C{num:02d}] {'PASS' if ok else 'FAIL'} {description}", flush=True)
    assert ok, f"criterion {num} failed: {description}"


def within_3_sigma(empirical: float, p: float, n: int) -> bool:
    return abs(empirical - p) <= 3.0 * binomial_sigma(p, n)


@pytest.fixture(scope="module")
def mode_runs():
    """One N=1e5, announce-free run per mode, with wall-clock timings."""
    from wqsc import run_protocol

    runs = {}
    seeds = {ProtocolMode.QKD: 20260810, ProtocolMode.PQSS: 20260811,
             ProtocolMode.SYNTH: 20260812}
    for mode, seed in seeds.items():
        config = ProtocolConfig(mode, trials=TRIALS, seed=seed, announce_rate=0.0)
        start = time.perf_counter()
        report = run_protocol(config)
        elapsed = time.perf_counter() - start
        runs[mode] = (config, report, elapsed)
    return runs


def test_c01_golden_probabilities_on_w():
    start = time.perf_counter()
    w = outcome_distribution(w_state())
    tol = 1e-12
    ok = abs(two_z_plus(w) - 1.0) <= tol
    ok &= abs(two_z_plus(w, (A, B)) - 1.0 / 3.0) <= tol
    ok &= all(abs(mass) <= tol for mass in event_masses(w).tolist())
    ok &= abs(x_all_equal(w) - 0.75) <= tol
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    criterion(1, "analytic event probabilities on the W state (1e-12, <1s)", ok)


def test_c02_ch_bell_middle_term():
    tol = 1e-12
    existential = ch_middle_term(outcome_distribution(w_state()))
    strict = ch_middle_term(outcome_distribution(w_state()), strict=True)
    ok = abs(existential.value - 0.25) <= tol and existential.violation
    ok &= abs(strict.value + 5.0 / 12.0) <= tol and not strict.violation
    criterion(2, "CH middle term: 1/4 flagged violation, -5/12 local (1e-12)", ok)


def test_c03_entanglement_classification():
    ok = abs(three_tangle(ghz_state()) - 1.0) <= 1e-9
    ok &= abs(three_tangle(w_state())) <= 1e-9
    floor = (1.0 - math.sqrt(5.0)) / 6.0
    for keep in ((A, B), (A, C), (B, C)):
        transposed = partial_transpose(reduced_density(w_state(), keep), "second")
        ok &= abs(eigenvalues_hermitian(transposed)[0] - floor) <= 1e-8
    criterion(3, "tangle 1/0 for GHZ/W (1e-9); PPT min eigenvalue (1-sqrt5)/6 (1e-8)", ok)


def test_c04_attack_statistics():
    tol = 1e-12
    ok = True
    for phi in np.linspace(0.0, HALF_PI, 50):
        phi = float(phi)
        masses = event_masses(outcome_distribution(attacked_w_state(phi)))
        per_set = {}
        for axis_set in QKD_AXIS_SETS:
            p = float(masses[axis_set.decider])
            per_set[axis_set.label] = p
            expected = (
                math.sin(phi) ** 2 / 6.0
                if axis_set.decider is C
                else (1.0 - math.cos(phi)) / 3.0
            )
            ok &= abs(p - expected) <= tol
        averaged = averaged_security_probability(phi)
        closed = (1.0 - math.cos(phi)) * (5.0 + math.cos(phi)) / 18.0
        ok &= abs(averaged - closed) <= tol
        ok &= abs(averaged - sum(per_set.values()) / 3.0) <= tol
    ok &= abs(averaged_security_probability(HALF_PI) - 5.0 / 18.0) <= tol
    criterion(4, "per-set and averaged security-event probabilities, 50 strengths (1e-12)", ok)


def test_c05_monte_carlo_success_rates(mode_runs):
    expectations = {
        ProtocolMode.QKD: 0.25,
        ProtocolMode.PQSS: 0.125,
        ProtocolMode.SYNTH: 0.375,
    }
    ok = True
    for mode, p in expectations.items():
        _, report, elapsed = mode_runs[mode]
        ok &= within_3_sigma(report.empirical_success_rate, p, TRIALS)
        ok &= elapsed < 30.0
    for mode in (ProtocolMode.QKD, ProtocolMode.SYNTH):
        _, report, _ = mode_runs[mode]
        ok &= within_3_sigma(
            report.qkd_success_trials / report.qkd_axis_trials,
            2.0 / 3.0,
            report.qkd_axis_trials,
        )
    criterion(5, "empirical success rates 1/4, 1/8, 3/8 and conditional 2/3 (3 sigma, <30s)", ok)


def test_c06_resource_accounting(mode_runs):
    targets = {ProtocolMode.QKD: 12.0, ProtocolMode.PQSS: 24.0, ProtocolMode.SYNTH: 8.0}
    ok = True
    for mode, target in targets.items():
        _, report, _ = mode_runs[mode]
        ok &= abs(report.qubits_per_key_bit - target) / target <= 0.05
    epr = key_accounting(1, 2.0 / 9.0, 1, 0, qubits_per_trial=2)
    ghz99 = key_accounting(1, 0.5, 1, 0)
    ok &= abs(epr - 9.0) <= 1e-12
    ok &= abs(ghz99 - 6.0) <= 1e-12
    criterion(6, "qubits per key bit 12/24/8 within 5%; comparison constants 9 and 6 exact", ok)


def test_c07_key_material_correctness(mode_runs):
    _, qkd_report, _ = mode_runs[ProtocolMode.QKD]
    _, pqss_report, _ = mode_runs[ProtocolMode.PQSS]
    ok = qkd_report.qkd_disagreements == 0
    ok &= pqss_report.pqss_reconstruction_failures == 0

    pqss_config, _, _ = mode_runs[ProtocolMode.PQSS]
    kept = 0
    certifying = 0
    for record in iter_trials(pqss_config):
        if record.key_bits is None:
            continue
        kept += 1
        if partial_inference(record.key_bits[B]) is PLUS:
            certifying += 1
    ok &= kept == pqss_report.pqss_secret_bits
    ok &= within_3_sigma(certifying / kept, 1.0 / 3.0, kept)
    criterion(7, "no key disagreements, no reconstruction failures, inference rate 1/3 (3 sigma)", ok)


@pytest.fixture(scope="module")
def detection_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    flags_attacked = [
        "run", "--mode", "qkd", "--trials", str(TRIALS), "--seed", "424242",
        "--phi", repr(HALF_PI), "--target", "C", "--announce-rate", "0.2",
    ]
    flags_clean = [
        "run", "--mode", "qkd", "--trials", str(TRIALS), "--seed", "424242",
        "--phi", "0.0", "--target", "C", "--announce-rate", "0.2",
    ]
    attacked_path = base / "attacked.json"
    clean_path_1 = base / "clean1.json"
    clean_path_2 = base / "clean2.json"
    attacked_code = cli_main(flags_attacked + ["--output", str(attacked_path)])
    clean_code_1 = cli_main(flags_clean + ["--output", str(clean_path_1)])
    clean_code_2 = cli_main(flags_clean + ["--output", str(clean_path_2)])
    return {
        "attacked": (attacked_code, attacked_path),
        "clean": (clean_code_1, clean_path_1),
        "clean_repeat": (clean_code_2, clean_path_2),
    }


def test_c08_detection(detection_runs):
    attacked_code, attacked_path = detection_runs["attacked"]
    clean_code, clean_path = detection_runs["clean"]
    attacked = parse_report_json(attacked_path.read_text())
    clean = parse_report_json(clean_path.read_text())
    ok = attacked_code == 2
    ok &= attacked.security_verdict.value == "compromised"
    ok &= within_3_sigma(
        attacked.security_event_frequency, 5.0 / 18.0, attacked.announced_qkd_trials
    )
    ok &= clean_code == 0
    ok &= clean.security_verdict.value == "secure"
    ok &= clean.security_event_frequency == 0.0
    ok &= clean.security_events == 0
    criterion(8, "max-strength attack exits compromised at 5/18 (3 sigma); no attack exits secure at 0", ok)


def test_c09_determinism(detection_runs):
    code_1, path_1 = detection_runs["clean"]
    code_2, path_2 = detection_runs["clean_repeat"]
    ok = code_1 == code_2
    ok &= path_1.read_bytes() == path_2.read_bytes()
    criterion(9, "identical flags and seed give byte-identical reports", ok)


def test_c10_oracle_equivalence():
    tol = 1e-12
    rng = np.random.default_rng(20260813)
    ok = True

    three_qubit_states = [w_state(), ghz_state()]
    three_qubit_states += [random_state(rng, 3) for _ in range(20)]
    for state in three_qubit_states:
        dist = outcome_distribution(state)
        expected = enumerate_event_probability(
            state,
            [(A, Axis.Z), (B, Axis.Z), (C, Axis.Z)],
            lambda bits: sum(1 for o in bits.values() if o is PLUS) >= 2,
        )
        ok &= abs(two_z_plus(dist) - expected) <= tol
        expected = enumerate_event_probability(
            state,
            [(A, Axis.Z), (B, Axis.Z)],
            lambda bits: bits[A] is PLUS and bits[B] is PLUS,
        )
        ok &= abs(two_z_plus(dist, (A, B)) - expected) <= tol
        for z_party, x1, x2 in ROLE_ASSIGNMENTS:
            expected = enumerate_event_probability(
                state,
                [(z_party, Axis.Z), (x1, Axis.X), (x2, Axis.X)],
                lambda bits: bits[z_party] is PLUS and bits[x1] is not bits[x2],
            )
            ok &= abs(event_masses(dist)[z_party] - expected) <= tol
        expected = enumerate_event_probability(
            state,
            [(A, Axis.X), (B, Axis.X), (C, Axis.X)],
            lambda bits: bits[A] is bits[B] is bits[C],
        )
        ok &= abs(x_all_equal(dist) - expected) <= tol

    four_qubit_states = [attacked_w_state(float(phi)) for phi in (0.0, 0.6, HALF_PI)]
    four_qubit_states += [random_state(rng, 4) for _ in range(10)]
    for state in four_qubit_states:
        masses = event_masses(outcome_distribution(state))
        for axis_set in QKD_AXIS_SETS:
            decider = axis_set.decider
            x1, x2 = axis_set.x_parties
            expected = enumerate_event_probability(
                state,
                [(decider, Axis.Z), (x1, Axis.X), (x2, Axis.X), (3, Axis.Z)],
                lambda bits: bits[decider] is PLUS and bits[x1] is not bits[x2],
            )
            ok &= abs(masses[decider] - expected) <= tol
    criterion(10, "closed-form probabilities match brute-force enumeration (1e-12)", ok)
