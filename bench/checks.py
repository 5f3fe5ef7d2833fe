"""Correctness checks on the output of one ``wqsc.cli.main`` call.

Each check returns the problems it found (none when the call passed) and
the tallies the metrics need from the output.  Reports are parsed with the program's own ``reporting.parse_report_*``, but
the expected values come from closed forms written out here, never from the
code under test and never from stored report bytes: the random stream is
allowed to change, the statistics are not.
"""

from __future__ import annotations

import math
import re

from wqsc import reporting

from workloads import Call

# Statistical checks accept a deviation of up to this many binomial sigmas.
K_SIGMA = 6.0
DEFAULT_EPSILON = 1e-9
MIN_GOLDEN_CHECKS = 49

VERDICT_EXIT = {"secure": 0, "compromised": 2, "inconclusive": 3}
_VERIFY_TALLY = re.compile(r"^(\d+)/(\d+) golden values verified$")

Tallies = dict[str, int]


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def analytic_success_rate(mode: str, phi: float | None) -> float:
    """Per-trial success probability of a mode, attacked or not.

    Secret sharing succeeds on every all-z trial (1/8).  Key distribution
    succeeds when the z measurer of a one-z axis set (3/8 of trials) sees
    plus.  That has probability 2/3 for an untouched party and
    1 - cos(phi)^2 / 3 for the attacked one, which decides one set in
    three, so the rate is (7 - cos(phi)^2) / 24: 1/4 without an attack.
    """
    cos2 = 1.0 if phi is None else math.cos(phi) ** 2
    qkd = (7.0 - cos2) / 24.0
    return {"qkd": qkd, "pqss": 0.125, "synth": qkd + 0.125}[mode]


def averaged_event_probability(phi: float) -> float:
    """Security-event probability over the one-z axis sets: (1-cos)(5+cos)/18."""
    c = math.cos(phi)
    return (1.0 - c) * (5.0 + c) / 18.0


def _within(value: float, expected: float, sigma: float) -> bool:
    return abs(value - expected) <= K_SIGMA * sigma + 1e-12


def check_run(call: Call, exit_code: int, out: str) -> tuple[list[str], Tallies]:
    try:
        parse = reporting.parse_report_csv if call.fmt == "csv" else reporting.parse_report_json
        report = parse(out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc}"], {}
    problems = []
    verdict = report.security_verdict.value
    if VERDICT_EXIT.get(verdict) != exit_code:
        problems.append(f"exit {exit_code} does not match verdict {verdict}")
    if report.trials != call.trials:
        problems.append(f"report has {report.trials} trials, {call.trials} requested")
    if report.mode.value != call.mode:
        problems.append(f"report mode {report.mode.value} != {call.mode}")
    if report.announced_trials + report.total_key_bits + report.discarded_trials != report.trials:
        problems.append("announced + key bits + discarded != trials")
    if report.announced_qkd_trials == 0:
        expected_verdict = "inconclusive"
    else:
        expected_verdict = "compromised" if report.security_events else "secure"
    if verdict != expected_verdict:
        problems.append(f"verdict {verdict}, counts imply {expected_verdict}")
    if call.phi is None:
        for field in ("security_events", "qkd_disagreements", "pqss_reconstruction_failures"):
            if getattr(report, field) != 0:
                problems.append(f"unattacked run has {field} = {getattr(report, field)}")
    if call.statistical:
        p = analytic_success_rate(call.mode, call.phi)
        rate = report.success_trials / report.trials
        if not _within(rate, p, binomial_sigma(p, report.trials)):
            problems.append(f"success rate {rate} is beyond {K_SIGMA} sigma of {p}")
        if call.phi is not None and report.announced_qkd_trials:
            p_bar = averaged_event_probability(call.phi)
            freq = report.security_events / report.announced_qkd_trials
            if not _within(freq, p_bar, binomial_sigma(p_bar, report.announced_qkd_trials)):
                problems.append(f"event frequency {freq} is beyond {K_SIGMA} sigma of {p_bar}")
    # Announced one-z trials are the run's security-check samples.
    return problems, {"samples": report.announced_qkd_trials, "key_bits": report.total_key_bits}


def check_verify(exit_code: int, out: str) -> tuple[list[str], Tallies]:
    lines = out.strip().splitlines()
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    match = _VERIFY_TALLY.match(lines[-1]) if lines else None
    if match is None:
        return problems + ["verify printed no tally line"], {}
    passed, total = int(match.group(1)), int(match.group(2))
    if passed != total or total < MIN_GOLDEN_CHECKS:
        problems.append(f"verify passed {passed}/{total}")
    failing = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if failing or len(lines) - 1 != total:
        problems.append(f"verify lists {len(failing)} non-passing checks of {len(lines) - 1}")
    return problems, {}


def check_sweep(call: Call, exit_code: int, out: str) -> tuple[list[str], Tallies]:
    if exit_code != 0:
        return [f"sweep-phi exited {exit_code}"], {}
    try:
        rows = reporting.parse_sweep_csv(out)
    except (ValueError, IndexError) as exc:
        return [f"sweep CSV does not parse: {exc}"], {}
    if [row.phi for row in rows] != list(call.grid):
        return ["sweep rows do not match the requested grid"], {}
    problems = []
    for row in rows:
        p_bar = averaged_event_probability(row.phi)
        sigma = binomial_sigma(p_bar, call.samples)
        if not math.isclose(row.p_bar, p_bar, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"phi={row.phi}: p_bar {row.p_bar} != {p_bar}")
        if not math.isclose(row.sigma, sigma, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"phi={row.phi}: sigma {row.sigma} != {sigma}")
        expected_verdict = "compromised" if row.empirical > DEFAULT_EPSILON else "secure"
        if row.verdict.value != expected_verdict:
            problems.append(f"phi={row.phi}: verdict {row.verdict.value} != {expected_verdict}")
        if call.statistical and not _within(row.empirical, p_bar, sigma):
            problems.append(f"phi={row.phi}: empirical {row.empirical} beyond {K_SIGMA} sigma")
    # Every sweep sample is one announced-equivalent security-check trial.
    return problems, {"samples": len(rows) * call.samples}


def check(call: Call, exit_code: int, out: str) -> tuple[list[str], Tallies]:
    if call.kind == "run":
        return check_run(call, exit_code, out)
    if call.kind == "sweep":
        return check_sweep(call, exit_code, out)
    return check_verify(exit_code, out)
