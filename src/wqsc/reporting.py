"""Machine-readable run reports: JSON and CSV renderers plus parsers.

The schema is fixed: ``REPORT_COLUMNS`` is the authoritative key list and
column order.  JSON object keys and CSV headers never change without a
schema version bump.  CSV is UTF-8, comma delimited, '.' decimal point,
header row mandatory; missing values are empty cells in CSV and null in
JSON.  Rendering is deterministic: the same report always yields the same
bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .protocol import ProtocolMode, RunReport, SecurityVerdict
from .qcore import Party

REPORT_COLUMNS: tuple[str, ...] = (
    "mode",
    "trials",
    "seed",
    "announce_rate",
    "attack_phi",
    "attack_target",
    "epsilon",
    "dealer",
    "announced_trials",
    "qkd_axis_trials",
    "pqss_axis_trials",
    "qkd_success_trials",
    "pqss_success_trials",
    "success_trials",
    "empirical_success_rate",
    "analytic_success_probability",
    "key_bits_ab",
    "key_bits_ac",
    "key_bits_bc",
    "pqss_secret_bits",
    "total_key_bits",
    "discarded_trials",
    "qkd_disagreements",
    "pqss_reconstruction_failures",
    "announced_qkd_trials",
    "security_events",
    "security_event_frequency",
    "qubits_consumed",
    "formula_qubits",
    "qubits_per_key_bit",
    "security_verdict",
)

SWEEP_COLUMNS: tuple[str, ...] = ("phi", "p_bar", "empirical", "sigma", "verdict")

_INT_FIELDS = {
    "trials",
    "seed",
    "announced_trials",
    "qkd_axis_trials",
    "pqss_axis_trials",
    "qkd_success_trials",
    "pqss_success_trials",
    "success_trials",
    "key_bits_ab",
    "key_bits_ac",
    "key_bits_bc",
    "pqss_secret_bits",
    "total_key_bits",
    "discarded_trials",
    "qkd_disagreements",
    "pqss_reconstruction_failures",
    "announced_qkd_trials",
    "security_events",
    "qubits_consumed",
}
_FLOAT_FIELDS = {
    "announce_rate",
    "epsilon",
    "empirical_success_rate",
    "analytic_success_probability",
    "formula_qubits",
}
_OPTIONAL_FLOAT_FIELDS = {"attack_phi", "security_event_frequency", "qubits_per_key_bit"}


@dataclass(frozen=True)
class SweepRow:
    """One row of a coupling-strength sweep."""

    phi: float
    p_bar: float
    empirical: float
    sigma: float
    verdict: SecurityVerdict


def report_to_dict(report: RunReport) -> dict:
    """Flatten a report to plain scalars in schema order."""
    raw = {
        "mode": report.mode.value,
        "trials": report.trials,
        "seed": report.seed,
        "announce_rate": report.announce_rate,
        "attack_phi": report.attack_phi,
        "attack_target": (
            report.attack_target.letter if report.attack_target is not None else None
        ),
        "epsilon": report.epsilon,
        "dealer": report.dealer.letter,
        "security_verdict": report.security_verdict.value,
    }
    for name in REPORT_COLUMNS:
        if name not in raw:
            raw[name] = getattr(report, name)
    return {name: raw[name] for name in REPORT_COLUMNS}


def report_from_dict(data: dict) -> RunReport:
    missing = set(REPORT_COLUMNS) - set(data)
    if missing:
        raise ValueError(f"report is missing fields: {sorted(missing)}")
    kwargs = dict(data)
    kwargs["mode"] = ProtocolMode(kwargs["mode"])
    kwargs["dealer"] = Party.from_letter(kwargs["dealer"])
    target = kwargs["attack_target"]
    kwargs["attack_target"] = Party.from_letter(target) if target is not None else None
    kwargs["security_verdict"] = SecurityVerdict(kwargs["security_verdict"])
    kwargs = {name: kwargs[name] for name in REPORT_COLUMNS}
    return RunReport(**kwargs)


def render_report_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def parse_report_json(text: str) -> RunReport:
    return report_from_dict(json.loads(text))


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def render_report_csv(report: RunReport) -> str:
    data = report_to_dict(report)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerow([_cell(data[name]) for name in REPORT_COLUMNS])
    return buffer.getvalue()


def parse_report_csv(text: str) -> RunReport:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or tuple(rows[0]) != REPORT_COLUMNS:
        raise ValueError("report CSV must have the fixed header row and one data row")
    data: dict = {}
    for name, cell in zip(REPORT_COLUMNS, rows[1]):
        if name in _INT_FIELDS:
            data[name] = int(cell)
        elif name in _FLOAT_FIELDS:
            data[name] = float(cell)
        elif name in _OPTIONAL_FLOAT_FIELDS:
            data[name] = float(cell) if cell else None
        else:
            data[name] = cell if cell else None
    return report_from_dict(data)


REPORT_FORMATS = ("json", "csv")


def render_report(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return render_report_json(report)
    if fmt == "csv":
        return render_report_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def render_sweep_csv(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [row.phi, row.p_bar, row.empirical, row.sigma, row.verdict.value]
        )
    return buffer.getvalue()


def parse_sweep_csv(text: str) -> list[SweepRow]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
        raise ValueError("sweep CSV must start with the fixed header row")
    parsed = []
    for cells in rows[1:]:
        parsed.append(
            SweepRow(
                phi=float(cells[0]),
                p_bar=float(cells[1]),
                empirical=float(cells[2]),
                sigma=float(cells[3]),
                verdict=SecurityVerdict(cells[4]),
            )
        )
    return parsed
