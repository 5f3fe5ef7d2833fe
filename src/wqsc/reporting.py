"""Machine-readable run reports: JSON and CSV renderers plus parsers.

The schema is fixed: the fields of ``RunReport``, in declaration order,
are the key list and column order, named by ``REPORT_COLUMNS``.  JSON
object keys and CSV headers never change without a schema version bump.
CSV is UTF-8, comma delimited, '.' decimal point, header row mandatory,
and every row exactly as wide as the header; missing values are empty
cells in CSV and null in JSON.  Rendering is deterministic: the same
report always yields the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from .protocol import ProtocolMode, RunReport, SecurityVerdict
from .qcore import Party

_REPORT_FIELDS = fields(RunReport)
REPORT_COLUMNS: tuple[str, ...] = tuple(field.name for field in _REPORT_FIELDS)

SWEEP_COLUMNS: tuple[str, ...] = ("phi", "p_bar", "empirical", "sigma", "verdict")

# CSV cell parsers by field annotation, which ``protocol`` keeps as text
# (postponed annotations); any other field is text, None when empty, and
# report_from_dict converts it.
_CELL_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda cell: float(cell) if cell else None,
}


def _text(cell: str) -> str | None:
    return cell if cell else None


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


def _check_width(cells: list[str], columns: tuple[str, ...]) -> None:
    if len(cells) != len(columns):
        raise ValueError(f"CSV row has {len(cells)} cells, expected {len(columns)}: {cells!r}")


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
    _check_width(rows[1], REPORT_COLUMNS)
    data = {
        field.name: _CELL_PARSERS.get(field.type, _text)(cell)
        for field, cell in zip(_REPORT_FIELDS, rows[1])
    }
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
        _check_width(cells, SWEEP_COLUMNS)
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
