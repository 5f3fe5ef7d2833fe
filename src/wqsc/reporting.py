"""Machine-readable run reports and sweep rows: JSON and CSV renderers plus parsers.

Each row type's fields are its schema: the fields of ``RunReport`` and
``SweepRow`` (both defined in :mod:`wqsc.protocol`), in order, are its keys
and columns (``REPORT_COLUMNS``, ``SWEEP_COLUMNS``) and change only with a
schema version bump.  A party is written as its letter, any other enum as
its value, and the same rows always render to the same bytes.  CSV is
UTF-8, comma delimited, '.' decimal point, one header row and rows as wide
as it; a missing value is an empty cell or null.  The writers fill a
template built from the schema at import straight from a row's fields,
with the bytes ``json`` (``indent=2``) and ``csv`` would write; ``json``
and ``csv`` parse.

Decoding follows the field's annotation: only a ``| None`` field may be
null (JSON) or an empty cell (CSV).  A CSV cell is text, read with
``int()``, ``float()`` or as an enum's scalar.  A JSON value is never
text for a number: an int field takes an int, a float field an int or
float, never a bool, and an enum field its scalar.  A float field takes
no NaN or infinity (JSON's ``NaN`` and ``Infinity``, CSV's ``nan`` and
``inf``), which no renderer writes.  Else a ValueError names the field.
A row must hold every field of its schema and no other key, else a
ValueError names the missing fields and the unknown keys; a JSON report
that gives a key twice is refused, naming it, as a CSV header must be the
schema's exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
from enum import Enum

from .protocol import ProtocolMode, RunReport, SecurityVerdict, SweepRow
from .qcore import Party

REPORT_COLUMNS = tuple(field.name for field in fields(RunReport))
SWEEP_COLUMNS = tuple(field.name for field in fields(SweepRow))
_COLUMNS = {RunReport: REPORT_COLUMNS, SweepRow: SWEEP_COLUMNS}
_ENUMS = (ProtocolMode, Party, SecurityVerdict)


def _scalar(member: Enum) -> object:
    """An enum member as a JSON scalar: a party's letter, any other member's value."""
    return member.letter if isinstance(member, Party) else member.value


def _finite(value: object) -> float:
    """``float(value)``, refusing NaN and the infinities with ValueError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number!r} is not finite")
    return number


# By field annotation (text, as annotations are postponed) less any "| None":
# the types a JSON value may have, never bool, and how a value is read.
_DECODERS = {
    "int": ((int,), int),
    "float": ((int, float), _finite),
    **{enum.__name__: ((str,), {_scalar(m): m for m in enum}.__getitem__) for enum in _ENUMS},
}


def _decode(field, value: object, text: bool) -> object:
    """``value``, a CSV cell if ``text`` else a JSON value, read by ``field``'s annotation."""
    base = field.type.removesuffix(" | None")
    if base != field.type and (value == "" if text else value is None):
        return None
    types, read = _DECODERS[base]
    if isinstance(value, str if text else types) and not isinstance(value, bool):
        try:
            return read(value)
        except (KeyError, OverflowError, ValueError):
            pass
    raise ValueError(f"{field.name} cannot be {value!r}")


def _from_dict(row_type: type, data: dict, text: bool = False):
    if not isinstance(data, dict):
        raise ValueError(f"{row_type.__name__} must be an object, got {data!r}")
    columns = set(_COLUMNS[row_type])
    missing, unknown = columns - set(data), [key for key in data if key not in columns]
    if missing or unknown:
        problems = [f"is missing fields: {sorted(missing)}"] if missing else []
        problems += [f"has unknown keys: {unknown}"] if unknown else []
        raise ValueError(f"{row_type.__name__} {' and '.join(problems)}")
    return row_type(**{f.name: _decode(f, data[f.name], text) for f in fields(row_type)})


def report_to_dict(report: RunReport) -> dict:
    """Flatten a report to plain scalars in schema order."""
    # A frozen dataclass's __dict__ holds its fields in field order.  An exact
    # type test: isinstance() against an enum class takes about 0.1 us.
    return {name: _scalar(value) if type(value) in _ENUMS else value
            for name, value in vars(report).items()}


def report_from_dict(data: dict) -> RunReport:
    return _from_dict(RunReport, data)


def _writer(row_type: type, json_text: bool) -> tuple[str, tuple[tuple[int, dict], ...]]:
    """``(template, tables)``: how a row of ``row_type`` is written, built from its schema.

    The template has one ``%s`` slot per field, in field order: a JSON
    object with ``indent=2`` if ``json_text``, else one CSV line.  An int
    or float fills its slot as its ``str``, which is its ``repr``, as
    ``json`` and ``csv`` write it.  Each field that may hold anything else
    has a table, by field index, of the texts of its other values: None
    (``null``, or an empty cell) for a ``| None`` field and each member of
    an enum field (its scalar, quoted as a JSON string).  No other value
    needs quoting: names and scalars are plain ASCII words.
    """
    enums = {enum.__name__: enum for enum in _ENUMS}
    tables = []
    for index, field in enumerate(fields(row_type)):
        base = field.type.removesuffix(" | None")
        texts = {} if base == field.type else {None: "null" if json_text else ""}
        for member in enums.get(base, ()):
            texts[member] = json.dumps(_scalar(member)) if json_text else _scalar(member)
        if texts:
            tables.append((index, texts))
    if json_text:
        slots = ",\n".join(f"  {json.dumps(name)}: %s" for name in _COLUMNS[row_type])
        template = "{\n" + slots + "\n}\n"
    else:
        template = ",".join(["%s"] * len(_COLUMNS[row_type])) + "\n"
    return template, tuple(tables)


def _write(writer: tuple[str, tuple[tuple[int, dict], ...]], row) -> str:
    """``row`` written through ``writer``, a :func:`_writer` template and its tables."""
    template, tables = writer
    # A frozen dataclass's __dict__ holds its fields in field order.
    values = list(vars(row).values())
    for index, texts in tables:
        value = values[index]
        values[index] = texts.get(value, value)
    return template % tuple(values)


_REPORT_JSON = _writer(RunReport, json_text=True)
_REPORT_CSV = _writer(RunReport, json_text=False)
_SWEEP_CSV = _writer(SweepRow, json_text=False)
_REPORT_HEADER = ",".join(REPORT_COLUMNS) + "\n"
_SWEEP_HEADER = ",".join(SWEEP_COLUMNS) + "\n"


def render_report_json(report: RunReport) -> str:
    return _write(_REPORT_JSON, report)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError naming it."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ValueError(f"RunReport repeats keys: {repeated}")
    return dict(pairs)


def parse_report_json(text: str) -> RunReport:
    return report_from_dict(json.loads(text, object_pairs_hook=_unique_keys))


def _read_csv(row_type: type, text: str) -> list:
    columns = _COLUMNS[row_type]
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    if tuple(header) != columns:
        raise ValueError(f"{row_type.__name__} CSV must start with the header {','.join(columns)}")
    for cells in rows:
        if len(cells) != len(columns):
            raise ValueError(f"CSV row has {len(cells)} cells, expected {len(columns)}: {cells!r}")
    return [_from_dict(row_type, dict(zip(columns, cells)), text=True) for cells in rows]


def render_report_csv(report: RunReport) -> str:
    return _REPORT_HEADER + _write(_REPORT_CSV, report)


def parse_report_csv(text: str) -> RunReport:
    reports = _read_csv(RunReport, text)
    if len(reports) == 1:
        return reports[0]
    raise ValueError(f"report CSV must have one data row, got {len(reports)}")


_RENDERERS = {"json": render_report_json, "csv": render_report_csv}
REPORT_FORMATS = tuple(_RENDERERS)


def render_report(report: RunReport, fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    return _RENDERERS[fmt](report)


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join([_SWEEP_HEADER, *(_write(_SWEEP_CSV, row) for row in rows)])


def parse_sweep_csv(text: str) -> list[SweepRow]:
    return _read_csv(SweepRow, text)
