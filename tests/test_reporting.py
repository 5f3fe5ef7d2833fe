import dataclasses
import itertools
import json
import math

import pytest

from helpers import encoder_report_json, writer_csv
from wqsc import (
    Party,
    ProtocolConfig,
    ProtocolMode,
    SecurityVerdict,
    UnitaryCouplingAttack,
    run_protocol,
)
from wqsc.reporting import (
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    SweepRow,
    parse_report_csv,
    parse_report_json,
    parse_sweep_csv,
    render_report,
    render_report_csv,
    render_report_json,
    render_sweep_csv,
    report_from_dict,
    report_to_dict,
)

EXPECTED_COLUMNS = (
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


@pytest.fixture(scope="module")
def plain_report():
    return run_protocol(ProtocolConfig(ProtocolMode.QKD, trials=2000, seed=5, announce_rate=0.1))


@pytest.fixture(scope="module")
def attacked_report():
    config = ProtocolConfig(
        ProtocolMode.SYNTH,
        trials=2000,
        seed=6,
        announce_rate=0.25,
        attack=UnitaryCouplingAttack(math.pi / 3.0),
    )
    return run_protocol(config)


class TestSchema:
    def test_columns_are_frozen(self):
        assert REPORT_COLUMNS == EXPECTED_COLUMNS
        assert SWEEP_COLUMNS == ("phi", "p_bar", "empirical", "sigma", "verdict")

    def test_dict_keys_follow_schema_order(self, plain_report):
        data = report_to_dict(plain_report)
        assert tuple(data.keys()) == REPORT_COLUMNS

    def test_json_keys_follow_schema(self, attacked_report):
        payload = json.loads(render_report_json(attacked_report))
        assert tuple(payload.keys()) == REPORT_COLUMNS


class TestRoundTrip:
    def test_json(self, plain_report, attacked_report):
        for report in (plain_report, attacked_report):
            assert parse_report_json(render_report_json(report)) == report

    def test_csv(self, plain_report, attacked_report):
        for report in (plain_report, attacked_report):
            assert parse_report_csv(render_report_csv(report)) == report

    def test_dict(self, attacked_report):
        assert report_from_dict(report_to_dict(attacked_report)) == attacked_report

    def test_missing_field_rejected(self, plain_report):
        data = report_to_dict(plain_report)
        data.pop("seed")
        with pytest.raises(ValueError):
            report_from_dict(data)

    def test_unknown_key_rejected(self, plain_report):
        # The JSON parser refuses a key outside the schema, as the CSV
        # parser refuses any header but the schema's.
        data = report_to_dict(plain_report)
        data["bogus"] = 1
        message = r"^RunReport has unknown keys: \['bogus'\]$"
        with pytest.raises(ValueError, match=message):
            report_from_dict(data)
        with pytest.raises(ValueError, match=message):
            parse_report_json(json.dumps(data))

    def test_unknown_key_beside_a_missing_one_rejected(self, plain_report):
        data = report_to_dict(plain_report)
        data.pop("seed")
        data["bogus"] = 1
        message = r"^RunReport is missing fields: \['seed'\] and has unknown keys: \['bogus'\]$"
        with pytest.raises(ValueError, match=message):
            parse_report_json(json.dumps(data))

    @pytest.mark.parametrize("extra", [{}, {"bogus": 1}], ids=["alone", "beside-an-extra-key"])
    def test_repeated_key_rejected(self, plain_report, extra):
        # The last of two values would otherwise win, where the CSV parser
        # refuses any header but the schema's.
        text = json.dumps({**report_to_dict(plain_report), **extra})
        text = text.replace('"trials": ', '"trials": 11, "trials": ', 1)
        assert text.count('"trials"') == 2
        with pytest.raises(ValueError, match=r"^RunReport repeats keys: \['trials'\]$"):
            parse_report_json(text)

    @pytest.mark.parametrize("rows", [0, 2])
    def test_csv_must_hold_one_report(self, plain_report, rows):
        header, row = render_report_csv(plain_report).splitlines()
        with pytest.raises(ValueError, match=f"^report CSV must have one data row, got {rows}$"):
            parse_report_csv("\n".join([header, *[row] * rows]) + "\n")

    def test_csv_row_width_must_match_header(self, plain_report):
        header, row = render_report_csv(plain_report).splitlines()
        for bad_row in (row + ",7", row.rsplit(",", 1)[0]):
            with pytest.raises(ValueError):
                parse_report_csv(f"{header}\n{bad_row}\n")

    @pytest.mark.parametrize("mode", list(ProtocolMode))
    @pytest.mark.parametrize("trials", [1, 300])
    def test_json_bytes_are_indent_2(self, mode, trials):
        for attack in (None, UnitaryCouplingAttack(math.pi / 2.0)):
            report = run_protocol(ProtocolConfig(mode, trials=trials, seed=3, attack=attack))
            expected = json.dumps(report_to_dict(report), indent=2) + "\n"
            assert render_report_json(report) == expected

    def test_rendering_is_deterministic(self, attacked_report):
        assert render_report_json(attacked_report) == render_report_json(attacked_report)
        assert render_report_csv(attacked_report) == render_report_csv(attacked_report)


class TestOptionalFields:
    def test_no_attack_serializes_nulls(self, plain_report):
        payload = json.loads(render_report_json(plain_report))
        assert payload["attack_phi"] is None
        assert payload["attack_target"] is None

    def test_csv_empty_cells_for_missing_values(self, plain_report):
        text = render_report_csv(plain_report)
        parsed = parse_report_csv(text)
        assert parsed.attack_phi is None
        assert parsed.attack_target is None

    def test_attack_fields_preserved(self, attacked_report):
        parsed = parse_report_csv(render_report_csv(attacked_report))
        assert parsed.attack_phi == pytest.approx(math.pi / 3.0)
        assert parsed.attack_target is not None


class TestFormatDispatch:
    def test_render_report_formats(self, plain_report):
        assert render_report(plain_report, "json").startswith("{")
        assert render_report(plain_report, "csv").startswith("mode,")
        with pytest.raises(ValueError):
            render_report(plain_report, "yaml")


class TestSweepSerialization:
    def test_round_trip(self):
        rows = [
            SweepRow(0.0, 0.0, 0.0, 0.0, SecurityVerdict.SECURE),
            SweepRow(0.5, 0.03, 0.028, 0.002, SecurityVerdict.COMPROMISED),
        ]
        text = render_sweep_csv(rows)
        assert text.splitlines()[0] == "phi,p_bar,empirical,sigma,verdict"
        assert parse_sweep_csv(text) == rows

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_sweep_csv("nope\n0,0,0,0,secure\n")

    @pytest.mark.parametrize("row", ["0.1,0.2,0.3", "0,0,0,0,secure,extra", ""])
    def test_row_width_must_match_header(self, row):
        with pytest.raises(ValueError):
            parse_sweep_csv(f"phi,p_bar,empirical,sigma,verdict\n{row}\n")


class TestTypeRule:
    """A value its field's annotation cannot read exactly is rejected, naming the field."""

    @pytest.mark.parametrize("name,value", [
        ("trials", 400.5),
        ("trials", True),
        ("trials", None),
        ("epsilon", True),
        ("mode", "qkd2"),
        ("dealer", 0),
        # Only a CSV cell is text: a JSON number field takes no string, and
        # only null (not "") is a missing JSON value.
        ("trials", "400"),
        ("epsilon", "1e-09"),
        ("announce_rate", " 0.1 "),
        ("security_event_frequency", ""),
        pytest.param("epsilon", 10**400, id="epsilon-too-large-for-a-float"),
    ])
    def test_json_value_of_wrong_type(self, plain_report, name, value):
        payload = json.loads(render_report_json(plain_report))
        payload[name] = value
        with pytest.raises(ValueError, match=name):
            parse_report_json(json.dumps(payload))

    @pytest.mark.parametrize("text", ["5", "null"])
    def test_json_that_is_not_an_object(self, text):
        with pytest.raises(ValueError):
            parse_report_json(text)

    def test_csv_unknown_dealer(self, plain_report):
        header, row = render_report_csv(plain_report).splitlines()
        cells = row.split(",")
        cells[REPORT_COLUMNS.index("dealer")] = "Z"
        with pytest.raises(ValueError, match="dealer"):
            parse_report_csv(f"{header}\n{','.join(cells)}\n")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("name", ["epsilon", "announce_rate", "formula_qubits",
                                      "security_event_frequency", "attack_phi"])
    def test_json_non_finite_float(self, attacked_report, name, token):
        # json.loads reads these tokens as floats; no renderer writes them.
        text = render_report_json(attacked_report)
        line = next(line for line in text.splitlines() if line.startswith(f'  "{name}": '))
        edited = text.replace(line, f'  "{name}": {token}' + ("," if line.endswith(",") else ""))
        assert json.loads(edited)[name] != json.loads(text)[name]
        with pytest.raises(ValueError, match=name):
            parse_report_json(edited)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("name", ["epsilon", "formula_qubits", "security_event_frequency"])
    def test_csv_non_finite_float(self, attacked_report, name, cell):
        header, row = render_report_csv(attacked_report).splitlines()
        cells = row.split(",")
        cells[REPORT_COLUMNS.index(name)] = cell
        with pytest.raises(ValueError, match=name):
            parse_report_csv(f"{header}\n{','.join(cells)}\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("name", ["phi", "p_bar", "empirical", "sigma"])
    def test_sweep_non_finite_float(self, name, cell):
        cells = ["0.5", "0.03", "0.028", "0.002", "compromised"]
        cells[SWEEP_COLUMNS.index(name)] = cell
        with pytest.raises(ValueError, match=name):
            parse_sweep_csv(f"phi,p_bar,empirical,sigma,verdict\n{','.join(cells)}\n")

    def test_sweep_unknown_verdict(self):
        with pytest.raises(ValueError, match="verdict"):
            parse_sweep_csv("phi,p_bar,empirical,sigma,verdict\n0,0,0,0,maybe\n")


# Floats whose shortest repr is the subnormal minimum, the largest double and
# a sum that rounds, and the largest signed 64-bit seed.
EDGE_FIELDS = dict(attack_phi=5e-324, epsilon=1.7976931348623157e308,
                   announce_rate=0.30000000000000004, seed=2**63 - 1)


class TestWritersGiveTheFormerBytes:
    """The templates write what ``json.JSONEncoder`` and ``csv.writer`` wrote (``helpers``)."""

    def assert_former_bytes(self, report):
        assert render_report_json(report) == encoder_report_json(report)
        assert render_report_csv(report) == writer_csv(REPORT_COLUMNS, [report])

    def test_null_fields_and_edge_values(self, plain_report, attacked_report):
        assert plain_report.attack_phi is None and plain_report.attack_target is None
        self.assert_former_bytes(plain_report)
        self.assert_former_bytes(dataclasses.replace(attacked_report, **EDGE_FIELDS))
        self.assert_former_bytes(dataclasses.replace(
            attacked_report, security_event_frequency=None, qubits_per_key_bit=None))

    def test_every_enum_member(self, attacked_report):
        for mode, dealer, target, verdict in itertools.product(
                ProtocolMode, Party, [*Party, None], SecurityVerdict):
            self.assert_former_bytes(dataclasses.replace(
                attacked_report, mode=mode, dealer=dealer, attack_target=target,
                security_verdict=verdict))

    def test_sweep_rows(self):
        rows = [SweepRow(0.0, 0.0, 0.0, 0.0, verdict) for verdict in SecurityVerdict] + [
            SweepRow(math.pi / 2, 5e-324, 0.30000000000000004, 1.7976931348623157e308,
                     SecurityVerdict.COMPROMISED),
        ]
        for stack in ([], rows[:1], rows):
            assert render_sweep_csv(stack) == writer_csv(SWEEP_COLUMNS, stack)
