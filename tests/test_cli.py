import math

import pytest

import wqsc.bell
import wqsc.cli
import wqsc.golden
from wqsc import binomial_sigma
from wqsc.cli import main, sample_security_frequency
from wqsc.golden import run_verification
from wqsc.reporting import parse_report_csv, parse_report_json, parse_sweep_csv

HALF_PI_TEXT = "1.5707963267948966"


def run_cli(*args):
    return main(list(args))


class TestRunCommand:
    def test_default_announce_rate_yields_secure_exit(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--mode", "qkd", "--trials", "4000", "--seed", "7",
                       "--output", str(out))
        assert code == 0
        report = parse_report_json(out.read_text())
        assert report.security_events == 0
        assert abs(report.empirical_success_rate - 0.25) <= 3 * binomial_sigma(0.25, 4000)

    def test_zero_announce_rate_is_inconclusive(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--mode", "qkd", "--trials", "1000", "--seed", "7",
                       "--announce-rate", "0", "--output", str(out))
        assert code == 3

    def test_maximal_attack_is_detected(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("run", "--mode", "qkd", "--trials", "8000", "--seed", "7",
                       "--phi", HALF_PI_TEXT, "--target", "C",
                       "--announce-rate", "0.2", "--output", str(out))
        assert code == 2
        report = parse_report_json(out.read_text())
        assert report.security_verdict.value == "compromised"

    def test_zero_trials_is_usage_error(self, capsys):
        assert run_cli("run", "--mode", "qkd", "--trials", "0", "--seed", "7") == 1
        assert "trials" in capsys.readouterr().err

    def test_bad_flag_values_are_usage_errors(self):
        assert run_cli("run", "--mode", "nope", "--trials", "10", "--seed", "1") == 1
        assert run_cli("run", "--mode", "qkd", "--trials", "10", "--seed", "1",
                       "--phi", "9") == 1
        assert run_cli("run", "--mode", "qkd", "--trials", "10") == 1  # seed required

    def test_byte_identical_reports_for_identical_flags(self, tmp_path):
        flags = ["run", "--mode", "synth", "--trials", "3000", "--seed", "123",
                 "--announce-rate", "0.2"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(*flags, "--output", str(out1)) == run_cli(*flags, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format_round_trips(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli("run", "--mode", "pqss", "--trials", "2000", "--seed", "9",
                       "--format", "csv", "--output", str(out))
        assert code == 0
        report = parse_report_csv(out.read_text())
        assert report.trials == 2000
        assert report.mode.value == "pqss"

    def test_stdout_output(self, capsys):
        code = run_cli("run", "--mode", "qkd", "--trials", "500", "--seed", "3")
        assert code in (0, 3)
        payload = capsys.readouterr().out
        assert payload.startswith("{")


class TestFailFast:
    """Bad flags and output settings fail with exit 1 and one line, before any simulation."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulation ran before the output was checked")

        monkeypatch.setattr(wqsc.cli, "run_protocol", forbidden)
        monkeypatch.setattr(wqsc.cli, "sample_security_frequency", forbidden)

    @staticmethod
    def assert_one_line_error(capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    def test_unwritable_output(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-dir" / "out")
        assert run_cli("run", "--mode", "qkd", "--trials", "20000", "--seed", "1",
                       "--output", missing) == 1
        self.assert_one_line_error(capsys, "no-such-dir")
        assert run_cli("sweep-phi", "--grid", "0.5", "--seed", "1", "--output", missing) == 1
        self.assert_one_line_error(capsys, "no-such-dir")

    def test_bad_format_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WQSC_FORMAT", "xml")
        out = tmp_path / "report"
        assert run_cli("run", "--mode", "qkd", "--trials", "20000", "--seed", "1",
                       "--output", str(out)) == 1
        self.assert_one_line_error(capsys, "xml")
        assert not out.exists()


    def test_bad_target_without_attack(self, capsys):
        assert run_cli("run", "--mode", "qkd", "--trials", "20000", "--seed", "1",
                       "--target", "Z") == 1
        self.assert_one_line_error(capsys, "'Z'")

    def test_out_of_range_sweep_seed(self, capsys):
        assert run_cli("sweep-phi", "--grid", "0.5", "--seed", "-1") == 1
        self.assert_one_line_error(capsys, "seed")


class TestEnvironmentMirroring:
    def test_flags_can_come_from_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setenv("WQSC_MODE", "qkd")
        monkeypatch.setenv("WQSC_TRIALS", "1200")
        monkeypatch.setenv("WQSC_SEED", "21")
        monkeypatch.setenv("WQSC_OUTPUT", str(out))
        assert run_cli("run") == 0
        assert parse_report_json(out.read_text()).trials == 1200

    def test_flags_override_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setenv("WQSC_TRIALS", "1200")
        assert run_cli("run", "--mode", "qkd", "--trials", "800", "--seed", "2",
                       "--output", str(out)) == 0
        assert parse_report_json(out.read_text()).trials == 800

    def test_parser_follows_environment_between_calls(self, tmp_path, capsys, monkeypatch):
        # The parser is built once per set of WQSC_* values; each call must
        # still see the environment as it is when the call is made.
        out = tmp_path / "report.json"
        argv = ("run", "--mode", "qkd", "--trials", "2000", "--output", str(out))
        monkeypatch.setenv("WQSC_SEED", "21")
        assert run_cli(*argv) == 0
        capsys.readouterr()

        monkeypatch.delenv("WQSC_SEED")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--seed" in err

        def forbidden(*args, **kwargs):
            raise AssertionError("simulation ran before the format was checked")

        monkeypatch.setattr(wqsc.cli, "run_protocol", forbidden)
        monkeypatch.setenv("WQSC_SEED", "21")
        monkeypatch.setenv("WQSC_FORMAT", "xml")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "xml" in err


class TestVerifyCommand:
    def test_all_golden_values_pass(self, capsys):
        assert run_cli("verify") == 0
        output = capsys.readouterr().out
        assert "FAIL" not in output
        assert output.count("PASS") >= 40

    def test_one_distribution_per_state_and_none_kept_between_calls(self, monkeypatch):
        # Every event of a state is read from one outcome distribution, so a
        # call builds one per checked state (16).  The second call builds
        # as many again: nothing is cached across calls.
        builds = []
        for module in (wqsc.bell, wqsc.golden):
            def counting(state, build=module.outcome_distribution):
                builds.append(state)
                return build(state)
            monkeypatch.setattr(module, "outcome_distribution", counting)
        counts = []
        for _ in range(2):
            builds.clear()
            assert run_verification()[0]
            counts.append(len(builds))
        assert counts[0] == counts[1] <= 20


class TestSweepCommand:
    def test_zero_strength_point_is_exactly_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep-phi", "--grid", "0", "--trials", "20000", "--seed", "5",
                       "--output", str(out))
        assert code == 0
        rows = parse_sweep_csv(out.read_text())
        assert rows[0].empirical == 0.0
        assert rows[0].verdict.value == "secure"

    def test_analytic_column_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        grid = f"0,{math.pi / 3.0},{HALF_PI_TEXT}"
        code = run_cli("sweep-phi", "--grid", grid, "--trials", "100", "--seed", "5",
                       "--output", str(out))
        assert code == 0
        rows = parse_sweep_csv(out.read_text())
        assert rows[1].p_bar == pytest.approx(11.0 / 72.0, abs=1e-12)
        assert rows[2].p_bar == pytest.approx(5.0 / 18.0, abs=1e-12)

    def test_maximal_strength_empirical_within_three_sigma(self, tmp_path):
        out = tmp_path / "sweep.csv"
        samples = 100_000
        code = run_cli("sweep-phi", "--grid", HALF_PI_TEXT, "--trials", str(samples),
                       "--seed", "11", "--output", str(out))
        assert code == 0
        row = parse_sweep_csv(out.read_text())[0]
        assert abs(row.empirical - 5.0 / 18.0) <= 3 * binomial_sigma(5.0 / 18.0, samples)
        assert row.verdict.value == "compromised"

    def test_empty_grid_is_usage_error(self, capsys):
        assert run_cli("sweep-phi", "--grid", "", "--seed", "1") == 1
        assert "grid" in capsys.readouterr().err

    def test_out_of_range_grid_rejected(self):
        assert run_cli("sweep-phi", "--grid", "0,2.0", "--seed", "1") == 1

    def test_sampler_is_deterministic(self):
        a = sample_security_frequency(0.9, 2000, seed=4, point_index=1)
        b = sample_security_frequency(0.9, 2000, seed=4, point_index=1)
        assert a == b
