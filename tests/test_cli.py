import argparse
import contextlib
import io
import math
import os
import pathlib
import subprocess
import sys
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wqsc.bell
import wqsc.cli
import wqsc.golden
import wqsc.protocol
from wqsc import binomial_sigma, sample_security_frequency
from wqsc.cli import entrypoint, main
from wqsc.golden import run_verification
from wqsc.protocol import MODE_SUCCESS_PROBABILITY, ProtocolMode, check_sweep_arguments
from wqsc.reporting import parse_report_csv, parse_report_json, parse_sweep_csv, render_sweep_csv

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

    # The workflow's degenerate-halves step: rate 0 leaves every set's
    # announced half empty, so nothing is checked (exit 3); the largest rate
    # below 1 leaves the unannounced half 1 unit wide, so every trial is
    # announced and the attack is caught (exit 2).
    @pytest.mark.parametrize("rate,code,announced", [("0", 3, 0), ("0.9999999999999999", 2, 2000)])
    def test_degenerate_announcement_halves(self, tmp_path, rate, code, announced):
        out = tmp_path / "report.json"
        assert run_cli("run", "--mode", "qkd", "--trials", "2000", "--seed", "7",
                       "--phi", HALF_PI_TEXT, "--announce-rate", rate, "--output", str(out)) == code
        assert parse_report_json(out.read_text()).announced_trials == announced

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
        monkeypatch.setattr(wqsc.cli, "sweep_rows", forbidden)

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

    @pytest.mark.parametrize("name,flag,value", [
        ("WQSC_TARGET", "--target", "D"),
        ("WQSC_DEALER", "--dealer", "Z"),
    ])
    def test_bad_party_from_environment_names_the_variable(
        self, name, flag, value, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(name, value)
        out = tmp_path / "report.json"
        assert run_cli("run", "--mode", "qkd", "--trials", "10", "--seed", "1",
                       "--output", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {name}: argument {flag}: unknown party '{value}'; expected one of A, B, C\n"
        )
        assert not out.exists()

    def test_out_of_range_sweep_seed(self, capsys):
        assert run_cli("sweep-phi", "--grid", "0.5", "--seed", "-1") == 1
        self.assert_one_line_error(capsys, "seed")

    @pytest.mark.parametrize("grid,item", [("0,,1", 2), ("0.5,", 2), (",0.5", 1), ("0, ,1", 2)])
    def test_empty_grid_item_is_usage_error(self, grid, item, tmp_path, capsys):
        # An empty item among values would otherwise run a shorter sweep.
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-phi", "--grid", grid, "--seed", "1", "--output", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: argument --grid: bad phi grid {grid!r}: item {item} is empty\n")
        assert not out.exists()

    def test_grid_variable_error_names_it_before_a_missing_seed(self, capsys, monkeypatch):
        # The grid's text is its flag's value, so it is read, and refused, first.
        monkeypatch.setenv("WQSC_GRID", "0,,1")
        assert run_cli("sweep-phi") == 1
        assert capsys.readouterr().err == (
            "error: WQSC_GRID: argument --grid: bad phi grid '0,,1': item 2 is empty\n")

    def test_grid_item_that_is_not_a_number_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-phi", "--grid", "0.5,abc", "--seed", "1", "--output", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: argument --grid: bad phi grid: could not convert string to float: 'abc'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags,grid,samples,seed,named", [
        (("--grid", "0,2.0"), [0.0, 2.0], 10000, 1, "angle"),
        (("--grid", "nan"), [math.nan], 10000, 1, "angle"),
        (("--grid", " , "), [], 10000, 1, "grid"),
        (("--grid", "0.5", "--trials", "0"), [0.5], 0, 1, "trials"),
        (("--grid", "0.5", "--seed", str(2**64)), [0.5], 10000, 2**64, "seed"),
    ])
    def test_bad_sweep_value_gives_the_sampler_message_and_no_output(
        self, flags, grid, samples, seed, named, tmp_path, capsys
    ):
        with pytest.raises(ValueError) as sampler:
            check_sweep_arguments(grid, samples, seed)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-phi", "--seed", "1", *flags, "--output", str(out)) == 1
        assert capsys.readouterr().err == f"error: {sampler.value}\n"
        assert named in str(sampler.value)
        assert not out.exists()

    def test_bad_epsilon_gives_one_message_for_run_and_sweep(self, tmp_path, capsys):
        assert run_cli("run", "--mode", "qkd", "--trials", "10", "--seed", "1",
                       "--epsilon", "0") == 1
        run_err = capsys.readouterr().err
        out = tmp_path / "eps.csv"
        assert run_cli("sweep-phi", "--grid", "0.5", "--seed", "1", "--epsilon", "0",
                       "--output", str(out)) == 1
        assert capsys.readouterr().err == run_err == "error: epsilon must lie in (0, 1), got 0.0\n"
        assert not out.exists()

    def test_console_script_rejects_bad_environment_value(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wqsc", "run", "--trials", "10", "--seed", "1"])
        monkeypatch.setenv("WQSC_MODE", "nope")
        with pytest.raises(SystemExit) as exit_info:
            entrypoint()
        assert exit_info.value.code == 1
        self.assert_one_line_error(capsys, "'nope'")

    def test_bad_environment_value_under_a_flag_is_still_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WQSC_TRIALS", "many")
        assert run_cli("run", "--mode", "qkd", "--trials", "10", "--seed", "1") == 1
        self.assert_one_line_error(capsys, "--trials", "'many'")

    def test_error_in_environment_value_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("WQSC_MODE", "nope")
        assert run_cli("run", "--trials", "10", "--seed", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: WQSC_MODE: argument --mode: invalid choice: 'nope'")
        assert err.count("\n") == 1

    def test_error_in_flag_under_good_environment_value_names_the_flag(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("WQSC_MODE", "qkd")
        assert run_cli("run", "--mode", "nope", "--trials", "10", "--seed", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --mode: invalid choice: 'nope'")
        assert err.count("\n") == 1


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
        # The flag tables are built once per process; each call must still
        # read the environment as it is when the call is made.
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


class TestConsoleScript:
    def test_main_reads_sys_argv_and_environment(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wqsc", "run", "--mode", "qkd", "--trials", "700"])
        monkeypatch.setenv("WQSC_SEED", "21")
        assert main() == 0
        report = parse_report_json(capsys.readouterr().out)
        assert (report.trials, report.seed) == (700, 21)


class TestDispatch:
    # The words after a leading command word are read against that
    # command's flags; each text is the one argparse printed for the same words.
    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "error: the following arguments are required: command"),
            (["bogus"], "error: argument command: invalid choice: 'bogus' "
                        "(choose from 'run', 'verify', 'sweep-phi')"),
            (["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "stray"],
             "error: unrecognized arguments: stray"),
        ],
        ids=["no-command", "unknown-command", "stray-word"],
    )
    def test_usage_error_keeps_its_text(self, argv, message, capsys, monkeypatch):
        for name in [name for name in os.environ if name.startswith("WQSC_")]:
            monkeypatch.delenv(name)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

    @pytest.mark.parametrize(
        "argv", [["--seed", "1", "run", "--mode", "qkd", "--trials", "10"], ["--mode", "qkd", "run"]]
    )
    def test_leading_flag_is_named(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: flag {argv[0]} comes before the command word; flags go after the "
            "command word, as in 'wqsc run --seed 1'\n"
        )

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_leading_help_flag_still_prints_help(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wqsc ")

    def test_help_shows_usage_not_implementation_notes(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out and "argparse" not in out

    def test_command_help_is_the_commands_own(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wqsc run ")


class TestHelp:
    @staticmethod
    def help_of(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        return capsys.readouterr().out

    def test_help_prints_the_docstring_paragraphs_as_written(self, capsys):
        out = self.help_of(["--help"], capsys)
        assert any(line.startswith("Exit codes:") for line in out.splitlines())
        assert "``" not in out

    @pytest.mark.parametrize("command", list(wqsc.cli._COMMANDS))
    def test_command_help_lists_every_flag_with_its_help(self, command, capsys):
        lines = self.help_of([command, "--he"], capsys).splitlines()
        assert lines[0].startswith(f"usage: wqsc {command} ")
        for flag, kwargs in flags_of(command):
            assert any(line.split()[:1] == [flag] and kwargs["help"] in line for line in lines)


# Values each flag's type and choices accept, and values that probe the
# reader's rules for odd words.
GOOD_VALUES = {
    "--mode": ["qkd", "synth"],
    "--trials": ["10", "5_0"],
    "--seed": ["1", "0"],
    "--announce-rate": ["0.2", "1e-3"],
    "--phi": ["0.5", "nan"],
    "--target": ["B", "alice", " c "],
    "--epsilon": ["1e-3"],
    "--dealer": ["C"],
    "--format": ["csv", "json"],
    "--output": ["out.json", "x y"],
    "--grid": ["0.5,1", "0"],
}
ODD_VALUES = ["-0.5", "-3", "", "nan", "5_0", " c ", "alice", "xml", "-", "--", "-h", "x y", "-x y"]
ALL_FLAGS = sorted(GOOD_VALUES)
ODD_FORMS = ["space", "equals", "abbreviated", "abbreviated", "bare", "stray", "help"]
HELP_WORDS = ["--help", "-h", "--he", "-hh", "-hx", "--help=x"]
# The reader's reading of a help flag with attached characters, after a
# command word, as argparse 3.10 to 3.12 reads it; 3.13 reads "-hx" and
# "-hhx" as help.  Each row also names a word that argparse reads the same
# way on every version, which the argparse reference parses in its place.
PINNED_HELP_WORDS = {
    "-hh": (("exit", 0), "-h"),
    "-hx": (("error", "argument -h/--help: ignored explicit argument 'x'"), "--help=x"),
    "-hhx": (("error", "argument -h/--help: ignored explicit argument 'x'"), "--help=x"),
    "-h=": (("error", "argument -h/--help: ignored explicit argument ''"), "--help="),
}


def flags_of(command):
    return wqsc.cli._COMMANDS[command][1]


@st.composite
def word_group(draw, command, clean):
    """A flag and its value, spelled ``--flag value`` or ``--flag=value`` if ``clean``.

    Else the flag may be another command's, the value odd, and the spelling
    abbreviated, the flag alone, a stray word or a help word.
    """
    own = [flag for flag, _ in flags_of(command)]
    if clean and not own:
        return []
    flag = draw(st.sampled_from(own if clean or own and draw(st.booleans()) else ALL_FLAGS))
    good = st.sampled_from(GOOD_VALUES[flag])
    value = draw(good if clean else good | st.sampled_from(ODD_VALUES))
    form = draw(st.sampled_from(["space", "equals"] if clean else ODD_FORMS))
    if form == "abbreviated":
        flag = flag[: draw(st.integers(3, len(flag) - 1))]
        form = draw(st.sampled_from(["space", "equals"]))
    return {
        "space": [flag, value],
        "equals": [f"{flag}={value}"],
        "bare": [flag],
        "stray": [value],
        "help": [draw(st.sampled_from(HELP_WORDS))],
    }[form]


@st.composite
def command_words(draw):
    """A command word and the words after it, often with its required flags well formed."""
    command = draw(st.sampled_from(["run", "sweep-phi", "verify"]))
    groups = draw(st.lists(word_group(command, clean=True), max_size=3))
    groups += draw(st.lists(word_group(command, clean=False), max_size=2))
    if draw(st.booleans()):
        groups += [[flag, draw(st.sampled_from(GOOD_VALUES[flag]))]
                   for flag, kwargs in flags_of(command) if kwargs.get("required")]
    return command, [word for group in draw(st.permutations(groups)) for word in group]


class ArgparseError(Exception):
    pass


class ArgparseParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseError(message)


class StoreOne(argparse.Action):
    """argparse's store, refusing the empty list that a ``--flag=--`` word gives it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def argparse_type(kind):
    """``kind`` as argparse's ``type``: a party's own message, argparse's text for a number."""
    if kind in (int, float):
        return kind

    def convert(text):
        try:
            return kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def add_flags(parser, command):
    parser.set_defaults(command=command)
    for flag, kwargs in flags_of(command):
        if "type" in kwargs:
            kwargs = dict(kwargs, type=argparse_type(kwargs["type"]))
        parser.add_argument(flag, action=StoreOne, **kwargs)
    return parser


def argparse_top_level():
    """The argparse reader of a whole argv: ``wqsc``, and each command as a subparser."""
    parser = ArgparseParser(prog="wqsc")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in wqsc.cli._COMMANDS.items():
        add_flags(commands.add_parser(command, help=help_text), command)
    return parser


def outcome(read, argv):
    """What ``read(argv)`` does: exits, fails with a message, or gives a namespace."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                unittest.mock.patch.dict(os.environ, {}, clear=False):
            for name in [name for name in os.environ if name.startswith("WQSC_")]:
                del os.environ[name]
            namespace = read(argv)
    except SystemExit as exit_info:
        return "exit", exit_info.code
    except (ValueError, ArgparseError) as exc:
        return "error", str(exc)
    # repr tells a float from an int and makes nan equal to itself.
    return "namespace", sorted((name, repr(value)) for name, value in vars(namespace).items())


def pinned(words):
    """``words`` with each pinned help word before the first ``--`` replaced by its stand-in."""
    end = words.index("--") if "--" in words else len(words)
    return [PINNED_HELP_WORDS[w][1] if w in PINNED_HELP_WORDS else w
            for w in words[:end]] + words[end:]


def argparse_words(command):
    parser = add_flags(ArgparseParser(prog=f"wqsc {command}"), command)
    return lambda words: parser.parse_args(pinned(words))


def argparse_argv(argv):
    # A leading flag's error is named as the flag, as the reader names it.
    try:
        return argparse_top_level().parse_args(pinned(argv))
    except ArgparseError:
        if argv and argv[0].startswith("-") and argv[0] not in ("-", "--"):
            raise ArgparseError(f"flag {argv[0]} comes before the command word; flags go "
                                "after the command word, as in 'wqsc run --seed 1'") from None
        raise


class TestArgvReader:
    """The reader accepts what argparse accepts, with argparse's namespace and error text.

    argparse is the reference: one parser per command, built from the same
    table, whose store action refuses a ``--flag=--`` word as the reader does.
    """

    @settings(max_examples=500, deadline=None)
    @given(case=command_words())
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1", "--output=--"]))
    @example(case=("run", ["--mode", "qkd", "--tri", "10", "--seed", "1"]))
    @example(case=("run", ["--mode", "qkd", "--t", "10", "--seed", "1"]))  # --trials or --target
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1", "--phi", "-0.5"]))
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1", "--output", "-h"]))
    @example(case=("run", ["--mode=qkd", "--trials=5_0", "--seed=1", "--phi=-0.5", "--output="]))
    @example(case=("sweep-phi", ["--grid", "0.5", "--seed", "1", "--", "--trials", "3"]))
    @example(case=("verify", []))
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1"]))
    @example(case=("run", ["--mode=qkd", "--trials=10", "--seed=1", "--phi=-0.5", "--target= c "]))
    @example(case=("run", ["--mode", "pqss", "--trials", "10", "--seed", "1", "--seed", "2",
                           "--dealer", "bob"]))
    @example(case=("run", ["--mode", "qkd", "--trials", "x", "--seed", "1", "--t=B"]))
    @example(case=("run", ["--announce-rate", "--t", "10"]))
    @example(case=("sweep-phi", ["--seed", "1", "--grid", "--output=x y"]))
    @example(case=("sweep-phi", ["--announce-rate", "0.2", "--grid", ""]))  # the empty grid
    @example(case=("run", ["--mode", "nope", "--he"]))
    @example(case=("run", ["--he", "--mode", "nope"]))
    @example(case=("sweep-phi", ["--grid", "0.5", "--seed", "1", "--output=--", "--output", "x"]))
    @example(case=("verify", ["-hh"]))
    @example(case=("verify", ["-hhx"]))
    @example(case=("verify", ["-h="]))
    @example(case=("verify", ["--=1"]))
    @example(case=("run", ["--=1"]))
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1", "-x", "-3", "-x y"]))
    @example(case=("run", ["--mode", "qkd", "--trials", "10", "--seed", "1", "--output", "-x y"]))
    def test_reader_equals_argparse(self, case):
        command, words = case
        assert outcome(wqsc.cli._parse, [command, *words]) == outcome(
            argparse_words(command), words)

    @settings(max_examples=200, deadline=None)
    @given(lead=st.lists(st.sampled_from(["--seed", "-x", "1", "-3", "--", "-", "bogus", "run",
                                          "verify", *HELP_WORDS]), max_size=3),
           case=command_words())
    @example(lead=[], case=("verify", []))
    @example(lead=["--"], case=("verify", []))
    @example(lead=["-x"], case=("run", ["--help"]))
    def test_argv_without_a_leading_command_equals_argparse(self, lead, case):
        command, words = case
        argv = [*lead, command, *words] if lead else []
        assert outcome(wqsc.cli._parse, argv) == outcome(argparse_argv, argv)

    @pytest.mark.parametrize("command", ["run", "sweep-phi", "verify"])
    @pytest.mark.parametrize("word", sorted(PINNED_HELP_WORDS))
    def test_help_words_with_attached_characters(self, command, word):
        expected, stand_in = PINNED_HELP_WORDS[word]
        assert outcome(wqsc.cli._parse, [command, word]) == expected
        assert outcome(argparse_words(command), [stand_in]) == expected

    def test_import_leaves_argparse_out(self):
        # Reading argv, well formed or not, and printing help need no argparse.
        code = ("import sys, wqsc.cli\n"
                "wqsc.cli._parse(['run', '--mode', 'qkd', '--trials', '10', '--seed', '1'])\n"
                "for argv in (['run', '--tri', 'x'], ['--help'], ['run', '-h']):\n"
                "    try:\n"
                "        wqsc.cli._parse(argv)\n"
                "    except (ValueError, SystemExit):\n"
                "        pass\n"
                "assert 'argparse' not in sys.modules, 'argparse imported'\n")
        environ = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", code], env=environ,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


def failed_items(output: str) -> list[str]:
    """The items of the FAIL lines that ``wqsc verify`` printed."""
    return [line.split()[1].rstrip(":") for line in output.splitlines() if line.startswith("FAIL")]


class TestVerifyCommand:
    def test_all_golden_values_pass(self, capsys):
        assert run_cli("verify") == 0
        output = capsys.readouterr().out
        assert "FAIL" not in output
        assert output.count("PASS") >= 40

    def test_one_distribution_per_state_and_none_kept_between_calls(self, monkeypatch):
        # Every event of a state is read from one outcome distribution (the
        # bell readers take it, and build none), so a call distributes each
        # checked state once (16, the sum of its stacks' sizes): a list of
        # the W and GHZ states, then the 14 attacked angles' amplitude
        # rows.  The second call distributes as many again: nothing is
        # cached across calls.
        stacks = []

        def stacked(states, build=wqsc.golden.outcome_distributions):
            stacks.append((type(states), len(states)))
            return build(states)

        assert not hasattr(wqsc.bell, "outcome_distribution")
        monkeypatch.setattr(wqsc.golden, "outcome_distributions", stacked)
        for _ in range(2):
            stacks.clear()
            assert run_verification()[0]
            assert stacks == [(list, 2), (np.ndarray, 14)]

    # VERIFY_TOL is 1e-9: one value 2e-9 off its expected value fails the
    # call, exit 2, and 5e-10 off passes.
    @pytest.mark.parametrize("offset, code", [(2e-9, 2), (5e-10, 0)])
    def test_one_value_off_by_more_than_the_tolerance_fails(self, monkeypatch, capsys,
                                                             offset, code):
        tangle = wqsc.golden.three_tangle
        monkeypatch.setattr(wqsc.golden, "three_tangle",
                            lambda state: tangle(state) + (offset if state.amplitudes[7] else 0.0))
        assert run_cli("verify") == code
        assert failed_items(capsys.readouterr().out) == (
            ["three-tangle-ghz"] if code else [])

    @pytest.mark.parametrize("offset, code", [(2e-9, 2), (5e-10, 0)])
    def test_the_last_slice_of_the_eigensolve_off(self, monkeypatch, capsys, offset, code):
        solve = wqsc.golden.eigenvalues_hermitian

        def shifted(stack):
            values = solve(stack)
            values[-1] = [value + offset for value in values[-1]]
            return values

        monkeypatch.setattr(wqsc.golden, "eigenvalues_hermitian", shifted)
        assert run_cli("verify") == code
        assert failed_items(capsys.readouterr().out) == (
            ["ppt-min-eigenvalue-w-pair-bc"] if code else [])

    @pytest.mark.parametrize("offset, code", [(2e-9, 2), (5e-10, 0)])
    def test_the_last_row_of_the_attacked_pass_off(self, monkeypatch, capsys, offset, code):
        # The pass's last row is the grid's pi/2: each of its three event
        # masses moves by the offset, so its mean over the sets does too.
        masses = wqsc.golden.event_masses

        def shifted(dist):
            values = masses(dist)
            if values.ndim == 2:
                values[-1] += offset
            return values

        monkeypatch.setattr(wqsc.golden, "event_masses", shifted)
        assert run_cli("verify") == code
        assert failed_items(capsys.readouterr().out) == (
            ["averaged-matches-per-set-mean"] if code else [])

    def test_checks_the_success_probabilities_run_reports(self, monkeypatch):
        monkeypatch.setitem(MODE_SUCCESS_PROBABILITY, ProtocolMode.QKD, 0.26)
        passed, checks = run_verification()
        assert not passed
        assert {c.item for c in checks if not c.passed} == {
            "qkd-success-probability", "qubits-per-key-bit-qkd"}


class TestVerifyStateBuilds:
    """What one ``verify`` call builds; the second call builds it all again."""

    def count_calls(self, monkeypatch, name):
        calls = []

        def counted(*args, build=getattr(wqsc.golden, name)):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(wqsc.golden, name, counted)
        return calls

    def test_each_distinct_attacked_state_is_built_once_per_call(self, monkeypatch):
        # One amplitude stack holds every distinct angle once: the security
        # pass's 12 (0 and pi/4 are grid points too) and the circuit
        # check's.  The pass, the pi/2 and pi/4 checks and the circuit check
        # all read its rows.
        calls = self.count_calls(monkeypatch, "attacked_w_amplitudes")
        assert not hasattr(wqsc.golden, "attacked_w_state")
        for _ in range(2):
            calls.clear()
            assert run_verification()[0]
            assert len(calls) == 1
            angles = list(calls[0][0])
            assert len(angles) == len(set(angles)) == 13

    def test_the_ppt_checks_are_one_density_stack_and_one_eigensolve(self, monkeypatch):
        densities = self.count_calls(monkeypatch, "reduced_densities")
        eigensolves = self.count_calls(monkeypatch, "eigenvalues_hermitian")
        assert not hasattr(wqsc.golden, "reduced_density")
        for _ in range(2):
            densities.clear()
            eigensolves.clear()
            assert run_verification()[0]
            assert [[sorted(keep) for keep in keeps] for _, keeps in densities] == [
                [[0, 1], [0, 2], [1, 2]]]
            assert [np.shape(stack) for stack, in eigensolves] == [(3, 4, 4)]


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

    @pytest.fixture
    def no_state_built(self, monkeypatch):
        # What the sampler builds its states and their distributions with.
        def forbidden(*args, **kwargs):
            raise AssertionError("a state was built before the arguments were checked")

        monkeypatch.setattr(wqsc.protocol, "attacked_w_amplitudes", forbidden)
        monkeypatch.setattr(wqsc.protocol, "outcome_distributions", forbidden)

    @pytest.mark.parametrize("samples,seed", [(100, 1.5), (True, 1), (100.5, 1), (0, 1), (100, -1)])
    def test_sampler_rejects_bad_integers_before_any_draw(self, samples, seed, no_state_built):
        with pytest.raises(ValueError):
            sample_security_frequency([0.5], samples, seed)

    @pytest.mark.parametrize("grid", [[0.5, 2.0], [float("nan")], [-0.1], []])
    def test_sampler_checks_the_whole_grid_before_any_state(self, grid, no_state_built):
        with pytest.raises(ValueError):
            sample_security_frequency(grid, 100, 1)

    @pytest.mark.parametrize("grid", [0.9, "01", [True], [[0.5]], None, np.array(0.5)])
    def test_sampler_rejects_a_grid_that_is_not_numbers(self, grid, no_state_built):
        with pytest.raises(ValueError, match="phi grid must be a sequence of numbers"):
            sample_security_frequency(grid, 100, 1)

    def test_one_argument_check_per_sweep_call(self, monkeypatch):
        # sweep-phi checks its values before it opens its output, and its
        # sampler does not check them again; a direct sampler call checks once.
        checks = []

        def counting(*args, check=wqsc.protocol.check_sweep_arguments):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(wqsc.cli, "check_sweep_arguments", counting)
        monkeypatch.setattr(wqsc.protocol, "check_sweep_arguments", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("sweep-phi", "--grid", "0,0.5,1.5", "--trials", "100", "--seed", "3") == 0
        assert len(checks) == 1
        sample_security_frequency([0.0, 0.5, 1.5], 100, 3)
        assert len(checks) == 2

    def test_one_stacked_pass_per_sweep(self, monkeypatch):
        stacks = []

        def counting(states, build=wqsc.protocol.outcome_distributions):
            stacks.append(len(states))
            return build(states)

        monkeypatch.setattr(wqsc.protocol, "outcome_distributions", counting)
        grid = [0.0, 0.4, 0.9, 1.3]
        for _ in range(2):
            sample_security_frequency(grid, 100, 3)
        assert stacks == [len(grid)] * 2

    def test_sampler_takes_a_numpy_grid(self):
        grid = np.array([0.2, 0.9])
        assert sample_security_frequency(grid, 500, 4) == sample_security_frequency(
            [0.2, 0.9], 500, 4
        )

    def test_sampler_coerces_numpy_integers(self):
        frequencies = sample_security_frequency([0.9], np.int64(200), np.uint64(4))
        assert frequencies == sample_security_frequency([0.9], 200, 4)
        assert type(frequencies[0]) is float

    def test_sampler_is_deterministic(self):
        a = sample_security_frequency([0.2, 0.9], 2000, seed=4)
        b = sample_security_frequency([0.2, 0.9], 2000, seed=4)
        assert a == b

    @pytest.mark.parametrize("epsilon", [1e-9, 0.1])
    def test_sweep_rows_are_the_command_output(self, epsilon, capsys):
        # The rows protocol builds, rendered, are every byte sweep-phi writes.
        grid = [0.0, 0.3, 0.9, math.pi / 2]
        rows = wqsc.protocol.sweep_rows(grid, 700, 5, epsilon)
        assert run_cli("sweep-phi", "--grid", ",".join(map(repr, grid)), "--trials", "700",
                       "--seed", "5", "--epsilon", repr(epsilon)) == 0
        assert capsys.readouterr().out == render_sweep_csv(rows)
        assert [row.empirical for row in rows] == sample_security_frequency(grid, 700, 5)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ENTRYPOINT = "from wqsc.cli import entrypoint; entrypoint()"
EPSILON_ERROR = "error: epsilon must lie in (0, 1), got 0.0"

# The bad-input commands of .github/workflows/tier1.yml: (environment, argv,
# the start of the one stderr line).  The two epsilon commands share a line.
WORKFLOW_BAD_INPUTS = {
    "format": (
        {"WQSC_MODE": "qkd", "WQSC_TRIALS": "2000", "WQSC_SEED": "7", "WQSC_FORMAT": "xml"},
        ["run", "--output", "env.xml"],
        "error: WQSC_FORMAT: argument --format: invalid choice: 'xml'",
    ),
    "grid": (
        {"WQSC_GRID": "0,2.0"},
        ["sweep-phi", "--seed", "1", "--output", "bad.csv"],
        "error: attack angle must lie in [0, pi/2], got 2.0",
    ),
    # A grid's text is its flag's type, so its error names the variable.
    "grid-empty-item": (
        {"WQSC_GRID": "0,,1"},
        ["sweep-phi", "--seed", "1", "--output", "bad.csv"],
        "error: WQSC_GRID: argument --grid: bad phi grid '0,,1': item 2 is empty",
    ),
    "grid-not-a-number": (
        {"WQSC_GRID": "abc"},
        ["sweep-phi", "--seed", "1", "--output", "bad.csv"],
        "error: WQSC_GRID: argument --grid: bad phi grid: could not convert string to float: "
        "'abc'",
    ),
    "target": (
        {"WQSC_TARGET": "D"},
        ["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "--output", "party.json"],
        "error: WQSC_TARGET: argument --target: unknown party 'D'; expected one of A, B, C",
    ),
    "dealer": (
        {"WQSC_DEALER": "Z"},
        ["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "--output", "party.json"],
        "error: WQSC_DEALER: argument --dealer: unknown party 'Z'; expected one of A, B, C",
    ),
    "flag-before-command": (
        {}, ["--seed", "1", "run", "--mode", "qkd", "--trials", "10", "--output", "order.json"],
        "error: flag --seed comes before the command word; ",
    ),
    "epsilon-run": (
        {}, ["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "--epsilon", "0"],
        EPSILON_ERROR,
    ),
    "epsilon-sweep": (
        {}, ["sweep-phi", "--grid", "0.5", "--seed", "1", "--epsilon", "0", "--output", "eps.csv"],
        EPSILON_ERROR,
    ),
    # A "--" value, from "--flag=--" or a WQSC_* variable, is refused as a
    # flag with no value, with argparse's text for it.
    "dashes-output": (
        {}, ["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "--output=--"],
        "error: argument --output: expected one argument",
    ),
    "dashes-output-variable": (
        {"WQSC_OUTPUT": "--"}, ["run", "--mode", "qkd", "--trials", "10", "--seed", "1"],
        "error: WQSC_OUTPUT: argument --output: expected one argument",
    ),
    # A bad environment value fails even when a flag overrides it.
    "dashes-output-variable-overridden": (
        {"WQSC_OUTPUT": "--"},
        ["run", "--mode", "qkd", "--trials", "10", "--seed", "1", "--output", "dashes.json"],
        "error: WQSC_OUTPUT: argument --output: expected one argument",
    ),
    "dashes-grid": (
        {}, ["sweep-phi", "--seed", "1", "--grid=--"],
        "error: argument --grid: expected one argument",
    ),
}


@pytest.mark.parametrize("case", WORKFLOW_BAD_INPUTS)
def test_workflow_bad_input_fails_before_any_output(tmp_path, case):
    env, argv, message = WORKFLOW_BAD_INPUTS[case]
    environ = {k: v for k, v in os.environ.items() if not k.startswith("WQSC_")}
    environ.update(env, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", ENTRYPOINT, *argv],
        cwd=tmp_path, env=environ, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), result.stderr
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []
