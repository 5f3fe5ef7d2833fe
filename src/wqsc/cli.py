"""Command-line driver: run protocols, verify golden values, sweep the attack.

Every flag is mirrored by an environment variable with the ``WQSC_`` prefix
(``--announce-rate`` by ``WQSC_ANNOUNCE_RATE`` and so on).  Each one that is
set enters the invoked command as ``--flag=value`` ahead of the command's
own words, so it is checked like any flag and an explicit flag, read
later, wins; an error in such a value starts with the variable's name.
All randomness flows from ``--seed``, which is required, so a repeated
invocation with identical flags produces byte-identical output.

Exit codes: 0 success / channel secure, 1 usage error (bad flags or an
unopenable output, caught before any simulation), 2 verification failure /
channel compromised, 3 inconclusive security check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import ContextManager, Sequence, TextIO

from .adversary import UnitaryCouplingAttack
from .bell import averaged_security_probability
from .golden import run_verification
from .protocol import (
    DEFAULT_ANNOUNCE_RATE,
    DEFAULT_EPSILON,
    ProtocolConfig,
    ProtocolMode,
    SecurityVerdict,
    binomial_sigma,
    check_epsilon,
    check_sweep_arguments,
    run_protocol,
    sample_security_frequency,
    security_verdict,
)
from .qcore import Party
from .reporting import REPORT_FORMATS, SweepRow, render_report, render_sweep_csv

ENV_PREFIX = "WQSC_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPROMISED = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    SecurityVerdict.SECURE: EXIT_OK,
    SecurityVerdict.COMPROMISED: EXIT_COMPROMISED,
    SecurityVerdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage code.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _party(text: str) -> Party:
    """A party flag's letter or name as a :class:`Party`, as argparse converts it."""
    try:
        return Party.from_letter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_SEED = ("--seed", dict(required=True, type=int, help="root RNG seed"))
_EPSILON = ("--epsilon", dict(type=float, default=DEFAULT_EPSILON,
                              help="permitted security-event frequency"))

# Each command's help and flags, in help order.
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...]]] = {
    "run": ("run one protocol and write its report", (
        ("--mode", dict(required=True, choices=[m.value for m in ProtocolMode],
                        help="protocol to run")),
        ("--trials", dict(required=True, type=int, help="number of trials N")),
        _SEED,
        ("--announce-rate", dict(type=float, default=DEFAULT_ANNOUNCE_RATE,
                                 help="per-trial probability of a public outcome announcement")),
        ("--phi", dict(type=float, default=None,
                       help="attack coupling strength in radians, [0, pi/2]; omit for no attack")),
        ("--target", dict(type=_party, default="C",
                          help="attacked party (A, B, or C); meaningful only with --phi")),
        _EPSILON,
        ("--dealer", dict(type=_party, default="A", help="secret-sharing dealer")),
        ("--format", dict(choices=REPORT_FORMATS, default="json", help="report format")),
        ("--output", dict(default="-", help="report path, '-' for stdout")),
    )),
    "verify": ("check every analytic golden value", ()),
    "sweep-phi": ("empirical vs analytic detection sweep", (
        ("--grid", dict(required=True, help="comma-separated attack strengths in radians")),
        ("--trials", dict(type=int, default=10000,
                          help="announced-equivalent samples per grid point")),
        _SEED,
        _EPSILON,
        ("--output", dict(default="-", help="CSV path, '-' for stdout")),
    )),
}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own, built on first use and shared."""
    parser = _Parser(prog="wqsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (help_text, flags) in _COMMANDS.items():
        command_parser = commands[command] = sub.add_parser(command, help=help_text)
        command_parser.set_defaults(command=command)
        for flag, kwargs in flags:
            command_parser.add_argument(flag, **kwargs)
    return parser, commands


# Per command, built at import: its keywords by flag, and each flag's (WQSC_ name, flag).
_FLAGS = {command: dict(flags) for command, (_, flags) in _COMMANDS.items()}
_ENV_NAMES = {command: [(ENV_PREFIX + flag[2:].upper().replace("-", "_"), flag) for flag in flags]
              for command, flags in _FLAGS.items()}


def _environment(command: str) -> dict[str, str]:
    """``{WQSC_<FLAG>: --flag=value}`` for each set variable of ``command``'s flags."""
    return {name: f"{flag}={os.environ[name]}" for name, flag in _ENV_NAMES[command]
            if name in os.environ}


def _read_words(command: str, words: Sequence[str]) -> argparse.Namespace | None:
    """``command``'s parser's namespace for ``words``, or None where argparse must read them.

    Each word must be ``--flag=value`` or ``--flag value``, ``--flag`` an
    exact name of the command's and, in the second form, ``value`` not
    starting with ``-``.  Each value goes through the flag's ``type`` and
    ``choices`` and the last one wins; unset flags take their defaults, a
    ``str`` default through its ``type``, as argparse does.  Anything else
    (an abbreviation, ``--help``, ``--``, a stray word, a flag with no
    value, a bad value, a missing required flag) gives None.
    """
    flags = _FLAGS[command]
    given = {}
    rest = iter(words)
    for word in rest:
        if word in flags:
            flag, text = word, next(rest, "-")  # no value at all fails as "-" does
            if text.startswith("-"):
                return None
        else:
            flag, equals, text = word.partition("=")
            # argparse drops a "--" value, so "--flag=--" reads as an empty list.
            if not equals or flag not in flags or text == "--":
                return None
        kwargs = flags[flag]
        try:
            value = kwargs["type"](text) if "type" in kwargs else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    values = {}
    for flag, kwargs in flags.items():
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
            if isinstance(value, str) and "type" in kwargs:
                value = kwargs["type"](value)
        values[flag[2:].replace("-", "_")] = value
    values["command"] = command
    namespace = argparse.Namespace()
    vars(namespace).update(values)  # Namespace(**values) without its setattr per flag
    return namespace


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` as argparse would, environment values ahead of a command's own words.

    Well-formed words after a command word are read by :func:`_read_words`
    without building any parser.  Anything else goes to argparse: the
    words after a command word to that command's own parser, and the rest
    (no words, an unknown command, ``--help``) to the top-level parser,
    whose error names a leading flag, which belongs after the command word.
    argparse is the only source of error texts and help; its parsers hold
    no environment and are built once per process, on first use.  The
    environment values come first, so a bad one fails as it does when
    they are parsed alone; that error is prefixed with the variable's name.
    A ``--`` value, which argparse returns as an empty list, is refused as
    a flag with no value.
    """
    if not argv or argv[0] not in _COMMANDS:
        try:
            return build_parser()[0].parse_args(argv)
        except _UsageError:
            if argv and argv[0].startswith("-") and argv[0] not in ("-", "--"):
                raise _UsageError(f"flag {argv[0]} comes before the command word; flags go "
                                  "after the command word, as in 'wqsc run --seed 1'") from None
            raise
    env = _environment(argv[0])
    words = [*env.values(), *argv[1:]]
    if (args := _read_words(argv[0], words)) is not None:
        return args
    # argparse drops a "--" value ("--flag=--" reads as an empty list).  A
    # variable set to it fails first, as any bad environment value does.
    for name, word in env.items():
        flag, _, value = word.partition("=")
        if value == "--":
            raise _UsageError(f"{name}: argument {flag}: expected one argument")
    command_parser = build_parser()[1][argv[0]]
    try:
        args = command_parser.parse_args(words)
    except _UsageError as exc:
        message = str(exc)
        for name, flag in env.items():
            if message.startswith(f"argument {flag.partition('=')[0]}: "):
                try:
                    command_parser.parse_args([*env.values()])
                except _UsageError as alone:
                    if str(alone) == message:
                        raise _UsageError(f"{name}: {message}") from None
        raise
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise _UsageError(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def _open_output(path: str) -> ContextManager[TextIO]:
    """The output stream; a file is opened (and truncated) right away."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_run(args: argparse.Namespace) -> int:
    attack = None if args.phi is None else UnitaryCouplingAttack(args.phi, args.target)
    config = ProtocolConfig(
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        announce_rate=args.announce_rate,
        attack=attack,
        epsilon=args.epsilon,
        dealer=args.dealer,
    )
    with _open_output(args.output) as out:
        report = run_protocol(config)
        out.write(render_report(report, args.format))
    return _VERDICT_EXIT[report.security_verdict]


def _cmd_verify() -> int:
    passed, checks = run_verification()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.item}: value={check.value!r} expected={check.expected!r}")
    print(f"{sum(c.passed for c in checks)}/{len(checks)} golden values verified")
    return EXIT_OK if passed else EXIT_COMPROMISED


def _cmd_sweep(args: argparse.Namespace) -> int:
    # A blank grid is the empty grid, which the sampler's check names; a
    # blank item among values would silently shorten the sweep.
    items = [item.strip() for item in args.grid.split(",")]
    if any(items) and not all(items):
        raise _UsageError(f"bad phi grid {args.grid!r}: item {items.index('') + 1} is empty")
    try:
        grid = [float(item) for item in items if item]
    except ValueError as exc:
        raise _UsageError(f"bad phi grid: {exc}") from exc
    grid, trials, seed = check_sweep_arguments(grid, args.trials, args.seed)
    epsilon = check_epsilon(args.epsilon)

    with _open_output(args.output) as out:
        rows = []
        frequencies = sample_security_frequency(grid, trials, seed)
        for phi, empirical in zip(grid, frequencies):
            p_bar = averaged_security_probability(phi)
            rows.append(
                SweepRow(
                    phi=phi,
                    p_bar=p_bar,
                    empirical=empirical,
                    sigma=binomial_sigma(p_bar, trials),
                    verdict=security_verdict(empirical, epsilon),
                )
            )
        out.write(render_sweep_csv(rows))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify()
        return _cmd_sweep(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
