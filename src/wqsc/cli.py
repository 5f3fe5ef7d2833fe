"""Command-line driver: run protocols, verify golden values, sweep the attack.

Every flag is mirrored by an environment variable with the ``WQSC_`` prefix
(``--announce-rate`` by ``WQSC_ANNOUNCE_RATE`` and so on).  Set variables
are read before the command's own words and checked as flags are, so an
explicit flag wins; an error in such a value starts with the variable's
name.  All randomness flows from ``--seed``, which is required, so a
repeated invocation with identical flags produces byte-identical output.

Exit codes: 0 success / channel secure, 1 usage error (bad flags or an
unopenable output, caught before any simulation), 2 verification failure /
channel compromised, 3 inconclusive security check.
"""

from __future__ import annotations

import contextlib
import os
import re
import sys
from types import SimpleNamespace
from typing import ContextManager, Mapping, Sequence, TextIO

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
    security_verdict,
    sweep_frequencies,
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
        ("--target", dict(type=Party.from_letter, default=Party.CHARLIE,
                          help="attacked party (A, B, or C); meaningful only with --phi")),
        _EPSILON,
        ("--dealer", dict(type=Party.from_letter, default=Party.ALICE,
                          help="secret-sharing dealer")),
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

# Per command: each flag's namespace name, WQSC_ variable and keywords; the unset flags' values.
_FLAGS = {command: {flag: (dest, ENV_PREFIX + dest.upper(), kwargs) for flag, kwargs in flags
                    for dest in [flag[2:].replace("-", "_")]}
          for command, (_, flags) in _COMMANDS.items()}
_DEFAULTS = {command: {"command": command, **{dest: kwargs.get("default")
                                               for dest, _, kwargs in flags.values()}}
             for command, flags in _FLAGS.items()}
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _value(flag: str, kwargs: dict, text: str) -> object:
    """``text`` as ``flag``'s value: through its ``type``, then checked against its ``choices``."""
    if text == "--":
        raise _UsageError(f"argument {flag}: expected one argument")
    kind = kwargs.get("type", str)
    try:
        text = kind(text)
    except ValueError as exc:
        reason = f"invalid {kind.__name__} value: {text!r}" if kind in (int, float) else exc
        raise _UsageError(f"argument {flag}: {reason}") from None
    if "choices" in kwargs and text not in kwargs["choices"]:
        choices = ", ".join(map(repr, kwargs["choices"]))
        raise _UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
    return text


def _option(flags: dict, word: str) -> tuple[str, str | None] | None:
    """The flag ``word`` (``-`` and more, not ``--`` or a flag) names, and its ``=`` value.

    The flag, one of ``flags`` or a help flag, is named before an ``=`` or
    by a prefix of it alone (``-h`` also by ``-hh``); a prefix of two flags
    is an error.  Else ``word`` is a value (None) if it is ``-``, a negative
    number or holds a space, and an unknown flag if not.
    """
    head, equals, tail = word.partition("=")
    if equals and (head in flags or head in _HELP):
        return head, tail
    if word[1:2] == "-":
        matches = [flag for flag in ("--help", *flags) if flag.startswith(head)]
        explicit = tail if equals else None
    else:
        matches, explicit = ["-h"] if word[:2] == "-h" else [], word[2:] or None
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {word} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    return None if word == "-" or _NUMBER.match(word) or " " in word else (word, None)


def _help(command: str | None, option: str, explicit: str | None) -> None:
    """Print ``wqsc --help`` (``command`` None) or ``wqsc <command> --help`` and exit 0."""
    if option == "-h" and explicit:
        explicit = explicit.lstrip("h") or None  # "-hh" is "-h -h"
    if explicit is not None:
        raise _UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
    if command is None:
        usage, text = f"[-h] {{{','.join(_COMMANDS)}}} ...", __doc__
        rows = [(name, summary) for name, (summary, _) in _COMMANDS.items()]
    else:
        (text, _), usage = _COMMANDS[command], f"{command} [-h] [flags]"
        rows = [("-h, --help", "show this help and exit")]
        for flag, (dest, _, kwargs) in _FLAGS[command].items():
            name = "{%s}" % ",".join(kwargs["choices"]) if "choices" in kwargs else dest.upper()
            note = " (required)" if kwargs.get("required") else ""
            rows.append((f"{flag} {name}", kwargs["help"] + note))
    width = max(len(left) for left, _ in rows) + 2
    print(f"usage: wqsc {usage}\n\n{text.replace('``', '').strip()}\n")
    print("\n".join(f"  {left:<{width}}{right}" for left, right in rows))
    sys.exit(EXIT_OK)


def _read(command: str, words: Sequence[str], environ: Mapping[str, str]) -> SimpleNamespace:
    """``command``'s namespace for its ``WQSC_*`` variables in ``environ``, then ``words``.

    A flag is ``--flag value`` or ``--flag=value`` (not ``--flag=--``), the
    last one wins, and a spaced value starting with ``-`` must be ``-``, a
    negative number or hold a space.  A variable's error starts with its
    name; then come a prefix of two flags before any ``--``, each value or
    help in order, the missing required flags, and unrecognized words.
    """
    flags, given = _FLAGS[command], {}
    for flag, (dest, name, kwargs) in flags.items():
        if name in environ:
            try:
                given[dest] = _value(flag, kwargs, environ[name])
            except _UsageError as exc:
                raise _UsageError(f"{name}: {exc}") from None
    end = words.index("--") if "--" in words else len(words)
    # A word is an exact flag, a value, or (rarely) what _option reads it as.
    options = [(word, None) if word in flags else None if word[:1] != "-" else _option(flags, word)
               for word in words[:end]]
    extras, positions = [], iter(range(end))
    for index in positions:
        flag, text = options[index] or (None, None)
        if flag in flags:
            if text is None:
                index = next(positions, end)
                if index == end or options[index] is not None:
                    raise _UsageError(f"argument {flag}: expected one argument")
                text = words[index]
            dest, _, kwargs = flags[flag]
            given[dest] = _value(flag, kwargs, text)
        elif flag in _HELP:
            _help(command, flag, text)
        else:
            extras.append(words[index])
    if missing := [flag for flag, (dest, _, kwargs) in flags.items()
                   if kwargs.get("required") and dest not in given]:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras or end < len(words):
        raise _UsageError(f"unrecognized arguments: {' '.join([*extras, *words[end:]])}")
    return SimpleNamespace(**{**_DEFAULTS[command], **given})


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace for ``argv``, read by :func:`_read` after a leading command word.

    Else a help flag among the leading flags prints help, or an error names
    a leading flag, which goes after the command word.
    """
    if argv and argv[0] in _COMMANDS:
        return _read(argv[0], argv[1:], os.environ)
    if argv and argv[0].startswith("-") and argv[0] not in ("-", "--"):
        with contextlib.suppress(_UsageError):
            for index, word in enumerate(argv):
                option = _option({}, word) if word[:1] == "-" and word != "--" else None
                if option is None:
                    if word in _COMMANDS:
                        _read(word, argv[index + 1:], {})  # its help or error
                    break
                if option[0] in _HELP:
                    _help(None, *option)
        raise _UsageError(f"flag {argv[0]} comes before the command word; flags go after "
                          "the command word, as in 'wqsc run --seed 1'")
    if list(argv) in ([], ["--"]):
        raise _UsageError("the following arguments are required: command")
    choices = ", ".join(map(repr, _COMMANDS))
    raise _UsageError(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")


def _open_output(path: str) -> ContextManager[TextIO]:
    """The output stream; a file is opened (and truncated) right away."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_run(args: SimpleNamespace) -> int:
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
    lines = []
    verified = 0
    for item, value, expected, ok in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {item}: value={value!r} expected={expected!r}")
        verified += ok
    lines.append(f"{verified}/{len(checks)} golden values verified")
    print("\n".join(lines))
    return EXIT_OK if passed else EXIT_COMPROMISED


def _cmd_sweep(args: SimpleNamespace) -> int:
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
        frequencies = sweep_frequencies(grid, trials, seed)
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
