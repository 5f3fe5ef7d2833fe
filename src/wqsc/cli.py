"""Command-line driver: run protocols, verify golden values, sweep the attack.

Every flag is mirrored by an environment variable with the ``WQSC_`` prefix
(``--announce-rate`` by ``WQSC_ANNOUNCE_RATE`` and so on); flags win over the
environment.  All randomness flows from ``--seed``, which is required, so a
repeated invocation with identical flags produces byte-identical output.

The parser is built once per distinct set of ``WQSC_*`` values and shared
by later calls under the same values; parsing only reads it.

Exit codes: 0 success / channel secure, 1 usage error (bad flags or an
unopenable output, caught before any simulation), 2 verification failure /
channel compromised, 3 inconclusive security check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import ContextManager, Sequence, TextIO

from .adversary import UnitaryCouplingAttack
from .bell import averaged_security_probability
from .golden import run_verification
from .protocol import (
    DEFAULT_ANNOUNCE_RATE,
    DEFAULT_EPSILON,
    MAX_SEED,
    ProtocolConfig,
    ProtocolMode,
    SecurityVerdict,
    binomial_sigma,
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


# Every WQSC_<name> the parser reads, one per flag name; the parser cache is
# keyed on their values.
_ENV_NAMES = (
    "MODE", "TRIALS", "SEED", "ANNOUNCE_RATE", "PHI", "TARGET", "EPSILON", "DEALER", "FORMAT",
    "OUTPUT", "GRID",
)


def _add_flag(
    parser: argparse.ArgumentParser, env: dict[str, str | None], flag: str, **kwargs
) -> None:
    """Register a flag whose default is mirrored by WQSC_<FLAG>.

    ``--announce-rate`` reads ``env["ANNOUNCE_RATE"]``; a name missing from
    ``_ENV_NAMES`` raises KeyError when the parser is built.
    """
    env_value = env[flag[2:].upper().replace("-", "_")]
    if env_value is not None:
        kwargs["default"] = env_value  # argparse applies type= to string defaults
        kwargs.pop("required", None)
    parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The parser for the current ``WQSC_*`` environment.

    It is shared by every call made under the same ``WQSC_*`` values, so it
    must not be modified.
    """
    return _parser(tuple(os.environ.get(ENV_PREFIX + name) for name in _ENV_NAMES))


@functools.lru_cache(maxsize=16)
def _parser(env_values: tuple[str | None, ...]) -> argparse.ArgumentParser:
    env = dict(zip(_ENV_NAMES, env_values))
    parser = _Parser(prog="wqsc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one protocol and write its report")
    _add_flag(run, env, "--mode", required=True, choices=[m.value for m in ProtocolMode],
              help="protocol to run")
    _add_flag(run, env, "--trials", required=True, type=int, help="number of trials N")
    _add_flag(run, env, "--seed", required=True, type=int, help="root RNG seed")
    _add_flag(run, env, "--announce-rate", type=float, default=DEFAULT_ANNOUNCE_RATE,
              help="per-trial probability of a public outcome announcement")
    _add_flag(run, env, "--phi", type=float, default=None,
              help="attack coupling strength in radians, [0, pi/2]; omit for no attack")
    _add_flag(run, env, "--target", default="C",
              help="attacked party (A, B, or C); meaningful only with --phi")
    _add_flag(run, env, "--epsilon", type=float, default=DEFAULT_EPSILON,
              help="permitted security-event frequency")
    _add_flag(run, env, "--dealer", default="A", help="secret-sharing dealer")
    _add_flag(run, env, "--format", choices=REPORT_FORMATS, default="json", help="report format")
    _add_flag(run, env, "--output", default="-", help="report path, '-' for stdout")

    sub.add_parser("verify", help="check every analytic golden value")

    sweep = sub.add_parser("sweep-phi", help="empirical vs analytic detection sweep")
    _add_flag(sweep, env, "--grid", required=True,
              help="comma-separated attack strengths in radians")
    _add_flag(sweep, env, "--trials", type=int, default=10000,
              help="announced-equivalent samples per grid point")
    _add_flag(sweep, env, "--seed", required=True, type=int, help="root RNG seed")
    _add_flag(sweep, env, "--epsilon", type=float, default=DEFAULT_EPSILON,
              help="permitted security-event frequency")
    _add_flag(sweep, env, "--output", default="-", help="CSV path, '-' for stdout")
    return parser


def _open_output(path: str) -> ContextManager[TextIO]:
    """The output stream; a file is opened (and truncated) right away."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cmd_run(args: argparse.Namespace) -> int:
    # argparse checks choices only for values given as flags, not for
    # defaults taken from the environment.
    if args.format not in REPORT_FORMATS:
        raise _UsageError(f"unknown report format {args.format!r}")
    # --target is checked even without --phi, so a typo never passes silently.
    target = Party.from_letter(args.target)
    attack = None if args.phi is None else UnitaryCouplingAttack(args.phi, target)
    config = ProtocolConfig(
        mode=ProtocolMode(args.mode),
        trials=args.trials,
        seed=args.seed,
        announce_rate=args.announce_rate,
        attack=attack,
        epsilon=args.epsilon,
        dealer=Party.from_letter(args.dealer),
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
    entries = [item for item in args.grid.split(",") if item.strip()]
    if not entries:
        raise _UsageError("the phi grid is empty")
    try:
        grid = [float(item) for item in entries]
    except ValueError as exc:
        raise _UsageError(f"bad phi grid: {exc}") from exc
    for phi in grid:
        if not 0.0 <= phi <= math.pi / 2.0:
            raise _UsageError(f"grid value {phi!r} lies outside [0, pi/2]")
    if args.trials < 1:
        raise _UsageError("trials per grid point must be at least 1")
    if not 0 <= args.seed <= MAX_SEED:
        raise _UsageError("seed must be a 64-bit unsigned integer")
    if not 0.0 < args.epsilon < 1.0:
        raise _UsageError("epsilon must lie in (0, 1)")

    with _open_output(args.output) as out:
        rows = []
        for point_index, phi in enumerate(grid):
            p_bar = averaged_security_probability(phi)
            empirical = sample_security_frequency(phi, args.trials, args.seed, point_index)
            rows.append(
                SweepRow(
                    phi=phi,
                    p_bar=p_bar,
                    empirical=empirical,
                    sigma=binomial_sigma(p_bar, args.trials),
                    verdict=security_verdict(empirical, args.epsilon),
                )
            )
        out.write(render_sweep_csv(rows))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
