"""Workload plans: each turns a seed into a fixed list of CLI calls.

A workload never touches wqsc itself; it only builds argv lists for
``wqsc.cli.main`` and records what each call is expected to produce, so the
checks in ``checks.py`` can judge the output.  Inputs come from
``random.Random(seed)``, so the same seed always yields the same plan.  The
benchmark replays the plan in rounds until its time is up.  The reasons
behind each workload are in ``README.md`` beside this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

HALF_PI = math.pi / 2.0
MODES = ("qkd", "pqss", "synth")

# run-long: one cycle over every mode, each first unattacked, then attacked.
RUN_LONG_TRIALS = 10_000

# interactive: short runs, a verify every few of them.
INTERACTIVE_CALLS = 150
INTERACTIVE_TRIALS = (20, 300)
INTERACTIVE_VERIFY_EVERY = (3, 7)
INTERACTIVE_ANNOUNCE_RATES = (None, "0.05", "0.2", "0.3", "0")

# sweep: a fixed-size grid with both endpoints.  Interior points are jittered
# around evenly spaced anchors, so none comes close to phi = 0, where a
# point's expected event count is too small for a sigma bound to hold.
SWEEP_CALLS = 1
SWEEP_POINTS = 7
SWEEP_SAMPLES = 3_000

# The set-up call is the workload's first simulating call cut to this size.
SETUP_TRIALS = 200


@dataclass(frozen=True)
class Call:
    """One invocation of ``wqsc.cli.main`` and what its output must satisfy.

    ``trials`` counts the W-state trials the call simulates (for a sweep,
    points times samples).  ``statistical`` asks for the sigma-bound checks,
    which need the call's full trial count.
    """

    kind: str  # "run", "verify" or "sweep"
    argv: tuple[str, ...]
    trials: int = 0
    mode: str | None = None
    phi: float | None = None
    fmt: str = "json"
    grid: tuple[float, ...] = ()
    samples: int = 0
    statistical: bool = False


VERIFY = Call("verify", ("verify",))


def _seed(rng: random.Random) -> str:
    return str(rng.getrandbits(63))


def _run_call(
    rng: random.Random,
    mode: str,
    trials: int,
    *,
    phi: float | None = None,
    target: str = "C",
    announce_rate: str | None = None,
    dealer: str | None = None,
    fmt: str = "json",
    statistical: bool = False,
) -> Call:
    argv = ["run", "--mode", mode, "--trials", str(trials), "--seed", _seed(rng)]
    if announce_rate is not None:
        argv += ["--announce-rate", announce_rate]
    if phi is not None:
        argv += ["--phi", repr(phi), "--target", target]
    if dealer is not None:
        argv += ["--dealer", dealer]
    if fmt != "json":
        argv += ["--format", fmt]
    return Call("run", tuple(argv), trials=trials, mode=mode, phi=phi, fmt=fmt,
                statistical=statistical)


def run_long(seed: int) -> list[Call]:
    """Six long ``run`` calls: every mode, unattacked then attacked.

    Unattacked calls announce at 0.1; attacked ones use phi = pi/2 at 0.2,
    with the target rotating through A, B, C.  A verify follows every run.
    """
    rng = random.Random(seed)
    targets = "ABC"[rng.randrange(3):] + "ABC"
    plan = []
    for index, mode in enumerate(MODES):
        plan += [
            _run_call(rng, mode, RUN_LONG_TRIALS, announce_rate="0.1", statistical=True),
            VERIFY,
            _run_call(rng, mode, RUN_LONG_TRIALS, phi=HALF_PI, target=targets[index],
                      announce_rate="0.2", statistical=True),
            VERIFY,
        ]
    return plan


def _spread(rng: random.Random, values: list, count: int) -> list:
    """``count`` items cycling through ``values``, in seeded order."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def interactive(seed: int) -> list[Call]:
    """Short ``run`` calls that vary every flag, with a verify every few calls.

    The mix is the same for every seed; the seed picks the order and the
    pairings.  Trial count, announce rate and attack, which set a call's
    cost and its security samples, are tied to the call's trial-count rank,
    so the plan's totals of both do not depend on the seed.
    """
    rng = random.Random(seed)
    n = INTERACTIVE_CALLS
    low, high = INTERACTIVE_TRIALS
    # A quarter run without an attack; the rest cover [0, pi/2] evenly.
    attacked = [rank % 4 != 0 for rank in range(n)]
    phis = _spread(rng, [(i + rng.random()) * HALF_PI / sum(attacked)
                         for i in range(sum(attacked))], sum(attacked))
    modes = _spread(rng, list(MODES), n)
    targets = _spread(rng, list("ABC"), n)
    dealers = _spread(rng, list("ABC"), n)
    formats = _spread(rng, ["json", "csv"], n)
    calls = []
    for rank in range(n):
        calls.append(_run_call(
            rng, modes[rank], low + (high - low) * rank // (n - 1),
            phi=phis.pop() if attacked[rank] else None,
            target=targets[rank],
            # None keeps the CLI default (0.1); "0" makes the check inconclusive.
            announce_rate=INTERACTIVE_ANNOUNCE_RATES[rank % len(INTERACTIVE_ANNOUNCE_RATES)],
            dealer=dealers[rank],
            fmt=formats[rank],
        ))
    rng.shuffle(calls)
    plan = []
    until_verify = rng.randint(*INTERACTIVE_VERIFY_EVERY)
    for call in calls:
        plan.append(call)
        until_verify -= 1
        if until_verify == 0:
            plan.append(VERIFY)
            until_verify = rng.randint(*INTERACTIVE_VERIFY_EVERY)
    return plan


def sweep(seed: int) -> list[Call]:
    """``sweep-phi`` calls over [0, pi/2], each followed by a verify."""
    rng = random.Random(seed)
    step = HALF_PI / (SWEEP_POINTS - 1)
    plan = []
    for _ in range(SWEEP_CALLS):
        interior = [(k + rng.uniform(-0.25, 0.25)) * step for k in range(1, SWEEP_POINTS - 1)]
        grid = (0.0, *interior, HALF_PI)
        argv = ("sweep-phi", "--grid", ",".join(repr(p) for p in grid),
                "--trials", str(SWEEP_SAMPLES), "--seed", _seed(rng))
        plan += [
            Call("sweep", argv, trials=SWEEP_POINTS * SWEEP_SAMPLES, grid=grid,
                 samples=SWEEP_SAMPLES, statistical=True),
            VERIFY,
        ]
    return plan


WORKLOADS = {"run-long": run_long, "interactive": interactive, "sweep": sweep}


def setup_call(workload: str, seed: int) -> Call:
    """The workload's first simulating call, cut to ``SETUP_TRIALS`` trials."""
    first = next(call for call in WORKLOADS[workload](seed) if call.kind != "verify")
    argv = list(first.argv)
    argv[argv.index("--trials") + 1] = str(SETUP_TRIALS)
    # Sigma bounds need the full trial count; the cut call skips them.
    if first.kind == "sweep":
        return replace(first, argv=tuple(argv), samples=SETUP_TRIALS,
                       trials=len(first.grid) * SETUP_TRIALS, statistical=False)
    return replace(first, argv=tuple(argv), trials=SETUP_TRIALS, statistical=False)
