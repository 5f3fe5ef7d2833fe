"""Benchmark wqsc end to end through its public entry point, ``wqsc.cli.main``.

    python3 bench/run.py --workload run-long|interactive|sweep \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports wqsc from ``src/`` and drives
it in-process as one closed-loop client: each call is issued only after the
previous one returned, from a single thread, with stdout captured.

The seed fixes a plan of calls (``workloads.py``).  The plan is replayed in
rounds until ``--seconds`` have passed.  The replays double as a
determinism probe, because each must print the same bytes as the first
round, whose outputs are all checked (``checks.py``).

Every time is scaled by a reference loop timed around each call (see
``reference_seconds``).  A shared VM can run everything up to twice as
slowly for spells of seconds to many minutes; the scaling cancels those
spells, and the unscaled figures are printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates plain and traced rounds, the traced ones with every
public function wrapped in a span (``tracer.py``), and prints the per-layer
metrics per round, the tracing overhead and the share of the traced time the
spans account for.  Summary lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``README.md`` says why each workload and metric was chosen.
"""

import os

# Pinned before numpy is first imported, here and in the set-up children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI reads WQSC_* defaults from the environment; only generated argv may count.
for _var in [name for name in os.environ if name.startswith("WQSC_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
SETUP_REFERENCE_S = 0.3  # reference passes around a probe, as after a call this long
TAIL_BEYOND = 10
# Traced and plain rounds alternate as ABBA, so drift falls on both sides.
TRACE_PATTERN = (False, True, True, False)
MAX_PROBLEMS_SHOWN = 20

# Reported times are scaled to a machine on which one pass of the
# reference loop takes this long, as it does on a 2-core Xeon VM that is
# not slowed down by its neighbours.
REFERENCE_S = 1e-3
REFERENCE_PASSES = 320
# After a long call, more passes are timed and their median taken, one more
# for every REFERENCE_EVERY_S of the call, up to REFERENCE_MAX_PASSES.
REFERENCE_EVERY_S = 0.1
REFERENCE_MAX_PASSES = 9
_REFERENCE_STATE = numpy.zeros(16, dtype=numpy.complex128)
_REFERENCE_STATE[5] = 1.0


def reference_seconds() -> float:
    """Time one pass of a fixed loop of small numpy operations.

    The loop does the kind of work wqsc does per measurement (reshape,
    slice, fill, inner product) and shares none of its code, so no change
    to wqsc can change it.  On a shared 2-core Xeon VM its time tracked
    wqsc's own through the VM's slow spells: over 30 s windows, the median
    of a wqsc call's time divided by the loop's spread by 0.03 to 0.05 of
    its median, against 0.5 to 0.7 unscaled.
    """
    start = perf_counter()
    for _ in range(REFERENCE_PASSES):
        view = _REFERENCE_STATE.reshape(2, 2, -1)
        part = numpy.zeros_like(view)
        part[:, 0, :] = view[:, 0, :]
        float(numpy.vdot(part, part).real)
    return perf_counter() - start


def load_wqsc():
    """Import wqsc from this checkout's ``src``, or exit 1 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "wqsc", "cli.py")):
        sys.exit(f"error: no wqsc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import wqsc.cli

    if not os.path.abspath(wqsc.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: wqsc was imported from {wqsc.cli.__file__}, not {SRC}")
    return wqsc.cli


@dataclass
class Slot:
    """One call of the plan: its first output and its times, round by round."""

    call: object
    out: str | None = None
    tallies: dict = field(default_factory=dict)
    scaled: list = field(default_factory=list)
    scaled_traced: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    last_s: float = 0.0

    def seconds(self, traced: bool = False) -> float:
        """Median scaled seconds over the rounds."""
        return statistics.median(self.scaled_traced if traced else self.scaled)


@dataclass
class Client:
    """Runs calls, checks them, and counts attempts and failures."""

    cli: object
    checks: object
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    references: list = field(default_factory=list)

    def fail(self, call, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{' '.join(call.argv)}: {p}" for p in problems)

    def judge(self, call, exit_code, out) -> dict:
        self.attempted += 1
        problems, tallies = self.checks.check(call, exit_code, out)
        if problems:
            self.fail(call, problems)
        return tallies

    def reference(self, after_s: float = 0.0) -> float:
        """Median time of the reference passes, more of them after a long call."""
        passes = min(REFERENCE_MAX_PASSES, 1 + int(after_s / REFERENCE_EVERY_S))
        seconds = statistics.median(reference_seconds() for _ in range(passes))
        self.references.append(seconds)
        return seconds

    def invoke(self, call) -> tuple[int, str, float]:
        out = io.StringIO()
        err = io.StringIO()
        main = self.cli.main  # looked up per call, so a traced round sees the wrapper
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                exit_code = main(list(call.argv))
            except Exception as exc:  # a crash is a failed call, not a failed benchmark
                exit_code = -1
                print(f"{type(exc).__name__}: {exc}", file=err)
            seconds = perf_counter() - start
        if exit_code == -1:
            print(err.getvalue(), file=sys.stderr, end="")
        return exit_code, out.getvalue(), seconds

    def play(self, plan: list, traced: bool = False) -> tuple[float, float]:
        """Run every call of the plan once.

        A call's first output is checked in full; every replay must repeat
        it byte for byte.  Each call's time is scaled by the mean of the
        reference times just before and just after it.  Returns the
        round's unscaled seconds and its median scale factor.
        """
        total = 0.0
        factors = []
        after = self.reference()
        for slot in plan:
            # A call that ran long last time gets its own dense reference before it.
            before = self.reference(slot.last_s) if slot.last_s >= REFERENCE_EVERY_S else after
            exit_code, out, seconds = self.invoke(slot.call)
            slot.last_s = seconds
            after = self.reference(seconds)
            factor = 2.0 * REFERENCE_S / (before + after)
            total += seconds
            factors.append(factor)
            if slot.out is None:
                slot.out = out
                slot.tallies = self.judge(slot.call, exit_code, out)
            else:
                self.attempted += 1
                if out != slot.out:
                    self.fail(slot.call, ["replay gave different bytes"])
            if traced:
                slot.scaled_traced.append(seconds * factor)
            else:
                slot.scaled.append(seconds * factor)
                slot.raw.append(seconds)
        return total, statistics.median(factors)


def setup_seconds(client: Client, call) -> tuple[float, float]:
    """Cold start in a fresh interpreter: import wqsc and finish ``call``.

    Returns the scaled and the unscaled seconds.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    before = client.reference(SETUP_REFERENCE_S)
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), json.dumps(list(call.argv))],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=SETUP_TIMEOUT_S, check=False,
    )
    after = client.reference(SETUP_REFERENCE_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"error: the set-up probe exited {done.returncode}")
    probe = json.loads(done.stdout.splitlines()[-1])
    if not os.path.abspath(probe["module"]).startswith(SRC + os.sep):
        sys.exit(f"error: the set-up probe imported wqsc from {probe['module']}")
    client.judge(call, probe["exit"], probe["stdout"])
    return probe["seconds"] * 2.0 * REFERENCE_S / (before + after), probe["seconds"]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(values: list) -> tuple[str, float]:
    """The highest percentile with ten samples beyond it: the 11th-largest value.

    Returns (label, value).  With ten samples or fewer none has ten beyond
    it, and the largest is returned.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return "max", ordered[-1]
    rank = len(ordered) - TAIL_BEYOND
    return f"p{100.0 * rank / len(ordered):.3g}", ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(client: Client, workload: str, seed: int, seconds: float) -> dict:
    import workloads

    plan = [Slot(call) for call in workloads.WORKLOADS[workload](seed)]
    first_call = workloads.setup_call(workload, seed)
    setup = []
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        # Set-up probes are spread over the run to sample slow and fast spells alike.
        if len(setup) < SETUP_REPS and perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            setup.append(setup_seconds(client, first_call))
        client.play(plan)
        rounds += 1
    while len(setup) < SETUP_REPS:
        setup.append(setup_seconds(client, first_call))

    runs = [slot for slot in plan if slot.call.kind != "verify"]
    verifies = [slot for slot in plan if slot.call.kind == "verify"]
    trials = sum(slot.call.trials for slot in runs)
    busy = sum(slot.seconds() for slot in runs)
    call_ms = [slot.seconds() * 1e3 for slot in runs]
    tail_label, tail_ms = tail(call_ms)
    raw_busy = sum(statistics.median(slot.raw) for slot in runs)
    print(f"# {rounds} rounds of {len(runs)} simulating and {len(verifies)} verify calls; "
          f"call_ms.tail is the {tail_label} of {len(call_ms)} calls")
    print(f"# reference loop: median {statistics.median(client.references) * 1e3:.4g} ms over "
          f"{len(client.references)} timings; unscaled: trials_per_s = {trials / raw_busy:.6g}, "
          f"setup_s = {statistics.median(raw for _, raw in setup):.6g}")
    return {
        "trials_per_s": (trials / busy, "1/s"),
        "samples_per_s": (sum(slot.tallies.get("samples", 0) for slot in runs) / busy, "1/s"),
        "call_ms.p50": (statistics.median(call_ms), "ms"),
        "call_ms.tail": (tail_ms, "ms"),
        "verify_ms.p50": (statistics.median(slot.seconds() * 1e3 for slot in verifies), "ms"),
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(client: Client, workload: str, seed: int, seconds: float) -> dict:
    import tracer as tracing
    import workloads

    plan = [Slot(call) for call in workloads.WORKLOADS[workload](seed)]
    tracer = tracing.Tracer()
    rounds = []  # per traced round: (unscaled seconds, scale, span totals, counters)
    played = 0
    start = perf_counter()
    while played < MIN_ROUNDS or perf_counter() - start < seconds:
        if not TRACE_PATTERN[played % len(TRACE_PATTERN)]:
            client.play(plan)
            played += 1
            continue
        before = {key: tuple(entry) for key, entry in tracer.stats.items()}
        counters = dict(tracer.counters)
        tracer.install()
        try:
            round_s, scale = client.play(plan, traced=True)
        finally:
            tracer.uninstall()
        spans = {}
        for key, (calls, self_s) in tracer.stats.items():
            calls_before, self_before = before.get(key, (0, 0.0))
            spans[key] = (calls - calls_before, self_s - self_before)
        rounds.append((round_s, scale, spans,
                       {k: v - counters[k] for k, v in tracer.counters.items()}))
        played += 1

    def per_round(value_of) -> float:
        """Median over the traced rounds of ``value_of(seconds, scale, spans, counters)``."""
        return statistics.median(value_of(*traced) for traced in rounds)

    metrics = {}
    for module, attr in tracing.TRACED:
        name = tracing.span_name(module, attr)
        for key in ([f"{name}.q3", f"{name}.q4"] if name == tracing.MEASURE else [name]):
            metrics[f"{key}.calls"] = (
                per_round(lambda s, x, spans, c: spans.get(key, (0, 0.0))[0]), "count")
            metrics[f"{key}.self_s"] = (
                per_round(lambda s, x, spans, c: spans.get(key, (0, 0.0))[1] * x), "s")

    def drawn(spans, counters) -> int:
        # Per trial: three axis draws, one per measurement, one announcement.
        return (3 * spans.get("protocol.choose_axes", (0,))[0] + counters["trial_measure_calls"]
                + spans.get(tracing.RUN_TRIAL, (0,))[0])

    runs = [slot for slot in plan if slot.call.kind == "run"]
    traced_s = sum(slot.seconds(traced=True) for slot in plan)
    metrics.update({
        "protocol.draws_discarded_frac": (per_round(
            lambda s, x, spans, c: ratio(c["trial_ancilla_calls"], drawn(spans, c))), "ratio"),
        "protocol.key_bits_per_trial": (ratio(
            sum(slot.tallies.get("key_bits", 0) for slot in runs),
            sum(slot.call.trials for slot in runs)), "ratio"),
        "reporting.render_report.bytes": (per_round(lambda s, x, spans, c: c["render_bytes"]), "B"),
        "trace.coverage_frac": (per_round(
            lambda s, x, spans, c: ratio(sum(v[1] for v in spans.values()), s)), "ratio"),
        "trace.overhead_frac": (
            ratio(traced_s, sum(slot.seconds() for slot in plan)) - 1.0, "ratio"),
        "trace.traced_s": (traced_s, "s"),
        "trace.absent": (len(tracer.absent), "count"),
    })
    print(f"# {played} rounds of {len(plan)} calls, {len(rounds)} of them traced; "
          f"absent functions: {tracer.absent or 'none'}")
    return metrics


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    # One CPU for the calls, the reference loop and the set-up children
    # (which inherit it), so the scaling sees the same core's slow spells.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_wqsc()
    import checks

    print(json.dumps({"machine": machine()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    client = Client(cli, checks)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(client, args.workload, args.seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {client.failed}/{client.attempted} = "
          f"{ratio(client.failed, client.attempted):.6g}")
    for problem in client.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
