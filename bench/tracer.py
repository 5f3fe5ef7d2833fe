"""Per-layer tracing by wrapping wqsc's public functions from outside.

Each listed function is replaced, in every wqsc module that binds it, by a
wrapper that opens a span around the call.  Binding sites matter because
modules import by name: ``measure_qubit`` is looked up in ``wqsc.protocol``,
``wqsc.cli`` and ``wqsc.golden`` separately, so patching ``wqsc.qcore``
alone would miss every hot call.  A span's self time is its duration minus
the time of its child spans.  Spans are folded into per-function totals as
they close, which keeps memory flat on runs of millions of spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) under wqsc; "Class.__init__" wraps construction.
TRACED = (
    ("cli", "main"),
    ("cli", "sample_security_frequency"),
    ("protocol", "run_protocol"),
    ("protocol", "run_trial"),
    ("protocol", "trial_rng"),
    ("protocol", "choose_axes"),
    ("qcore", "measure_qubit"),
    ("qcore", "StateVector.__init__"),
    ("qcore", "eigenvalues_hermitian"),
    ("qcore", "joint_probability"),
    ("golden", "run_verification"),
    ("adversary", "apply_attack"),
    ("states", "w_state"),
    ("states", "attacked_w_state"),
    ("reporting", "render_report"),
    ("reporting", "render_sweep_csv"),
    ("bell", "averaged_security_probability"),
)

RUN_TRIAL = "protocol.run_trial"
MEASURE = "qcore.measure_qubit"
RENDER = "reporting.render_report"
ANCILLA_QUBIT = 3


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


class Tracer:
    """Span wrappers for the wqsc functions already imported.

    ``install`` and ``uninstall`` swap the wrappers in and out, so traced
    and untraced calls can alternate; totals accumulate across installs.
    """

    def __init__(self) -> None:
        # span name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.counters = {"trial_measure_calls": 0, "trial_ancilla_calls": 0, "render_bytes": 0}
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [child seconds, name]
        # (namespace, attribute, original, wrapper) for every binding site
        self._patches: list[tuple[object, str, object, object]] = []
        self._bind()

    def _wrap(self, name: str, fn):
        stack = self._stack
        counters = self.counters
        stats = self.stats.setdefault(name, [0, 0.0])
        is_measure = name == MEASURE
        is_render = name == RENDER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name
            if is_measure:
                state = args[0] if args else kwargs["state"]
                qubit = args[1] if len(args) > 1 else kwargs.get("qubit")
                key = f"{name}.q{state.num_qubits}"
                if stack and stack[-1][1] == RUN_TRIAL:
                    counters["trial_measure_calls"] += 1
                    counters["trial_ancilla_calls"] += qubit == ANCILLA_QUBIT
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = stats if key is name else self.stats.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if is_render:
                counters["render_bytes"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _bind(self) -> None:
        """Find every binding site of each listed function; build its wrapper once."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wqsc" or n.startswith("wqsc.")]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            home = sys.modules.get(f"wqsc.{module_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None)
            if owner is None or (method and method not in vars(owner)):
                self.absent.append(name)
                continue
            if method:
                original = vars(owner)[method]
                self._patches.append((owner, method, original, self._wrap(name, original)))
                continue
            wrapper = self._wrap(name, owner)
            for module in modules:
                for binding, value in vars(module).items():
                    if value is owner:
                        self._patches.append((module, binding, owner, wrapper))

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    def self_seconds(self) -> float:
        return sum(entry[1] for entry in self.stats.values())
