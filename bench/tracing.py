"""Span recorders around the public entry points of each ``axf`` module.

``Tracer.install`` replaces each listed function or method, in every ``axf``
module namespace that holds it, with a wrapper that records a span: its
duration, and the part of it that no child span covers (self time).  Spans
are aggregated per entry point and per module as they close; ``uninstall``
puts the originals back.  A wrapper that is re-entered while its own span is
open (a recursive call) records nothing, so recursion costs one span.

Spans only count while ``active`` is set, which the measurement loop turns on
around the calls it times; the benchmark's own output checks run untraced.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("parser", "logic", "transformer", "evaluator", "verifier", "cli")

# (module, owner, attribute): owner is None for a module-level function,
# else the name of the class whose method is wrapped.
ENTRY_POINTS = (
    ("parser", None, "parse_program"),
    ("parser", None, "parse_state"),
    ("parser", None, "print_program"),
    ("parser", None, "print_state"),
    ("logic", "AxiomProgram", "__init__"),
    ("logic", None, "check_stratified"),
    ("logic", None, "negative_occurrences"),
    ("logic", None, "collapse_double_negation"),
    ("transformer", None, "eliminate_negative_occurrences"),
    ("transformer", None, "generate_stage_axioms"),
    ("transformer", None, "merge_to_single_stratum"),
    ("transformer", None, "compute_metrics"),
    ("evaluator", "Engine", "__init__"),
    ("evaluator", "Engine", "run"),
    ("evaluator", "Engine", "run_with_stages"),
    ("evaluator", None, "stage_relations"),
    ("evaluator", None, "extend"),
    ("evaluator", None, "extend_in_stages"),
    ("verifier", None, "run_checks"),
    ("verifier", None, "check_polarity"),
    ("verifier", None, "verify_theorem1"),
    ("verifier", None, "verify_theorem2"),
    ("verifier", None, "verify_equivalence"),
    ("verifier", None, "verify_aux"),
    ("verifier", None, "verify_order_independence"),
    ("verifier", None, "lint_polarity"),
    ("cli", None, "main"),
)

_CHECK_SPANS = {
    "verify_theorem1",
    "verify_theorem2",
    "verify_equivalence",
    "verify_aux",
    "verify_order_independence",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.total: dict[str, float] = defaultdict(float)  # inclusive time per entry point
        self.self_time: dict[str, float] = defaultdict(float)  # exclusive time per entry point
        self.calls: dict[str, int] = defaultdict(int)
        self.module_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.module_self, self.counts):
            table.clear()

    def _observe(self, name: str, args, result) -> None:
        """Counts read off arguments and results at the span boundary."""
        if name == "parse_program":
            self.counts["parser.bytes"] += len(args[0].encode("utf-8"))
        elif name == "eliminate_negative_occurrences":
            report = result[1]
            self.counts["transformer.iterations"] += report.iterations
            self.counts["transformer.families"] += len(report.families)
        elif name == "run":
            self.counts["evaluator.atoms_out"] += len(result)
        elif name == "run_with_stages":
            self.counts["evaluator.atoms_out"] += len(result[0])
        elif name in _CHECK_SPANS:
            self.counts["verifier.states_checked"] += result.states_checked

    def _wrap(self, module: str, name: str, fn):
        key = f"{module}.{name}"
        tracer = self
        depth = [0]

        def span(*args, **kwargs):
            if not tracer.active or depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            frame = [0.0]  # time covered by child spans
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                depth[0] -= 1
                tracer.total[key] += elapsed
                tracer.self_time[key] += elapsed - frame[0]
                tracer.calls[key] += 1
                tracer.module_self[module] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            tracer._observe(name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "axf" or n.startswith("axf.")]
        for module, owner, attr in ENTRY_POINTS:
            home = sys.modules[f"axf.{module}"]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(module, attr, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(module, attr, original)
            for ns in namespaces:
                for bound_name, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, bound_name, original))
                        setattr(ns, bound_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
