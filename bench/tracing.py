"""Spans around calls into the library, recorded from outside ``src/``.

``Tracer.install`` replaces each traced public function at every place it is
bound: its defining module, the ``kbonacci`` package, and every ``kbonacci``
module that imported it by name (``cli`` and ``spectral`` both import
``iterate_sequence``, for example). ``uninstall`` puts the originals back.

A span is [name, start, end, parent index, op id]; spans stay in memory and
are written out once, by the caller, at the end of the run. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# span name -> (defining module, attribute, modules whose binding is wrapped;
# None means every kbonacci module that binds the function).
TARGETS = {
    "cli": ("kbonacci.cli", "main", None),
    "recurrence.iterate_sequence": ("kbonacci.recurrence", "iterate_sequence", None),
    "recurrence.matrix_power_sequence": ("kbonacci.recurrence", "matrix_power_sequence", None),
    "recurrence.miles": ("kbonacci.recurrence", "miles_number", None),
    "spectral.find_roots": ("kbonacci.spectral", "find_roots", None),
    "spectral.matrix_char_poly": ("kbonacci.spectral", "matrix_char_poly", None),
    "spectral.binet": ("kbonacci.spectral", "binet_form", None),
    "spectral.binet_eval": ("kbonacci.spectral", "binet_eval", None),
    "spectral.stochastic_analysis": ("kbonacci.spectral", "stochastic_analysis", None),
    "spectral.ratio_limit_check": ("kbonacci.spectral", "ratio_limit_check", None),
    "algebra.spectrum": ("kbonacci.algebra", "spectrum", None),
    "algebra.truncated_operators": ("kbonacci.algebra", "truncated_operators", None),
    "algebra.verify_relations": ("kbonacci.algebra", "verify_relations", None),
    "substitution.enumerate_rules": ("kbonacci.substitution", "enumerate_rules", None),
    "substitution.grow_chain": ("kbonacci.substitution", "grow_chain", None),
    "substitution.growth_law_check": ("kbonacci.substitution", "growth_law_check", None),
    # Only entry calls from algebra: evaluate's own recursion goes through the
    # exprparse binding, which stays unwrapped.
    "exprparse.evaluate": ("kbonacci.exprparse", "evaluate", ("kbonacci.algebra",)),
}

# Span names reported together under one metric name.
METRIC_NAME = {"spectral.binet_eval": "spectral.binet"}

OP_SPAN = "bench.op"


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Records spans and per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.failed: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_value_bits = 0
        self.op = None
        self._stack: list[int] = []
        self._results: list[tuple[str, object]] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        defining = {span: importlib.import_module(modname) for span, (modname, _, _) in TARGETS.items()}
        modules = [m for name, m in sys.modules.items() if name == "kbonacci" or name.startswith("kbonacci.")]
        for span, (_, attr, scope) in TARGETS.items():
            original = getattr(defining[span], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                if scope is not None and mod.__name__ not in scope:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._bindings.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, results, failed = self.spans, self._stack, self._results, self.failed

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = perf_counter()
                stack.pop()
                failed[name] += 1
                raise
            span[2] = perf_counter()
            stack.pop()
            results.append((name, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.bench_span = name
        return wrapper

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op_id: str, start: float) -> None:
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, start, 0.0, -1, op_id])

    def end_op(self, end: float) -> None:
        self.spans[self._stack.pop()][2] = end
        self.op = None

    def drain(self) -> None:
        """Turn the results stashed during the last op into counters.

        Runs between ops, outside every span, so the counting is not timed.
        """
        for name, result in self._results:
            if name == "recurrence.iterate_sequence":
                self.max_value_bits = max(self.max_value_bits, *map(_bits, result.values))
            elif name == "recurrence.matrix_power_sequence":
                self.max_value_bits = max(self.max_value_bits, *map(_bits, result))
            elif name == "recurrence.miles":
                self.max_value_bits = max(self.max_value_bits, result.bit_length())
            elif name == "substitution.enumerate_rules":
                self.counters["substitution.rules_enumerated"] += len(result)
            elif name == "substitution.grow_chain":
                self.counters["substitution.letters_materialized"] += sum(
                    len(s.word) for s in result if s.word is not None
                )
            elif name == "algebra.verify_relations" and not result.all_passed:
                self.failed[name] += 1
        self._results.clear()

    # -- summaries ----------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, self_s = Counter(), Counter()
        for i, s in enumerate(self.spans):
            name = METRIC_NAME.get(s[0], s[0])
            calls[name] += 1
            self_s[name] += (s[2] - s[1]) - child[i]
        return calls, self_s

    def nested_count(self, name: str, ancestor: str) -> int:
        """Spans called name that have a span called ancestor above them."""
        count = 0
        for s in self.spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count
