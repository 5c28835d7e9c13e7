"""The process that runs a workload's ops in-process (spawned by run.py).

    python bench/worker.py --workload W --seed N --setup-only
    python bench/worker.py --workload W --seed N --seconds S --trace 0|1 --out FILE

Set-up is ``import kbonacci`` plus generating and preparing the op list; with
``--setup-only`` the process prints ``ready`` and exits, so run.py can time
fresh interpreters to ready. Otherwise it prints ``ready`` and runs passes over
the op list for about S seconds, then writes one JSON result to FILE.

Untraced passes time each op from just before its library call to just after
it returns; summarizing the result for the reference check happens after the
clock stops. Each op is followed by one timed calibration chunk; the chunks
around an op give its speed factor (see ``op_speed_factors``). With
``--trace 1`` untraced and traced passes alternate (at most MAX_TRACE_PAIRS
pairs) and the result carries per-layer metrics; the spans are written next
to FILE once, at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import execute, make_ops, prepare, summarize

MAX_TRACE_PAIRS = 3

# On a shared host the CPU's speed can drift by tens of percent within
# seconds, with CPU time equal to wall time: slower instructions, not
# preemption. Times are therefore scaled to a reference speed. A calibration
# chunk, fixed pure-Python work that calls no kbonacci code, runs after every
# op, and an op's time is multiplied by REFERENCE_CHUNK_S over the median of
# the CHUNK_WINDOW chunks on each side of it. A change to kbonacci moves op
# times and leaves the chunks alone.
REFERENCE_CHUNK_S = 1e-3
CHUNK_WINDOW = 4


def calibration_chunk():
    """About a millisecond of the interpreter work the ops do: big-integer
    additions, Fraction arithmetic, float and dict updates."""
    a, b = 1, 1
    for _ in range(1700):
        a, b = b, a + b
    f = Fraction(0)
    for i in range(1, 55):
        f += Fraction(1, i)
    s, table = 0.0, {}
    for i in range(3500):
        s += i * 0.5
        table[i & 255] = s
    return a & 1, f, s


def timed_chunk() -> float:
    t0 = perf_counter()
    calibration_chunk()
    return perf_counter() - t0


def speed_factor(chunk_times) -> float:
    """Multiplier that scales a time taken amid these chunks to the reference speed."""
    return REFERENCE_CHUNK_S / statistics.median(chunk_times)


def op_speed_factors(chunks):
    """Per-op speed factors of one pass; chunks[i] ran right after op i."""
    return [speed_factor(chunks[max(0, i - CHUNK_WINDOW):i + CHUNK_WINDOW]) for i in range(len(chunks))]


def run_pass(prepared, tracer=None):
    """One pass over the op list: (per-op seconds, per-op outcomes, chunk seconds)."""
    gc.collect()
    times, outcomes, chunks = [], [], []
    for op, args in prepared:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            raised = value = None
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_op(op.id, t0)
            try:
                value = execute(op.kind, args)
            except Exception as exc:  # the op's outcome; the pass goes on
                raised = exc
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op(t1)
        if tracer is not None:
            tracer.drain()
        outcome = summarize(op, value, raised)
        if caught:
            outcome["warnings"] = sorted({f"{w.category.__name__}: {w.message}"[:100] for w in caught})
        times.append(t1 - t0)
        outcomes.append(outcome)
        del value
        chunks.append(timed_chunk())
    return times, outcomes, chunks


def layer_metrics(tracers, traced_walls, untraced_walls):
    """Per-layer metrics from the traced passes (medians of times, first-pass counts)."""
    from tracing import METRIC_NAME, OP_SPAN, TARGETS

    first = tracers[0]
    calls, _ = first.self_times()
    per_pass = [t.self_times()[1] for t in tracers]
    names = [n for n in TARGETS if n not in METRIC_NAME]

    def self_s(name):
        return statistics.median(p.get(name, 0.0) for p in per_pass)

    m = {}
    for name in sorted(names):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("spectral.find_roots", "algebra.verify_relations"):
        m[f"{name}.failed"] = first.failed.get(name, 0)
    m["recurrence.max_value_bits"] = first.max_value_bits
    m["substitution.rules_enumerated"] = first.counters["substitution.rules_enumerated"]
    m["substitution.letters_materialized"] = first.counters["substitution.letters_materialized"]
    verifies = calls.get("algebra.verify_relations", 0)
    nested = first.nested_count("algebra.spectrum", "algebra.verify_relations")
    m["algebra.spectrum_per_verify"] = nested / verifies if verifies else 0.0
    m["trace.spans"] = len(first.spans)
    base = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    m["trace.base_wall_s"] = base
    m["trace.wall_s"] = traced
    m["trace.overhead_frac"] = (traced - base) / base
    m["trace.glue_s"] = self_s(OP_SPAN)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    import kbonacci  # noqa: F401  (set-up cost users pay on every start)

    ops, _ = make_ops(args.workload, args.seed)
    prepared = [(op, prepare(op)) for op in ops]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes, factors, mismatched = [], [], set()
    tracers, traced_walls, trace_mismatch = [], [], set()
    first_outcomes = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, outcomes, chunks = run_pass(prepared)
        passes.append(times)
        factors.append(op_speed_factors(chunks))
        if first_outcomes is None:
            first_outcomes = outcomes
        mismatched |= {op.id for op, a, b in zip(ops, first_outcomes, outcomes) if a != b}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            with tracer:
                ttimes, toutcomes, _ = run_pass(prepared, tracer)
            tracers.append(tracer)
            traced_walls.append(sum(ttimes))
            trace_mismatch |= {op.id for op, a, b in zip(ops, first_outcomes, toutcomes) if a != b}
        elapsed = perf_counter() - start
        last = perf_counter() - t0
        if elapsed + last > args.seconds or len(tracers) >= MAX_TRACE_PAIRS:
            break

    result = {
        "op_ids": [op.id for op in ops],
        "passes": passes,
        "speed_factors": factors,
        "outcomes": first_outcomes,
        "mismatched": sorted(mismatched),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        metrics = layer_metrics(tracers, traced_walls, [sum(p) for p in passes])
        metrics["cli.output_bytes"] = sum(
            o.get("stdout_bytes", 0) for op, o in zip(ops, first_outcomes) if op.kind == "cli_main"
        )
        result["layers"] = metrics
        result["trace_mismatch"] = sorted(trace_mismatch)
        spans_path = Path(args.out).with_name("spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                for s in tracer.spans:
                    fh.write(json.dumps([i, *s]) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
