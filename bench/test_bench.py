"""Self-test of the benchmark (outside tier-1; run it with
``PYTHONPATH=src python -m pytest -q bench/test_bench.py``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kbonacci  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from worker import REFERENCE_CHUNK_S, op_speed_factors, run_pass  # noqa: E402
from workloads import WORKLOADS, execute, make_ops, prepare, summarize  # noqa: E402

# Ops cheap enough for a unit test, one or more of every kind per workload.
CHEAP = {
    "iterate": lambda p: p["n"] <= 1000,
    "matrix_power": lambda p: p["n"] <= 1000,
    "miles": lambda p: p["m"] <= 150,
    "char_poly": lambda p: len(p["coeffs"]) <= 5,
    "spectrum": lambda p: p["levels"] <= 300,
    "verify": lambda p: p["dim"] <= 50,
    "roots": lambda p: len(p["coeffs"]) <= 8,
    "binet": lambda p: p["n"] <= 300,
    "cli_main": lambda p: "--dim" not in p["argv"],
}


def _cheap_ops(workload, seed=0, limit=40):
    ops, files = make_ops(workload, seed)
    keep = [op for op in ops if CHEAP.get(op.kind, lambda p: True)(op.params)]
    return keep[:limit], files


@pytest.fixture
def inputs_in_tmp(tmp_path, monkeypatch):
    """Run from a scratch directory holding the workloads' generated spec files."""
    monkeypatch.chdir(tmp_path)
    for workload in WORKLOADS:
        _, files = make_ops(workload, 0)
        for path, text in files.items():
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
    return tmp_path


def _kbonacci_bindings():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "kbonacci" or name.startswith("kbonacci.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_make_ops_is_a_pure_function_of_the_seed():
    for workload in WORKLOADS:
        a, files_a = make_ops(workload, 7)
        b, files_b = make_ops(workload, 7)
        c, _ = make_ops(workload, 8)
        assert a == b and files_a == files_b
        assert a != c
        assert len(a) >= 100, "p90 needs at least ten ops beyond it"


def test_tracing_wrappers_are_removed_afterwards():
    import kbonacci.cli

    before = _kbonacci_bindings()
    tracer = Tracer()
    with tracer:
        assert getattr(kbonacci.cli.iterate_sequence, "bench_span", None) == "recurrence.iterate_sequence"
        assert getattr(kbonacci.spectral.iterate_sequence, "bench_span", None) == "recurrence.iterate_sequence"
        assert getattr(kbonacci.iterate_sequence, "bench_span", None) == "recurrence.iterate_sequence"
        # evaluate is wrapped where algebra calls it, not inside its own recursion.
        assert hasattr(kbonacci.algebra.evaluate, "bench_span")
        assert not hasattr(kbonacci.exprparse.evaluate, "bench_span")
        wrapped = {name for _, _, original in tracer._bindings for name in [original.__name__]}
        assert {attr for _, attr, _ in TARGETS.values()} <= wrapped
    after = _kbonacci_bindings()
    assert after == before
    assert not any(hasattr(v, "bench_span") for v in after.values())


def test_traced_and_untraced_runs_give_identical_outputs(inputs_in_tmp):
    for workload in WORKLOADS:
        ops, _ = _cheap_ops(workload)
        prepared = [(op, prepare(op)) for op in ops]
        _, plain, _ = run_pass(prepared)
        tracer = Tracer()
        with tracer:
            _, traced, _ = run_pass(prepared, tracer)
        assert traced == plain, workload
        calls, self_s = tracer.self_times()
        assert calls["bench.op"] == len(ops)
        assert sum(self_s.values()) == pytest.approx(
            sum(s[2] - s[1] for s in tracer.spans if s[3] < 0), rel=1e-9
        )


def test_speed_factors_follow_the_chunks_next_to_each_op():
    # A machine at half speed for the last ops of a pass: their times are
    # halved, those of the ops far from the slow stretch are left alone.
    chunks = [REFERENCE_CHUNK_S] * 12 + [2 * REFERENCE_CHUNK_S] * 12
    factors = op_speed_factors(chunks)
    assert len(factors) == len(chunks)
    assert factors[:6] == [1.0] * 6
    assert factors[-6:] == [0.5] * 6


def test_wrong_reference_is_counted_as_failed(inputs_in_tmp, monkeypatch):
    ops, _ = make_ops("exact_sweep", 0)
    ops = [op for op in ops if op.kind == "char_poly" and len(op.params["coeffs"]) <= 6][:2] + [
        op for op in ops if op.kind == "miles" and op.params["m"] <= 150
    ][:2]
    outcomes = [summarize(op, execute(op.kind, prepare(op)), None) for op in ops]
    assert run.account(ops, outcomes) == []

    real = refcheck.char_poly
    monkeypatch.setattr(refcheck, "char_poly", lambda coeffs: real(coeffs)[:-1] + (real(coeffs)[-1] + 1,))
    failures = run.account(ops, outcomes)
    assert sorted(op.kind for op, _ in failures) == ["char_poly", "char_poly"]
    assert all(op.defect is None for op, _ in failures)
    assert len(failures) / len(ops) == 0.5


def test_run_exits_nonzero_without_sources(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "bench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
