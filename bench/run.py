"""kbonacci benchmark: one command for every end-to-end and per-layer metric.

    python3 bench/run.py --workload {exact_sweep,rational_float}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; it works from the repository root and reads and writes
only inside the checkout (generated inputs, spans and run records go to
``.bench_out/``). The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. The lines before it name every metric with its unit and
base, every failed op with its reason, and the run record (versions, nproc,
git SHA, seed, start-up controls).

Workloads (closed loop, one client, one thread; see workloads.py):

- exact_sweep: in-process exact, integer-coefficient sweeps; big-integer
  arithmetic in recurrence and algebra dominates.
- rational_float: the same entry points off the integer path: Fraction
  recurrences, roots, Binet, float spectra and float verify, plus cli.main on
  float specs and malformed input.

Start-up (interpreter plus ``import kbonacci``) shows in setup_s and startup.*.
Each run samples every op once per pass for about S seconds; an op's latency
is its median over the passes, and wall_s is the median pass total.

The end-to-end times are scaled to a reference speed, because on a shared
host the CPU's speed can drift by tens of percent within seconds: each op's
time by the speed factor of the calibration chunks run next to it, each
set-up sample by that of chunks run just before and after it (see
worker.py). The unscaled figures are printed too, before the result line.

``correct`` is true when every op that fails is a listed known defect, every
pass gave the same outcomes and (traced runs) tracing left outcomes
unchanged. ``failed`` counts every op whose outcome differs from the
reference, known defects included, so failed_frac shows them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 11
SETUP_CHUNKS = 20  # calibration chunks on each side of a set-up sample
CONTROL_SAMPLES = 5


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    # One client, one thread: keep numpy's BLAS from spinning on the other core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def time_to_ready(cmd, env) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process {cmd} failed (exit {proc.returncode})")
    return elapsed


def scaled_time_to_ready(cmd, env):
    """(seconds to ready at the reference speed, unscaled seconds)."""
    from worker import speed_factor, timed_chunk

    chunks = [timed_chunk() for _ in range(SETUP_CHUNKS)]
    elapsed = time_to_ready(cmd, env)
    chunks += [timed_chunk() for _ in range(SETUP_CHUNKS)]
    return elapsed * speed_factor(chunks), elapsed


def startup_controls(env, samples):
    """``python -c pass`` wall time and ``-X importtime`` of kbonacci and numpy."""
    py = sys.executable
    passes = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([py, "-c", "pass"], env=env, check=True)
        passes.append(perf_counter() - t0)
    cumulative = {"kbonacci": [], "numpy": []}
    top = []
    for _ in range(samples):
        proc = subprocess.run(
            [py, "-X", "importtime", "-c", "import kbonacci"],
            env=env, check=True, capture_output=True, text=True,
        )
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                entries.append((int(parts[1]), parts[2].strip()))
        for us, name in entries:
            if name in cumulative:
                cumulative[name].append(us / 1e6)
        top = sorted(entries, reverse=True)[:8]
    return {
        "python_c_pass_s": statistics.median(passes),
        "import_s": statistics.median(cumulative["kbonacci"]),
        "numpy_import_s": statistics.median(cumulative["numpy"]),
        "importtime_top": [{"module": n, "cumulative_us": us} for us, n in top],
        "samples": samples,
    }


def account(ops, outcomes):
    """[(op, reason)] for every op whose outcome differs from the reference."""
    import refcheck

    failures = []
    for op, outcome in zip(ops, outcomes):
        reason = refcheck.check(op, outcome)
        if reason is None and outcome.get("warnings"):
            reason = "emitted " + "; ".join(outcome["warnings"])
        if reason is not None:
            failures.append((op, reason))
    return failures


def run_worker(workload, seed, seconds, trace, outdir, env):
    out = outdir / f"worker-trace{trace}.json"
    cmd = [sys.executable, str(Path("bench") / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _numpy_version():
    import numpy

    return numpy.__version__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kbonacci" / "__init__.py").is_file():
        print(f"error: no kbonacci sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    from workloads import WORKLOADS, input_dir, make_ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = _env()
    outdir = Path(".bench_out") / f"{args.workload}-s{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    ops, files = make_ops(args.workload, args.seed)
    Path(input_dir(args.workload, args.seed)).mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")

    # Users compile once: warm __pycache__ before anything is timed.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    controls = startup_controls(env, CONTROL_SAMPLES if args.trace else 3)

    setup_cmd = [sys.executable, "bench/worker.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"]
    time_to_ready(setup_cmd, env)  # warm-up, not counted
    # Half the set-up samples come after the ops, so their median spans the
    # run's phases of a shared machine as the op latencies do.
    setup = [scaled_time_to_ready(setup_cmd, env) for _ in range(SETUP_SAMPLES // 2)]
    res = run_worker(args.workload, args.seed, args.seconds, args.trace, outdir, env)
    setup += [scaled_time_to_ready(setup_cmd, env) for _ in range(SETUP_SAMPLES - len(setup))]

    failures = account(ops, res["outcomes"])
    unexpected = [op.id for op, _ in failures if op.defect is None]
    inconsistent = res["mismatched"] + res.get("trace_mismatch", [])
    correct = not unexpected and not inconsistent

    n_ops, n_passes = len(ops), len(res["passes"])
    factors = res["speed_factors"]
    scaled = [[t * f for t, f in zip(p, fs)] for p, fs in zip(res["passes"], factors)]
    pass_factors = [statistics.median(fs) for fs in factors]

    def times(passes, setup_samples):
        # An op's latency is its median over the run's passes; the best time
        # would track rare fast phases and repeat worse from run to run.
        per_op = [statistics.median(p[i] for p in passes) for i in range(n_ops)]
        return {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(sum(p) for p in passes),
            "op_p50_ms": 1e3 * _quantile(per_op, 0.5),
            "op_p90_ms": 1e3 * _quantile(per_op, 0.9),
        }

    unscaled = times(res["passes"], [raw for _, raw in setup])
    e2e = {name: (value, "s" if name.endswith("_s") else "ms")
           for name, value in times(scaled, [s for s, _ in setup]).items()}
    e2e["failed_frac"] = (len(failures) / n_ops, "ratio")
    e2e["peak_rss_mb"] = (res["peak_rss_kb"] / 1024.0, "MB")

    print(f"kbonacci benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": _numpy_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(), "controls": controls, "ops": n_ops, "passes": n_passes,
    }
    print(f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"git {record['git_sha'] or 'unknown (not a git checkout)'}")
    print(f"controls (median of {controls['samples']}): python -c pass {controls['python_c_pass_s']:.4f} s; "
          f"-X importtime kbonacci {controls['import_s']:.4f} s, numpy {controls['numpy_import_s']:.4f} s")
    print("  importtime top: " + ", ".join(
        f"{e['module']} {e['cumulative_us'] / 1e3:.1f} ms" for e in controls["importtime_top"]))
    print(f"load: closed loop, one client; {n_ops} ops per pass, {n_passes} pass(es); "
          f"setup samples {len(setup)}")
    for op, reason in failures:
        tag = f"known defect: {op.defect}" if op.defect else "UNEXPECTED"
        print(f"FAILED {op.id} {json.dumps(op.params.get('argv', op.params))[:160]}: {reason} [{tag}]")
    for op_id in inconsistent:
        print(f"INCONSISTENT {op_id}: outcome changed between passes or under tracing")

    if args.trace:
        layers = dict(res["layers"])
        layers["startup.python_s"] = controls["python_c_pass_s"]
        layers["startup.import_s"] = controls["import_s"]
        layers["startup.numpy_import_s"] = controls["numpy_import_s"]
        metrics = {name: (value, _layer_unit(name)) for name, value in sorted(layers.items())}
        print(f"trace.overhead_frac base: untraced wall_s {layers['trace.base_wall_s']:.4f} s, "
              f"traced {layers['trace.wall_s']:.4f} s; glue (bench.op self) {layers['trace.glue_s']:.4f} s")
    else:
        metrics = e2e
        print(f"failed_frac base: {len(failures)} failed of {n_ops} ops attempted per pass")
        print(f"op latency samples: {n_ops} ops, each the median of {n_passes} pass(es); "
              f"wall_s is the median of the {n_passes} pass totals")
        print(f"speed factors (reference speed / measured): pass medians "
              f"{statistics.median(pass_factors):.4f} "
              f"(range {min(pass_factors):.4f}-{max(pass_factors):.4f}), set-up median "
              f"{statistics.median(s / raw for s, raw in setup):.4f}")
        print("unscaled: " + ", ".join(f"{name} = {value:.6g}" for name, value in unscaled.items()))
        record["unscaled"] = unscaled
        record["pass_speed_factors"] = pass_factors
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failures"] = [{"op": op.id, "reason": r, "defect": op.defect} for op, r in failures]
    record["correct"] = correct
    (outdir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": n_ops * n_passes,
        "failed": len(failures) * n_passes,
        "metrics": record["metrics"],
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_frac", "_per_verify")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
