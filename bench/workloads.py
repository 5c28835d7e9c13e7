"""Seeded op lists for the two benchmark workloads.

An op is plain data: an id, a kind, JSON-able params, and, for inputs with a
known defect, the reason it is expected to fail today. ``make_ops`` is a pure
function of (workload, seed). ``prepare`` turns an op into the library
objects it needs (that is set-up work), ``execute`` makes the timed call, and
``summarize`` reduces the result to a JSON-able outcome that the reference
check in ``refcheck`` compares.

Every workload is a closed loop with one client: each op starts after the
previous one returned. The op lists have a fixed shape per workload; the seed
draws vacuum values, small size offsets, rule shapes, output formats and the
op order, so two seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("exact_sweep", "rational_float")

# Known defects, each named by the outcome the README / ROADMAP documents.
DEFECT_BINET_OVERFLOW = (
    "ROADMAP item 4: Binet evaluation overflows; documented outcome is exit 3 "
    "with one error line, seed code dies on an OverflowError traceback"
)
DEFECT_EXPR_OVERFLOW = (
    "ROADMAP item 4: float64 x^2+1 spectrum overflows; documented outcome is a "
    "ComputationError (exit 3), seed code raises a raw OverflowError"
)
DEFECT_FLOAT_INFINITY = (
    "ROADMAP item 4: float64 Fibonacci spectrum at 1500 levels; documented "
    "outcome is exit 3, seed code exits 0 and prints Infinity (not JSON)"
)
DEFECT_EXACT_NORM = (
    "exact Fibonacci spectrum at 1480 levels: float norm overflows "
    "(algebra.py:238); seed code dies on an OverflowError traceback"
)
DEFECT_FLOAT_VERIFY = (
    "ROADMAP item 2: float verify checks absolute residuals, so the Fibonacci "
    "float spec fails where the exact verdict passes"
)
DEFECT_ROOTS_SEPARATED = (
    "ROADMAP item 3: well-separated roots of x^2-1000000x-1; Durand-Kerner "
    "raises NonConvergenceError"
)
DEFECT_ROOTS_REPEATED = (
    "ROADMAP item 3: repeated root; documented outcome is a repeated-roots "
    "error, seed code slips past the near-repeat test or does not converge"
)


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    params: dict
    defect: Optional[str] = None


def input_dir(workload: str, seed: int) -> str:
    """Directory, relative to the repository root, for generated spec files."""
    return f".bench_out/inputs/{workload}-s{seed}"


def _spec_text(k, vacuum, *, linear=None, functions=None, arithmetic="exact", n_max=None):
    data = {"k": k}
    if linear is not None:
        data["linear"] = [str(v) for v in linear]
    else:
        data["functions"] = list(functions)
    data["vacuum"] = [str(v) for v in vacuum]
    if n_max is not None:
        data["n_max"] = n_max
    data["arithmetic"] = arithmetic
    return json.dumps(data)


def _unit_vacuum(k):
    return ["1"] + ["0"] * (k - 1)


def _rule_text(lam1, lam2, quotients, perm, comp) -> str:
    """Canonical substitution rule text for the given shape (see substitution.py)."""
    letters = "ABCDEFGHIJ"
    k = len(quotients) + 2
    head = []
    for j in range(k):
        head.append("A" * comp[j])
        if j < k - 1:
            head.append(letters[perm[j] - 1])
    images = ["".join(head), "A" * lam2]
    for i in range(3, k + 1):
        images.append(letters[i - 2] * quotients[i - 3])
    return ",".join(f"{letters[i]}:{w}" for i, w in enumerate(images))


def _random_rule(rng, k):
    lam1 = rng.choice((1, 2))
    lam2 = rng.choice((1, 2))
    quotients = [rng.choice((1, 2)) for _ in range(k - 2)]
    perm = list(range(2, k + 1))
    rng.shuffle(perm)
    cuts = sorted(rng.randint(0, lam1) for _ in range(k - 1))
    comp = [b - a for a, b in zip([0, *cuts], [*cuts, lam1])]
    return _rule_text(lam1, lam2, quotients, perm, comp)


def _probability_row(rng, k):
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    return [f"{w}/{total}" for w in weights]


# ----------------------------------------------------------------------------
# Op lists.


def _exact_sweep(rng, seed):
    d = input_dir("exact_sweep", seed)
    files = {}
    ops = []

    def add(kind, params, defect=None, tag=""):
        ops.append(Op(f"{kind}/{tag}-{len(ops)}", kind, params, defect))

    def vacuum(k):
        return [str(rng.randint(1, 3))] + [str(rng.randint(0, 2)) for _ in range(k - 1)]

    # Sizes keep a pass near 3 s, so a 50 s run samples every op ten times or
    # more (see run.py): iterate reaches n = 2e4 at k = 2 and 5e3 at k = 3, 5.
    for k in (2, 3, 5):
        for base in (1000, 5000, 10000, 20000):
            for kind in ("iterate", "matrix_power"):
                if kind == "iterate" and base > (20000 if k == 2 else 5000):
                    continue
                if kind == "matrix_power" and base == 5000:
                    continue
                n = base + rng.randrange(8)
                add(kind, {"coeffs": ["1"] * k, "vacuum": vacuum(k), "n": n}, tag=f"k{k}-n{n}")
    for k in (2, 3, 5):
        n = 50000 + rng.randrange(8)
        add("matrix_power", {"coeffs": ["1"] * k, "vacuum": vacuum(k), "n": n}, tag=f"k{k}-n{n}")
    for k, m in ((2, 300), (2, 600), (3, 150), (3, 200), (4, 100), (4, 120), (5, 80), (5, 100)):
        for _ in range(3):
            mm = m + rng.randrange(3)
            add("miles", {"k": k, "m": mm}, tag=f"k{k}-m{mm}")
    # Cofactor expansion costs ~k!, so k stops at 7 (k = 8 alone would take
    # a third of a pass). The coefficients are fixed: entry size moves the cost.
    for k in (5, 6, 7):
        lams = [2, 1] + [2 ** i for i in range(1, k - 1)]
        for matrix in ("companion", "mixed", "abelianization"):
            add("char_poly", {"matrix": matrix, "coeffs": [str(v) for v in lams]}, tag=f"{matrix}-k{k}")
    for lam in (("1", "1"), ("1", "1", "1"), ("2", "1", "2"), ("1", "1", "1", "1")):
        # (2,1,2) grows fastest: its float norm would overflow past ~700 levels,
        # the defect the fib_exact --levels 1480 op already carries.
        for levels in (100, 300, 600 if lam == ("2", "1", "2") else 1000):
            add("spectrum", {"linear": list(lam), "vacuum": vacuum(len(lam)), "levels": levels,
                             "arithmetic": "exact"}, tag=f"k{len(lam)}-l{levels}")
    for dim, lam in ((25, ("1", "1", "1")), (25, ("2", "1", "2")), (50, ("1", "1", "1")),
                     (50, ("1", "1")), (100, ("1", "1"))):
        add("verify", {"linear": list(lam), "vacuum": vacuum(len(lam)), "dim": dim,
                       "arithmetic": "exact"}, tag=f"k{len(lam)}-d{dim}")
    for lam in (("2", "1", "2"), ("1", "1", "1"), ("3", "1", "2", "4"), ("1", "1", "1", "1", "1"),
                ("2", "2", "4", "8"), ("4", "1", "1"), ("1", "2", "2", "2", "2", "2")):
        add("enumerate", {"coeffs": list(lam)}, tag=f"k{len(lam)}")
    for i in range(10):
        rule = _random_rule(rng, 2 + i % 4)
        add("grow", {"rule": rule, "steps": 12 + i, "word_cap": 10000}, tag=f"s{12 + i}")
    for i in range(6):
        rule = _random_rule(rng, 2 + i % 3)
        add("growth_law", {"rule": rule, "steps": 30}, tag=f"k{2 + i % 3}")

    fib_exact = f"{d}/fib_exact.json"
    files[fib_exact] = _spec_text(2, ["1", "0"], linear=["1", "1"], n_max=10)
    tri = f"{d}/tribonacci.json"
    files[tri] = _spec_text(3, vacuum(3), linear=["1", "1", "1"], n_max=10)
    n_seq = 1000 + rng.randrange(8)
    cli_ops = [
        (["sequence", "--coeffs", "1,1", "-n", str(n_seq), "--method", "matrix", "--format", "json"],
         [0], {"coeffs": ["1", "1"], "seeds": _unit_vacuum(2), "n": n_seq, "method": "matrix"}, None),
        (["sequence", "--coeffs", "1,1", "-n", "1500", "--method", "binet", "--format", "json"],
         [3], None, DEFECT_BINET_OVERFLOW),
        (["sequence", "--coeffs", "1,1,1", "-n", "3000", "--format", "csv"], [0], None, None),
        (["verify", fib_exact, "--dim", "60"], [0], None, None),
        (["verify", tri, "--dim", "40", "--format", "json"], [0], None, None),
        (["spectrum", tri, "--levels", "400", "--format", "json"], [0], None, None),
        (["spectrum", fib_exact, "--levels", "1480"], [0, 3], None, DEFECT_EXACT_NORM),
        (["eigen", "--coeffs", "1,1,1,1,1", "--format", "json"], [0], None, None),
        (["subst", "enumerate", "--coeffs", "2,1,2", "--format", "json"], [0], None, None),
        (["subst", "grow", "--rule", "A:ABAC,B:A,C:BB", "--steps", "12", "--format", "csv"],
         [0], None, None),
    ]
    for argv, expect, seq, defect in cli_ops:
        add("cli_main", {"argv": argv, "expect_rc": expect, "seq": seq}, defect, tag=argv[0])
    rng.shuffle(ops)
    return ops, files


def _rational_float(rng, seed):
    d = input_dir("rational_float", seed)
    files = {}
    ops = []

    def add(kind, params, defect=None, tag=""):
        ops.append(Op(f"{kind}/{tag}-{len(ops)}", kind, params, defect))

    def rational_vacuum(k):
        return [rng.choice(["1", "1/2", "2/3", "3"])] + [
            rng.choice(["0", "1/3", "1"]) for _ in range(k - 1)
        ]

    for lam in (("1/2", "1/2"), ("1/2", "1/3", "1/6"), ("3/2", "-1/2")):
        for base in (500, 1000, 2000, 4000):
            for kind in ("iterate", "matrix_power"):
                n = base + rng.randrange(8)
                add(kind, {"coeffs": list(lam), "vacuum": rational_vacuum(len(lam)), "n": n},
                    tag=f"k{len(lam)}-n{n}")
    for k in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20):
        add("stochastic", {"coeffs": _probability_row(rng, k)}, tag=f"k{k}")
    add("stochastic", {"coeffs": ["1/2", "1/3"]}, tag="substochastic")
    add("stochastic", {"coeffs": ["3/2", "-1/2"]}, tag="signed")
    for k in [*range(2, 21), 24, 28, 32, 40, 48, 56, 64, 72, 80]:
        add("roots", {"coeffs": ["1"] * k}, tag=f"k{k}")
    add("roots", {"coeffs": ["1000000", "1"]}, DEFECT_ROOTS_SEPARATED, tag="defect")
    add("roots", {"coeffs": ["2", "-1"]}, DEFECT_ROOTS_REPEATED, tag="defect")
    add("roots", {"coeffs": ["3", "-3", "1"]}, DEFECT_ROOTS_REPEATED, tag="defect")
    for k, n in ((2, 1400), (2, 700), (2, 200), (3, 1000), (3, 400), (4, 900), (4, 300),
                 (5, 1000), (5, 500)):
        add("binet", {"coeffs": ["1"] * k, "vacuum": [str(rng.randint(1, 3))] + ["0"] * (k - 1),
                      "n": n - rng.randrange(8)}, tag=f"k{k}-n{n}")
    for k in (2, 3, 4, 5, 6, 7, 8):
        add("ratio", {"coeffs": ["1"] * k, "vacuum": _unit_vacuum(k), "n": 200 + rng.randrange(8)},
            tag=f"k{k}")
    expr_specs = [
        (["x+1/(x+1)", "x/(x+{c})"], ["1", "0"], 1000),
        (["{c}*x/(x+1)+1", "x/3"], ["1", "0"], 1000),
        (["x+1/(x+1)", "1/2*x+1"], ["0", "0"], 800),
        (["x^2/(x+{c})+1", "x/(x+2)", "1/(x+1)"], ["1", "0", "0"], 600),
        (["x+1/(x^2+1)", "x/(2*x+{c})"], ["0", "1"], 1000),
        (["(x+1)/(x+2)+x", "1/(x+{c})"], ["1", "1"], 1000),
    ]
    for fns, vac, levels in expr_specs:
        c = rng.randint(1, 4)
        add("spectrum", {"functions": [f.format(c=c) for f in fns], "vacuum": vac,
                         "levels": levels - rng.randrange(8), "arithmetic": "float64"},
            tag=f"k{len(fns)}-l{levels}")
    add("spectrum", {"functions": ["x^2+1"], "vacuum": ["0"], "levels": 20,
                     "arithmetic": "float64"}, DEFECT_EXPR_OVERFLOW, tag="defect")
    # Float verify: the Fibonacci spec at the dims ROADMAP item 2 names, and a
    # spec with bounded energies (roots 1 and 1/2) across the whole dim range.
    fib = {"linear": ["1", "1"], "vacuum": ["1", "0"], "arithmetic": "float64"}
    add("verify", {**fib, "dim": 25}, tag="fib-d25")
    add("verify", {**fib, "dim": 80}, DEFECT_FLOAT_VERIFY, tag="fib-d80")
    add("verify", {**fib, "dim": 400}, DEFECT_FLOAT_VERIFY, tag="fib-d400")
    for dim in (25, 50, 100, 150, 200, 300, 400):
        add("verify", {"linear": ["3/2", "-1/2"], "vacuum": ["1", "0"], "dim": dim,
                       "arithmetic": "float64"}, tag=f"bounded-d{dim}")

    # cli.main on the float path, and malformed inputs whose README outcome is
    # exit 1 with exactly one error line.
    fib_float = f"{d}/fib_float.json"
    files[fib_float] = _spec_text(2, ["1", "0"], linear=["1", "1"], arithmetic="float64", n_max=10)
    bad_literal = f"{d}/bad_float_literal.json"
    files[bad_literal] = '{"k": 1, "linear": [0.5], "vacuum": ["1"], "n_max": 3}'
    bad_syntax = f"{d}/bad_syntax.json"
    files[bad_syntax] = '{"k": 2, "linear": ["1", "1"],'
    fmt = rng.choice(["table", "csv", "json"])
    cli_ops = [
        (["spectrum", fib_float, "--levels", "1500", "--format", "json"], [3], DEFECT_FLOAT_INFINITY),
        (["spectrum", fib_float, "--levels", str(200 + rng.randrange(8)), "--format", fmt], [0], None),
        (["sequence", "--coeffs", "1/2,x", "-n", "5"], [1], None),
        (["sequence", "--coeffs", "1/2,0", "-n", "5"], [1], None),
        (["sequence", "--coeffs", "1/2,1/2", "--seeds", "1,0,0", "-n", "5"], [1], None),
        (["sequence", "--coeffs", "1/2,1/2", "-n", "5", "--method", "nope"], [1], None),
        (["subst", "enumerate", "--coeffs", "1/2,1"], [1], None),
        (["spectrum", f"{d}/missing.json"], [1], None),
        (["spectrum", bad_literal], [1], None),
        (["spectrum", bad_syntax], [1], None),
    ]
    for argv, expect, defect in cli_ops:
        tag = argv[0] if expect != [1] else "malformed"
        add("cli_main", {"argv": argv, "expect_rc": expect, "seq": None}, defect, tag=tag)
    rng.shuffle(ops)
    return ops, files


def make_ops(workload: str, seed: int):
    """Return (ops, files) for the workload; files maps relative path to text."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "exact_sweep": _exact_sweep,
        "rational_float": _rational_float,
    }[workload](rng, seed)


# ----------------------------------------------------------------------------
# Preparing and running ops in-process (library workloads and the traced run).


def prepare(op: Op):
    """Build the library inputs for one op; returns the argument of execute."""
    import kbonacci as kb
    from kbonacci.exprparse import parse

    p = op.params
    kind = op.kind
    if kind in ("iterate", "matrix_power", "binet", "ratio"):
        c = kb.CoefficientVector(tuple(p["coeffs"]))
        vac = p["vacuum"]
        return c, kb.extend_seeds(c, vac[0], tuple(vac[1:])), p["n"]
    if kind == "miles":
        return p["k"], p["m"]
    if kind == "char_poly":
        return _matrix_rows(kb, p["matrix"], p["coeffs"])
    if kind in ("spectrum", "verify"):
        if "linear" in p:
            fns = tuple(kb.AffineFunction(v) for v in p["linear"])
        else:
            fns = tuple(kb.ExpressionFunction(parse(t)) for t in p["functions"])
        spec = kb.GHASpec(fns, tuple(p["vacuum"]), p["arithmetic"])
        return spec, p.get("levels", p.get("dim"))
    if kind in ("stochastic", "roots", "enumerate"):
        return kb.CoefficientVector(tuple(p["coeffs"]))
    if kind in ("grow", "growth_law"):
        return kb.parse_rule(p["rule"]), p["steps"], p.get("word_cap")
    if kind == "cli_main":
        return list(p["argv"])
    raise ValueError(f"unknown op kind {kind!r}")


def _matrix_rows(kb, matrix, coeffs):
    c = kb.CoefficientVector(tuple(coeffs))
    if matrix == "companion":
        return kb.CompanionMatrix.from_coefficients(c).rows
    if matrix == "mixed":
        return kb.MixedStateMatrix.from_coefficients(c).rows
    # Letter-count matrix of the canonical rule shape, written out directly.
    lams = [int(v) for v in coeffs]
    k = len(lams)
    rows = [[lams[0]] + [1] * (k - 1), [lams[1]] + [0] * (k - 1)]
    for i in range(3, k + 1):
        row = [0] * k
        row[i - 2] = lams[i - 1] // lams[i - 2]
        rows.append(row)
    return rows


def execute(kind: str, args):
    """The timed library call(s) of one op."""
    import kbonacci as kb

    if kind == "iterate":
        c, s, n = args
        return kb.iterate_sequence(c, s, n)
    if kind == "matrix_power":
        c, s, n = args
        return kb.matrix_power_sequence(c, s, n)
    if kind == "miles":
        return kb.miles_number(*args)
    if kind == "char_poly":
        return kb.matrix_char_poly(args)
    if kind == "spectrum":
        return kb.spectrum(*args)
    if kind == "verify":
        spec, dim = args
        return kb.verify_relations(kb.truncated_operators(spec, dim), spec)
    if kind == "enumerate":
        return kb.enumerate_rules(args)
    if kind == "grow":
        rule, steps, cap = args
        return kb.grow_chain(rule, steps, word_cap=cap)
    if kind == "growth_law":
        rule, steps, _ = args
        return kb.growth_law_check(rule, steps)
    if kind == "stochastic":
        return kb.stochastic_analysis(args)
    if kind == "roots":
        return kb.find_roots(kb.char_poly(args))
    if kind == "binet":
        c, s, n = args
        roots = kb.find_roots(kb.char_poly(c))
        form = kb.binet_form(c, s, roots)
        return [kb.binet_eval(form, roots, m) for m in range(n + 1)]
    if kind == "ratio":
        return kb.ratio_limit_check(*args)
    if kind == "cli_main":
        return run_cli_inprocess(args)
    raise ValueError(f"unknown op kind {kind!r}")


def run_cli_inprocess(argv):
    """cli.main(argv) with stdout and stderr captured in memory."""
    import contextlib
    import io

    from kbonacci import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------------
# Outcomes: JSON-able summaries of one op's result, compared by refcheck.


def digest(items) -> str:
    """sha256 over the exact text of a sequence of rationals or strings."""
    h = hashlib.sha256()
    for x in items:
        if hasattr(x, "denominator"):
            h.update(f"{x.numerator:x}/{x.denominator:x};".encode())
        else:
            h.update(f"{x};".encode())
    return h.hexdigest()[:32]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def summarize_cli(rc, stdout: str, stderr: str, raised: Optional[str]) -> dict:
    """Facts about one CLI invocation that the README contract constrains."""
    lines = stderr.splitlines()
    if raised is None and any(l.startswith("Traceback (most recent call last)") for l in lines):
        raised = lines[-1].split(":", 1)[0] if lines else "Traceback"
    out = {
        "rc": rc,
        "raised": raised,
        "error_lines": sum(1 for l in lines if l.startswith("error:")),
        "stdout_bytes": len(stdout.encode()),
        "stdout_digest": digest([stdout]),
        "json": None,
        "values": None,
    }
    stripped = stdout.lstrip()
    if rc == 0 and raised is None and stripped.startswith("{"):
        try:
            payload = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            out["json"] = f"invalid: {exc}"[:120]
        else:
            out["json"] = "ok"
            values = payload.get("values")
            if values is not None:
                floats = any(isinstance(v, float) for v in values)
                out["values"] = values if floats else digest(values)
    return out


def summarize(op: Op, value, raised: Optional[BaseException]) -> dict:
    """Outcome of an in-process op; exceptions become {"raised": name}."""
    if op.kind == "cli_main":
        if raised is not None:
            return summarize_cli(None, "", "", type(raised).__name__)
        return summarize_cli(*value, None)
    if raised is not None:
        return {"raised": type(raised).__name__, "message": str(raised)[:160]}
    kind = op.kind
    if kind == "iterate":
        return {"digest": digest(value.values), "len": len(value.values)}
    if kind == "matrix_power":
        return {"digest": digest(value)}
    if kind == "miles":
        return {"digest": digest([value])}
    if kind == "char_poly":
        return {"poly": [str(c) for c in value]}
    if kind == "spectrum":
        rows = value.rows
        flags = [value.physical_energy, value.unitary, value.nondecreasing]
        if op.params["arithmetic"] == "exact":
            exact = [x for r in rows for x in (*r.alphas, r.nsq)]
            return {"digest": digest(exact), "rows": len(rows), "flags": flags}
        return {
            "alphas": [list(r.alphas) for r in rows],
            "nsq": [r.nsq for r in rows],
            "flags": flags,
        }
    if kind == "verify":
        return {
            "all_passed": value.all_passed,
            "residuals": [[e.label, e.residual] for e in value.entries],
        }
    if kind == "enumerate":
        texts = [r.as_text() for r in value]
        return {"count": len(texts), "distinct": len(set(texts)), "digest": digest(texts)}
    if kind == "grow":
        return {
            "lengths": [s.length for s in value],
            "counts": digest(c for s in value for c in s.letter_counts),
            "words": [s.word for s in value if s.word is not None and s.step <= 8],
            "materialized": sum(1 for s in value if s.word is not None),
        }
    if kind == "growth_law":
        return {
            "lengths": digest(value.lengths),
            "recurrence_ok": value.recurrence_ok,
            "frequency_checked": value.frequency_checked,
            "frequency_deviation": value.frequency_deviation,
        }
    if kind == "stochastic":
        dom = value.dominant_root
        return {
            "is_stochastic": value.is_stochastic,
            "stationary": [str(x) for x in value.stationary] if value.stationary else None,
            "dominant": [dom.real, dom.imag] if dom is not None else None,
        }
    if kind == "roots":
        return {"roots": [[z.real, z.imag] for z in value.roots]}
    if kind == "binet":
        return {"values": value}
    if kind == "ratio":
        return {"ratio": value.ratio, "dominant": value.dominant, "passed": value.passed}
    raise ValueError(f"unknown op kind {kind!r}")
