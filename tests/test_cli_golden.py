"""Byte-identity of the command line across every subcommand and format.

Each case runs main() in-process and compares its exit code and the sha256
of its stdout and stderr with the digests in cli_golden.json. Spec files
are written to a temporary directory under relative names, so no path in a
message depends on where the tests run. For usage errors, whose wording
argparse changes between Python versions, only the number of "error:"
lines on stderr is recorded.

To record the digests again (they must come from a version of the program
whose output is known to be right):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from kbonacci.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("table", "csv", "json")


def _spec(k, vacuum, *, linear=None, functions=None, arithmetic="exact", n_max=None):
    data = {"k": k}
    if linear is not None:
        data["linear"] = linear
    else:
        data["functions"] = functions
    data["vacuum"] = vacuum
    if n_max is not None:
        data["n_max"] = n_max
    data["arithmetic"] = arithmetic
    return json.dumps(data)


SPECS = {
    "fib.json": _spec(2, ["1", "0"], linear=["1", "1"], n_max=10),
    "tri.json": _spec(3, ["2", "1", "0"], linear=["1", "1", "1"], n_max=12),
    "signed.json": _spec(3, ["1", "0", "1/2"], linear=["1/2", "-1/3", "2"], n_max=8),
    "zero.json": _spec(2, ["0", "0"], linear=["-2", "1"], n_max=6),
    "sign.json": _spec(2, ["1", "0"], functions=["x", "-x"], arithmetic="float64", n_max=3),
    "float.json": _spec(2, ["1", "0"], linear=["1", "1"], arithmetic="float64", n_max=20),
    "expr.json": _spec(2, ["1", "0"], functions=["x+1/(x+1)", "x/(x+2)"], n_max=6),
    "affine.json": _spec(2, ["1", "0"], functions=["2*x+1", "x/3"], n_max=9),
    "expr_float.json": _spec(
        2, ["1", "0"], functions=["x+1/(x+1)", "x/(x+2)"], arithmetic="float64", n_max=30
    ),
    # energies past 2^1024 from level 1283 on, norms still in the float range
    "wide.json": _spec(3, ["1", "1/2", "0"], linear=["3/2", "1/3", "1/7"]),
    # alpha_n^(1) decreases from level 5, N^2 < 0 from level 7, alpha_n^(1) < 0 from level 9
    "osc.json": _spec(2, ["1", "0"], linear=["19/10", "-1"], n_max=40),
    "bad_syntax.json": '{"k": 2, "linear": ["1", "1"],',
    "bad_literal.json": '{"k": 1, "linear": [0.5], "vacuum": ["1"], "n_max": 3}',
}


def _cases():
    """(argv, usage) pairs; usage marks argparse's own errors."""
    cases = []

    def add(*argv, formats=FORMATS, usage=False):
        for fmt in formats:
            cases.append(([*argv, "--format", fmt] if fmt else list(argv), usage))

    for spec in ("fib", "tri", "signed", "zero", "sign", "float", "expr", "expr_float", "affine",
                 "osc"):
        add("spectrum", f"{spec}.json")
    add("spectrum", "wide.json", "--levels", "2000")
    add("spectrum", "osc.json", "--strict-physical", formats=("table",))
    add("spectrum", "fib.json", "--levels", "1480", formats=("table", "csv"))
    add("spectrum", "float.json", "--levels", "1500", formats=("json",))
    add("spectrum", "sign.json", "--strict-physical")
    add("spectrum", "tri.json", "--strict-physical", formats=("table",))
    add("spectrum", "fib.json", "--levels", "0", formats=("table",))
    for spec in ("missing", "bad_syntax", "bad_literal"):
        add("spectrum", f"{spec}.json", formats=("table",))

    for spec, dim in (("fib", 12), ("tri", 10), ("signed", 8), ("sign", 6), ("float", 25),
                      ("expr", 6), ("affine", 9)):
        add("verify", f"{spec}.json", "--dim", str(dim))
    add("verify", "fib.json", "--dim", "1", formats=("table",))
    add("verify", "osc.json", "--dim", "12", formats=("table",))
    add("verify", "float.json", "--dim", "80", "--tol", "1e-12", formats=("table",))
    add("verify", "float.json", "--dim", "80", "--tol", "1e-300")

    problems = [
        ("1,1", None), ("1,1,1", None), ("-1,1,-1", "2,1,-3"), ("-2,1", "0,0"),
        ("3,-2", "1,-5"), ("5", "0"), ("-1", None), ("1,-1,2,1", "0,0,0,0"),
        ("2,-1,1/2", "1,1/3,2"), ("1/2,1/3,1/6", "1,1,1/3"), ("2,3", "1,1"),
        ("1,1", "1/2,0"), ("2,3", "1,1/3"),  # integral coefficients, rational window
    ]
    for coeffs, seeds in problems:
        base = ["sequence", "--coeffs", coeffs, "-n", "40"]
        if seeds is not None:
            base += ["--seeds", seeds]
        for method in ("direct", "matrix"):
            add(*base, "--method", method)
            add(*base, "--method", method, "--check")
    for k in (3, 5):
        base = ["sequence", "--coeffs", ",".join(["1"] * k), "-n", "60", "--method", "miles"]
        add(*base)
        add(*base, "--check")
    add("sequence", "--coeffs", "2", "-n", "5", "--method", "binet")
    for coeffs, seeds in (("1,1,1", None), ("3/2,-1/2", None), ("1/2,1/3,1/6", "1,1,1/3")):
        base = ["sequence", "--coeffs", coeffs, "-n", "40"]
        if seeds is not None:
            base += ["--seeds", seeds]
        add(*base, "--method", "binet", "--check")
    add("sequence", "--coeffs", "1,1", "-n", "1500", "--method", "binet", formats=("table",))
    add("sequence", "--coeffs", "1,1", "-n", "1500", "--method", "binet", "--check",
        formats=("json",))
    add("sequence", "--coeffs", "1,1", "-n", "21000")
    add("sequence", "--coeffs", "1,1", "-n", "21000", "--method", "matrix", "--check",
        formats=("csv",))
    add("sequence", "--coeffs", "-1,1", "-n", "0", "--check")
    for argv in (
        ["--coeffs", "1,x", "-n", "3"],
        ["--coeffs", "1,0", "-n", "3"],
        ["--coeffs", "1,1", "-n", "-1"],
        ["--coeffs", "1,1", "--seeds", "1,0,0", "-n", "3"],
        ["--coeffs", "2,1,2", "-n", "5", "--method", "miles"],
        ["--coeffs", "1,1", "--seeds", "2,0", "-n", "5", "--method", "miles"],
    ):
        add("sequence", *argv, formats=("table",))

    for coeffs in ("1,1", "2,1,2", "1,1,1,1,1", "-1,2", "1000000,1", "1/2,1/3"):
        add("eigen", "--coeffs", coeffs)
    add("eigen", "--coeffs", "2")
    add("eigen", "--coeffs", "2,-1", formats=("table",))
    add("eigen", "--coeffs", "3,-3,1", formats=("table",))

    for coeffs in ("1/2,1/2", "1/7,2/7,4/7", "1/2,1/3", "3/2,-1/2", "1", "2,-1"):
        add("stochastic", "--coeffs", coeffs)

    for coeffs in ("2,1,2", "1,1", "3"):
        add("subst", "enumerate", "--coeffs", coeffs)
    add("subst", "enumerate", "--coeffs", "1/2,1", formats=("table",))
    add("subst", "grow", "--rule", "A:ABAC,B:A,C:BB", "--steps", "6")
    add("subst", "grow", "--rule", "A:AB,B:A", "--steps", "30", "--word-cap", "100")
    add("subst", "grow", "--rule", "A:AB,B:A", "--steps", "21000", formats=("csv",))
    add("subst", "grow", "--rule", "A:B:C", "--steps", "3", formats=("table",))

    for argv in (
        [], ["frobnicate"], ["sequence", "-n", "3"],
        ["sequence", "--coeffs", "1,1", "-n", "5", "--format", "xml"],
        ["sequence", "--coeffs", "1,1", "-n", "5", "--method", "nope"],
        ["subst"], ["verify", "fib.json"],
    ):
        add(*argv, formats=(None,), usage=True)
    return cases


CASES = _cases()


def _case_id(argv) -> str:
    return " ".join(argv) or "(no arguments)"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def _spec_dir():
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPECS.items():
            Path(tmp, name).write_text(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def run_case(argv, usage: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    record = {"rc": rc, "stdout": _sha(out.getvalue()), "stdout_bytes": len(out.getvalue())}
    if usage:
        record["error_lines"] = sum(l.startswith("error:") for l in err.getvalue().splitlines())
    else:
        record["stderr"] = _sha(err.getvalue())
    return record


def test_corpus_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_case_id(argv) for argv, _ in CASES)


def test_every_case_matches_its_digests():
    golden = json.loads(GOLDEN.read_text())
    mismatched = []
    with _spec_dir():
        for argv, usage in CASES:
            if run_case(argv, usage) != golden[_case_id(argv)]:
                mismatched.append(_case_id(argv))
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with _spec_dir():
        records = {_case_id(argv): run_case(argv, usage) for argv, usage in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} cases written to {GOLDEN}")
