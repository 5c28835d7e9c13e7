"""Command line interface.

Subcommands: spectrum, sequence, eigen, stochastic, subst (enumerate|grow),
verify. Exit codes: 0 success, 1 input error (a stdout closed before all
output was written included), 2 physicality or unitarity failure under
strict flags, 3 numerical failure. Exact rationals print as p/q; floats
print with 17 significant digits in text formats and as round-trip JSON
numbers in json format.

Output costs time linear in its size. When every value is an integer
(sequence --method direct or matrix with integral coefficients and seed
window, subst grow --format csv), the library's integer kernels run
unchanged on decimal.Decimal in an exact context, as str(Decimal) is linear
in the digits and str(int) quadratic. Every sequence method, and the direct
column of its --check, comes from one function, _values. Table and csv rows
are written as they are formatted, never joined into one string. The parser
is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from itertools import chain
from math import inf, isfinite
from typing import NamedTuple

from . import _exact, algebra, spectral, substitution
from .errors import (
    ComputationError,
    FloatRangeError,
    InputError,
    KbonacciError,
    NonUnitaryRepresentationError,
    SpecFileError,
)
from .exprparse import parse as parse_expr
from .recurrence import (
    CoefficientVector,
    energy_from_miles,
    extend_seeds,
    iterate_sequence,
    matrix_sequence,
)

FORMATS = ("table", "csv", "json")

# Integer outputs are computed on Decimals in this context, where + - * are
# exact at any size (a result that would round traps instead) and str() is
# linear in the digits, where str(int) is quadratic.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, Overflow, InvalidOperation]
)


def _rational(value, where: str, error_cls) -> Fraction:
    """An int or a string like "1/2" as a Fraction; else error_cls naming where."""
    if isinstance(value, bool):
        raise error_cls(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise error_cls(
            f"{where}: write rationals as strings like \"1/2\" (raw JSON floats "
            f"are not exact)"
        )
    if not isinstance(value, (int, str)):
        raise error_cls(f"{where}: expected a rational, got {type(value).__name__}")
    try:
        return _exact.as_fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise error_cls(f"{where}: cannot parse rational {value!r} ({exc})") from None


def _rational_list(text: str, what: str) -> list[Fraction]:
    items = text.split(",")
    if any(t.strip() == "" for t in items):
        raise InputError(f"{what}: expected comma-separated rationals, got an empty item in {text!r}")
    return [_rational(t, what, InputError) for t in items]


def _coeffs_arg(text: str) -> CoefficientVector:
    try:
        return CoefficientVector(tuple(_rational_list(text, "--coeffs")))
    except ValueError as exc:
        raise InputError(f"--coeffs: {exc}") from None


def _seed_state(coeffs: CoefficientVector, text: str | None):
    if text is None:
        vals = [Fraction(1)] + [Fraction(0)] * (coeffs.k - 1)
    else:
        vals = _rational_list(text, "--seeds")
        if len(vals) != coeffs.k:
            raise InputError(
                f"--seeds: expected {coeffs.k} values (alpha_0 plus {coeffs.k - 1} "
                f"higher ladder values), got {len(vals)}"
            )
    return extend_seeds(coeffs, vals[0], vals[1:])


def _scalar_text(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _scalar_json(x):
    if isinstance(x, (Fraction, Decimal)):
        return str(x)
    return x


def _complex_text(z) -> str:
    return f"{_scalar_text(z.real)} + {_scalar_text(z.imag)}i"


def _complex_json(z):
    return None if z is None else {"re": z.real, "im": z.imag}


class _Report(NamedTuple):
    """A subcommand's output in every format. Only the printed format's part
    is formatted: payload is called, and rows and lines are generators (a
    one-line summary is a plain string). notes follow the csv rows as "# "
    comments and the table lines bare. error is a stderr line printed after
    the output (verify's exit 3 has none: its report says so)."""

    payload: Callable[[], object]
    header: list
    rows: Iterable
    lines: Iterable[str]
    notes: Iterable[str] = ()
    error: str | None = None
    code: int = 0


def _emit(report: _Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.payload(), indent=2))
    elif fmt == "csv":
        _emit_csv(report.header, report.rows)
        sys.stdout.writelines(f"# {note}\n" for note in report.notes)
    else:
        write = sys.stdout.write
        for line in chain(report.lines, report.notes):
            write(line)
            write("\n")  # not line + "\n": that copies each (long) line again
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
    return report.code


def _emit_csv(header, rows) -> None:
    """The bytes csv.writer writes, row by row as rows are produced. A row
    that needs no quoting (no field holds a comma, a quote, CR or LF, and it
    is not one empty field) is joined directly, which is many times faster
    for long exact values; the tests are single-character searches."""
    write = sys.stdout.write
    writer = csv.writer(sys.stdout)
    for row in chain((header,), rows):
        fields = list(map(_scalar_text, row))
        text = "".join(fields)
        if (
            (text or len(fields) > 1)
            and "," not in text
            and '"' not in text
            and "\r" not in text
            and "\n" not in text
        ):
            write(",".join(fields) + "\r\n")
        else:
            writer.writerow(fields)


def _aligned(header, rows):
    """Table lines, each column padded to its widest text as it is written."""
    columns = [list(map(_scalar_text, column)) for column in zip(header, *rows)]
    line = "  ".join(f"{{:<{max(map(len, column))}}}" for column in columns)
    yield from (line.format(*texts) for texts in zip(*columns))


# Spec file handling.


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"spec file {path!r} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None


def _load_algebra_spec(path: str) -> tuple[algebra.GHASpec, int | None, dict]:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecFileError("spec file: top level must be a JSON object")
    unknown = set(data) - {"k", "linear", "functions", "vacuum", "n_max", "arithmetic", "tolerances"}
    if unknown:
        raise SpecFileError(f"spec file: unknown fields {sorted(unknown)}")
    k = data.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise SpecFileError("field 'k': must be an integer >= 1")
    has_linear = "linear" in data
    has_functions = "functions" in data
    if has_linear == has_functions:
        raise SpecFileError("spec file: provide exactly one of 'linear' or 'functions'")
    if has_linear:
        raw = data["linear"]
        if not isinstance(raw, list) or len(raw) != k:
            raise SpecFileError(f"field 'linear': must be a list of {k} rationals")
        functions = tuple(
            algebra.AffineFunction(_rational(v, f"linear[{i}]", SpecFileError))
            for i, v in enumerate(raw)
        )
    else:
        raw = data["functions"]
        if not isinstance(raw, list) or len(raw) != k:
            raise SpecFileError(f"field 'functions': must be a list of {k} expressions")
        parsed = []
        for i, text in enumerate(raw):
            if not isinstance(text, str):
                raise SpecFileError(f"functions[{i}]: must be an expression string")
            try:
                parsed.append(algebra.ExpressionFunction(parse_expr(text)))
            except KbonacciError as exc:
                raise SpecFileError(f"functions[{i}]: {exc}") from None
        functions = tuple(parsed)
    vac_raw = data.get("vacuum")
    if not isinstance(vac_raw, list) or len(vac_raw) != k:
        raise SpecFileError(f"field 'vacuum': must be a list of {k} rationals")
    vacuum = tuple(_rational(v, f"vacuum[{i}]", SpecFileError) for i, v in enumerate(vac_raw))
    arithmetic = data.get("arithmetic", "exact")
    if arithmetic not in ("exact", "float64"):
        raise SpecFileError("field 'arithmetic': must be \"exact\" or \"float64\"")
    n_max = data.get("n_max")
    if n_max is not None and (not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0):
        raise SpecFileError("field 'n_max': must be an integer >= 0")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SpecFileError("field 'tolerances': must be an object")
    unknown = set(tolerances) - {"verify"}
    if unknown:
        raise SpecFileError(f"field 'tolerances': unknown fields {sorted(unknown)}")
    spec = algebra.GHASpec(functions=functions, vacuum=vacuum, arithmetic=arithmetic)
    return spec, n_max, tolerances


# Subcommand handlers.


def _cmd_spectrum(args) -> _Report:
    spec, file_n_max, _ = _load_algebra_spec(args.specfile)
    n_max = args.levels if args.levels is not None else file_n_max
    if n_max is None:
        raise SpecFileError("field 'n_max': missing (or pass --levels)")
    table = algebra.spectrum(spec, n_max)
    k = spec.k
    flags = {
        "physical_energy": table.physical_energy,
        "unitary": table.unitary,
        "nondecreasing": table.nondecreasing,
    }
    header = ["n", *(f"alpha_{i}" for i in range(1, k + 1)), "Nsq", "N", "physical", "unitary"]
    rows = (
        [row.n, *row.alphas, row.nsq, row.norm, row.alphas[0] >= 0, row.nsq >= 0]
        for row in table.rows
    )
    failing = sorted(name for name, ok in flags.items() if not ok)
    error = f"physicality flags failed: {', '.join(failing)}" if args.strict_physical and failing else None
    return _Report(
        payload=lambda: {
            "k": k,
            "arithmetic": spec.arithmetic,
            "rows": [
                {
                    "n": row.n,
                    "alphas": [_scalar_json(a) for a in row.alphas],
                    "nsq": _scalar_json(row.nsq),
                    "norm": row.norm,
                    "physical": bool(row.alphas[0] >= 0),
                    "unitary": bool(row.nsq >= 0),
                }
                for row in table.rows
            ],
            "flags": flags,
        },
        header=header,
        rows=rows,
        lines=chain(_aligned(header, rows), ["flags: " + " ".join(f"{f}={ok}" for f, ok in flags.items())]),
        error=error,
        code=2 if error else 0,
    )


def _values(method: str, coeffs: CoefficientVector, seeds, n: int, args) -> list:
    """alpha_0..alpha_n by method, run in _EXACT: the library's integer
    kernels on Decimals for direct and matrix when every coefficient and
    seed window value is an integer, else the library's Fraction routes.
    Miles' column is energy_from_miles per target: Miles' binomial sum,
    walked by term ratios, at k = 2, where it is faster, and the closed
    form from the compositions' generating function for k >= 3 (see
    recurrence.miles_number). It is returned as Decimals too, so that
    --check subtracts like types."""
    inputs = (*coeffs.values, *seeds.extended)
    if method in ("direct", "matrix") and all(x.denominator == 1 for x in inputs):
        ints = [Decimal(x.numerator) for x in inputs]
        kernel = _exact.iterate if method == "direct" else _exact.companion_sequence
        return kernel(ints[: coeffs.k], ints[coeffs.k :], n)
    if method == "direct":
        return list(iterate_sequence(coeffs, seeds, n).values)
    if method == "matrix":
        return list(matrix_sequence(coeffs, seeds, n).values)
    if method == "miles":
        unit = all(v == 1 for v in coeffs.values)
        unit_seed = seeds.alpha0 == 1 and all(h == 0 for h in seeds.higher)
        if coeffs.k < 2 or not unit or not unit_seed:
            raise ComputationError(
                "miles requires unit coefficients (all lambda_i = 1, k >= 2) "
                "and the unit vacuum seed (1, 0, ..., 0)"
            )
        return [Decimal(energy_from_miles(coeffs.k, t)) for t in range(n + 1)]
    roots = spectral.find_roots(spectral.char_poly(coeffs), tol=args.tol, max_iter=args.max_iter)
    modes = spectral.binet_form(coeffs, seeds, roots)
    return [spectral.binet_eval(modes, roots, m) for m in range(n + 1)]


def _cmd_sequence(args) -> _Report:
    coeffs = _coeffs_arg(args.coeffs)
    seeds = _seed_state(coeffs, args.seeds)
    n = args.n
    if n < 0:
        raise InputError("-n must be >= 0")
    check = None
    with localcontext(_EXACT):
        values = _values(args.method, coeffs, seeds, n, args)
        if args.check:
            direct = values if args.method == "direct" else _values("direct", coeffs, seeds, n, args)
            if args.method == "binet":
                # relative to max(1, |direct|), the binet values being floats
                check = 0.0
                for m, (b, d) in enumerate(zip(values, direct)):
                    try:
                        ref = float(d)  # a Decimal beyond the float range gives ±inf
                    except OverflowError:  # where a Fraction raises
                        ref = inf
                    if not isfinite(ref):
                        raise FloatRangeError("direct value", m)
                    check = max(check, abs(b - ref) / max(1.0, abs(ref)))
            else:
                check = max(abs(v - d) for v, d in zip(values, direct))

    return _Report(
        payload=lambda: {
            "coefficients": [str(v) for v in coeffs.values],
            "method": args.method,
            "values": [_scalar_json(v) for v in values],
            **({} if check is None else {"max_discrepancy_vs_direct": _scalar_json(check)}),
        },
        header=["n", "value"],
        rows=enumerate(values),
        lines=(f"{m}  {_scalar_text(v)}" for m, v in enumerate(values)),
        notes=[] if check is None else [f"max discrepancy vs direct: {_scalar_text(check)}"],
    )


def _poly_term(mag: Fraction, power: int) -> str:
    if power == 0:
        return _scalar_text(mag)
    xs = "x" if power == 1 else f"x^{power}"
    return xs if mag == 1 else f"{_scalar_text(mag)}*{xs}"


def _poly_text(desc) -> str:
    top = len(desc) - 1
    parts = []
    for i, c in enumerate(desc):
        body = _poly_term(abs(c), top - i)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _cmd_eigen(args) -> _Report:
    coeffs = _coeffs_arg(args.coeffs)
    poly = spectral.char_poly(coeffs)
    roots = spectral.find_roots(poly, tol=args.tol, max_iter=args.max_iter)
    return _Report(
        payload=lambda: {
            "char_poly": [str(c) for c in poly],
            "roots": [_complex_json(r) for r in roots.roots],
            "dominant_index": roots.dominant,
            "dominant": _complex_json(roots.roots[roots.dominant]),
            # A single root has no pair: RootSet.condition is inf, which
            # strict JSON cannot encode.
            "min_separation": roots.condition if len(roots.roots) > 1 else None,
        },
        header=["index", "re", "im", "modulus"],
        rows=([i, r.real, r.imag, abs(r)] for i, r in enumerate(roots.roots)),
        lines=chain(
            [f"characteristic polynomial: {_poly_text(poly)}"],
            (
                f"root {i}: {_complex_text(r)}{'  <- dominant' if i == roots.dominant else ''}"
                for i, r in enumerate(roots.roots)
            ),
            [f"min separation: {_scalar_text(roots.condition)}"],
        ),
    )


def _cmd_stochastic(args) -> _Report:
    coeffs = _coeffs_arg(args.coeffs)
    report = spectral.stochastic_analysis(coeffs)
    return _Report(
        payload=lambda: {
            "stochastic": report.is_stochastic,
            "nonnegative": report.nonnegative,
            "sums_to_one": report.sums_to_one,
            "stationary": [str(p) for p in report.stationary] if report.stationary else None,
            "dominant_root": _complex_json(report.dominant_root),
            "dominant_gap": report.dominant_gap,
        },
        header=["state", "pi"],
        rows=enumerate(report.stationary or (), 1),
        lines=_stochastic_lines(report),
    )


def _stochastic_lines(report):
    if report.is_stochastic:
        yield "stochastic: yes"
        yield f"stationary distribution: ({', '.join(str(p) for p in report.stationary)})"
    else:
        reasons = []
        if not report.nonnegative:
            reasons.append("negative coefficients")
        if not report.sums_to_one:
            reasons.append("coefficients do not sum to 1")
        yield f"stochastic: no ({'; '.join(reasons)})"
    if report.dominant_root is not None:
        gap = _scalar_text(report.dominant_gap)
        yield f"dominant root: {_complex_text(report.dominant_root)} (|dominant - 1| = {gap})"


def _cmd_enumerate(args) -> _Report:
    rules = substitution.enumerate_rules(_coeffs_arg(args.coeffs))
    return _Report(
        payload=lambda: {"count": len(rules), "rules": [r.as_text() for r in rules]},
        header=["index", "rule"],
        rows=([i, r.as_text()] for i, r in enumerate(rules)),
        lines=chain((r.as_text() for r in rules), [f"count: {len(rules)}"]),
    )


def _cmd_grow(args) -> _Report:
    rule = substitution.parse_rule(args.rule)
    if args.format == "csv":
        # csv only prints the counts: exact Decimals, printed in linear time
        with localcontext(_EXACT):
            states = substitution._grow(rule, args.steps, args.word_cap, Decimal(1))
    else:
        # the other formats divide counts by lengths, which needs ints
        states = substitution.grow_chain(rule, args.steps, word_cap=args.word_cap)
    notes = substitution.chain_notes(rule, states)
    freq = lambda s: [c / s.length for c in s.letter_counts]
    return _Report(
        payload=lambda: {
            "rule": rule.as_text(),
            "states": [
                {
                    "step": s.step,
                    "length": s.length,
                    "word": s.word,
                    "letter_counts": list(s.letter_counts),
                    "frequencies": freq(s),
                }
                for s in states
            ],
            "notes": notes,
        },
        header=["step", "length", "word", *(f"count_{a}" for a in rule.letters)],
        rows=([s.step, s.length, s.word if s.word is not None else "", *s.letter_counts] for s in states),
        lines=(
            f"step {s.step}: length {s.length}  "
            f"word {s.word if s.word is not None else f'(not materialized, cap {args.word_cap})'}  "
            f"frequencies ({', '.join(format(x, '.6f') for x in freq(s))})"
            for s in states
        ),
        notes=notes,
    )


def _cmd_verify(args) -> _Report:
    spec, _, tolerances = _load_algebra_spec(args.specfile)
    tol = args.tol
    if tol is None:
        tol = tolerances.get("verify", 1e-10)
        # json reads NaN and Infinity as floats, and ints beyond float64
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not 0 < tol <= sys.float_info.max:
            raise SpecFileError("tolerances['verify']: must be a finite positive number")
    table = algebra.truncated_operators(spec, args.dim)
    report = algebra.verify_relations(table, spec, tol=tol)
    return _Report(
        payload=lambda: {
            "dim": args.dim,
            "tol": tol,
            "relations": [
                {"label": e.label, "residual": e.residual, "passed": e.passed}
                for e in report.entries
            ],
            "all_passed": report.all_passed,
        },
        header=["label", "residual", "passed"],
        rows=([e.label, e.residual, e.passed] for e in report.entries),
        lines=chain(
            (
                f"{e.label:24s} residual {_scalar_text(e.residual):24s} {'PASS' if e.passed else 'FAIL'}"
                for e in report.entries
            ),
            [f"all relations within tol {_scalar_text(float(tol))}: {report.all_passed}"],
        ),
        code=0 if report.all_passed else 3,
    )


class _ArgumentParser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_format(p) -> None:
    p.add_argument("--format", choices=FORMATS, default="table", help="output format")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="kbonacci",
        description=(
            "k-step ladder algebras, k-generalized Fibonacci sequences, and "
            "Fibonacci substitution chains over exact rationals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Fock spectrum table from an algebra spec file")
    p.add_argument("specfile")
    p.add_argument("--levels", type=int, default=None, help="override n_max from the file")
    p.add_argument(
        "--strict-physical",
        action="store_true",
        help="exit 2 if any physicality flag fails",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("sequence", help="evaluate the k-step recurrence")
    p.add_argument("--coeffs", required=True, help="comma-separated rationals lambda_1..lambda_k")
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated vacuum-form seeds alpha_0^(1..k); default 1,0,...,0",
    )
    p.add_argument("-n", type=int, required=True, help="largest index to evaluate")
    p.add_argument(
        "--method",
        choices=("direct", "matrix", "binet", "miles"),
        default="direct",
    )
    p.add_argument("--check", action="store_true", help="compare against direct iteration")
    p.add_argument("--tol", type=float, default=1e-13, help="relative root iteration tolerance")
    p.add_argument("--max-iter", type=int, default=500, help="root iteration cap")
    _add_format(p)
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser("eigen", help="characteristic polynomial and its roots")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--max-iter", type=int, default=500)
    _add_format(p)
    p.set_defaults(handler=_cmd_eigen)

    p = sub.add_parser("stochastic", help="probability-row test and stationary state")
    p.add_argument("--coeffs", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_stochastic)

    p = sub.add_parser("subst", help="substitution rules and chain growth")
    action = p.add_subparsers(dest="action", required=True)

    pe = action.add_parser("enumerate", help="list all rules for a coefficient vector")
    pe.add_argument("--coeffs", required=True)
    _add_format(pe)
    pe.set_defaults(handler=_cmd_enumerate)

    pg = action.add_parser("grow", help="iterate a rule from the first letter")
    pg.add_argument("--rule", required=True, help='rule text like "A:ABAC,B:A,C:BB"')
    pg.add_argument("--steps", type=int, required=True)
    pg.add_argument("--word-cap", type=int, default=10000, help="word materialization cap")
    _add_format(pg)
    pg.set_defaults(handler=_cmd_grow)

    p = sub.add_parser("verify", help="check the defining relations on a truncation")
    p.add_argument("specfile")
    p.add_argument("--dim", type=int, required=True, help="truncation dimension")
    p.add_argument("--tol", type=float, default=None, help="residual tolerance")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> _ArgumentParser:
    """The parser, built on first use and reused by every later main call
    in the process (parsing leaves no state in it)."""
    return _build_parser()


# argparse takes a value with a leading minus for an option and refuses it
# unless it looks like a plain negative number, yet accepts the same value
# joined on ("--coeffs=-1,2"); main joins it. The rational-list flags take
# values shaped like "-1,2" or "-1/2", and --tol any float ("-1e-3", "-inf"),
# which the library then refuses with its own message.
_RATIONAL_FLAGS = ("--coeffs", "--seeds")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else None
        if len(arg) > 1 and arg[0] == "-" and (
            flag in _RATIONAL_FLAGS and arg[1] in "0123456789./"
            or flag == "--tol" and _is_float(arg)
        ):
            joined[-1] = f"{flag}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    try:
        rc = _run(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.
        print("error: stdout was closed before all output was written", file=sys.stderr)
        _discard_stdout()
        return 1
    return rc


def _run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    # Exact values print at any size: lift the int-to-str digit limit
    # (Python 3.10.7+) for this call only, as main may run in-process.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _emit(args.handler(args), args.format)
    except (ValueError, KbonacciError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonUnitaryRepresentationError):
            return 2
        return 3 if isinstance(exc, ComputationError) else 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def _discard_stdout() -> None:
    """Point the stdout file descriptor at devnull, so that the
    interpreter's final flush of what is still buffered cannot fail again.
    An in-memory stdout (io.StringIO) has no descriptor and nothing to do."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
