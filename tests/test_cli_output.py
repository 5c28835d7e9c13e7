"""The command line's output layer: handlers that return a report and
print nothing, exact integer values printed from Decimals, the parser
reused across main() calls, and a closed stdout.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import kbonacci
from kbonacci import cli
from kbonacci.recurrence import CoefficientVector, extend_seeds, iterate_sequence


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _no_digit_limit():
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


class TestHandlersReturnReports:
    """Every handler builds one _Report and leaves all printing to _emit,
    the strict-physicality error and verify's exit 3 included."""

    SPECS = {
        "sign.json": {"k": 2, "functions": ["x", "-x"], "vacuum": ["1", "0"], "n_max": 3,
                      "arithmetic": "float64"},
        "float.json": {"k": 2, "linear": ["1", "1"], "vacuum": ["1", "0"], "arithmetic": "float64"},
    }
    ARGVS = [
        ["spectrum", "sign.json", "--strict-physical"],
        ["sequence", "--coeffs", "1,1", "-n", "8", "--check"],
        ["eigen", "--coeffs", "1,1"],
        ["stochastic", "--coeffs", "1/2,1/2"],
        ["subst", "enumerate", "--coeffs", "2,1"],
        ["subst", "grow", "--rule", "A:AB,B:A", "--steps", "5"],
        ["verify", "float.json", "--dim", "80", "--tol", "1e-300"],
    ]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[:2]))
    def test_handler_prints_nothing(self, argv, fmt, tmp_path, monkeypatch):
        for name, spec in self.SPECS.items():
            (tmp_path / name).write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        args = cli._parser().parse_args([*argv, "--format", fmt])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            report = args.handler(args)
        assert isinstance(report, cli._Report)
        assert (out.getvalue(), err.getvalue()) == ("", "")


# "-0" as a whole value: not part of "-05", "10-0" or "-0/3".
_NEGATIVE_ZERO = re.compile(r"(?<![\w/])-0(?![\w/.])")
# Large magnitudes carry values past 4300 digits within a few hundred steps.
_COEFF = st.sampled_from([1, -1, 2, -2, 3, -5, 999_983, -1_000_003])


@st.composite
def _integral_problems(draw):
    """Coefficients and seeds whose window alpha_{-m} = seed_m / lambda_{m+1}
    is integral, zeros included, so that every value is an integer."""
    coeffs = draw(st.lists(_COEFF, min_size=1, max_size=4))
    window = draw(st.lists(st.integers(-3, 3), min_size=len(coeffs), max_size=len(coeffs)))
    return coeffs, [window[0], *(w * c for w, c in zip(window[1:], coeffs[1:]))]


def _values(out: str, fmt: str) -> list[str]:
    if fmt == "json":
        return json.loads(out)["values"]
    lines = out.splitlines()
    if fmt == "csv":
        return [line.split(",")[1] for line in lines[1:] if not line.startswith("#")]
    return [line.split("  ")[1] for line in lines if not line.startswith("max")]


class TestIntegerOutput:
    @settings(deadline=None, max_examples=60)
    @given(
        _integral_problems(),
        st.integers(min_value=0, max_value=60) | st.integers(min_value=300, max_value=900),
        st.sampled_from(["direct", "matrix"]),
        st.booleans(),
        st.sampled_from(["table", "csv", "json"]),
    )
    # values of 4560 and 4800 digits, past the default int-to-str limit
    @example(([-1_000_003], [1]), 760, "direct", False, "csv")
    @example(([999_983, -1, 2], [2, -3, 0]), 800, "matrix", True, "json")
    @example(([-2, 1], [0, 0]), 5, "matrix", True, "table")
    def test_digits_equal_str_of_int(self, problem, n, method, check, fmt):
        coeffs, seeds = problem
        argv = ["sequence", "--coeffs", ",".join(map(str, coeffs)), "--seeds",
                ",".join(map(str, seeds)), "-n", str(n), "--method", method, "--format", fmt]
        rc, out, err = run([*argv, "--check"] if check else argv)
        assert (rc, err) == (0, "")
        vector = CoefficientVector(tuple(map(F, coeffs)))
        expected = iterate_sequence(vector, extend_seeds(vector, seeds[0], seeds[1:]), n).values
        with _no_digit_limit():
            assert _values(out, fmt) == [str(v.numerator) for v in expected]
        assert not any(_NEGATIVE_ZERO.search(line) for line in out.splitlines())
        if check:
            assert out.rstrip().endswith(("vs direct: 0", '"max_discrepancy_vs_direct": "0"\n}'))

    def test_zero_seeds_with_negative_coefficients(self):
        rc, out, _ = run(["sequence", "--coeffs", "-2,1", "--seeds", "0,0", "-n", "5",
                          "--format", "csv"])
        assert rc == 0
        assert out == "n,value\r\n" + "".join(f"{m},0\r\n" for m in range(6))

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_rational_values_still_print_past_the_digit_limit(self):
        # A seed of 1/3 keeps the values Fractions, printed through str(int):
        # main lifts the 4300-digit limit for them and restores it.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rc, out, err = run(["sequence", "--coeffs", "1000000", "--seeds", "1/3", "-n", "730",
                                "--format", "csv"])
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "730," + "1" + "0" * 4380 + "/3"

    def test_subst_grow_csv_counts(self):
        rc, out, _ = run(["subst", "grow", "--rule", "A:AB,B:A", "--steps", "40", "--format",
                          "csv"])
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        fib = [1, 1]
        for _ in range(40):
            fib.append(fib[-1] + fib[-2])
        assert [int(r[1]) for r in rows] == fib[1:]
        assert [(int(r[3]), int(r[4])) for r in rows] == list(zip(fib[:-1], [0, *fib[:-2]]))


class TestParserReuse:
    ARGVS = [
        ["sequence", "--coeffs", "1,1", "-n", "8", "--format", "csv"],
        ["sequence", "--coeffs", "1,1", "-n", "5", "--format", "xml"],
        ["--help"],
        ["sequence", "--coeffs", "1,1", "--help"],
        ["sequence", "--coeffs", "1,0", "-n", "3"],
        ["eigen", "--coeffs", "2,-1"],
        ["sequence", "--coeffs", "-1,2", "-n", "4", "--check", "--method", "matrix"],
        ["subst", "grow", "--rule", "A:AB,B:A", "--steps", "5"],
        [],
        ["sequence", "--coeffs", "1,1", "-n", "8", "--format", "csv"],
    ]

    def test_same_output_as_a_fresh_parser(self, monkeypatch):
        cli._parser.cache_clear()
        reused = [run(argv) for argv in self.ARGVS]
        assert cli._parser.cache_info().misses == 1
        # A fresh parser per call, in the reverse order, so that state one
        # call leaves behind would reach different calls in the two passes.
        monkeypatch.setattr(cli, "_parser", cli._build_parser)
        fresh = [run(argv) for argv in reversed(self.ARGVS)][::-1]
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, 1, 0, 0, 1, 3, 0, 0, 1, 0]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader went away after the first write."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)


CLOSED = "error: stdout was closed before all output was written\n"


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sequence", "--coeffs", "1,1", "-n", "300", "--format", "csv"],
            ["sequence", "--coeffs", "1,1", "-n", "300"],
            ["sequence", "--coeffs", "1/2,1/2", "-n", "300", "--method", "matrix"],
        ],
        ids=["csv", "table", "rational"],
    )
    def test_in_process(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == CLOSED

    # Both outputs are far larger than a pipe's buffer, so the command is
    # still writing when the reader closes the pipe after two lines.
    @pytest.mark.parametrize(
        "argv,first",
        [
            (["sequence", "--coeffs", "1,1", "-n", "30000", "--format", "csv"], b"n,value"),
            (["spectrum", "fib.json", "--levels", "1480"], b"n     alpha_1"),
        ],
        ids=["sequence", "spectrum"],
    )
    def test_head_closes_the_pipe(self, tmp_path, argv, first):
        (tmp_path / "fib.json").write_text(
            json.dumps({"k": 2, "linear": ["1", "1"], "vacuum": ["1", "0"]})
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kbonacci.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kbonacci.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=env,
        )
        head = [proc.stdout.readline(), proc.stdout.readline()]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert head[0].startswith(first)
        assert err == CLOSED


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


_SPECS = {
    "exact.json": {"k": 3, "linear": ["1", "1", "1"], "vacuum": ["1", "0", "0"], "n_max": 12},
    "float.json": {
        "k": 2, "functions": ["x+1/(x+1)", "x/(x+2)"], "vacuum": ["1", "0"],
        "n_max": 12, "arithmetic": "float64",
    },
}


class TestStrictJson:
    """Every --format json output parses under a reader that refuses
    NaN, Infinity and -Infinity, which strict JSON does not have."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(["eigen", "--coeffs", ",".join(["1"] * k)] for k in range(1, 6)),
            ["eigen", "--coeffs", "2"],
            ["stochastic", "--coeffs", "1/7,2/7,4/7"],
            *(["sequence", "--coeffs", "1,1,1", "-n", "12", "--method", m, "--check"]
              for m in ("direct", "matrix", "miles", "binet")),
            ["sequence", "--coeffs", "1/2,1/3", "-n", "12"],
            ["spectrum", "exact.json"],
            ["spectrum", "float.json"],
            ["verify", "exact.json", "--dim", "8"],
            ["verify", "float.json", "--dim", "8"],
            ["subst", "enumerate", "--coeffs", "2,1,2"],
            ["subst", "grow", "--rule", "A:AB,B:A", "--steps", "8"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_parses(self, argv, tmp_path, monkeypatch):
        for name, spec in _SPECS.items():
            (tmp_path / name).write_text(json.dumps(spec))
        monkeypatch.chdir(tmp_path)
        rc, out, err = run([*argv, "--format", "json"])
        assert rc == 0, err
        json.loads(out, parse_constant=_refuse_constant)

    def test_one_root_has_no_separation(self):
        rc, out, _ = run(["eigen", "--coeffs", "2", "--format", "json"])
        assert rc == 0
        data = json.loads(out, parse_constant=_refuse_constant)
        assert data["min_separation"] is None
        assert data["roots"] == [{"re": 2.0, "im": 0.0}]
