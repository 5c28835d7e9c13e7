"""End-to-end command tests: output shapes, exit codes, error taxonomy.

main() is called in-process with argv lists; stdout/stderr are captured via
capsys. Exit codes: 0 ok, 1 input problem, 2 physicality/unitarity failure,
3 numerical failure.
"""

import collections
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import _exact, cli
from kbonacci.cli import main
from kbonacci.recurrence import CoefficientVector, extend_seeds, iterate_sequence

SPEC_212 = {
    "k": 3,
    "linear": ["2", "1", "2"],
    "vacuum": ["1", "0", "0"],
    "n_max": 4,
}
SPEC_SIGN = {
    "k": 2,
    "functions": ["x", "-x"],
    "vacuum": ["1", "0"],
    "n_max": 3,
    "arithmetic": "float64",
}


@pytest.fixture
def spec212(tmp_path):
    path = tmp_path / "spec212.json"
    path.write_text(json.dumps(SPEC_212))
    return str(path)


@pytest.fixture
def spec_sign(tmp_path):
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(SPEC_SIGN))
    return str(path)


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


class TestSpectrumCommand:
    def test_table(self, spec212, capsys):
        assert main(["spectrum", spec212]) == 0
        out = capsys.readouterr().out
        assert "alpha_1" in out and "Nsq" in out
        assert "37" in out and "97" in out
        assert "physical_energy=True" in out

    def test_json_round_trip(self, spec212, capsys):
        assert main(["spectrum", spec212, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 3
        alphas = [F(a) for a in data["rows"][4]["alphas"]]
        assert alphas == [37, 14, 10]
        assert F(data["rows"][4]["nsq"]) == 97
        assert data["flags"]["unitary"] is True

    def test_csv(self, spec212, capsys):
        assert main(["spectrum", spec212, "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:3] == ["n", "alpha_1", "alpha_2"]
        assert rows[1][0] == "0" and rows[1][1] == "1"
        assert rows[5][1] == "37"

    def test_levels_override(self, spec212, capsys):
        assert main(["spectrum", spec212, "--levels", "1", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3  # header + n=0 + n=1

    def test_strict_physical_failure(self, spec_sign, capsys):
        assert main(["spectrum", spec_sign, "--strict-physical"]) == 2
        err = capsys.readouterr().err
        assert "unitary" in err

    def test_strict_physical_pass(self, spec212):
        assert main(["spectrum", spec212, "--strict-physical"]) == 0

    def test_missing_n_max(self, tmp_path, capsys):
        data = dict(SPEC_212)
        del data["n_max"]
        path = write_spec(tmp_path, data)
        assert main(["spectrum", path]) == 1
        assert "n_max" in capsys.readouterr().err
        assert main(["spectrum", path, "--levels", "2"]) == 0


FIB_EXACT = {"k": 2, "linear": ["1", "1"], "vacuum": ["1", "0"]}
FIB_FLOAT = {**FIB_EXACT, "arithmetic": "float64"}
QUADRATIC = {"k": 1, "functions": ["x^2+1"], "vacuum": ["0"], "arithmetic": "float64"}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestSpectrumOverflow:
    @pytest.mark.parametrize(
        "spec,levels,rc",
        [
            (FIB_EXACT, 1480, 0),  # N^2 at n=1480 is beyond float64, N is not
            (FIB_EXACT, 3000, 3),  # N_n itself leaves float64 near n=2950
            (FIB_FLOAT, 1500, 3),  # alpha_n leaves float64 near n=1475
            (QUADRATIC, 20, 3),  # x^2 raises OverflowError
        ],
    )
    def test_exit_code_and_strict_json(self, tmp_path, capsys, spec, levels, rc):
        path = write_spec(tmp_path, spec)
        assert main(["spectrum", path, "--levels", str(levels), "--format", "json"]) == rc
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if rc == 0:
            assert errors == []
            last = json.loads(out, parse_constant=_reject_constant)["rows"][-1]
            assert last["n"] == levels
            assert abs(F(last["norm"]) ** 2 / F(last["nsq"]) - 1) < F(1, 10**15)
        else:
            assert out == ""
            assert len(errors) == 1 and "level n=" in errors[0]


class TestFloatRangeInputs:
    """An affine coefficient or a vacuum value beyond the float64 range."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"k": 1, "functions": ["x + 10^400"], "vacuum": ["0"], "n_max": 3,
             "arithmetic": "float64"},
            {"k": 1, "linear": ["1"], "vacuum": ["1e400"], "n_max": 3, "arithmetic": "float64"},
        ],
    )
    @pytest.mark.parametrize("argv", [["spectrum"], ["verify", "--dim", "3"]])
    def test_exit_3_with_one_error_line(self, tmp_path, capsys, spec, argv):
        path = write_spec(tmp_path, spec)
        assert main([argv[0], path, *argv[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: float64 overflow at level n=0\n"


class TestUnreachableInputs:
    """Inputs whose exact value would take hours to build, and digits that
    no literal reads: exit 1 with one error line, before any work."""

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_coeffs_literal_exponent(self, capsys, sign):
        assert main(["sequence", "--coeffs", f"1e{sign}1000000000000,1", "-n", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: --coeffs: cannot parse rational '1e{sign}1000000000000' "
            "(exponent outside [-10000, 10000])\n"
        )

    @pytest.mark.parametrize(
        "spec,error",
        [
            (
                {"k": 1, "functions": ["x + 10^100000000000000"], "vacuum": ["0"]},
                "functions[0]: power of degree 100000000000000 exceeds 10000 at offset 7",
            ),
            (
                {"k": 1, "functions": ["x^²"], "vacuum": ["0"]},
                "functions[0]: unexpected character '²' at offset 2",
            ),
            (
                {"k": 1, "linear": ["1e10001"], "vacuum": ["0"]},
                "linear[0]: cannot parse rational '1e10001' (exponent outside [-10000, 10000])",
            ),
            (
                {"k": 1, "linear": ["1"], "vacuum": ["1e-1000000000000"]},
                "vacuum[0]: cannot parse rational '1e-1000000000000' "
                "(exponent outside [-10000, 10000])",
            ),
        ],
    )
    @pytest.mark.parametrize("arithmetic", ["exact", "float64"])
    def test_spec_exits_1(self, tmp_path, capsys, spec, error, arithmetic):
        path = write_spec(tmp_path, dict(spec, arithmetic=arithmetic))
        for argv in (["spectrum", path], ["verify", path, "--dim", "3"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {error}\n"


class TestSpecFileErrors:
    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = write_spec(tmp_path, '{"k": 2,,}')
        assert main(["spectrum", path]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_float_vacuum_names_field(self, tmp_path, capsys):
        data = dict(SPEC_212, vacuum=[0.5, "0", "0"])
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "vacuum[0]" in err and "strings" in err

    def test_both_function_forms_rejected(self, tmp_path, capsys):
        data = dict(SPEC_212, functions=["x", "x", "x"])
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "linear" in err and "functions" in err

    def test_wrong_vacuum_length(self, tmp_path, capsys):
        data = dict(SPEC_212, vacuum=["1", "0"])
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        assert "vacuum" in capsys.readouterr().err

    def test_bad_expression_names_entry(self, tmp_path, capsys):
        data = {
            "k": 2,
            "functions": ["x", "x +"],
            "vacuum": ["1", "0"],
            "n_max": 2,
        }
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        assert "functions[1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(" * 300 + "x" + ")" * 300, 100),
            ("-" * 2000 + "x", 100),
            ("+".join(["x"] * 3000), 201),
        ],
        ids=["parentheses", "signs", "sum"],
    )
    def test_deep_expression_exits_1(self, tmp_path, capsys, text, offset):
        data = {"k": 2, "functions": ["x", text], "vacuum": ["1", "0"], "n_max": 2}
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: functions[1]: expression nested deeper than 100 levels at offset {offset}"
        ]

    def test_expressions_at_the_depth_bound_run_in_float64(self, tmp_path, capsys):
        # The same values as the shallow forms: every level value is a small
        # integer, so the 100 float additions are exact.
        deep = ["+".join(["x"] * 101), "-" * 100 + "x", "(" * 100 + "x" + ")" * 100]
        outputs = []
        for functions in (deep, ["101*x", "x", "x"]):
            data = {"k": 3, "functions": functions, "vacuum": ["1", "0", "0"],
                    "n_max": 6, "arithmetic": "float64"}
            assert main(["spectrum", write_spec(tmp_path, data), "--format", "csv"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "payload,error",
        [
            ([1, 2], "spec file: top level must be a JSON object"),
            ({"k": 1, "functions": "x", "vacuum": ["0"], "n_max": 3},
             "field 'functions': must be a list of 1 expressions"),
            ({"k": 1, "functions": [1], "vacuum": ["0"], "n_max": 3},
             "functions[0]: must be an expression string"),
        ],
        ids=["top-level-list", "functions-not-a-list", "function-not-a-string"],
    )
    def test_malformed_spec_exits_1(self, tmp_path, capsys, payload, error):
        assert main(["spectrum", write_spec(tmp_path, payload)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {error}\n"

    def test_unknown_field(self, tmp_path, capsys):
        data = dict(SPEC_212, extra=1)
        assert main(["spectrum", write_spec(tmp_path, data)]) == 1
        assert "extra" in capsys.readouterr().err

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        # A misspelt key would otherwise leave verify at its default tol.
        data = dict(SPEC_212, tolerances={"verfy": 1e-3, "verify": 1e-3})
        assert main(["verify", write_spec(tmp_path, data), "--dim", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: field 'tolerances': unknown fields ['verfy']\n"

    @pytest.mark.parametrize("tolerances", [5, [1e-3]], ids=["number", "list"])
    def test_tolerances_not_an_object(self, tmp_path, capsys, tolerances):
        data = dict(SPEC_212, tolerances=tolerances)
        assert main(["verify", write_spec(tmp_path, data), "--dim", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: field 'tolerances': must be an object\n"

    def test_missing_file(self, capsys):
        assert main(["spectrum", "/nonexistent/spec.json"]) == 1
        assert "spec file" in capsys.readouterr().err


class TestSequenceCommand:
    def test_methods_agree(self, capsys):
        results = {}
        for method in ("direct", "matrix", "miles"):
            assert (
                main(["sequence", "--coeffs", "1,1,1", "-n", "12", "--method", method])
                == 0
            )
            results[method] = capsys.readouterr().out
        assert results["direct"] == results["matrix"] == results["miles"]
        assert results["direct"].splitlines()[-1] == "12  927"

    def test_binet_close_to_direct(self, capsys):
        code = main(
            [
                "sequence",
                "--coeffs",
                "1,1",
                "--seeds",
                "1,0",
                "-n",
                "20",
                "--method",
                "binet",
                "--check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "discrepancy" in l)
        assert float(line.split()[-1]) < 1e-9

    def test_exact_check_is_zero(self, capsys):
        assert (
            main(
                [
                    "sequence",
                    "--coeffs",
                    "2,1,2",
                    "-n",
                    "30",
                    "--method",
                    "matrix",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "max discrepancy vs direct: 0"

    @pytest.mark.parametrize("method", ["matrix", "miles"])
    def test_direct_iteration_only_when_needed(self, method, monkeypatch, capsys):
        # The iteration kernel, which both the Decimal route (matrix) and
        # iterate_sequence (miles) run.
        calls = []
        real = _exact.iterate

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_exact, "iterate", counting)
        argv = ["sequence", "--coeffs", "1,1,1", "-n", "12", "--method", method]
        assert main(argv) == 0
        assert calls == []
        assert main([*argv, "--check"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "max discrepancy vs direct: 0"

    def test_matrix_takes_one_power(self, monkeypatch, capsys):
        calls = []
        real = _exact.companion_power

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_exact, "companion_power", counting)
        argv = ["sequence", "--coeffs", "2,1,2", "-n", "40", "--method", "matrix"]
        assert main(argv) == 0
        assert len(calls) == 1
        assert main([*argv, "--check"]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines()[-1] == "max discrepancy vs direct: 0"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "coeffs,seeds",
        [("3", "2"), ("1,1", None), ("2,-1,1/2", "1,1/3,2"), ("1/2,1/3,1/5,1/7", None),
         ("1,2,1,3,1", "1,0,2,0,1")],
    )
    def test_matrix_values_equal_direct(self, coeffs, seeds, fmt, capsys):
        outputs = {}
        for method in ("direct", "matrix"):
            argv = ["sequence", "--coeffs", coeffs, "-n", "37", "--method", method, "--format", fmt]
            assert main(argv + (["--seeds", seeds] if seeds else [])) == 0
            outputs[method] = capsys.readouterr().out
        if fmt == "json":
            values = {m: json.loads(out)["values"] for m, out in outputs.items()}
            assert values["matrix"] == values["direct"] and len(values["direct"]) == 38
        else:
            assert outputs["matrix"] == outputs["direct"]

    def test_binet_overflow_exits_3(self, capsys):
        argv = ["sequence", "--coeffs", "1,1", "-n", "1500", "--method", "binet"]
        for extra in ([], ["--check"], ["--format", "json"]):
            assert main(argv + extra) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert errors == ["error: Binet value at n=1475 is beyond the float64 range"]

    @pytest.mark.parametrize(
        "coeffs,seeds,error",
        [
            ("1,1", "1e400,0", "seed value at n=0"),
            ("1,1e-320", "1,1", "seed value at n=-1"),
            ("1,1,1e-310", "1,1,1", "seed value at n=-2"),
            ("1,1e-320", "1,0", "power of root 2 at n=-1"),
            ("1,1,1e-310", "1,0,0", "power of root 3 at n=-2"),
        ],
    )
    def test_binet_system_beyond_float_range_exits_3(self, coeffs, seeds, error, capsys):
        # A seed of the window or a power of a root (one that is 0.0 in
        # float64 included) that leaves the float range is named.
        argv = ["sequence", "--coeffs", coeffs, "--seeds", seeds, "-n", "3", "--method", "binet"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error} is beyond the float64 range\n"

    def test_check_reference_overflow_exits_3(self, monkeypatch, capsys):
        # A Binet value that stays finite while the exact reference does not fit a float.
        monkeypatch.setattr(cli.spectral, "binet_eval", lambda modes, roots, m: 0.0)
        argv = ["sequence", "--coeffs", "1,1", "-n", "1500", "--method", "binet", "--check"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: direct value at n=1476 is beyond the float64 range"
        ]

    def test_check_rational_reference_overflow_exits_3(self, monkeypatch, capsys):
        # The exact reference is a Fraction here, whose float() raises where
        # a Decimal's gives inf: the same error either way.
        monkeypatch.setattr(cli.spectral, "binet_eval", lambda modes, roots, m: 0.0)
        argv = ["sequence", "--coeffs", "1/2,3", "-n", "1100", "--method", "binet", "--check"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: direct value at n=1025 is beyond the float64 range"
        ]

    def test_miles_guard(self, capsys):
        assert main(["sequence", "--coeffs", "2,1,2", "-n", "5", "--method", "miles"]) == 3
        assert "unit coefficients" in capsys.readouterr().err

    def test_json_values(self, capsys):
        assert (
            main(["sequence", "--coeffs", "1,1", "-n", "10", "--format", "json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["values"][-1] == "89"

    def test_bad_coeffs(self, capsys):
        assert main(["sequence", "--coeffs", "1,zebra", "-n", "3"]) == 1
        assert "--coeffs" in capsys.readouterr().err

    def test_seeds_length_checked(self, capsys):
        assert main(["sequence", "--coeffs", "1,1", "--seeds", "1,0,0", "-n", "3"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_rational_matrix_check_at_4000(self, capsys):
        # The matrix route on Fractions against the integer rational kernel.
        argv = ["sequence", "--coeffs", "1/2,1/3,1/6", "--seeds", "1,1,1/3", "-n", "4000",
                "--method", "matrix", "--check", "--format", "csv"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4002 + 1  # header and rows 0..4000, then the check
        assert lines[-2].startswith("4000,")
        assert lines[-1] == "# max discrepancy vs direct: 0"


class TestLeadingNegative:
    # argparse reads "-1,2" after a flag as another option; main joins it
    # on, as "--coeffs=-1,2" has always been read.
    @pytest.mark.parametrize(
        "argv,rc,expected",
        [
            (["sequence", "--coeffs", "-1,2", "-n", "3"], 0, "3  -5"),
            (["sequence", "--coeffs", "1,1", "--seeds", "-1,0", "-n", "3"], 0, "3  -3"),
            (["eigen", "--coeffs", "-1,2"], 0, "characteristic polynomial: x^2 + x - 2"),
            (["stochastic", "--coeffs", "-1/2,3/2"], 0, "stochastic: no (negative coefficients)"),
            (["subst", "enumerate", "--coeffs", "-1,2"], 1,
             "error: lambda_1 = -1 is not a natural number >= 1"),
        ],
        ids=["sequence-coeffs", "sequence-seeds", "eigen", "stochastic", "subst-enumerate"],
    )
    def test_parsed_as_joined(self, capsys, argv, rc, expected):
        assert main(argv) == rc
        out, err = capsys.readouterr()
        assert expected in (out if rc == 0 else err).splitlines()
        i = next(i for i, a in enumerate(argv) if a[:1] == "-" and a[1:2].isdigit())
        joined = [*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :]]
        assert main(joined) == rc
        assert capsys.readouterr() == (out, err)


_FUZZ_ITEMS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12).map(str),
    st.integers(min_value=-20, max_value=20).map(str),
    st.sampled_from(["1/0", "x", "", "-", "-1/0", " 2", "1.5", "--1"]),
)
# Values whose floats leave the range in the Binet system: a seed beyond
# it, and coefficients that put a root at or near 0.0.
_BINET_ITEMS = _FUZZ_ITEMS | st.sampled_from(["1e400", "1e-320", "1e-310"])


def run_main(argv):
    """main(argv) with stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_error_contract(rc, err, codes=(0, 1)):
    """An allowed exit code, no traceback, and one error line exactly when
    the command failed."""
    assert rc in codes
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (rc != 0)


class TestSequenceFuzz:
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(_FUZZ_ITEMS, min_size=1, max_size=5).map(",".join),
        st.none() | st.lists(_FUZZ_ITEMS, min_size=1, max_size=5).map(",".join),
        st.integers(min_value=0, max_value=60),
        st.sampled_from(["direct", "matrix"]),
        st.sampled_from(["table", "csv", "json"]),
    )
    def test_error_contract(self, coeffs, seeds, n, method, fmt):
        argv = ["sequence", "--coeffs", coeffs, "-n", str(n), "--method", method, "--format", fmt]
        if seeds is not None:
            argv += ["--seeds", seeds]
        rc, out, err = run_main(argv)
        check_error_contract(rc, err, (0, 1, 3))
        if rc == 0 and fmt == "json":
            values = json.loads(out, parse_constant=_reject_constant)["values"]
            assert len(values) == n + 1

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(_BINET_ITEMS, min_size=1, max_size=5).map(",".join),
        st.none() | st.lists(_BINET_ITEMS, min_size=1, max_size=5).map(",".join),
        st.integers(min_value=0, max_value=60),
        st.sampled_from(["table", "csv", "json"]),
    )
    def test_binet_error_contract(self, coeffs, seeds, n, fmt):
        argv = ["sequence", "--coeffs", coeffs, "-n", str(n), "--method", "binet", "--format", fmt]
        if seeds is not None:
            argv += ["--seeds", seeds]
        rc, out, err = run_main(argv)
        check_command_contract(rc, out, err, fmt)


@st.composite
def subst_coeffs(draw):
    """Coefficient text for subst enumerate: half natural vectors with
    integral quotients, k = 1..4, half lists with zeros, negatives,
    rationals, non-integral quotients and malformed items. lambda_1 <= 4
    keeps every vector at 210 rules or fewer."""
    if draw(st.booleans()):
        lams = [draw(st.integers(min_value=1, max_value=4))]
        if draw(st.booleans()):
            lams.append(draw(st.integers(min_value=1, max_value=4)))
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                lams.append(lams[-1] * draw(st.integers(min_value=1, max_value=3)))
        return ",".join(map(str, lams))
    item = st.one_of(
        st.integers(min_value=-2, max_value=4).map(str),
        st.fractions(min_value=-4, max_value=4, max_denominator=3).map(str),
        st.sampled_from(["1/0", "x", "", "-", " 2", "1.5"]),
    )
    return ",".join(draw(st.lists(item, min_size=1, max_size=4)))


@st.composite
def rule_text(draw):
    """Rule text for subst grow: half well-formed rules on k = 1..4 letters,
    half entries with bad letters, spaces, empty images or no ':'."""
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=4))
        images = [draw(st.text(alphabet="ABCD"[:k], min_size=1, max_size=4)) for _ in range(k)]
        return ",".join(f"{a}:{w}" for a, w in zip("ABCD", images))
    letter = st.sampled_from(["A", "B", "C", "D", "a", "AB", "1", " B ", "", "-"])
    entry = st.one_of(
        st.tuples(letter, st.text(alphabet="ABCD -", max_size=4)).map(":".join),
        st.text(alphabet="ABCD: ,-", max_size=6),
    )
    return ",".join(draw(st.lists(entry, min_size=1, max_size=4)))


class TestSubstFuzz:
    @settings(deadline=None, max_examples=150)
    @given(subst_coeffs(), st.sampled_from(["table", "csv", "json"]))
    def test_enumerate_error_contract(self, coeffs, fmt):
        rc, out, err = run_main(["subst", "enumerate", "--coeffs", coeffs, "--format", fmt])
        check_error_contract(rc, err)
        if rc == 0 and fmt == "json":
            data = json.loads(out, parse_constant=_reject_constant)
            assert data["count"] == len(data["rules"]) >= 1

    @settings(deadline=None, max_examples=150)
    @given(
        rule_text(),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=1, max_value=50),
        st.sampled_from(["table", "csv", "json"]),
    )
    def test_grow_error_contract(self, rule, steps, cap, fmt):
        rc, out, err = run_main(
            ["subst", "grow", "--rule", rule, "--steps", str(steps), "--word-cap", str(cap), "--format", fmt]
        )
        check_error_contract(rc, err)
        if rc == 0 and fmt == "json":
            states = json.loads(out, parse_constant=_reject_constant)["states"]
            assert [s["step"] for s in states] == list(range(steps + 1))


_COEFF_ITEMS = st.one_of(
    st.integers(min_value=-3, max_value=5).filter(bool).map(str),
    st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool).map(str),
    st.sampled_from(["0", "1e400", "1e-400", "-1e400", "1/0", "x", "", "-", " 2", "--1"]),
)
_COEFFS = st.lists(_COEFF_ITEMS, min_size=1, max_size=5).map(",".join)
_FORMATS = st.sampled_from(["table", "csv", "json"])
# A tiny tol only ever meets a small iteration cap.
_TOLS = st.none() | st.sampled_from(["nan", "inf", "-1e-3", "1e-320", "1e-13", "1e-6"])

# Spec file fields: the values the loader accepts (rationals, some beyond
# the float range or below its smallest positive value) and the ones it
# must refuse.
_ABSENT = object()
_SPEC_FIELDS = {
    "linear": (
        ["1", "1", "-1", "2", "1/3", "-5/2", 3, -2, "0", "1e-400", "1e400", 10**400],
        ["10^400", 0.5, True, None, ""],
    ),
    "functions": (
        ["x", "x + 1", "x/3", "2*x - 1", "-x", "x", "x^2", "x^2 + 1", "1/x", "x/(x - 1)", "x*10^400"],
        ["x +", "", "y", 2],
    ),
    "arithmetic": ([_ABSENT, "exact", "float64", "float64"], ["bogus"]),
    "n_max": ([_ABSENT, 0, 5, 60], [-1, "5"]),
    "tolerances": ([_ABSENT, 1e-10, 1e-3], [float("nan"), float("inf"), -1.0, 0, 10**400, "1e-10", True]),
}


@st.composite
def spec_text(draw):
    """Spec file text: linear or functions, k = 1..4, the arithmetic exact,
    float64 or absent. At most one fault: k not a positive int, a list one
    item too short or too long, a value the loader refuses, a bogus
    arithmetic or n_max, tolerances.verify non-finite, beyond float64, a
    string or a bool, or a file that is not a spec at all."""
    fault = draw(st.sampled_from([*[None] * 6, "k", "length", "linear", "functions", *_SPEC_FIELDS, "file"]))
    if fault == "file":
        return draw(st.sampled_from(["", "{", "[]", '{"k": 2}', "NaN"]))

    def pick(name):
        valid, invalid = _SPEC_FIELDS[name]
        return draw(st.sampled_from(invalid if name == fault else valid))

    k = draw(st.integers(min_value=1, max_value=4))
    field = draw(st.sampled_from(["linear", "functions"]))
    lengths = [k + draw(st.sampled_from([-1, 1])) if fault == "length" else k for _ in range(2)]
    spec = {
        "k": draw(st.sampled_from([0, "2", True])) if fault == "k" else k,
        field: [pick(field) for _ in range(lengths[0])],
        "vacuum": [pick("linear") for _ in range(lengths[1])],
        "arithmetic": pick("arithmetic"),
        "n_max": pick("n_max"),
    }
    verify_tol = pick("tolerances")
    if verify_tol is not _ABSENT:
        spec["tolerances"] = {"verify": verify_tol}
    return json.dumps({key: value for key, value in spec.items() if value is not _ABSENT})


@pytest.fixture(scope="module")
def fuzz_spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def check_command_contract(rc, out, err, fmt, *, output_before_error=False):
    """check_error_contract over exit codes 0-3; a failure with an error
    line prints nothing to stdout, unless output_before_error; JSON output
    parses with no non-finite constant."""
    check_error_contract(rc, err, (0, 1, 2, 3))
    if rc != 0 and not output_before_error:
        assert out == ""
    if fmt == "json" and out:
        json.loads(out, parse_constant=_reject_constant)


class TestCommandFuzz:
    @settings(deadline=None, max_examples=150)
    @given(_COEFFS, _TOLS, st.integers(min_value=0, max_value=50), _FORMATS)
    def test_eigen(self, coeffs, tol, max_iter, fmt):
        argv = ["eigen", "--coeffs", coeffs, "--max-iter", str(max_iter), "--format", fmt]
        if tol is not None:
            argv += ["--tol", tol]
        check_command_contract(*run_main(argv), fmt)

    @settings(deadline=None, max_examples=150)
    @given(_COEFFS, _FORMATS)
    def test_stochastic(self, coeffs, fmt):
        check_command_contract(*run_main(["stochastic", "--coeffs", coeffs, "--format", fmt]), fmt)

    @settings(deadline=None, max_examples=150)
    @given(spec_text(), st.none() | st.integers(min_value=0, max_value=60), st.booleans(), _FORMATS)
    def test_spectrum(self, fuzz_spec_path, text, levels, strict, fmt):
        fuzz_spec_path.write_text(text)
        argv = ["spectrum", str(fuzz_spec_path), "--format", fmt]
        if levels is not None:
            argv += ["--levels", str(levels)]
        if strict:
            argv.append("--strict-physical")
        rc, out, err = run_main(argv)
        # --strict-physical prints the table before its error line
        check_command_contract(rc, out, err, fmt, output_before_error=strict and rc == 2)

    @settings(deadline=None, max_examples=150)
    @given(spec_text(), st.integers(min_value=0, max_value=40), _TOLS, _FORMATS)
    def test_verify(self, fuzz_spec_path, text, dim, tol, fmt):
        fuzz_spec_path.write_text(text)
        argv = ["verify", str(fuzz_spec_path), "--dim", str(dim), "--format", fmt]
        if tol is not None:
            argv += ["--tol", tol]
        rc, out, err = run_main(argv)
        if rc == 3 and "error:" not in err:
            # a relation outside tol: the report is printed and says so
            assert "Traceback" not in err
            if fmt == "json":
                assert json.loads(out, parse_constant=_reject_constant)["all_passed"] is False
            elif fmt == "csv":
                assert "False" in [line.rsplit(",", 1)[-1] for line in out.splitlines()[1:]]
            else:
                assert out.splitlines()[-1].endswith(": False")
        else:
            check_command_contract(rc, out, err, fmt)


_CSV_FIELDS = st.text(alphabet="ab ,\"\r\n\t'-/0123456789", max_size=6)


class TestCsvRows:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(_CSV_FIELDS, max_size=4), st.lists(st.lists(_CSV_FIELDS, max_size=4), max_size=6))
    def test_same_bytes_as_csv_writer(self, header, rows):
        expected, out = io.StringIO(), io.StringIO()
        writer = csv.writer(expected)
        for row in (header, *rows):
            writer.writerow(row)
        with contextlib.redirect_stdout(out):
            cli._emit_csv(header, rows)
        assert out.getvalue() == expected.getvalue()


class TestEigenCommand:
    def test_fibonacci_dominant(self, capsys):
        assert main(["eigen", "--coeffs", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "x^2 - x - 1" in out
        assert "1.6180339887498949" in out
        assert "dominant" in out

    def test_json(self, capsys):
        assert main(["eigen", "--coeffs", "2,1,2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["char_poly"] == ["1", "-2", "-1", "-2"]
        assert data["dominant_index"] == 0
        dom = data["roots"][0]["re"]
        # root of x^3 - 2x^2 - x - 2 in (2, 3)
        assert abs(dom**3 - 2 * dom**2 - dom - 2) < 1e-10
        assert 2.6 < dom < 2.7
        assert data["roots"][0]["im"] == pytest.approx(0.0, abs=1e-12)

    def test_repeated_roots_exit(self, capsys):
        # (x - 1)^2 is refused by the exact squarefree test, at any --tol
        assert main(["eigen", "--coeffs", "2,-1", "--tol", "1e-5"]) == 3
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: the polynomial has a repeated root (gcd(p, p') is not constant)"
        ]

    def test_near_repeated_roots_exit(self, capsys):
        # (x - 1)^2 - 1e-12 is squarefree; the float guard refuses it at this tol
        coeffs = "2,-999999999999/1000000000000"
        assert main(["eigen", "--coeffs", coeffs, "--tol", "1e-5"]) == 3
        assert "near-repeated" in capsys.readouterr().err.lower()

    def test_equal_modulus_roots_in_fixed_order(self, capsys):
        # x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1): three roots of modulus 1
        assert main(["eigen", "--coeffs", "1,-1,1", "--format", "json"]) == 0
        roots = [complex(r["re"], r["im"]) for r in json.loads(capsys.readouterr().out)["roots"]]
        assert all(abs(r - e) < 1e-15 for r, e in zip(roots, (1, 1j, -1j)))

    @pytest.mark.parametrize("coeffs", ["1,,1", "1,1,"])
    def test_empty_coefficient_item_exits_1(self, coeffs, capsys):
        assert main(["eigen", "--coeffs", coeffs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "--coeffs" in errors[0] and "empty item" in errors[0]


class TestStochasticCommand:
    def test_half_half(self, capsys):
        assert main(["stochastic", "--coeffs", "1/2,1/2"]) == 0
        out = capsys.readouterr().out
        assert "stochastic: yes" in out
        assert "(1/3, 2/3)" in out
        # 1 is the exact dominant root of every probability row
        assert "dominant root: 1 + 0i (|dominant - 1| = 0)" in out.splitlines()

    def test_not_stochastic(self, capsys):
        assert main(["stochastic", "--coeffs", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "stochastic: no" in out
        assert "sum to 1" in out

    def test_json(self, capsys):
        assert main(["stochastic", "--coeffs", "1/4,1/4,1/2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stochastic"] is True
        assert sum(F(p) for p in data["stationary"]) == 1
        assert data["dominant_gap"] < 1e-12


class TestSubstCommand:
    def test_enumerate_lines(self, capsys):
        assert main(["subst", "enumerate", "--coeffs", "2,1,2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        assert lines[-1] == "count: 12"
        assert any("A:ABAC,B:A,C:BB" == l for l in lines)

    def test_enumerate_non_natural(self, capsys):
        assert main(["subst", "enumerate", "--coeffs", "1/2,1"]) == 1
        assert "natural" in capsys.readouterr().err

    def test_grow_fibonacci(self, capsys):
        assert main(["subst", "grow", "--rule", "A:AB,B:A", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "ABAAB" in out

    def test_grow_abac_rule_notes(self, capsys):
        assert (
            main(["subst", "grow", "--rule", "A:ABAC,B:A,C:BB", "--steps", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "length 75" in out
        assert "29" in out  # the quoted-length inconsistency is surfaced

    def test_grow_json_counts(self, capsys):
        assert (
            main(
                [
                    "subst",
                    "grow",
                    "--rule",
                    "A:ABAC,B:A,C:BB",
                    "--steps",
                    "3",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["states"][3]["letter_counts"] == [14, 9, 5]
        assert data["states"][3]["word"].startswith("ABACA")

    def test_grow_word_cap(self, capsys):
        assert (
            main(
                [
                    "subst",
                    "grow",
                    "--rule",
                    "A:ABAC,B:A,C:BB",
                    "--steps",
                    "3",
                    "--word-cap",
                    "11",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["states"][3]["word"] is None
        assert data["states"][3]["length"] == 28

    def test_bad_rule_text(self, capsys):
        assert main(["subst", "grow", "--rule", "A:AB", "--steps", "2"]) == 1
        assert "alphabet" in capsys.readouterr().err.lower()


class TestVerifyCommand:
    def test_exact_all_pass(self, spec212, capsys):
        assert main(["verify", spec212, "--dim", "6"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_float_mode_passes_tolerance(self, tmp_path, capsys):
        data = dict(SPEC_212, arithmetic="float64")
        path = write_spec(tmp_path, data)
        assert main(["verify", path, "--dim", "12", "--tol", "1e-10"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_nonunitary_exits_2(self, spec_sign, capsys):
        assert main(["verify", spec_sign, "--dim", "4"]) == 2
        assert "n=1" in capsys.readouterr().err

    def test_dim_below_k_exits_1(self, spec212, capsys):
        assert main(["verify", spec212, "--dim", "1"]) == 1
        assert "dim" in capsys.readouterr().err

    def test_json_report(self, spec212, capsys):
        assert main(["verify", spec212, "--dim", "5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_passed"] is True
        assert {e["label"] for e in data["relations"]} == {
            "H.raising",
            "J2.raising^1",
            "J3.raising^2",
            "[lowering,raising]",
            "[H,Ji]",
            "[Ji,Jj]",
        }
        assert all(e["residual"] == 0 for e in data["relations"])


class TestNonFiniteTolerance:
    @pytest.mark.parametrize(
        "argv,verify_tol",
        [
            (["eigen", "--coeffs", "1,1", "--tol", "nan"], None),
            (["eigen", "--coeffs", "1,1", "--tol", "inf"], None),
            (["sequence", "--coeffs", "1,1", "-n", "5", "--method", "binet", "--tol", "nan"], None),
            (["verify", "SPEC", "--dim", "5", "--tol", "nan"], None),
            (["verify", "SPEC", "--dim", "5", "--tol", "inf"], None),
            (["verify", "SPEC", "--dim", "5"], "NaN"),  # json reads these as floats
            (["verify", "SPEC", "--dim", "5"], "Infinity"),
            (["verify", "SPEC", "--dim", "5"], "1" + "0" * 400),  # an int beyond float64
        ],
        ids=[
            "eigen-nan", "eigen-inf", "binet-nan", "verify-nan", "verify-inf",
            "spec-nan", "spec-inf", "spec-huge-int",
        ],
    )
    def test_input_error(self, tmp_path, capsys, argv, verify_tol):
        text = json.dumps(SPEC_212)
        if verify_tol is not None:
            text = text[:-1] + f', "tolerances": {{"verify": {verify_tol}}}}}'
        path = write_spec(tmp_path, text)
        assert main([path if a == "SPEC" else a for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestNegativeTolerance:
    # argparse reads "-1e-3" after --tol as another option; main joins it
    # on, so the tolerance check reports it as for "--tol=-1e-3".
    @pytest.mark.parametrize(
        "argv",
        [
            ["eigen", "--coeffs", "1,1", "--tol", "-1e-3"],
            ["eigen", "--coeffs", "1,1", "--tol", "-inf"],
            ["sequence", "--coeffs", "1,1", "-n", "5", "--method", "binet", "--tol", "-1e-3"],
            ["verify", "SPEC", "--dim", "5", "--tol", "-1e-3"],
        ],
        ids=["eigen", "eigen-minus-inf", "binet", "verify"],
    )
    def test_input_error(self, tmp_path, capsys, argv):
        path = write_spec(tmp_path, SPEC_212)
        argv = [path if a == "SPEC" else a for a in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tol must be finite and positive\n"
        assert main([*argv[:-2], f"--tol={argv[-1]}"]) == 1
        assert capsys.readouterr() == (out, err)


class _Tail(io.TextIOBase):
    """A stdout that counts lines and keeps only the last few writes."""

    def __init__(self):
        self.lines = 0
        self.writes = collections.deque(maxlen=8)

    def write(self, text):
        self.lines += text.count("\n")
        self.writes.append(text)
        return len(text)


@contextlib.contextmanager
def _digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestDigitLimit:
    # At the default limit of 4300 digits str() refuses alpha_n from n ~ 20577.
    @pytest.mark.parametrize(
        "argv,column",
        [
            (["sequence", "--coeffs", "1,1", "-n", "21000", "--format", "csv"], 1),
            (["subst", "grow", "--rule", "A:AB,B:A", "--steps", "21000", "--format", "csv"], 3),
        ],
        ids=["sequence", "subst-grow"],
    )
    def test_values_print_at_any_size(self, monkeypatch, argv, column):
        sink = _Tail()
        monkeypatch.setattr(sys, "stdout", sink)
        with _digit_limit(4300):
            assert main(argv) == 0
            assert sys.get_int_max_str_digits() == 4300
        assert sink.lines == 1 + 21001  # header plus steps 0..21000
        last = "".join(sink.writes).splitlines()[-1].split(",")
        assert last[0] == "21000"
        digits = last[column]
        assert len(digits) == 4389
        coeffs = CoefficientVector((F(1), F(1)))
        expected = iterate_sequence(coeffs, extend_seeds(coeffs, F(1), (F(0),)), 21000).values[-1]
        with _digit_limit(0):
            assert F(digits) == expected


class TestArgparseBehavior:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "spectrum" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["sequence", "-n", "3"]) == 1

    def test_no_args(self, capsys):
        assert main([]) == 1

