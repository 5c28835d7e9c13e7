#!/usr/bin/env bash
# Smoke checks of the installed kbonacci entry point: exit codes, error
# lines and output bytes of the command line.
#
#     bash tests/smoke.sh
#
# Needs only kbonacci on PATH. The script runs from the repository root,
# where one check reads README.md, with the package of src/ first on
# PYTHONPATH for the checks that import it.
set -eo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

out=$(kbonacci sequence --coeffs 1,1,1 -n 50 --method matrix --check)
test "$(tail -n 1 <<< "$out")" = "max discrepancy vs direct: 0"
# Miles' multinomial sum, and unit coefficients of both signs, against iteration
out=$(kbonacci sequence --coeffs 1,1,1,1,1 -n 80 --method miles --check)
test "$(tail -n 1 <<< "$out")" = "max discrepancy vs direct: 0"
# the longest weight-2 walks of Miles' sum, about 500 term ratios each
out=$(kbonacci sequence --coeffs 1,1 -n 1000 --method miles --check)
test "$(tail -n 1 <<< "$out")" = "max discrepancy vs direct: 0"
# the k >= 3 closed form on a thousand targets, up to 251 terms each
out=$(kbonacci sequence --coeffs 1,1,1 -n 1000 --method miles --check)
test "$(tail -n 1 <<< "$out")" = "max discrepancy vs direct: 0"
out=$(kbonacci sequence --coeffs -1,1,-1 --seeds 2,1,-3 -n 2000 --method matrix --check --format csv | tr -d '\r')
test "$(tail -n 1 <<< "$out")" = "# max discrepancy vs direct: 0"
rc=0
kbonacci sequence --coeffs 1,1 -n 1500 --method binet || rc=$?
test "$rc" -eq 3
out=$(kbonacci stochastic --coeffs 1/7,2/7,4/7)
grep -Fx "stationary distribution: (4/17, 6/17, 7/17)" <<< "$out"
rc=0
kbonacci eigen --coeffs 2,-1 || rc=$?
test "$rc" -eq 3
kbonacci eigen --coeffs 1000000,1
out=$(kbonacci stochastic --coeffs 1/2,1/2)
grep -Fx "dominant root: 1 + 0i (|dominant - 1| = 0)" <<< "$out"
# alpha_21000 has 4389 digits, past the default int-to-str limit of 4300
last=$(kbonacci sequence --coeffs 1,1 -n 21000 --format csv | tail -n 1 | tr -d '\r')
test "${last%%,*}" = 21000
value=${last#*,}
test "${#value}" -eq 4389
rc=0
kbonacci eigen --coeffs 1,1 --tol nan || rc=$?
test "$rc" -eq 1
# rational iteration on integers against the matrix route on Fractions
out=$(kbonacci sequence --coeffs 1/2,1/3,1/6 --seeds 1,1,1/3 -n 4000 --method matrix --check --format csv | tr -d '\r')
test "$(wc -l <<< "$out")" -eq 4003
test "$(tail -n 1 <<< "$out")" = "# max discrepancy vs direct: 0"
# 4295098369 = 65537^2 has no factor below 2^16: iteration tracks it in a coprime base, unfactored
out=$(kbonacci sequence --coeffs 1/2,1/4295098369 -n 2000 --method matrix --check --format csv | tr -d '\r')
test "$(tail -n 1 <<< "$out")" = "# max discrepancy vs direct: 0"
# a leading negative value after a flag
kbonacci sequence --coeffs -1,2 -n 3
rc=0
err=$(kbonacci eigen --coeffs 1,1 --tol -1e-3 2>&1) || rc=$?
test "$rc" -eq 1
test "$err" = "error: tol must be finite and positive"
# a reader that closes the pipe early: exit 1 with one error line, no traceback
err_file=$(mktemp)
rc=0
kbonacci sequence --coeffs 1,1 -n 30000 --format csv 2> "$err_file" | head -2 > /dev/null || rc=$?
test "$rc" -eq 1
if grep -q Traceback "$err_file"; then exit 1; fi
test "$(cat "$err_file")" = "error: stdout was closed before all output was written"
# integer values print from Decimals: a zero is never "-0"
out=$(kbonacci sequence --coeffs -2,1 --seeds 0,0 -n 5 --format csv | tr -d '\r')
if grep -Eq '(^|,)-0($|,)' <<< "$out"; then exit 1; fi
test "$(tail -n 1 <<< "$out")" = "5,0"
# letter counts past the int-to-str limit: count_A at step 21000 has 4389 digits
last=$(kbonacci subst grow --rule A:AB,B:A --steps 21000 --format csv | tail -n 1 | tr -d '\r')
IFS=, read -r step length word count_a count_b <<< "$last"
test "$step" = 21000
test "${#count_a}" -eq 4389
# the order of the 720 rules of a k = 6 vector, byte for byte
test "$(kbonacci subst enumerate --coeffs 1,2,2,2,2,2 --format csv | tr -d '\r' | sha256sum)" = "8e60044ebbaca512e8baef73a41be40ae2db3d54a2d8ff829ac253aa72ebbdbc  -"
# one root has no pair: min_separation is null, and the output is strict JSON
kbonacci eigen --coeffs 2 --format json | python -c '
import json, sys
def refuse(name):
    raise ValueError(f"{name} is not JSON")
json.loads(sys.stdin.read(), parse_constant=refuse)'
# exact k = 3 bands checked on ints: residual 0 on all six relations
spec=$(mktemp)
echo '{"k": 3, "linear": ["1", "1", "1"], "vacuum": ["1", "0", "0"]}' > "$spec"
out=$(kbonacci verify "$spec" --dim 600 --format csv | tr -d '\r')
test "$(wc -l <<< "$out")" -eq 7
test "$(tail -n +2 <<< "$out" | awk -F, '{print $(NF-1)}' | sort -u)" = "0"
# norms past the float range come from the scaled square root
kbonacci spectrum "$spec" --levels 1500 --strict-physical > /dev/null
# float64 [lowering,raising] sums left to right: the same residual on every interpreter
echo '{"k": 4, "functions": ["x + 1/(x+1)", "x/3", "x/7", "x/11"], "vacuum": ["1/10", "1/5", "1/3", "2/7"], "arithmetic": "float64"}' > "$spec"
grep -Fx '"[lowering,raising]",3.3039065911324975e-16,True' <<< "$(kbonacci verify "$spec" --dim 40 --format csv | tr -d '\r')"
# an exact pass stops at the first norm past the float range: exit 3, one error line
echo '{"k": 2, "linear": ["1000000000000000000000000000000", "1"], "vacuum": ["1", "0"]}' > "$spec"
rc=0
err=$(kbonacci spectrum "$spec" --levels 2000 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 3
test "$err" = "error: norm N_20 overflows float64 at level n=20"
# a million levels asked: the energies run in doubling chunks, cut in the first that reaches the bound
echo '{"k": 2, "linear": ["1", "1"], "vacuum": ["1", "0"]}' > "$spec"
rc=0
err=$(timeout 10 kbonacci spectrum "$spec" --levels 1000000 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 3
test "$err" = "error: norm N_2950 overflows float64 at level n=2950"
# spectrum --strict-physical prints its whole output before its exit-2 error line
out_file=$(mktemp)
echo '{"k": 2, "functions": ["x", "-x"], "vacuum": ["1", "0"], "n_max": 3, "arithmetic": "float64"}' > "$spec"
rc=0
kbonacci spectrum "$spec" --strict-physical --format csv > "$out_file" 2> "$err_file" || rc=$?
test "$rc" -eq 2
test "$(wc -l < "$out_file")" -eq 5
test "$(cat "$err_file")" = "error: physicality flags failed: nondecreasing, physical_energy, unitary"
# verify with a relation outside tol: exit 3, the report printed, no error line
echo '{"k": 2, "linear": ["1", "1"], "vacuum": ["1", "0"], "arithmetic": "float64"}' > "$spec"
rc=0
kbonacci verify "$spec" --dim 80 --tol 1e-300 --format json > "$out_file" 2> "$err_file" || rc=$?
test "$rc" -eq 3
test ! -s "$err_file"
grep -Fq '"all_passed": false' "$out_file"
# an expression 300 parentheses deep is refused: exit 1, one error line, no traceback
python -c 'import json; print(json.dumps({"k": 1, "functions": ["(" * 300 + "x" + ")" * 300], "vacuum": ["1"], "n_max": 2}))' > "$spec"
rc=0
err=$(kbonacci spectrum "$spec" 2>&1 > /dev/null) || rc=$?
test "$rc" -eq 1
test "$(wc -l <<< "$err")" -eq 1
[[ "$err" == "error: "* ]]
# inputs that would take hours to build, and a superscript digit: exit 1 at once with one
# error line (an exact match, so no traceback)
expect_input_error() {
  local rc=0 err want=$1
  shift
  err=$(timeout 10 kbonacci "$@" 2>&1 > /dev/null) || rc=$?
  test "$rc" -eq 1
  test "$err" = "$want"
}
expect_input_error "error: --coeffs: cannot parse rational '1e1000000000000' (exponent outside [-10000, 10000])" sequence --coeffs 1e1000000000000,1 -n 3
echo '{"k": 1, "functions": ["x + 10^100000000000000"], "vacuum": ["0"], "n_max": 3, "arithmetic": "float64"}' > "$spec"
expect_input_error "error: functions[0]: power of degree 100000000000000 exceeds 10000 at offset 7" spectrum "$spec"
echo '{"k": 1, "functions": ["x^²"], "vacuum": ["0"], "n_max": 3, "arithmetic": "float64"}' > "$spec"
expect_input_error "error: functions[0]: unexpected character '²' at offset 2" spectrum "$spec"
echo '{"k": 1, "functions": ["x + 1."], "vacuum": ["0"], "n_max": 3, "arithmetic": "float64"}' > "$spec"
expect_input_error "error: functions[0]: expected digits after decimal point at offset 6" spectrum "$spec"
# an exponent is a bare unsigned integer: no decimal point
echo '{"k": 1, "functions": ["x^2.0"], "vacuum": ["0"], "n_max": 3, "arithmetic": "float64"}' > "$spec"
expect_input_error "error: functions[0]: unexpected '2.0' at offset 2" spectrum "$spec"
# Miles' sum under a recursion limit below k and n: nothing recurses, so it matches iteration
out=$(python -c 'import sys; from kbonacci.cli import main; sys.setrecursionlimit(80); sys.exit(main(["sequence", "--coeffs", ",".join(["1"] * 100), "-n", "100", "--method", "miles", "--check"]))')
test "$(tail -n 1 <<< "$out")" = "max discrepancy vs direct: 0"
# every python block of README.md runs as written
python - <<'PY'
import re
from pathlib import Path
blocks = re.findall(r"^```python\n(.*?)^```$", Path("README.md").read_text(), re.M | re.S)
assert blocks, "README.md has no python block"
for block in blocks:
    exec(compile(block, "README.md", "exec"), {})
PY
