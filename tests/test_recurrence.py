"""Recurrence core: seeds, iteration, matrix powers, lattice-path counts.

Frozen values are checked first; the multinomial path count is additionally
pinned against three independent oracles (a composition DP, a brute-force
enumeration and the multinomial terms from factorials) before the identity
tying it to the recurrence is asserted.
"""

import operator
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from itertools import product
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import kbonacci
from kbonacci import _exact
from kbonacci import (
    CoefficientVector,
    CompanionMatrix,
    DomainError,
    OrderMismatchError,
    energy_from_miles,
    extend_seeds,
    iterate_sequence,
    matrix_power_sequence,
    matrix_sequence,
    miles_number,
)
from kbonacci.cli import main
from kbonacci.recurrence import SeedState


def fib_setup():
    c = CoefficientVector((F(1), F(1)))
    return c, extend_seeds(c, F(1), (F(0),))


def trib_setup():
    c = CoefficientVector((F(1), F(1), F(1)))
    return c, extend_seeds(c, F(1), (F(0), F(0)))


# Independent oracle: compositions of t into parts from {1..k}, counted by DP.
def composition_count(k: int, t: int) -> int:
    counts = [1] + [0] * t
    for m in range(1, t + 1):
        counts[m] = sum(counts[m - j] for j in range(1, min(k, m) + 1))
    return counts[t]


# Second oracle, exhaustive: enumerate the compositions themselves.
def compositions_brute(k: int, t: int):
    if t == 0:
        yield ()
        return
    for first in range(1, min(k, t) + 1):
        for rest in compositions_brute(k, t - first):
            yield (first,) + rest


# Third oracle, Miles' sum term by term: every (a_1, ..., a_k) with
# a_1 + 2 a_2 + ... + k a_k = t, each weighted by its full multinomial.
def multiplicities(k: int, t: int):
    if k == 1:
        yield (t,)
        return
    for a_k in range(t // k + 1):
        for rest in multiplicities(k - 1, t - k * a_k):
            yield rest + (a_k,)


def multinomial_sum(k: int, t: int) -> int:
    return sum(
        factorial(sum(a)) // prod(factorial(x) for x in a) for a in multiplicities(k, t)
    )


class TestSequences:
    def test_fibonacci_first_values(self):
        c, s = fib_setup()
        seq = iterate_sequence(c, s, 10)
        assert seq.values == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
        # integer input runs on ints internally but still returns Fractions
        assert all(type(v) is F for v in seq.values)

    def test_tribonacci_frozen(self):
        c, s = trib_setup()
        vals = iterate_sequence(c, s, 20).values
        assert vals[:8] == (1, 1, 2, 4, 7, 13, 24, 44)
        assert vals[18] == 35890
        assert vals[20] == 121415

    def test_k3_212_prefix(self):
        c = CoefficientVector((F(2), F(1), F(2)))
        s = extend_seeds(c, F(1), (F(0), F(0)))
        vals = iterate_sequence(c, s, 4).values
        assert vals == (1, 2, 5, 14, 37)
        # the recurrence itself, spelled out
        assert vals[4] == 2 * vals[3] + vals[2] + 2 * vals[1]

    def test_zero_seeds_stay_zero(self):
        c = CoefficientVector((F(3), F(-2), F(5)))
        s = extend_seeds(c, F(0), (F(0), F(0)))
        assert iterate_sequence(c, s, 12).values == (F(0),) * 13

    def test_rational_coefficients(self):
        c = CoefficientVector((F(1, 2), F(1, 3)))
        s = extend_seeds(c, F(1), (F(0),))
        vals = iterate_sequence(c, s, 3).values
        assert vals[1] == F(1, 2)
        assert vals[2] == F(1, 2) * F(1, 2) + F(1, 3)
        assert vals[3] == F(1, 2) * vals[2] + F(1, 3) * vals[1]


class TestSeeds:
    def test_fibonacci_window(self):
        _, s = fib_setup()
        assert s.alpha0 == 1
        assert s.extended == (0, 1)

    def test_division_by_lambda(self):
        c = CoefficientVector((F(2), F(1), F(2)))
        s = extend_seeds(c, F(1), (F(1), F(4)))
        # alpha_-1 = 1/lambda_2, alpha_-2 = 4/lambda_3, oldest first
        assert s.extended == (2, 1, 1)
        assert s.higher == (1, 4)

    def test_extended_window_feeds_recurrence(self):
        c = CoefficientVector((F(2), F(1), F(2)))
        s = extend_seeds(c, F(1), (F(1), F(4)))
        vals = iterate_sequence(c, s, 2).values
        # alpha_1 = f1(alpha_0) + alpha_0^(2) + alpha_0^(3)
        assert vals[1] == 2 * 1 + 1 + 4
        # alpha_2 = 2 a_1 + 1 a_0 + 2 a_-1
        assert vals[2] == 2 * vals[1] + vals[0] + 2 * F(1)

    def test_higher_length_must_match(self):
        c = CoefficientVector((F(1), F(1)))
        with pytest.raises(OrderMismatchError):
            extend_seeds(c, F(1), (F(0), F(0)))

    def test_window_length_must_match(self):
        c, _ = fib_setup()
        with pytest.raises(OrderMismatchError):
            iterate_sequence(c, SeedState(F(1)), 3)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            CoefficientVector((F(1), F(0)))

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            CoefficientVector((1.0, 1.0))

    @pytest.mark.parametrize("text", ["1e10000", "1E-10000", "2.5e+10000 ", "1e0010000"])
    def test_literal_exponent_at_the_bound(self, text):
        assert CoefficientVector((text,)).values == (F(text),)

    @pytest.mark.parametrize("text", ["1e10001", "1E-10001", "2.5e+1_0001 ", "1e1000000000000"])
    def test_literal_exponent_past_the_bound_refused(self, text):
        # Fraction would build 10^|e| first: 10^12 digits for 1e1000000000000
        with pytest.raises(ValueError, match=r"exponent outside \[-10000, 10000\]"):
            CoefficientVector((text,))


class TestMatrixForm:
    def test_companion_shape(self):
        c = CoefficientVector((F(2), F(3)))
        rows = CompanionMatrix.from_coefficients(c).rows
        assert rows == ((0, 1), (3, 2))

    def test_fibonacci_power(self):
        c, s = fib_setup()
        for n, window in [(0, (0, 1)), (1, (1, 1)), (5, (5, 8))]:
            result = matrix_power_sequence(c, s, n)
            assert result == window
            assert all(type(v) is F for v in result)

    def test_k3_power(self):
        c = CoefficientVector((F(2), F(1), F(2)))
        s = extend_seeds(c, F(1), (F(0), F(0)))
        assert matrix_power_sequence(c, s, 3)[-1] == 14

    def test_large_power_matches_iterate(self):
        c, s = fib_setup()
        direct = iterate_sequence(c, s, 200).values
        assert matrix_power_sequence(c, s, 200)[-1] == direct[200]

    def test_window_matches_iterate(self):
        c = CoefficientVector((F(1), F(2), F(1)))
        s = extend_seeds(c, F(2), (F(1), F(3)))
        direct = iterate_sequence(c, s, 9).values
        window = matrix_power_sequence(c, s, 9)
        # state vector carries (alpha_{n-k+1}, ..., alpha_n)
        assert window == direct[7:10]


class TestMiles:
    def test_frozen_values(self):
        assert miles_number(2, 5) == 5
        assert miles_number(3, 5) == 4
        assert miles_number(2, 1) == 1

    def test_composition_dp_oracle(self):
        for k in range(2, 7):
            for m in range(k - 1, k + 13):
                assert miles_number(k, m) == composition_count(k, m - k + 1), (k, m)

    def test_brute_force_oracle(self):
        for k in (2, 3, 4):
            for t in range(0, 9):
                expected = sum(1 for _ in compositions_brute(k, t))
                assert miles_number(k, t + k - 1) == expected, (k, t)

    def test_multinomial_oracle(self):
        # Miles' sum term by term, each term from factorials: checks the
        # weight-2 walk at k = 2 and the closed form at k = 3..10
        for k in range(2, 11):
            for t in range(25):
                assert miles_number(k, t + k - 1) == multinomial_sum(k, t), (k, t)

    @pytest.mark.parametrize(
        "k,m",
        [(2, 600), (3, 200), (4, 122), (5, 102), (6, 100), (7, 100), (7, 400), (300, 599), (600, 1199)],
    )
    def test_composition_dp_oracle_large(self, k, m):
        # the benchmark's sizes and past them: weight-2 walks of up to 300
        # ratio steps, a closed form of 50 terms, and k = t, where only its
        # j = 0 term is left
        assert miles_number(k, m) == composition_count(k, m - k + 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cli_column_equals_per_call(self, k, capsys):
        # the command line's Decimal column, row by row, against the library
        coeffs = ",".join(["1"] * k)
        assert main(["sequence", "--coeffs", coeffs, "-n", "60", "--method", "miles", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.split()[1:]
        assert rows == [f"{n},{miles_number(k, n + k - 1)}" for n in range(61)]

    def test_order_past_the_recursion_limit(self, capsys):
        # an order far above the default recursion limit, and n < k, where
        # the closed form is the single power 2^(n-1)
        k = 1100
        c = CoefficientVector((F(1),) * k)
        s = extend_seeds(c, F(1), (F(0),) * (k - 1))
        assert miles_number(k, k + 2) == iterate_sequence(c, s, 3).values[3]
        coeffs = ",".join(["1"] * k)
        assert main(["sequence", "--coeffs", coeffs, "-n", "3", "--method", "miles", "--check"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "max discrepancy vs direct: 0"

    def test_exact_under_a_lowered_recursion_limit(self):
        # nothing recurses, so a limit below k and t changes no value; in a
        # subprocess, where the limit cannot reach other tests
        code = textwrap.dedent("""\
            import sys
            from fractions import Fraction
            from kbonacci import CoefficientVector, extend_seeds, iterate_sequence
            from kbonacci.cli import main
            from kbonacci.recurrence import miles_number
            sys.setrecursionlimit(60)
            c = CoefficientVector((Fraction(1),) * 100)
            s = extend_seeds(c, Fraction(1), (Fraction(0),) * 99)
            print(miles_number(100, 199) == iterate_sequence(c, s, 100).values[100])
            rc = main(["sequence", "--coeffs", ",".join(["1"] * 100), "-n", "100", "--method", "miles", "--check"])
            print(rc)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kbonacci.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "True"
        assert lines[-2:] == ["max discrepancy vs direct: 0", "0"]

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=2, max_value=40), t=st.integers(min_value=0, max_value=300))
    def test_equals_unit_iteration(self, k, t):
        # both branches and Horner sums of 1 to 76 terms, against the
        # recurrence from the unit vacuum
        c = CoefficientVector((F(1),) * k)
        s = extend_seeds(c, F(1), (F(0),) * (k - 1))
        assert miles_number(k, t + k - 1) == iterate_sequence(c, s, t).values[t]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            miles_number(1, 3)
        with pytest.raises(DomainError):
            miles_number(3, 1)

    def test_energy_identity(self):
        # unit coefficients, unit vacuum: path count equals the sequence
        for k in range(2, 7):
            c = CoefficientVector((F(1),) * k)
            s = extend_seeds(c, F(1), (F(0),) * (k - 1))
            vals = iterate_sequence(c, s, 30).values
            for n in range(31):
                assert energy_from_miles(k, n) == vals[n], (k, n)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
nonzero = rationals.filter(lambda q: q != 0)


integral = st.integers(min_value=-3, max_value=3).filter(lambda q: q != 0).map(F)


@st.composite
def problem(draw, max_k=6, seed_pool=rationals, min_k=2, coeff_pool=nonzero):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    coeffs = CoefficientVector(tuple(draw(st.lists(coeff_pool, min_size=k, max_size=k))))
    alpha0 = draw(seed_pool)
    higher = tuple(draw(st.lists(seed_pool, min_size=k - 1, max_size=k - 1)))
    return coeffs, extend_seeds(coeffs, alpha0, higher)


class TestProperties:
    # Integral coefficient vectors take the integer path (rational seeds
    # scaled to ints). Rational ones iterate in the kernel that tracks
    # denominators over a coprime base (_exact.rational_recurrence) and take
    # companion powers on ints scaled by x = y/q
    # (_exact.rational_companion_power), while matrix_sequence stays on
    # Fractions; both pools hold negative entries.
    @settings(deadline=None)
    @given(
        st.one_of(
            problem(max_k=8, min_k=1, coeff_pool=integral),
            problem(max_k=8, min_k=1),
        ),
        st.integers(min_value=0, max_value=400),
    )
    def test_matrix_equals_iterate(self, setup, n):
        coeffs, seeds = setup
        direct = iterate_sequence(coeffs, seeds, n).values
        last_window = (seeds.extended[:-1] + direct)[-coeffs.k:]
        window = matrix_power_sequence(coeffs, seeds, n)
        assert window == last_window
        assert all(type(v) is F for v in window)
        assert matrix_sequence(coeffs, seeds, n).values == direct

    @pytest.mark.parametrize(
        "lams,seeds,n",
        [
            ((3,), (2,), 10_000),
            ((1, 1), (1, 0), 10_007),
            ((2, -1, 3), ("1/2", 1, "-2/3"), 10_000),
            ((1, 1, 1, 1, 1), (2, 1, 0, 1, 1), 12_345),
        ],
    )
    def test_large_integral_powers_match_iterate(self, lams, seeds, n):
        coeffs = CoefficientVector(tuple(F(v) for v in lams))
        state = extend_seeds(coeffs, F(seeds[0]), tuple(F(v) for v in seeds[1:]))
        direct = iterate_sequence(coeffs, state, n).values
        window = matrix_power_sequence(coeffs, state, n)
        assert window == direct[-coeffs.k:]
        assert all(type(v) is F for v in window)

    @given(problem(max_k=4), st.fractions(min_value=-2, max_value=2, max_denominator=4))
    def test_linearity(self, setup, scale):
        coeffs, seeds = setup
        scaled = extend_seeds(
            coeffs, seeds.alpha0 * scale, tuple(h * scale for h in seeds.higher)
        )
        base = iterate_sequence(coeffs, seeds, 12).values
        other = iterate_sequence(coeffs, scaled, 12).values
        assert other == tuple(v * scale for v in base)

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
                    min_size=k,
                    max_size=k,
                ),
                st.fractions(min_value=0, max_value=3, max_denominator=4),
                st.lists(
                    st.fractions(min_value=0, max_value=3, max_denominator=4),
                    min_size=k - 1,
                    max_size=k - 1,
                ),
            )
        )
    )
    def test_nonnegative_growth(self, drawn):
        lams, alpha0, higher = drawn
        lams[0] = max(lams[0], F(1))  # lambda_1 >= 1 forces nondecreasing
        coeffs = CoefficientVector(tuple(lams))
        seeds = extend_seeds(coeffs, alpha0, tuple(higher))
        vals = iterate_sequence(coeffs, seeds, 15).values
        for a, b in zip(vals, vals[1:]):
            assert b >= a


def fraction_oracle(coeffs, seeds, n):
    """alpha_0..alpha_n by a plain Fraction loop, independent of the library."""
    window = list(seeds.extended)
    values = [window[-1]]
    for _ in range(n):
        nxt = sum((lam * x for lam, x in zip(coeffs.values, reversed(window))), F(0))
        values.append(nxt)
        window = window[1:] + [nxt]
    return tuple(values)


def assert_reduced_and_equal(values, expected):
    assert values == expected
    for v in values:
        assert type(v) is F
        assert v.denominator > 0
        assert gcd(v.numerator, v.denominator) == 1
        assert hash(v) == hash(F(v.numerator, v.denominator))


# Numerators and denominators share the primes 2, 3, 5 and 7, so that one
# entry's numerator can cancel another's denominator (3/2 against 2/3), and
# composite denominators (4, 6, 9, 10, 14, 35) can make a coprime base that
# a step refines; 65537 and 1000003 are primes above 2^16, and 65537^2 and
# (2^61 - 1)(2^31 - 1) have no factor below 2^16.
BIG = ((1 << 61) - 1) * ((1 << 31) - 1)
kernel_rationals = st.builds(
    F,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, 2, 3, 4, 6, 9, 10, 14, 35, 65537, 1000003, 65537**2, BIG]),
)


@st.composite
def rational_problem(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    lams = draw(
        st.lists(kernel_rationals.filter(lambda q: q != 0), min_size=k, max_size=k).filter(
            lambda ls: any(q.denominator != 1 for q in ls)
        )
    )
    coeffs = CoefficientVector(tuple(lams))
    seeds = draw(st.lists(kernel_rationals, min_size=k, max_size=k))
    return coeffs, extend_seeds(coeffs, seeds[0], tuple(seeds[1:]))


def problem_of(lams, seeds):
    coeffs = CoefficientVector(tuple(F(v) for v in lams))
    return coeffs, extend_seeds(coeffs, F(seeds[0]), tuple(F(v) for v in seeds[1:]))


class TestIntegerKernel:
    """Integral coefficients: a +1 adds, a -1 subtracts, others multiply."""

    @pytest.mark.parametrize(
        "lams,seeds",
        [
            ((1,), ("2/3",)),
            ((-1,), (5,)),
            ((-1, -1), (1, "1/2")),
            ((1, -1, 2, 1), (1, 0, "-1/3", 2)),
            ((2, 1, 2), (1, 1, 1)),  # one +1 between scaled terms
            ((1, 1, 1, 1, 1), (1, 0, 0, 0, 0)),
        ],
    )
    def test_equals_fraction_oracle(self, lams, seeds):
        coeffs, state = problem_of(lams, seeds)
        n = 3000
        assert_reduced_and_equal(
            iterate_sequence(coeffs, state, n).values, fraction_oracle(coeffs, state, n)
        )


class TestRationalKernel:
    """Non-integral coefficients: integers with denominator exponents over
    a coprime base of the input denominators, refined when a step finds a
    proper factor of an element, each value built reduced."""

    @settings(deadline=None)
    @given(rational_problem(), st.integers(min_value=0, max_value=120))
    def test_equals_fraction_oracle(self, problem, n):
        coeffs, seeds = problem
        assert_reduced_and_equal(
            iterate_sequence(coeffs, seeds, n).values, fraction_oracle(coeffs, seeds, n)
        )

    @pytest.mark.parametrize(
        "lams,seeds,n",
        [
            (("1/2", "1/3", "1/6"), (1, 1, "1/3"), 4000),
            (("7/10", "-3/14", "1/35"), (1, "1/3", 2), 600),
            (("-1/2", "1/1000003"), (1, "1/3"), 300),
            (("3/2", "-1/2"), ("2/3", 1), 500),  # a value's 3 cancels lambda_1's
            # The residue path. From the window (1, 3), alpha_1 = (1 + 3)/4:
            # 2^2 divides the sum, and a later step divides by 2 only once
            # where D holds 2^2 or more.
            (("1/4", "1/4"), (3, "1/4"), 200),
            # From (1/2, 1, 0): every live term is a multiple of 3, which no
            # denominator holds, so E_3 clips to 0 and X takes the 3.
            (("1/3", "3/2", "3/4"), (0, "3/2", "3/8"), 200),
            # From (2, 1): alpha_1 = 0, and nonzero values follow.
            (("1/2", "-1/4"), (1, "-1/2"), 200),
            # 65537 in both: from (1/65537, 65537/3).
            (("65537/2", "1/65537"), ("65537/3", F(1, 65537**2)), 200),
        ],
    )
    def test_explicit_cases(self, lams, seeds, n):
        coeffs, state = problem_of(lams, seeds)
        assert_reduced_and_equal(
            iterate_sequence(coeffs, state, n).values, fraction_oracle(coeffs, state, n)
        )

    def test_zero_then_nonzero(self):
        # the window (2, 1): alpha_1 = 1/2 - 1/2 = 0, alpha_2 = -1/4
        coeffs, state = problem_of(("1/2", "-1/4"), (1, "-1/2"))
        assert state.extended == (2, 1)
        assert_reduced_and_equal(iterate_sequence(coeffs, state, 2).values, (F(1), F(0), F(-1, 4)))

    @pytest.mark.parametrize("lam,seed", [("1/2", 1), ("3/2", "1/3")])
    def test_order_one(self, lam, seed):
        # alpha_m = lam^m alpha_0. From 1/3, 3/2 makes every term from
        # alpha_2 on a multiple of 3, which the step must keep out of D.
        coeffs, state = problem_of((lam,), (seed,))
        values = iterate_sequence(coeffs, state, 300).values
        assert_reduced_and_equal(values, tuple(F(lam) ** m * F(seed) for m in range(301)))

    def test_all_zero_window(self):
        coeffs, state = problem_of(("1/2", "-1/3", "5/6"), (0, 0, 0))
        assert_reduced_and_equal(iterate_sequence(coeffs, state, 20).values, (F(0),) * 21)

    @pytest.mark.parametrize(
        "lams,seeds",
        [
            # no factor below 2^16: each stays one unfactored base element
            (("1/2", F(1, 65537**2)), (1, "1/3")),
            (("1/2", F(1, BIG)), (1, "1/3")),
            # base {4, 9}, window (3, 1): lambda_1's numerator 3 leaves a
            # value with a 3 that 9 does not divide, so the base is refined
            # to {3, 4}, and a later 2 that 4 does not divide refines it to
            # {2, 3}
            (("3/4", "1/36"), (1, "1/12")),
        ],
    )
    def test_kernel_equals_fraction_oracle(self, lams, seeds):
        coeffs, state = problem_of(lams, seeds)
        values = _exact.rational_recurrence(coeffs.values, state.extended, 60)
        assert type(values) is tuple
        assert_reduced_and_equal(values, fraction_oracle(coeffs, state, 60))

    @pytest.mark.parametrize(
        "numbers,base",
        [
            ([], []),
            ([1, 1], []),
            ([12, 18], [2, 3]),
            ([6, 36, 1], [6]),
            ([4, 2], [2]),
            ([16, 4], [4]),
            ([10, 14, 35], [2, 5, 7]),
            ([BIG, 2], [2, BIG]),
        ],
    )
    def test_coprime_base(self, numbers, base):
        assert sorted(_exact.coprime_base(numbers)) == base

    @given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=8))
    def test_coprime_base_properties(self, numbers):
        base = _exact.coprime_base(numbers)
        assert all(b > 1 for b in base)
        assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
        for x in numbers:  # a product of powers of the base
            for b in base:
                x = _exact._strip(x, b)[0]
            assert x == 1


class TestRationalCompanion:
    """Companion powers run on the ints mu_i = lambda_i q^i; each result
    has denominator q^(n+i) d before the provable excess is divided out
    and the rest reduced by one gcd."""

    @settings(deadline=None)
    @given(rational_problem(), st.integers(min_value=0, max_value=150))
    def test_equals_fraction_oracle(self, problem, n):
        coeffs, seeds = problem
        expected = (seeds.extended[:-1] + fraction_oracle(coeffs, seeds, n))[-coeffs.k :]
        assert_reduced_and_equal(matrix_power_sequence(coeffs, seeds, n), expected)

    @pytest.mark.parametrize(
        "lams,seeds,n",
        [
            (("1/2", "1/3", "1/6"), (1, 1, "1/3"), 4000),
            (("7/10", "-3/14", "1/35"), (1, "1/3", 2), 600),
            (("-1/2", "1/1000003"), (1, "1/3"), 300),
            (("3/2",), ("1/3",), 300),  # k = 1
            (("1/2", "1/3", "1/6"), (1, 1, "1/3"), 0),
            (("1/2", "-1/3", "5/6"), (0, 0, 0), 50),
            # (2^61 - 1)(2^31 - 1), which has no factor below 2^16
            (("1/2", F(1, BIG)), (1, "1/3"), 40),
            # q^t holds 65537^t, alpha_t needs 65537^(t/2): the excess is
            # divided out before the gcd
            (("-1/2", "1/65537"), (1, "1/3"), 1001),
            # the base element 4 = 2^2, window (1/4, 1): alpha_t needs 2^t,
            # which is 4^(t/2), so odd t must round the exponent of 4 up
            (("1", "1/4"), (1, "1/16"), 51),
            # the composite base element 6, window (1/36, 1/6)
            (("1", "1/6"), ("1/6", "1/216"), 60),
            # the unproven denominator again, in lambda_2 only: its excess
            # is divided out without factoring it
            (("1", F(1, BIG)), (1, "1/3"), 30),
        ],
    )
    def test_equals_iterate_and_oracle(self, lams, seeds, n):
        coeffs, state = problem_of(lams, seeds)
        window = matrix_power_sequence(coeffs, state, n)
        assert type(window) is tuple
        head = state.extended[:-1]
        assert_reduced_and_equal(window, (head + iterate_sequence(coeffs, state, n).values)[-coeffs.k :])
        assert_reduced_and_equal(window, (head + fraction_oracle(coeffs, state, n))[-coeffs.k :])


@st.composite
def coprime_pairs(draw):
    """(p, q) in lowest terms with q > 0, up to 10^4 bits."""
    bits = draw(st.sampled_from([8, 64, 1000, 10_000]))
    p = draw(st.integers(min_value=-(1 << bits), max_value=1 << bits))
    q = draw(st.integers(min_value=1, max_value=1 << bits))
    g = gcd(p, q)
    return p // g, q // g


class TestReduced:
    """_exact._written writes reduced pairs into Fraction's slots directly;
    each result must be indistinguishable from Fraction(p, q)."""

    @settings(deadline=None)
    @given(coprime_pairs(), coprime_pairs())
    def test_same_as_fraction(self, pair, other):
        written = _exact._written([pair[0], other[0]], [pair[1], other[1]], 2)
        assert type(written) is tuple and written[1] == F(*other)
        value, expected = written[0], F(*pair)
        assert type(value) is F
        assert value == expected
        assert (value.numerator, value.denominator) == pair
        assert hash(value) == hash(expected)
        assert str(value) == str(expected) and repr(value) == repr(expected)
        b = F(*other)
        for op in (operator.add, operator.sub, operator.mul):
            assert op(value, b) == op(expected, b)
            assert op(b, value) == op(b, expected)
        if b:
            assert value / b == expected / b
        assert value ** 3 == expected ** 3
        assert (value < b) == (expected < b)
        if abs(value) < 1 << 1000:
            assert float(value) == float(expected)

    @pytest.mark.parametrize("d", [1, 6])
    def test_fractions_returns_fraction_tuple(self, d):
        # the two kinds of column: all ints with any d, all Fractions with d = 1
        for column, divisor in (([0, -4, 12, -(1 << 90)], d), ([F(0), F(-4), F(3, 7)], 1)):
            values = _exact.fractions(column, divisor)
            assert type(values) is tuple
            assert all(type(v) is F for v in values)
            assert values == tuple(F(v) / divisor for v in column)
            assert [hash(v) for v in values] == [hash(F(v) / divisor) for v in column]
        fractions = [F(1, 3), F(-2, 7)]
        assert all(a is b for a, b in zip(_exact.fractions(fractions), fractions))
        assert _exact.fractions([], d) == ()

    @settings(deadline=None)
    @given(
        st.lists(st.integers(min_value=-(1 << 200), max_value=1 << 200), max_size=12),
        st.sampled_from([1, 2, 6, 35, 1 << 70]),
    )
    def test_fractions_of_ints(self, values, d):
        # All-int columns are reduced by gcd and written into slots in bulk.
        got = _exact.fractions(values, d)
        want = tuple(F(x, d) for x in values)
        assert type(got) is tuple and all(type(v) is F for v in got)
        assert [(v.numerator, v.denominator) for v in got] == [(v.numerator, v.denominator) for v in want]
        assert got == want and list(map(hash, got)) == list(map(hash, want))
