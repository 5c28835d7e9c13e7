"""Characteristic polynomials, root finding, closed forms, stochastic rows.

Independent oracles used here: sympy's charpoly for determinant polynomials,
bisection for the k=3 unit-coefficient dominant root, sympy's roots and
discriminant and mpmath-refined roots for find_roots, and exact iteration for
every closed-form comparison.
"""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from kbonacci import spectral
from kbonacci import (
    CoefficientVector,
    CompanionMatrix,
    ComputationError,
    DominantModeAbsentError,
    FloatRangeError,
    ImaginaryResidueError,
    MixedStateMatrix,
    NearRepeatedRootsError,
    NonConvergenceError,
    RepeatedRootsError,
    RootSet,
    binet_eval,
    binet_form,
    char_poly,
    extend_seeds,
    find_roots,
    iterate_sequence,
    matrix_char_poly,
    ratio_limit_check,
    stochastic_analysis,
)

PHI = 1.6180339887498949


def coeffs_of(*vals) -> CoefficientVector:
    return CoefficientVector(tuple(F(v) for v in vals))


def vacuum_seeds(coeffs):
    return extend_seeds(coeffs, F(1), (F(0),) * (coeffs.k - 1))


def sympy_char_poly(rows):
    mat = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )
    x = sympy.Symbol("x")
    return tuple(F(int(c.p), int(c.q)) for c in mat.charpoly(x).all_coeffs())


class TestCharPoly:
    def test_fibonacci(self):
        assert char_poly(coeffs_of(1, 1)) == (1, -1, -1)

    def test_k3(self):
        assert char_poly(coeffs_of(2, 1, 2)) == (1, -2, -1, -2)

    def test_companion_matches_sympy(self):
        for vals in [(1, 1), (2, 1, 2), (1, 1, 1, 1), (F(1, 2), F(1, 3), F(1, 6))]:
            c = coeffs_of(*vals)
            rows = CompanionMatrix.from_coefficients(c).rows
            assert matrix_char_poly(rows) == sympy_char_poly(rows) == char_poly(c)

    def test_mixed_state_matrix_same_polynomial(self):
        # the letter-count matrix shares the companion's spectrum
        for vals in [(1, 1), (2, 1, 2), (3, 2, 4), (1, 2, 2, 4)]:
            c = coeffs_of(*vals)
            mixed = MixedStateMatrix.from_coefficients(c).rows
            assert matrix_char_poly(mixed) == char_poly(c)
            assert sympy_char_poly(mixed) == char_poly(c)

    def test_random_matrices_match_sympy(self):
        # mixed denominators make the lcm scaling in Faddeev-LeVerrier nontrivial
        rng = random.Random(20250819)
        for k in range(1, 9):
            for _ in range(4):
                rows = tuple(
                    tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(k))
                    for _ in range(k)
                )
                assert matrix_char_poly(rows) == sympy_char_poly(rows)

    def test_empty_matrix(self):
        # det(xI - M) of the 0 x 0 matrix is the empty determinant, 1
        assert matrix_char_poly(()) == (1,)

    def test_float_entry_rejected(self):
        # 0.1 is not exactly 1/10; a float entry must not be read as its binary value
        with pytest.raises(TypeError):
            matrix_char_poly([[0.1]])


def bisect_root(poly_vals, lo, hi, steps=200):
    for _ in range(steps):
        mid = (lo + hi) / 2
        if poly_vals(lo) * poly_vals(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestRoots:
    def test_golden_ratio(self):
        roots = find_roots(char_poly(coeffs_of(1, 1)))
        assert roots.dominant == 0
        dom = roots.roots[0]
        assert abs(dom.real - PHI) < 1e-13
        assert abs(dom.imag) < 1e-13
        assert abs(roots.roots[1].real + 1 / PHI) < 1e-13

    def test_tribonacci_constant_vs_bisection(self):
        oracle = bisect_root(lambda x: x**3 - x**2 - x - 1, 1.8, 1.9)
        roots = find_roots(char_poly(coeffs_of(1, 1, 1)))
        assert abs(roots.roots[roots.dominant].real - oracle) < 1e-12

    @pytest.mark.parametrize("vals", [(1, 1), (1, 1, 1), (2, 1, 2), (3, -1, 2, 1)])
    def test_reconstruction(self, vals):
        c = coeffs_of(*vals)
        poly = char_poly(c)
        roots = find_roots(poly).roots
        rebuilt = [complex(1)]
        for r in roots:
            nxt = [complex(0)] * (len(rebuilt) + 1)
            for i, a in enumerate(rebuilt):
                nxt[i] += a
                nxt[i + 1] -= a * r
            rebuilt = nxt
        for got, want in zip(rebuilt, poly):
            assert abs(got - complex(float(want))) < 1e-10

    @pytest.mark.parametrize("vals", [(1, 1), (2, 1, 2), (1, 1, 1, 1)])
    def test_root_symmetric_functions(self, vals):
        c = coeffs_of(*vals)
        roots = find_roots(char_poly(c)).roots
        k = c.k
        total = sum(roots)
        prod = 1
        for r in roots:
            prod *= r
        assert abs(total - float(c.values[0])) < 1e-10
        # constant term of x^k - ... - lambda_k gives the root product
        expected_prod = ((-1) ** k) * -float(c.values[-1])
        assert abs(prod - expected_prod) < 1e-10

    def test_ordering_is_modulus_then_real(self):
        roots = find_roots(char_poly(coeffs_of(1, 1, 1))).roots
        mods = [abs(r) for r in roots]
        assert mods == sorted(mods, reverse=True)

    def test_near_repeated_roots_detected(self):
        # x^2 - 2x + (1 - 1e-12) = (x - 1)^2 - 1e-12 is squarefree, so it
        # passes the exact gate; its roots 1 +- 1e-6 lie well under 1e3*tol
        # apart, so the float guard must fire
        c = coeffs_of(2, -(1 - F(1, 10**12)))
        with pytest.raises(NearRepeatedRootsError) as err:
            find_roots(char_poly(c), tol=1e-5)
        assert err.value.separation < err.value.threshold == 1e-2

    @pytest.mark.parametrize("vals", [(2, -1), (3, -3, 1)], ids=["double", "triple"])
    def test_repeated_roots_refused_before_iterating(self, vals, monkeypatch):
        # (x - 1)^2 and (x - 1)^3: decided exactly, no float iteration runs
        def no_iteration(*args):
            raise AssertionError("float iteration ran on a repeated root")

        monkeypatch.setattr(spectral, "_newton_terms", no_iteration)
        with pytest.raises(RepeatedRootsError, match="repeated root"):
            find_roots(char_poly(coeffs_of(*vals)))

    def test_widely_separated_roots_converge(self):
        # x^2 - 1e6 x - 1: roots 1e6 + 1e-6 and -1e-6; an absolute stop
        # can never be met by the large one (its ulp exceeds 1e-13)
        roots = find_roots(char_poly(coeffs_of(1000000, 1)))
        big, small = roots.roots
        assert abs(big - (500000 + 250000000001**0.5)) <= 1e-13 * 1e6
        assert abs(small + 1 / big.real) < 1e-19
        assert roots.iterations <= 10 and roots.last_correction <= 1e-13

    def test_large_roots_without_overflow(self):
        # x^80 - 1e4 (x^79 + ... + 1): |z|^80 near the dominant root 10001
        # overflows float64, so p and p' come from the reversed polynomial
        roots = find_roots(char_poly(coeffs_of(*[10000] * 80)))
        assert abs(roots.roots[0] - 10001) <= 1e-13 * 10001

    def test_zero_roots_split_off(self):
        # x^3 - x = x (x - 1)(x + 1); the zero root is exact
        assert find_roots((1, 0, -1, 0)).roots == (1, -1, 0)

    def test_coefficients_beyond_float_range(self):
        with pytest.raises(ComputationError, match="float64 range"):
            find_roots(char_poly(coeffs_of(10**400, 1)))

    def test_float_input_skips_exact_gate(self):
        # inexact coefficients cannot be decided exactly; the float guard
        # is their backstop
        with pytest.raises((NearRepeatedRootsError, NonConvergenceError)):
            find_roots((1.0, -2.0, 1.0), tol=1e-5)

    def test_nonconvergence_reports_iterations(self):
        with pytest.raises(NonConvergenceError) as err:
            find_roots(char_poly(coeffs_of(1, 1, 1)), max_iter=1)
        assert err.value.iterations == 1

    @pytest.mark.parametrize(
        "poly, expected",
        [
            # x^3 - 1: the real root first, then the conjugate pair, +i first
            ((1, 0, 0, -1), (1, complex(-0.5, 3**0.5 / 2), complex(-0.5, -(3**0.5) / 2))),
            # x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1), coefficients (1, -1, 1)
            ((1, -1, 1, -1), (1, 1j, -1j)),
            # x^4 - 1: descending real part, then imaginary part
            ((1, 0, 0, 0, -1), (1, 1j, -1j, -1)),
        ],
    )
    def test_equal_modulus_order_is_pinned(self, poly, expected):
        roots = find_roots(poly).roots
        assert len(roots) == len(expected)
        assert all(abs(r - e) < 1e-15 for r, e in zip(roots, expected))

    def test_order_ignores_last_bit_noise(self):
        # equal moduli and real parts that differ only in their last bits
        # must not decide the order; the imaginary part does
        a = complex(0.6, 0.8)
        b = complex(0.6 * (1 + 2**-52), -0.8)
        key = spectral._root_order(1e-13)
        assert sorted([b, a], key=key) == sorted([a, b], key=key) == [a, b]


def assert_roots_match(got, refs):
    """A one-to-one match of got against refs, each root within 1e-13
    relative (to max(1, |ref|)), find_roots' default tolerance."""
    nearest = {min(range(len(got)), key=lambda i: abs(got[i] - z)) for z in refs}
    assert len(nearest) == len(refs) == len(got)
    for z in refs:
        assert min(abs(g - z) for g in got) <= 1e-13 * max(1.0, abs(z))


def _integer_polys():
    """Monic integer polynomials of degree <= 8: random coefficients, or
    products of small integer linear factors (repeats likely) times a
    random factor."""
    nonzero = st.integers(min_value=-6, max_value=6).filter(bool)
    random_poly = st.lists(nonzero, min_size=1, max_size=8).map(lambda c: [1, *c])

    def product(parts):
        roots, rest = parts
        poly = [1, *rest]
        for r in roots:
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
        return poly

    factored = st.tuples(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
        st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    ).map(product)
    return st.one_of(random_poly, factored)


@given(_integer_polys())
@example([1, 3, -8, -27, -9])  # collinear Newton-polygon vertices
def test_roots_match_sympy(poly):
    x = sympy.Symbol("x")
    p = sympy.Poly(poly, x)
    if sympy.discriminant(p) == 0:
        with pytest.raises(RepeatedRootsError):
            find_roots(poly)
        return
    assert_roots_match(find_roots(poly).roots, [complex(z) for z in p.nroots(n=30)])


def test_all_ones_roots_match_mpmath():
    # references: numpy's companion eigenvalues refined by Newton's method
    # in 40-digit mpmath arithmetic, independent of find_roots
    for k in [*range(2, 21), 24, 32, 40, 48, 64, 80]:
        coeffs = [1] + [-1] * k
        refs = []
        with mpmath.workdps(40):
            for z0 in np.roots(coeffs):
                z = mpmath.mpc(complex(z0))
                for _ in range(4):
                    p, dp = mpmath.polyval(coeffs, z, derivative=True)
                    z -= p / dp
                assert abs(p / dp) < 1e-25
                refs.append(complex(z))
        assert_roots_match(find_roots(char_poly(coeffs_of(*[1] * k))).roots, refs)


class TestBinet:
    def test_fibonacci_mode_coefficient(self):
        c = coeffs_of(1, 1)
        roots = find_roots(char_poly(c))
        form = binet_form(c, vacuum_seeds(c), roots)
        # alpha_n = (phi^(n+1) - psi^(n+1))/sqrt(5): dominant weight phi/sqrt(5)
        assert abs(form[0] - PHI / 5**0.5) < 1e-12

    def test_fibonacci_value(self):
        c = coeffs_of(1, 1)
        roots = find_roots(char_poly(c))
        form = binet_form(c, vacuum_seeds(c), roots)
        assert abs(binet_eval(form, roots, 10) - 89.0) < 1e-9

    def test_tribonacci_value(self):
        c = coeffs_of(1, 1, 1)
        roots = find_roots(char_poly(c))
        form = binet_form(c, vacuum_seeds(c), roots)
        assert abs(binet_eval(form, roots, 20) - 121415.0) < 1e-6 * 121415

    def test_repeated_roots_rejected(self):
        c = coeffs_of(2, -1)
        seeds = vacuum_seeds(c)
        fake = RootSet(roots=(1.0 + 0j, 1.0 + 1e-14j), dominant=0, condition=1e-14)
        with pytest.raises(RepeatedRootsError):
            binet_form(c, seeds, fake)

    def test_imaginary_residue_guard(self):
        roots = RootSet(roots=(1j,), dominant=0, condition=1.0)
        form = (1.0 + 0j,)
        with pytest.raises(ImaginaryResidueError):
            binet_eval(form, roots, 1)

    def test_overflow_names_n(self):
        c = coeffs_of(1, 1)
        roots = find_roots(char_poly(c))
        form = binet_form(c, vacuum_seeds(c), roots)
        assert binet_eval(form, roots, 1474) > 1e307
        with pytest.raises(FloatRangeError) as info:
            binet_eval(form, roots, 1475)  # phi^1475 overflows the power itself
        assert isinstance(info.value, ComputationError)
        assert info.value.n == 1475 and "n=1475" in str(info.value)

    def test_non_finite_sum_names_n(self):
        # Every power is finite; the product with the mode coefficient is not.
        roots = RootSet(roots=(1e10 + 0j,), dominant=0, condition=1.0)
        form = (1e300 + 0j,)
        assert binet_eval(form, roots, 0) == 1e300
        with pytest.raises(FloatRangeError, match="n=30"):
            binet_eval(form, roots, 30)

    def test_zero_root_negative_power_names_n(self):
        # A root that is 0.0 in float64 has no negative power.
        roots = RootSet(roots=(1.0 + 0j, 0j), dominant=0, condition=1.0)
        assert binet_eval((1.0 + 0j, 1.0 + 0j), roots, 0) == 2.0
        with pytest.raises(FloatRangeError, match="n=-1"):
            binet_eval((1.0 + 0j, 1.0 + 0j), roots, -1)

    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.integers(min_value=1, max_value=4), min_size=k, max_size=k
                ),
                st.lists(
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=k,
                    max_size=k,
                ),
            )
        ),
        st.integers(min_value=0, max_value=25),
    )
    def test_matches_exact_iteration(self, drawn, n):
        lams, seed_vals = drawn
        c = coeffs_of(*lams)
        seeds = extend_seeds(c, seed_vals[0], tuple(seed_vals[1:]))
        try:
            roots = find_roots(char_poly(c))
            form = binet_form(c, seeds, roots)
            got = binet_eval(form, roots, n)
        except (NearRepeatedRootsError, RepeatedRootsError):
            assume(False)
            return
        exact = float(iterate_sequence(c, seeds, n).values[n])
        assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact))


class TestRatioLimit:
    def test_fibonacci(self):
        c = coeffs_of(1, 1)
        rep = ratio_limit_check(c, vacuum_seeds(c), 40)
        assert rep.convergence_expected
        assert rep.passed is True
        assert rep.deviation <= 1e-10
        assert abs(rep.dominant - PHI) < 1e-13

    def test_tribonacci(self):
        c = coeffs_of(1, 1, 1)
        rep = ratio_limit_check(c, vacuum_seeds(c), 60)
        assert rep.passed is True
        assert rep.deviation <= 1e-10

    def test_geometric_single_step(self):
        c = coeffs_of(3)
        seeds = extend_seeds(c, F(2), ())
        rep = ratio_limit_check(c, seeds, 5)
        assert rep.ratio == 3.0
        assert rep.passed is True

    def test_not_converged_yet_is_inconclusive(self):
        c = coeffs_of(1, 1)
        rep = ratio_limit_check(c, vacuum_seeds(c), 3)
        assert rep.convergence_expected is False
        assert rep.passed is None

    def test_dominant_mode_absent(self):
        # seeds lie entirely along the subdominant mode: alpha_n = (-1)^n
        c = coeffs_of(1, 2)
        seeds = extend_seeds(c, F(1), (F(-2),))
        assert iterate_sequence(c, seeds, 6).values == (1, -1, 1, -1, 1, -1, 1)
        with pytest.raises(DominantModeAbsentError):
            ratio_limit_check(c, seeds, 30)

    @pytest.mark.parametrize(
        "lams,seed_vals,error",
        [
            ((1, 1), (10**400, 0), "seed value at n=0"),
            ((1, F(1, 10**320)), (1, 0), "power of root 2 at n=-1"),
        ],
    )
    def test_binet_system_beyond_float_range(self, lams, seed_vals, error):
        c = coeffs_of(*lams)
        seeds = extend_seeds(c, seed_vals[0], seed_vals[1:])
        with pytest.raises(FloatRangeError) as info:
            ratio_limit_check(c, seeds, 10)
        assert str(info.value) == f"{error} is beyond the float64 range"


class TestStochastic:
    def test_half_half(self):
        rep = stochastic_analysis(coeffs_of(F(1, 2), F(1, 2)))
        assert rep.is_stochastic
        assert rep.stationary == (F(1, 3), F(2, 3))
        assert rep.dominant_gap < 1e-12

    def test_dominant_root_exact_without_iteration(self, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("root iteration ran on a probability row")

        monkeypatch.setattr(spectral, "find_roots", no_roots)
        rep = stochastic_analysis(coeffs_of(F(1, 7), F(2, 7), F(4, 7)))
        assert rep.dominant_root == 1 and rep.dominant_gap == 0.0

    def test_not_stochastic(self):
        rep = stochastic_analysis(coeffs_of(1, 1))
        assert not rep.is_stochastic
        assert rep.nonnegative
        assert not rep.sums_to_one
        assert rep.stationary is None

    def test_negative_coefficient(self):
        rep = stochastic_analysis(coeffs_of(F(3, 2), F(-1, 2)))
        assert not rep.is_stochastic
        assert not rep.nonnegative
        assert rep.sums_to_one

    @given(
        st.integers(min_value=1, max_value=20).flatmap(
            lambda k: st.lists(
                st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
                min_size=k,
                max_size=k,
            )
        )
    )
    def test_normalized_rows_have_exact_stationary_state(self, weights):
        total = sum(weights)
        c = CoefficientVector(tuple(w / total for w in weights))
        rep = stochastic_analysis(c)
        assert rep.is_stochastic
        pi = rep.stationary
        assert sum(pi) == 1
        assert all(p >= 0 for p in pi)
        # exact fixed point of the transpose companion action
        rows = CompanionMatrix.from_coefficients(c).rows
        k = c.k
        for r in range(k):
            assert sum(rows[col][r] * pi[col] for col in range(k)) == pi[r]
        assert rep.dominant_gap is not None and rep.dominant_gap < 1e-12


def test_numpy_imported_only_by_spectral():
    # Only binet_form's linear solve needs numpy; no other module imports it.
    importers = set()
    for path in Path(spectral.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"spectral.py"}
