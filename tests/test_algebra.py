"""Fock spectra, physicality flags, truncated operators, relation residuals.

The spectrum oracle is written out longhand in TestSpectrumOracle: the three
coupled recursions iterated with plain Fractions, no library calls. Library
results must match it entry for entry before anything else is trusted.
Both it and fraction_spectrum keep the running N^2 sum of the third
recursion, independent of the library's telescoped
N_n^2 = alpha_{n+1} - alpha_0. float_spectrum is the float64 loop as it ran
level by level, and the column pass must match it bit for bit, errors
included. The relation oracle, dense_residuals, builds dense float64
matrices from a truncation's spectrum table, multiplies them, and must
agree with the band residuals of verify_relations; fraction_band_report
evaluates the exact band formulas on Fractions.
"""

import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import (
    AffineFunction,
    CoefficientVector,
    ComputationError,
    ExactModeUnavailableError,
    ExpressionFunction,
    GHASpec,
    NonUnitaryRepresentationError,
    SpectrumRow,
    TruncationTooSmallError,
    extend_seeds,
    iterate_sequence,
    linear_functions,
    spectrum,
    truncated_operators,
    verify_relations,
)
from kbonacci import algebra
from kbonacci.exprparse import float_evaluator, parse


def linear_spec(lams, vacuum, arithmetic="exact"):
    c = CoefficientVector(tuple(F(v) for v in lams))
    return GHASpec(
        functions=linear_functions(c),
        vacuum=tuple(F(v) for v in vacuum),
        arithmetic=arithmetic,
    )


EXACT_SPECS = [
    linear_spec((2,), (3,)),
    linear_spec((1, 1), (1, 0)),
    linear_spec((2, 1, 2), (1, 0, 0)),
    linear_spec((1, 2, 1, 3), (2, 1, 0, 1)),
    GHASpec(
        functions=(AffineFunction(F(1), F(1)), AffineFunction(F(2))),
        vacuum=(F(1), F(0)),
    ),
    GHASpec(
        functions=(AffineFunction(F(1, 2), F(3)), AffineFunction(F(1, 3))),
        vacuum=(F(2), F(1)),
    ),
]


def float_twin(spec):
    return GHASpec(functions=spec.functions, vacuum=spec.vacuum, arithmetic="float64")


def oracle_rows(fns, vacuum, n_max):
    """Reference iteration of the coupled recursions, k-step linear case.

    fns: list of (slope, offset) pairs for f_1..f_k. Ladder columns follow the
    negative-index seed convention alpha_{-m} = alpha_0^(m+1)/lambda_{m+1}.
    """
    k = len(fns)
    alphas1 = {0: F(vacuum[0])}
    for m in range(1, k):
        slope = fns[m][0]
        alphas1[-m] = F(vacuum[m]) / slope
    ladders = [list(vacuum)]
    bracket0 = (
        fns[0][0] * alphas1[0]
        + fns[0][1]
        - alphas1[0]
        + sum(F(vacuum[i]) for i in range(1, k))
    )
    nsqs = [bracket0]
    for n in range(n_max):
        row = [fns[0][0] * alphas1[n] + fns[0][1] + sum(ladders[n][1:])]
        alphas1[n + 1] = row[0]
        for i in range(2, k + 1):
            arg = alphas1[n - i + 2]
            row.append(fns[i - 1][0] * arg + fns[i - 1][1])
        ladders.append(row)
        bracket = row[0] * 0
        bracket += fns[0][0] * row[0] + fns[0][1] - row[0] + sum(row[1:])
        nsqs.append(nsqs[n] + bracket)
    return ladders, nsqs


class TestSpectrumOracle:
    @pytest.mark.parametrize(
        "lams,vacuum,n_max",
        [
            ((1, 1), (1, 0), 10),
            ((2, 1, 2), (1, 0, 0), 8),
            ((1, 1, 1, 1), (1, 0, 0, 0), 8),
            ((F(1, 2), F(1, 3)), (F(2), F(1, 5)), 8),
            ((3, 2), (0, 4), 6),
        ],
    )
    def test_matches_longhand_iteration(self, lams, vacuum, n_max):
        table = spectrum(linear_spec(lams, vacuum), n_max)
        fns = [(F(v), F(0)) for v in lams]
        ladders, nsqs = oracle_rows(fns, [F(v) for v in vacuum], n_max)
        for n, row in enumerate(table.rows):
            assert row.n == n
            assert list(row.alphas) == ladders[n], n
            assert row.nsq == nsqs[n], n

    def test_affine_offset_against_longhand(self):
        fns = (AffineFunction(F(1), F(1)), AffineFunction(F(2)))
        spec = GHASpec(functions=fns, vacuum=(F(1), F(0)))
        table = spectrum(spec, 6)
        ladders, nsqs = oracle_rows([(F(1), F(1)), (F(2), F(0))], [F(1), F(0)], 6)
        for n, row in enumerate(table.rows):
            assert list(row.alphas) == ladders[n]
            assert row.nsq == nsqs[n]


def fraction_spectrum(spec, n_max):
    """The exact spectrum recursion run on Fractions throughout.

    A copy of the library loop from before its integer path: rows as
    (alphas, nsq, norm) plus the first negative-energy, negative-N^2 and
    decrease levels. Norms are sqrt(float(nsq)), exact while nsq fits a float.
    """
    k = spec.k
    pairs = [fn.affine_form() for fn in spec.functions]
    fns = [lambda x, a=a, b=b: a * x + b for a, b in pairs]
    vacuum = list(spec.vacuum)
    energies = {}
    if all(b == 0 and a != 0 for a, b in pairs):
        for m in range(1, k):
            energies[-m] = F(vacuum[m]) / pairs[m][0]
    rows = []
    nsq = first_energy = first_nsq = first_decrease = None
    for n in range(n_max + 1):
        if n == 0:
            alphas = tuple(vacuum)
        else:
            prev = rows[-1][0]
            energy = fns[0](prev[0])
            for value in prev[1:]:
                energy = energy + value
            alphas = (energy, *(
                fns[i - 1](energies[n - i + 1]) if n - i + 1 in energies else vacuum[i - 1]
                for i in range(2, k + 1)
            ))
        bracket = fns[0](alphas[0]) - alphas[0]
        for value in alphas[1:]:
            bracket = bracket + value
        nsq = bracket if n == 0 else nsq + bracket
        energies[n] = alphas[0]
        if alphas[0] < 0 and first_energy is None:
            first_energy = n
        if n and alphas[0] < energies[n - 1] and first_decrease is None:
            first_decrease = n
        if nsq < 0 and first_nsq is None:
            first_nsq = n
        rows.append((alphas, nsq, None if nsq < 0 else math.sqrt(float(nsq))))
    return rows, (first_energy, first_nsq, first_decrease)


def assert_matches_fraction_oracle(spec, n_max):
    table = spectrum(spec, n_max)
    rows, levels = fraction_spectrum(spec, n_max)
    assert len(table.rows) == len(rows)
    for row, (alphas, nsq, norm) in zip(table.rows, rows):
        assert row.alphas == alphas and row.nsq == nsq and row.norm == norm, row.n
        assert all(type(x) is F for x in (*row.alphas, row.nsq))
    got = (table.first_negative_energy, table.first_negative_norm_sq, table.first_decrease)
    assert got == levels
    return levels


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def affine_spec(draw):
    """Exact specs on both arithmetic paths: integral slopes (ints scaled by
    the lcm of the offsets', vacuum's and seed energies' denominators) and
    fractional slopes (Fractions), each linear or with offsets. Some have a
    zero slope, and some slopes that sum to 1, where the energies grow
    linearly with the offsets' sum."""
    k = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        slope = st.integers(min_value=-3, max_value=3).map(F)
    else:
        slope = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    slopes = draw(st.lists(slope, min_size=k, max_size=k))
    if draw(st.booleans()):
        slopes[draw(st.integers(min_value=0, max_value=k - 1))] = F(0)
    if draw(st.booleans()):
        slopes[0] = 1 - sum(slopes[1:])
    if draw(st.booleans()):
        offsets = [F(0)] * k
    else:
        offsets = draw(st.lists(small, min_size=k, max_size=k))
    vacuum = draw(st.lists(small, min_size=k, max_size=k))
    fns = tuple(AffineFunction(a, b) for a, b in zip(slopes, offsets))
    return GHASpec(functions=fns, vacuum=tuple(vacuum))


class TestSpectrumIntegerPath:
    @settings(deadline=None)
    @given(affine_spec(), st.integers(min_value=0, max_value=300))
    def test_matches_fraction_oracle(self, spec, n_max):
        assert_matches_fraction_oracle(spec, n_max)

    @pytest.mark.parametrize(
        "slopes,offsets,vacuum",
        [
            ((1, -1, 1), (0, 0, 0), (1, 0, 0)),  # roots 1, i, -i: bounded
            ((1, -1, 1), (1, "-1/2", 0), (1, 2, "1/3")),  # grows linearly
            (("1/2", "1/3"), (0, 0), (1, 0)),
            (("1/2", "1/2"), ("1/3", 1), ("1/2", 0)),  # slopes sum to 1
            (("-1/3", 0, "2/3"), ("1/5", 0, 0), (1, "1/2", 0)),
        ],
    )
    @pytest.mark.parametrize("n_max", [1023, 1030, 3100])
    def test_kernel_chunk_boundaries(self, slopes, offsets, vacuum, n_max):
        # The energies past level k come from _exact.affine_recurrence in
        # chunks of 1024, 2048, ... terms: these runs end on, and cross, the
        # seams between them.
        fns = tuple(AffineFunction(F(a), F(b)) for a, b in zip(slopes, offsets))
        assert_matches_fraction_oracle(GHASpec(functions=fns, vacuum=tuple(map(F, vacuum))), n_max)

    @pytest.mark.parametrize(
        "slopes,offsets",
        [
            ((1, 1, 1), (0, 0, 0)),
            ((2, 1, 2), (0, 0, 0)),
            (("1/2", "1/3", "1/5"), (0, 0, 0)),
            ((1, 0, 3), ("1/2", 0, -1)),
            (("3/2", "1/3", "1/7"), ("1/2", "-1/3", 2)),
        ],
    )
    def test_level_functions_only_on_first_k_levels(self, slopes, offsets, monkeypatch):
        # An exact spec evaluates its level functions on levels 0..k-1 only:
        # from there on every ladder is live and the energies are one
        # recurrence, which _exact runs.
        k = len(slopes)
        spec = GHASpec(
            functions=tuple(AffineFunction(F(a), F(b)) for a, b in zip(slopes, offsets)),
            vacuum=(F(1),) + (F(0),) * (k - 1),
        )
        want = spectrum(spec, 200)
        calls = []
        affine = algebra._affine

        def counted(slopes, offsets):
            def spy(i, f):
                return lambda x: calls.append(i) or f(x)

            return [spy(i, f) for i, f in enumerate(affine(slopes, offsets))]

        monkeypatch.setattr(algebra, "_affine", counted)
        assert spectrum(spec, 200) == want
        assert calls and all(calls.count(i) <= k for i in range(k))

    @pytest.mark.parametrize(
        "slopes,offsets,vacuum,levels",
        [
            # integral slopes, rational vacuum; seed energies -1/4 and 2/21
            ((1, 2, 3), (0, 0, 0), ("1/3", "-1/2", "2/7"), (None, 0, 1)),
            ((1, 1, 1), (0, 0, 0), ("1/3", "1/2", "2/7"), (None, None, None)),
            ((1, -1), (0, 0), ("1/3", "0"), (3, 1, 2)),
            # integral slopes with rational offsets
            ((-1, 2), ("1/3", "-5/2"), ("1/2", "1"), (2, 1, 2)),
            ((2, 1), ("1/2", "1/3"), ("1/5", "0"), (None, None, None)),
            # fractional slopes stay on Fractions
            (("1/2", "-3/5"), (0, 0), ("1", "1/2"), (2, 1, 2)),
        ],
    )
    def test_first_failure_levels(self, slopes, offsets, vacuum, levels):
        fns = tuple(AffineFunction(F(a), F(b)) for a, b in zip(slopes, offsets))
        spec = GHASpec(functions=fns, vacuum=tuple(F(v) for v in vacuum))
        assert assert_matches_fraction_oracle(spec, 12) == levels


def float_spectrum(spec, n_max):
    """The float64 spectrum loop as it ran level by level before the column
    pass: rows as (alphas, nsq, norm) plus the first negative-energy,
    negative-N^2 and decrease levels. Affine functions run as
    slope * x + offset in floats, where a coefficient beyond the float range
    stays a Fraction so that float arithmetic with it raises OverflowError;
    other functions run through float_evaluator. Raises ComputationError as
    the library documents it, at the same level."""

    def float_or_exact(value):
        try:
            return float(value)
        except OverflowError:
            return value

    def affine(a, b):
        return lambda x: a * x + b

    fns = []
    for fn, pair in zip(spec.functions, spec.affine_forms):
        fns.append(float_evaluator(fn.node) if pair is None else affine(*map(float_or_exact, pair)))
    k = spec.k
    forms = spec.affine_forms
    linear = all(form is not None and form[0] != 0 and form[1] == 0 for form in forms)
    below = [spec.vacuum[m] / forms[m][0] for m in range(1, k)] if linear else []
    try:
        vacuum = [float(v) for v in spec.vacuum]
    except OverflowError:
        raise ComputationError("float64 overflow at level n=0") from None
    energies = {-m: float_or_exact(v) for m, v in enumerate(below, start=1)}
    energies[0] = vacuum[0]
    rows = []
    first_energy = first_nsq = first_decrease = None
    for n in range(n_max + 1):
        try:
            alphas = (energies[n], *(
                fns[i - 1](energies[n - i + 1]) if n and n - i + 1 in energies else vacuum[i - 1]
                for i in range(2, k + 1)
            ))
            energy = fns[0](alphas[0])
            for value in alphas[1:]:
                energy = energy + value
            nsq = energy - vacuum[0]
        except OverflowError:
            raise ComputationError(f"float64 overflow at level n={n}") from None
        if not all(map(math.isfinite, (*alphas, nsq))):
            raise ComputationError(f"float64 value is not finite at level n={n}")
        energies[n + 1] = energy
        if alphas[0] < 0 and first_energy is None:
            first_energy = n
        if n and alphas[0] < energies[n - 1] and first_decrease is None:
            first_decrease = n
        if nsq < 0 and first_nsq is None:
            first_nsq = n
        rows.append((alphas, nsq, None if nsq < 0 else math.sqrt(nsq)))
    return rows, (first_energy, first_nsq, first_decrease)


def spectrum_outcome(run):
    """repr of rows and first-failure levels, or the ComputationError's
    class and text (which names the level); repr tells floats apart bit for
    bit, signed zeros included."""
    try:
        rows, levels = run()
    except ComputationError as err:
        return type(err).__name__, str(err)
    return repr(rows), levels


def library_outcome(spec, n_max):
    def run():
        table = spectrum(spec, n_max)
        levels = (table.first_negative_energy, table.first_negative_norm_sq, table.first_decrease)
        return [(row.alphas, row.nsq, row.norm) for row in table.rows], levels

    return run


# Coefficients and vacuum values: mostly small rationals, one in eight a
# magnitude past the float range, near its top, or below its smallest
# subnormal.
float_coefficient = st.one_of(
    *[st.fractions(min_value=-3, max_value=3, max_denominator=6)] * 7,
    st.sampled_from([F(10) ** 400, -F(10) ** 400, F(1, 10**400), F(10) ** 300, F(10) ** 308]),
)
EXPRESSIONS = [
    "x^2+1", "x+1/(x+1)", "x/(x+2)", "1/(x-1)", "3*x/(x+1)+1", "x^3-2*x", "(x+1)/(x+2)+x",
    "10^400*x", "x/10^400", "10^308*x^2", "1/x", "x^2/(x+3)+1",
]


@st.composite
def float_spec(draw):
    """Float64 specs, affine (linear or with offsets) or with expression
    functions, among them ones that overflow, turn non-finite or divide by
    zero within a few levels."""
    k = draw(st.integers(min_value=1, max_value=4))
    offsets = draw(st.booleans())
    fns = []
    for _ in range(k):
        if draw(st.integers(0, 2)) == 0:
            fns.append(ExpressionFunction(parse(draw(st.sampled_from(EXPRESSIONS)))))
        else:
            slope = draw(float_coefficient)
            fns.append(AffineFunction(slope, draw(float_coefficient) if offsets else F(0)))
    vacuum = draw(st.lists(float_coefficient, min_size=k, max_size=k))
    return GHASpec(functions=tuple(fns), vacuum=tuple(vacuum), arithmetic="float64")


class TestSpectrumFloatOracle:
    @settings(max_examples=300, deadline=None)
    @given(float_spec(), st.integers(min_value=0, max_value=80))
    @example(linear_spec((1, 1), (1, 0), "float64"), 1500)  # not finite at n=1475
    @example(linear_spec((F(1, 10**400), 1), (1, 1), "float64"), 3)  # seed energy beyond range
    @example(linear_spec((10**400, 1), (1, 0), "float64"), 3)  # slope beyond range
    @example(linear_spec((2,), (10**400,), "float64"), 3)  # vacuum beyond range
    @example(
        GHASpec((ExpressionFunction(parse("x^2+1")),), (F(0),), arithmetic="float64"), 20
    )  # x^2 overflows
    def test_matches_level_by_level_loop(self, spec, n_max):
        want = spectrum_outcome(lambda: float_spectrum(spec, n_max))
        assert spectrum_outcome(library_outcome(spec, n_max)) == want


class TestExactNormOverflow:
    def test_pass_stops_at_the_first_overflowing_norm(self, monkeypatch):
        # N_n^2 gains about 100 bits a level, so the norm leaves the float
        # range near level 20. The pass must stop there, not run on to n_max
        # with ever larger values, and name the same level as a short run.
        spec = linear_spec((10**30, 1), (1, 0))
        with pytest.raises(ComputationError) as short:
            spectrum(spec, 60)
        lengths = []
        norms = algebra._norms

        def spy(scaled, d):
            lengths.append(len(scaled))
            return norms(scaled, d)

        monkeypatch.setattr(algebra, "_norms", spy)
        with pytest.raises(ComputationError) as long:
            spectrum(spec, 2000)
        assert str(long.value) == str(short.value)
        assert str(short.value).startswith("norm N_")
        assert lengths and max(lengths) <= 60


    def test_million_levels_stop_in_the_first_chunks(self, monkeypatch):
        # Fibonacci norms leave the float range at level 2950: the energies
        # run in chunks of 1024, 2048, ... terms and stop after the chunk
        # that reaches the bound, not at level 10^6.
        steps = []
        iterate = algebra._exact.iterate

        def spy(lams, window, n):
            steps.append(n)
            assert sum(steps) < 10**4, "the chunks ran past the bound"  # before the memory runs out
            return iterate(lams, window, n)

        monkeypatch.setattr(algebra._exact, "iterate", spy)
        with pytest.raises(ComputationError, match=r"^norm N_2950 overflows float64 at level n=2950$"):
            spectrum(linear_spec((1, 1), (1, 0)), 10**6)
        assert steps == [1024, 2048]


def reference_norm(nsq, n):
    """sqrt(nsq) for a Fraction nsq, also past the float range: nsq / 4^h
    rounded, its root scaled back by 2^h."""
    try:
        return math.sqrt(float(nsq))
    except OverflowError:
        pass
    half = (nsq.numerator.bit_length() - nsq.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(float(nsq / 4**half)), half)
    except OverflowError:
        raise ComputationError(f"norm N_{n} overflows float64 at level n={n}") from None


class TestNormsPastFloatRange:
    # Linear specs with a rational vacuum (the loop's values scaled by d > 1),
    # about 10 bits a level: N^2 passes 2^1024 near level 100 and the norm
    # 2^1024 near level 200. Negative slopes give negative N^2 on the way;
    # non-integral slopes run the loop on Fractions.
    @pytest.mark.parametrize(
        "lams, vacuum",
        [
            ((1000, 3), (F(1, 3), F(2, 7))),
            ((999, 5, 2), (F(2, 3), F(1, 5), F(3, 11))),
            ((1024, 1, 7, 3), (F(5, 7), F(1, 2), 0, F(1, 9))),
            ((-1000, 1), (F(1, 3), F(1, 5))),
            ((F(2001, 2), F(3, 5)), (F(1, 3), 1)),
        ],
    )
    @pytest.mark.parametrize("n_max", [150, 260])
    def test_norms_match_reference_bit_for_bit(self, lams, vacuum, n_max):
        _, nsqs = oracle_rows([(F(lam), F(0)) for lam in lams], vacuum, n_max)
        assert max(nsqs) > 2**1024
        # past about 2^2048 a norm overflows, and both must raise the same error
        assert (max(nsqs) < 2**2048) == (n_max == 150)

        def want():
            return [None if x < 0 else reference_norm(x, n).hex() for n, x in enumerate(nsqs)], None

        def got():
            rows = spectrum(linear_spec(lams, vacuum), n_max).rows
            return [None if row.norm is None else row.norm.hex() for row in rows], None

        outcome = spectrum_outcome(got)
        assert outcome == spectrum_outcome(want)
        if n_max == 260:
            assert outcome[0] == "ComputationError"
            assert outcome[1].startswith("norm N_")


class TestSpectrumValues:
    def test_k3_worked_example(self):
        table = spectrum(linear_spec((2, 1, 2), (1, 0, 0)), 4)
        assert [r.alphas[0] for r in table.rows] == [1, 2, 5, 14, 37]
        assert [r.alphas[1] for r in table.rows] == [0, 1, 2, 5, 14]
        assert [r.alphas[2] for r in table.rows] == [0, 0, 2, 4, 10]
        assert [r.nsq for r in table.rows][:3] == [1, 4, 13]
        assert table.physical_energy and table.unitary and table.nondecreasing
        assert table.rows[2].norm == pytest.approx(math.sqrt(13))

    def test_fibonacci_norms(self):
        table = spectrum(linear_spec((1, 1), (1, 0)), 5)
        assert [r.nsq for r in table.rows] == [0, 1, 2, 4, 7, 12]
        assert table.rows[0].norm == 0.0

    def test_energy_equals_shifted_sequence(self):
        # with vacuum (1,0,..): N_n^2 = alpha_{n+1} - alpha_0 for pure lambda x
        for lams in [(1, 1), (2, 1, 2), (1, 2, 3), (1, 1, 1, 1)]:
            c = CoefficientVector(tuple(F(v) for v in lams))
            seeds = extend_seeds(c, F(1), (F(0),) * (c.k - 1))
            vals = iterate_sequence(c, seeds, 9).values
            table = spectrum(linear_spec(lams, (1,) + (0,) * (c.k - 1)), 8)
            for n, row in enumerate(table.rows):
                assert row.alphas[0] == vals[n]
                assert row.nsq == vals[n + 1] - vals[0]

    def test_zero_vacuum_is_trivial(self):
        table = spectrum(linear_spec((2, 1, 2), (0, 0, 0)), 6)
        assert all(r.alphas == (0, 0, 0) and r.nsq == 0 for r in table.rows)
        assert table.unitary and table.physical_energy and table.nondecreasing

    def test_spectrum_matches_plain_recurrence(self):
        spec = linear_spec((1, 2, 1), (2, 1, 3))
        c = CoefficientVector((F(1), F(2), F(1)))
        seeds = extend_seeds(c, F(2), (F(1), F(3)))
        vals = iterate_sequence(c, seeds, 12).values
        table = spectrum(spec, 12)
        assert tuple(r.alphas[0] for r in table.rows) == vals

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_float_mode_tracks_exact(self, spec):
        exact = spectrum(spec, 10)
        floaty = spectrum(float_twin(spec), 10)
        for re, rf in zip(exact.rows, floaty.rows):
            assert rf.alphas == pytest.approx([float(a) for a in re.alphas], rel=1e-12)
            assert rf.nsq == pytest.approx(float(re.nsq), rel=1e-12)


class TestNonlinear:
    def test_quadratic_k1(self):
        spec = GHASpec(
            functions=(ExpressionFunction(parse("x^2 + 1")),),
            vacuum=(F(0),),
            arithmetic="float64",
        )
        table = spectrum(spec, 3)
        assert [r.alphas[0] for r in table.rows] == [0.0, 1.0, 2.0, 5.0]
        # N_{n+1}^2 = N_n^2 + f(alpha_{n+1}) - alpha_{n+1}
        assert [r.nsq for r in table.rows] == [1.0, 2.0, 5.0, 26.0]

    def test_quadratic_k3_holds_vacuum_early(self):
        fns = tuple(
            ExpressionFunction(parse(t)) for t in ("x^2 + 1", "x", "x")
        )
        spec = GHASpec(functions=fns, vacuum=(F(1), F(0), F(0)), arithmetic="float64")
        table = spectrum(spec, 3)
        # third ladder column cannot reach back before the vacuum; it holds
        # the vacuum value at n=1 and first fires at n=2 with f_3(alpha_0)
        assert [r.alphas[2] for r in table.rows] == [0.0, 0.0, 1.0, 2.0]
        assert [r.alphas[0] for r in table.rows] == [1.0, 2.0, 6.0, 40.0]
        assert [r.nsq for r in table.rows][:3] == [1.0, 5.0, 39.0]

    def test_exact_mode_requires_affine(self):
        with pytest.raises(ExactModeUnavailableError):
            GHASpec(
                functions=(ExpressionFunction(parse("x^2")),),
                vacuum=(F(1),),
                arithmetic="exact",
            )

    def test_float_coefficients_rejected(self):
        # floats are not exact: 0.1 would silently become 3602879701896397/2^55
        with pytest.raises(TypeError):
            AffineFunction(0.1)
        with pytest.raises(TypeError):
            AffineFunction(F(1), 0.1)

    def test_float_vacuum_rejected(self):
        with pytest.raises(TypeError):
            GHASpec(functions=(AffineFunction(F(1)),), vacuum=(0.1,))

    @pytest.mark.parametrize(
        "functions,vacuum,arithmetic,error",
        [
            ((), (), "exact", "need at least one level function"),
            ((AffineFunction(F(1)),), (F(1), F(0)), "exact", "vacuum must have 1 entries, got 2"),
            ((AffineFunction(F(1)),), (F(1),), "float32", "arithmetic must be 'exact' or 'float64'"),
        ],
        ids=["no-functions", "vacuum-length", "arithmetic"],
    )
    def test_malformed_spec_refused(self, functions, vacuum, arithmetic, error):
        with pytest.raises(ValueError, match=error):
            GHASpec(functions=functions, vacuum=vacuum, arithmetic=arithmetic)

    def test_negative_level_count_refused(self):
        spec = GHASpec(functions=(AffineFunction(F(1)),), vacuum=(F(1),))
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            spectrum(spec, -1)

    def test_affine_forms_stored(self):
        fns = (ExpressionFunction(parse("2*x + 1/2")), ExpressionFunction(parse("x^2")))
        spec = GHASpec(functions=fns, vacuum=(F(1), F(0)), arithmetic="float64")
        assert spec.affine_forms == ((F(2), F(1, 2)), None)

    def test_affine_expression_allowed_exact(self):
        spec = GHASpec(
            functions=(ExpressionFunction(parse("2*x + 1/2")),),
            vacuum=(F(1),),
        )
        table = spectrum(spec, 2)
        assert [r.alphas[0] for r in table.rows] == [1, F(5, 2), F(11, 2)]


class TestPhysicality:
    def test_all_clear(self):
        table = spectrum(linear_spec((1, 1), (1, 0)), 8)
        assert table.physical_energy and table.unitary and table.nondecreasing
        assert table.first_negative_energy is None

    def test_negative_energy_located(self):
        table = spectrum(linear_spec((-1,), (1,)), 4)
        assert table.first_negative_energy == 1
        assert not table.physical_energy
        assert table.first_decrease == 1

    def test_negative_norm_located(self):
        spec = GHASpec(
            functions=(AffineFunction(F(1)), AffineFunction(F(-1))),
            vacuum=(F(1), F(0)),
        )
        table = spectrum(spec, 3)
        assert table.first_negative_norm_sq == 1
        # energies run 1, 1, 0, -1: decrease at n=2, negative at n=3
        assert [r.alphas[0] for r in table.rows] == [1, 1, 0, -1]
        assert table.first_decrease == 2
        assert table.first_negative_energy == 3


class TestTruncatedOps:
    def test_fibonacci_dim4(self):
        table = truncated_operators(linear_spec((1, 1), (1, 0)), 4)
        rows = table.rows
        assert len(rows) == len(table.rows) == 4
        # raising carries N_0..N_2 on its subdiagonal
        assert [r.norm for r in rows[:3]] == pytest.approx([0.0, 1.0, math.sqrt(2.0)])
        assert [r.alphas[0] for r in rows] == [1, 1, 2, 3]  # H
        assert [r.alphas[1] for r in rows] == [0, 1, 1, 2]  # J_2

    def test_k3_dim3(self):
        table = truncated_operators(linear_spec((2, 1, 2), (1, 0, 0)), 3)
        rows = table.rows
        assert [r.norm for r in rows[:2]] == pytest.approx([1.0, 2.0])
        assert all(len(r.alphas) == 3 for r in rows)  # H, J_2, J_3

    def test_nonunitary_rejected_with_level(self):
        with pytest.raises(NonUnitaryRepresentationError) as err:
            truncated_operators(linear_spec((-1,), (1,)), 3)
        assert err.value.level == 0
        spec = GHASpec(
            functions=(AffineFunction(F(1)), AffineFunction(F(-1))),
            vacuum=(F(1), F(0)),
        )
        with pytest.raises(NonUnitaryRepresentationError) as err:
            truncated_operators(spec, 4)
        assert err.value.level == 1

    @pytest.mark.parametrize("arithmetic", ["exact", "float64"])
    def test_is_the_spectrum_table(self, arithmetic):
        # The truncation to dim levels is the spectrum table of levels 0..dim-1.
        spec = linear_spec((2, 1, 2), (1, 0, 0), arithmetic)
        for dim in (1, 3, 7):
            assert truncated_operators(spec, dim) == spectrum(spec, dim - 1)
        # A spectrum past the first negative N^2 exists; its truncation does not.
        spec = GHASpec(
            functions=(AffineFunction(F(1)), AffineFunction(F(-1))),
            vacuum=(F(1), F(0)),
            arithmetic=arithmetic,
        )
        level = spectrum(spec, 5).first_negative_norm_sq
        assert level == 1
        with pytest.raises(NonUnitaryRepresentationError) as err:
            truncated_operators(spec, 6)
        assert err.value.level == level


class TestVerify:
    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_exact_residuals_vanish(self, spec):
        table = truncated_operators(spec, max(spec.k + 2, 5))
        report = verify_relations(table, spec)
        assert report.all_passed
        for entry in report.entries:
            assert entry.residual == 0, entry.label

    def test_float_residuals_small(self):
        for k in (2, 3):
            for lams in product((1, 2), repeat=k):
                spec = linear_spec(lams, (1,) + (0,) * (k - 1), "float64")
                table = truncated_operators(spec, 8)
                report = verify_relations(table, spec, tol=1e-10)
                assert report.all_passed, (lams, [e.residual for e in report.entries])
                assert report.max_residual <= 1e-10

    def test_relation_labels_cover_algebra(self):
        spec = linear_spec((2, 1, 2), (1, 0, 0))
        report = verify_relations(truncated_operators(spec, 5), spec)
        labels = [e.label for e in report.entries]
        assert labels == [
            "H.raising",
            "J2.raising^1",
            "J3.raising^2",
            "[lowering,raising]",
            "[H,Ji]",
            "[Ji,Jj]",
        ]

    def test_truncation_too_small(self):
        spec = linear_spec((2, 1, 2), (1, 0, 0))
        table = truncated_operators(spec, 5)
        # building a tiny truncation is fine; verifying relations on it is not
        small = truncated_operators(spec, 2)
        with pytest.raises(TruncationTooSmallError):
            verify_relations(small, spec)
        with pytest.raises(ValueError):
            verify_relations(table, spec, tol=0.0)

    def test_dim1_is_vacuum_only(self):
        table = truncated_operators(linear_spec((2, 1, 2), (1, 0, 0)), 1)
        # one level, so the raising and lowering bands are empty
        (row,) = table.rows
        assert row.alphas == (1, 0, 0)

    def test_float_matches_exact_operators(self):
        exact = linear_spec((2, 1, 2), (1, 0, 0))
        floaty = linear_spec((2, 1, 2), (1, 0, 0), "float64")
        a = truncated_operators(exact, 6).rows
        b = truncated_operators(floaty, 6).rows
        assert [r.norm for r in b] == pytest.approx([r.norm for r in a], rel=1e-12, abs=1e-12)
        energies = [float(r.alphas[0]) for r in a]
        assert [r.alphas[0] for r in b] == pytest.approx(energies, rel=1e-12, abs=1e-12)

    def test_float_h_raising_measures_the_sum(self):
        # alpha_{n+1} is spectrum()'s left-to-right sum of k terms and the
        # check sums them with fsum: at k >= 3 the two can round apart, at
        # k = 2 both are one correctly rounded addition.
        texts = ("x + 1/(x+1)", "x/3", "x/7")
        fns = tuple(ExpressionFunction(parse(t)) for t in texts)
        spec = GHASpec(functions=fns, vacuum=(F(1, 10), F(1, 5), F(1, 3)), arithmetic="float64")
        report = verify_relations(truncated_operators(spec, 12), spec, tol=1e-14)
        entry = report.entries[0]
        assert entry.label == "H.raising"
        assert 0 < entry.residual <= 1e-15 and entry.passed
        spec = GHASpec(functions=fns[:2], vacuum=(F(1, 10), F(1, 5)), arithmetic="float64")
        report = verify_relations(truncated_operators(spec, 12), spec)
        assert report.entries[0].residual == 0

    def test_float_commutator_sums_left_to_right(self):
        # From CPython 3.12, sum() adds floats with compensation. The band
        # adds f_1(alpha_n) + sum_i alpha_n^(i) left to right, as spectrum()
        # does, so this residual is the same on every interpreter.
        texts = ("x + 1/(x+1)", "x/3", "x/7", "x/11")
        fns = tuple(ExpressionFunction(parse(t)) for t in texts)
        vacuum = (F(1, 10), F(1, 5), F(1, 3), F(2, 7))
        spec = GHASpec(functions=fns, vacuum=vacuum, arithmetic="float64")
        table = truncated_operators(spec, 40)
        f1 = float_evaluator(fns[0].node)
        squares = [row.norm * row.norm for row in table.rows[:-1]]
        worst = 0.0
        for n, row in enumerate(table.rows[:-1]):
            energy, *ladders = row.alphas
            rhs = f1(energy)
            for value in ladders:
                rhs = rhs + value
            raised = squares[n - 1] if n else 0.0
            lhs = squares[n] - raised
            terms = (lhs, rhs - energy, squares[n], raised, rhs, energy)
            worst = max(worst, abs(lhs - (rhs - energy)) / max(1.0, *map(abs, terms)))
        (entry,) = [e for e in verify_relations(table, spec).entries if e.label == "[lowering,raising]"]
        assert entry.residual == worst == 3.3039065911324975e-16

    def test_float_fibonacci_passes_at_large_dim(self):
        # Round-off in sqrt(N^2)^2 grows with N^2; the relative residual does not.
        spec = linear_spec((1, 1), (1, 0), "float64")
        for dim in (80, 400):
            report = verify_relations(truncated_operators(spec, dim), spec)
            assert report.all_passed, (dim, [e.residual for e in report.entries])


def dense_matrices(table):
    """H, raising, lowering and the J_i (i = 2..k) of the truncation table
    as dense float64."""
    rows = table.rows
    diagonals = np.array([[float(a) for a in row.alphas] for row in rows])
    raising = np.diag(np.array([row.norm for row in rows[:-1]], dtype=float), -1)
    h, *js = (np.diag(column) for column in diagonals.T)
    return h, raising, raising.T.copy(), js


def dense_residuals(table, spec):
    """Every relation on the dense float64 matrices of table, by label.

    Each matrix entry's residual is |lhs - rhs| / max(1, largest |term|),
    the terms being the dense products the relation is made of; the worst
    entry over the rows and columns unaffected by truncation is reported.
    """
    dim, k = len(table.rows), spec.k
    h, ad, a, js = dense_matrices(table)
    f = [np.diag([float(fn(float(x))) for x in np.diag(h)]) for fn in spec.functions]

    def worst(lhs, rhs, *parts, rows=None, cols=None):
        scale = np.maximum(1.0, np.max([np.abs(t) for t in (lhs, rhs, *parts)], axis=0))
        res = (np.abs(lhs - rhs) / scale)[:rows, :cols]
        return float(res.max()) if res.size else 0.0

    rhs = f[0]
    for j in js:
        rhs = rhs + j
    out = {"H.raising": worst(h @ ad, ad @ rhs, cols=dim - 1)}
    power = np.eye(dim)
    for i in range(2, k + 1):
        power = power @ ad
        out[f"J{i}.raising^{i - 1}"] = worst(js[i - 2] @ power, power @ f[i - 1], cols=dim - i + 1)
    out["[lowering,raising]"] = worst(
        a @ ad - ad @ a, rhs - h, a @ ad, ad @ a, rhs, h, rows=dim - 1, cols=dim - 1
    )
    out["[H,Ji]"] = max((worst(h @ j, j @ h) for j in js), default=0.0)
    out["[Ji,Jj]"] = max(
        (worst(x @ y, y @ x) for n, x in enumerate(js) for y in js[n + 1 :]), default=0.0
    )
    return out


class TestDenseOracle:
    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_band_matches_dense(self, spec):
        dim = max(spec.k + 2, 9)
        table = truncated_operators(spec, dim)
        report = verify_relations(table, spec)
        oracle = dense_residuals(table, spec)
        assert [e.label for e in report.entries] == list(oracle)
        for entry in report.entries:
            assert entry.residual == 0, entry.label
            assert oracle[entry.label] <= report.tol, entry.label
        twin = float_twin(spec)
        table = truncated_operators(twin, dim)
        report = verify_relations(table, twin)
        oracle = dense_residuals(table, twin)
        assert report.all_passed
        for entry in report.entries:
            assert abs(entry.residual - oracle[entry.label]) <= report.tol, entry.label

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_band_sees_what_dense_sees(self, spec):
        # Bumping one level at a time breaks the relations at exactly the
        # entries that level enters; both evaluations must find the same
        # worst entry, so neither may skip or add a column.
        twin = float_twin(spec)
        table = truncated_operators(twin, max(spec.k + 2, 9))
        rows = table.rows
        for m, row in enumerate(rows):
            nsq = row.nsq + 0.25
            bumped = SpectrumRow(m, tuple(a + 1 / 3 for a in row.alphas), nsq, math.sqrt(nsq))
            broken = replace(table, rows=rows[:m] + (bumped,) + rows[m + 1 :])
            report = verify_relations(broken, twin)
            oracle = dense_residuals(broken, twin)
            assert not report.all_passed, m
            for entry in report.entries:
                want = pytest.approx(oracle[entry.label], rel=1e-12, abs=1e-15)
                assert entry.residual == want, (m, entry.label)


def fraction_band_report(table, spec, tol=1e-10):
    """The exact band residuals of verify_relations, written out on
    Fractions: (label, residual, passed) per relation.

    Exact specs weight raising by N_n^2 and lowering by 1. An entry
    weight*lhs - weight*rhs with further terms parts has residual
    |weight| |lhs - rhs| / max(1, |weight| * largest |term|), converted to a
    float once."""
    rows = table.rows
    fns = [lambda x, a=a, b=b: a * x + b for a, b in spec.affine_forms]
    energy = [F(row.alphas[0]) for row in rows]
    nsq = [F(row.nsq) for row in rows]
    sums = [sum(map(F, row.alphas[1:]), fns[0](F(row.alphas[0]))) for row in rows]

    def worst(entries):
        out = 0.0
        for weight, lhs, rhs, *parts in entries:
            diff = abs(lhs - rhs)
            if diff:
                scale = max(abs(lhs), abs(rhs), *map(abs, parts))
                weight = abs(weight)
                out = max(out, float(diff / scale if weight * scale > 1 else weight * diff))
        return out

    dim = len(rows)
    report = [("H.raising", worst((nsq[n], energy[n + 1], sums[n]) for n in range(dim - 1)))]
    for i in range(2, spec.k + 1):
        band = []
        for n in range(dim - i + 1):
            weight = math.prod(nsq[n : n + i - 1])
            band.append((weight, F(rows[n + i - 1].alphas[i - 1]), fns[i - 1](energy[n])))
        report.append((f"J{i}.raising^{i - 1}", worst(band)))
    band = []
    for n in range(dim - 1):
        raised = nsq[n - 1] if n else F(0)
        band.append((1, nsq[n] - raised, sums[n] - energy[n], nsq[n], raised, sums[n], energy[n]))
    report.append(("[lowering,raising]", worst(band)))
    report += [("[H,Ji]", 0.0), ("[Ji,Jj]", 0.0)]
    return [(label, r, r <= tol) for label, r in report]


class TestExactBandsOnBrokenTables:
    @pytest.mark.parametrize("spec", EXACT_SPECS)
    @pytest.mark.parametrize("bump", [F(1, 3), F(2)], ids=["third", "integer"])
    def test_band_sees_what_fractions_see(self, spec, bump):
        # The exact twin of test_band_sees_what_dense_sees: verify_relations
        # runs integral values as ints, and a level bumped by 1/3 mixes ints
        # with Fractions. Every residual must be the Fraction evaluation's
        # float, bit for bit.
        table = truncated_operators(spec, max(spec.k + 2, 9))
        rows = table.rows
        for m, row in enumerate(rows):
            nsq = row.nsq + bump
            bumped = SpectrumRow(m, tuple(a + bump for a in row.alphas), nsq, math.sqrt(nsq))
            broken = replace(table, rows=rows[:m] + (bumped,) + rows[m + 1 :])
            report = verify_relations(broken, spec)
            got = [(e.label, e.residual, e.passed) for e in report.entries]
            assert repr(got) == repr(fraction_band_report(broken, spec)), m
            assert not report.all_passed, m

    def test_integral_table_runs_on_ints(self, monkeypatch):
        # The integral Fibonacci table reaches the band code as ints only.
        seen = set()
        band_residual = algebra._band_residual

        def spy(label, entries, tol):
            entries = list(entries)
            seen.update(type(x) for entry in entries for x in entry)
            return band_residual(label, entries, tol)

        monkeypatch.setattr(algebra, "_band_residual", spy)
        spec = linear_spec((1, 1), (1, 0))
        assert verify_relations(truncated_operators(spec, 30), spec).all_passed
        assert seen == {int}
