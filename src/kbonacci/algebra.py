"""Ladder-operator algebras of order k and their Fock-space spectra.

An algebra spec is k level functions (f_1, ..., f_k) plus k vacuum values
(alpha_0^(1), ..., alpha_0^(k)). The spectrum recursions are

    alpha_{n+1}^(1) = f_1(alpha_n^(1)) + sum_{i>=2} alpha_n^(i)
    alpha_{n+1}^(i) = f_i(alpha_{n-i+2}^(1))          for i = 2..k
    N_{n+1}^2 = N_n^2 + f_1(alpha_{n+1}^(1)) - alpha_{n+1}^(1)
                + sum_{i>=2} alpha_{n+1}^(i)
    N_0^2 = f_1(alpha_0^(1)) - alpha_0^(1) + sum_{i>=2} alpha_0^(i)

By the first recursion each step of the third adds
alpha_{n+1}^(1) - alpha_n^(1), so the sum telescopes to
N_n^2 = alpha_{n+1}^(1) - alpha_0^(1): the norms are the energy sequence
shifted by one level, and spectrum() evaluates each level function once
per level.

When every level function is purely linear, negative-index arguments of the
second recursion come from the recurrence's seed window (extend_seeds:
alpha_{-m} = alpha_0^(m+1) / lambda_{m+1}); otherwise the first i-2 rows of
ladder i hold the vacuum value until the argument index is nonnegative.

Arithmetic is exact (Fraction results, computed on ints scaled by the lcm
of the denominators when the slopes are integral) when every function is
affine with rational coefficients, or float64 on request. In float64 an
affine function runs as slope * x + offset in floats and any other one is
compiled once per call (exprparse.float_evaluator), with the values of
evaluate at a float argument.

spectrum() reads the one recurrence three ways in one pass over the levels,
the same loop for both modes: it appends each energy alpha_{n+1}^(1) and
the ladder values alpha_n^(i) to columns, and N_n^2 is the energy column
less alpha_0^(1). The first-failure levels of the physicality conditions
come from scans of the energy and N^2 columns afterwards, and each exact
column becomes Fractions once.

A truncation to the first dim Fock levels is its spectrum table, the
bands of its operators: H and the J_i are diagonal and the raising operator
has one subdiagonal, so each defining relation is checked entry by entry on
its band, by one routine for both arithmetic modes. Exact bands run on ints
wherever the table values and the affine coefficients are integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import compress, count, repeat
from operator import add, lt
from typing import Callable, NamedTuple, Optional, Union

from . import _exact
from .errors import (
    ComputationError,
    ExactModeUnavailableError,
    NonUnitaryRepresentationError,
    TruncationTooSmallError,
)
from .exprparse import ExprNode, as_affine, evaluate, float_evaluator
from .recurrence import CoefficientVector, extend_seeds

__all__ = [
    "AffineFunction",
    "ExpressionFunction",
    "FunctionSpec",
    "linear_functions",
    "GHASpec",
    "SpectrumRow",
    "SpectrumTable",
    "RelationResidual",
    "VerificationReport",
    "spectrum",
    "truncated_operators",
    "verify_relations",
]


@dataclass(frozen=True)
class AffineFunction:
    """f(x) = slope * x + offset with exact rational coefficients."""

    slope: Fraction
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "slope", _exact.as_fraction(self.slope))
        object.__setattr__(self, "offset", _exact.as_fraction(self.offset))

    def __call__(self, x):
        return self.slope * x + self.offset

    def affine_form(self) -> tuple[Fraction, Fraction]:
        return self.slope, self.offset


@dataclass(frozen=True)
class ExpressionFunction:
    """Level function given as a parsed expression tree."""

    node: ExprNode

    def __call__(self, x):
        return evaluate(self.node, x)

    def affine_form(self) -> Optional[tuple[Fraction, Fraction]]:
        return as_affine(self.node)


FunctionSpec = Union[AffineFunction, ExpressionFunction]


def linear_functions(coeffs: CoefficientVector) -> tuple[AffineFunction, ...]:
    """The purely linear family f_i(x) = lambda_i * x."""
    return tuple(AffineFunction(v) for v in coeffs.values)


@dataclass(frozen=True)
class GHASpec:
    """Algebra specification: level functions, vacuum, arithmetic mode.

    arithmetic is "exact" or "float64"; exact mode is permitted only when
    every function is affine with rational coefficients
    (ExactModeUnavailableError otherwise). affine_forms holds each
    function's affine_form(), computed once at construction.
    """

    functions: tuple[FunctionSpec, ...]
    vacuum: tuple[Fraction, ...]
    arithmetic: str = "exact"
    affine_forms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.functions) < 1:
            raise ValueError("need at least one level function")
        if len(self.vacuum) != len(self.functions):
            raise ValueError(
                f"vacuum must have {len(self.functions)} entries, got {len(self.vacuum)}"
            )
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "vacuum", tuple(map(_exact.as_fraction, self.vacuum)))
        if self.arithmetic not in ("exact", "float64"):
            raise ValueError("arithmetic must be 'exact' or 'float64'")
        forms = tuple(fn.affine_form() for fn in self.functions)
        object.__setattr__(self, "affine_forms", forms)
        if self.arithmetic == "exact":
            for i, form in enumerate(forms, start=1):
                if form is None:
                    raise ExactModeUnavailableError(
                        f"level function f_{i} is not affine; use float64 arithmetic"
                    )

    @property
    def k(self) -> int:
        return len(self.functions)


class SpectrumRow(NamedTuple):
    """One Fock level: alphas = (alpha_n^(1), ..., alpha_n^(k))."""

    n: int
    alphas: tuple
    nsq: object
    norm: Optional[float]  # sqrt(nsq), None when nsq < 0


@dataclass(frozen=True)
class SpectrumTable:
    """Fock levels 0..n_max and where each physicality condition first fails.

    A first-failure level is None when the condition holds on every level.
    """

    rows: tuple[SpectrumRow, ...]
    first_negative_energy: Optional[int]  # first n with alpha_n^(1) < 0
    first_negative_norm_sq: Optional[int]  # first n with N_n^2 < 0
    first_decrease: Optional[int]  # first n with alpha_n^(1) < alpha_{n-1}^(1)

    @property
    def physical_energy(self) -> bool:
        return self.first_negative_energy is None

    @property
    def unitary(self) -> bool:
        return self.first_negative_norm_sq is None

    @property
    def nondecreasing(self) -> bool:
        return self.first_decrease is None


def _affine(slopes, offsets) -> list[Callable]:
    return [lambda x, a=a, b=b: a * x + b for a, b in zip(slopes, offsets)]


def _float_or_exact(value: Fraction):
    """float(value), or value itself where it is beyond the float range: float
    arithmetic with it then raises OverflowError where it is used, as in a
    compiled level function (exprparse.float_evaluator)."""
    try:
        return float(value)
    except OverflowError:
        return value


def _integral(x: Fraction):
    """x.numerator where x is an integer, else x: exact arithmetic on the
    int is many times faster and gives the same values."""
    return x.numerator if x.denominator == 1 else x


def _evaluators(spec: GHASpec) -> list[Callable]:
    if spec.arithmetic == "exact":
        return _affine(*(map(_integral, c) for c in zip(*spec.affine_forms)))
    out = []
    for fn, pair in zip(spec.functions, spec.affine_forms):
        if pair is None:
            out.append(float_evaluator(fn.node))
        else:
            slope, offset = map(_float_or_exact, pair)
            out += _affine([slope], [offset])
    return out


def _norms(scaled: list, d: int) -> list[Optional[float]]:
    """sqrt(N_n^2) as floats, None where N_n^2 < 0, from scaled, the loop's
    values (d times nsq). x / d of ints is correctly rounded, as
    float(Fraction) is, so both give the same float. From the first value
    beyond the float range on, x / d as ints p / q (x is a Fraction when the
    slopes are not integral) is divided by 4^h before rounding, h half the
    bit length of p / q, and the root is scaled back by 2^h. Rounding
    commutes with division by a power of two, so each norm that fits is the
    float sqrt(x / d) gives; the first one that overflows raises
    ComputationError naming its level."""
    norms = []
    try:
        if d == 1:
            norms += (None if x < 0 else math.sqrt(x) for x in scaled)
        else:
            norms += (None if x < 0 else math.sqrt(x / d) for x in scaled)
    except OverflowError:
        for n, x in enumerate(scaled[len(norms) :], len(norms)):
            if x < 0:
                norms.append(None)
                continue
            p, q = x.as_integer_ratio()
            q *= d
            h = max(0, (p.bit_length() - q.bit_length()) // 2)
            try:
                norms.append(math.ldexp(math.sqrt(p / (q << 2 * h)), h))
            except OverflowError:
                raise ComputationError(f"norm N_{n} overflows float64 at level n={n}") from None
    return norms


def _first(flags, start: int = 0) -> Optional[int]:
    """The level of the first true flag, levels counted from start; None when
    no flag is true."""
    return next(compress(count(start), flags), None)


def spectrum(spec: GHASpec, n_max: int) -> SpectrumTable:
    """Levels 0..n_max of the Fock spectrum with physicality levels.

    Exact mode returns Fractions in alphas and nsq; float64 mode returns
    floats. nsq at level n is alpha_{n+1}^(1) - alpha_0^(1), so level n
    also computes the next energy; norm is always a float square root (None
    when nsq < 0). ComputationError names the level where a float64 value
    overflows or is not finite, or where a norm is beyond the float64 range.

    One pass over the levels appends alpha_{n+1}^(1) and the ladder values
    of level n to columns: exact specs run on the ints (or, with
    non-integral slopes, the Fractions) that _exact.same_arithmetic gives,
    float64 specs on floats, in the same loop. A float64 level is checked
    as it is computed, so an error names its level; an exact pass stops
    early only where a norm is certain to overflow. The first-failure levels
    are then found by scanning the energy and N^2 columns, the norms are
    taken from the loop's N^2 values, then each exact column becomes
    Fractions once, and the rows are built from the columns.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = spec.k
    exact = spec.arithmetic == "exact"
    forms = spec.affine_forms
    # A linear spec's energies below level 0 are the recurrence's seed window.
    below = ()
    if all(form is not None and form[0] != 0 and form[1] == 0 for form in forms):
        coeffs = CoefficientVector(tuple(form[0] for form in forms))
        below = extend_seeds(coeffs, spec.vacuum[0], spec.vacuum[1:]).extended[:-1]
    if exact:
        # With integral slopes the loop runs on ints, every value d times the true one.
        slope, offset = zip(*forms)
        d, slope, offset, vacuum, below = _exact.same_arithmetic(slope, offset, spec.vacuum, below)
        fns = _affine(slope, offset)
    else:
        d, fns = 1, _evaluators(spec)
        try:
            vacuum = [float(v) for v in spec.vacuum]  # every vacuum value is on level 0
        except OverflowError:
            raise ComputationError("float64 overflow at level n=0") from None
        below = [_float_or_exact(v) for v in below]  # arguments of linear float fns only
    # energies[-i] is alpha_{n-i+1}^(1) at level n, from the seed energies
    # alpha_{-m} on; ladders holds alpha_n^(2..k) level after level.
    energies = [*below, vacuum[0]]
    ladders, nsq = [], []
    f1, vacuum0 = fns[0], vacuum[0]
    ladder_fns = list(zip(range(2, k + 1), fns[1:], vacuum[1:]))
    # N_n^2 must lie strictly between low and high. A float64 one must be
    # finite. An exact one at or past 2^2050 (d << 2050 scaled) has a norm of
    # 2^1025 or more, beyond the float range: the pass stops at that level,
    # and _norms raises at the first level whose norm overflows.
    low, high = -math.inf, d << 2050 if exact else math.inf
    for n in range(n_max + 1):
        # Ladder i holds its vacuum value at n = 0 and until alpha_{n-i+1}
        # exists, i.e. while i > reach.
        reach = len(energies) if n else 1
        try:
            values = [f(energies[-i]) if i <= reach else v for i, f, v in ladder_fns]
            energy = reduce(add, values, f1(energies[-1]))  # summed left to right
            square = energy - vacuum0  # the telescoped third recursion
        except OverflowError:
            raise ComputationError(f"float64 overflow at level n={n}") from None
        energies.append(energy)
        ladders += values
        nsq.append(square)
        if not low < square < high:
            if exact:
                break
            # alpha_n^(1) passed this check one level earlier, as N_{n-1}^2, and
            # a non-finite ladder value or energy makes N_n^2 non-finite too.
            raise ComputationError(f"float64 value is not finite at level n={n}")
    del energies[: len(below)]
    energies.pop()  # alpha_{n+1}^(1) of the last level
    first_negative_energy = _first(map(lt, energies, repeat(0)))
    first_decrease = _first(map(lt, energies[1:], energies), 1)
    first_negative_norm_sq = _first(map(lt, nsq, repeat(0)))
    columns = [energies, *(ladders[i :: k - 1] for i in range(k - 1))]
    norms = _norms(nsq, d)
    if exact:
        columns = [_exact.fractions(column, d) for column in columns]
        nsq = _exact.fractions(nsq, d)
    rows = tuple(map(SpectrumRow._make, zip(count(), zip(*columns), nsq, norms)))
    return SpectrumTable(rows, first_negative_energy, first_negative_norm_sq, first_decrease)


def truncated_operators(spec: GHASpec, dim: int) -> SpectrumTable:
    """H, J_i, and the ladder pair on the first dim levels: the spectrum
    table of levels 0..dim-1 in the spec's arithmetic. H and the J_i are
    diagonal with the alphas as entries, and the raising operator carries
    N_n on its first subdiagonal (lowering is its transpose), so the table
    is the whole truncation; verify_relations works on these bands directly.

    Requires N_n^2 >= 0 for every n < dim; the first violating level raises
    NonUnitaryRepresentationError.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    table = spectrum(spec, dim - 1)
    level = table.first_negative_norm_sq
    if level is not None:
        raise NonUnitaryRepresentationError(level, table.rows[level].nsq)
    return table


@dataclass(frozen=True)
class RelationResidual:
    label: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[RelationResidual, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(e.residual for e in self.entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def _band_residual(label: str, entries, tol: float) -> RelationResidual:
    """Worst relative residual over the band entries of one relation.

    Each entry is (weight, lhs, rhs, *parts): the matrix element
    weight*lhs - weight*rhs, with parts any further terms lhs and rhs were
    combined from. Its residual is |weight| |lhs - rhs| divided by
    max(1, |weight| * largest |term|), computed without forming the
    products, so a float64 weight beyond the float range stays usable.
    """
    worst = 0.0
    for weight, lhs, rhs, *parts in entries:
        diff = abs(lhs - rhs)
        if diff:
            scale = max(abs(lhs), abs(rhs), *map(abs, parts))
            weight = abs(weight)
            r = float(diff / scale if weight * scale > 1 else weight * diff)
            if not math.isfinite(r):
                raise ComputationError(f"{label}: band entry overflows float64")
            worst = max(worst, r)
    return RelationResidual(label, worst, worst <= tol)


def verify_relations(table: SpectrumTable, spec: GHASpec, tol: float = 1e-10) -> VerificationReport:
    """Relative residuals of the defining relations on the truncated block.

    H, the J_i and f_i(H) are diagonal and raising has one subdiagonal, so
    each relation is nonzero on one band only and is evaluated there from
    the levels of table (truncated_operators(spec, dim), dim its row count)
    and spec's level functions, in O(dim*k). Checked are the
    entries unaffected by truncation: H.raising = raising.(f_1(H) + sum J_i)
    on columns 0..dim-2, J_i.raising^(i-1) = raising^(i-1).f_i(H) on columns
    0..dim-i, and [lowering,raising] = f_1(H) + sum J_i - H on levels
    0..dim-2. [H,Ji] and [Ji,Jj] hold by construction (all diagonal) and
    read 0.

    An entry's residual is |lhs - rhs| divided by max(1, largest |term|),
    the terms being the operator products the entry is made of; tol bounds
    this relative residual. Exact specs weight raising by N_n^2 and lowering
    by 1, so every entry is a rational product of N_n^2 values times a
    scalar recursion residual and is exactly zero when the recursions hold;
    float64 specs weight both by N_n. Exact table values and affine
    coefficients whose denominator is 1 enter the bands as ints: the band
    code is the same, and each residual ends in an int/int or Fraction
    division, both correctly rounded, so the floats are the same.

    In float64 the H.raising entry takes its right-hand side from
    math.fsum, correctly rounded, against alpha_{n+1}^(1) as spectrum()
    summed it left to right, so it measures that sum's rounding. At k = 2
    the sum is one addition, itself correctly rounded, and the entry reads
    0; the level function is evaluated the same way on both sides.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    rows = table.rows
    dim = len(rows)
    if dim < spec.k:
        raise TruncationTooSmallError(f"dim {dim} below algebra order k={spec.k}")
    exact = spec.arithmetic == "exact"
    fns = _evaluators(spec)
    alphas = list(zip(*(row.alphas for row in rows)))  # alphas[i - 1][n] = alpha_n^(i)
    # squares[n] = (lowering.raising)[n, n] = N_n^2 under either weighting.
    if exact:
        # Integral values run as ints: a residual is a quotient of exact
        # values, correctly rounded from ints as from Fractions.
        alphas = [list(map(_integral, column)) for column in alphas]
        up = squares = [_integral(row.nsq) for row in rows[:-1]]
    else:
        up = [row.norm for row in rows[:-1]]
        squares = [x * x for x in up]
    energy = alphas[0]
    # f_1(H) + sum J_i on the diagonal, summed in spectrum()'s order, and
    # for the float64 H.raising band correctly rounded.
    terms = list(zip(map(fns[0], energy), *alphas[1:]))
    rhs = [reduce(add, t) for t in terms]
    summed = rhs if exact else list(map(math.fsum, terms))
    band = ((up[n], energy[n + 1], summed[n]) for n in range(dim - 1))
    entries = [_band_residual("H.raising", band, tol)]
    power = [1] * dim  # power[n] is raising^(i-1) at (n+i-1, n), from i = 1
    for i in range(2, spec.k + 1):
        power = [p * up[n] for n, p in enumerate(power[1:])]
        f = fns[i - 1]
        band = ((p, alphas[i - 1][n + i - 1], f(energy[n])) for n, p in enumerate(power))
        entries.append(_band_residual(f"J{i}.raising^{i - 1}", band, tol))
    band = []
    for n in range(dim - 1):
        raised = squares[n - 1] if n else 0  # (raising.lowering)[n, n]
        band.append((1, squares[n] - raised, rhs[n] - energy[n], squares[n], raised, rhs[n], energy[n]))
    entries.append(_band_residual("[lowering,raising]", band, tol))
    entries += [RelationResidual(label, 0.0, True) for label in ("[H,Ji]", "[Ji,Jj]")]
    return VerificationReport(tuple(entries), tol)
