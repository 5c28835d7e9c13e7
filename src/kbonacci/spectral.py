"""Characteristic polynomials, roots, Binet forms, and stochastic analysis.

The characteristic polynomial of the order-k recurrence is
x^k - lambda_1 x^{k-1} - ... - lambda_k, built directly from the
coefficients; matrix_char_poly computes det(xI - M) of an arbitrary square
rational matrix by exact Faddeev-LeVerrier (in _exact, with the other exact
linear algebra), which gives an independent route for cross-checks
(companion matrix, mixed-state matrix, abelianizations).

Roots come from a simultaneous Durand-Kerner iteration with deterministic
seeding; everything downstream (Binet coefficients, ratio limits, dominant
root reports) consumes its RootSet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from ._exact import matrix_char_poly
from .errors import (
    ComputationError,
    DominantModeAbsentError,
    FloatRangeError,
    ImaginaryResidueError,
    NearRepeatedRootsError,
    NonConvergenceError,
    RepeatedRootsError,
)
from .recurrence import CoefficientVector, SeedState, companion_rows, iterate_sequence

__all__ = [
    "CompanionMatrix",
    "MixedStateMatrix",
    "RootSet",
    "BinetForm",
    "RatioLimitReport",
    "StochasticReport",
    "char_poly",
    "matrix_char_poly",
    "find_roots",
    "binet_form",
    "binet_eval",
    "ratio_limit_check",
    "stochastic_analysis",
]

# Roots closer than this factor times the iteration tolerance are treated as
# repeated and refuse a Binet form.
REPEATED_ROOT_FACTOR = 1e3
# binet_form refuses root sets separated by less than the default iteration
# tolerance times that factor.
BINET_MIN_SEPARATION = REPEATED_ROOT_FACTOR * 1e-13
# binet_eval's bound on the imaginary residue, relative to max(1, |value|).
IMAG_RESIDUE_LIMIT = 1e-8


@dataclass(frozen=True)
class CompanionMatrix:
    """Standard companion form: superdiagonal ones, last row (lambda_k..lambda_1)."""

    k: int
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_coefficients(cls, coeffs: CoefficientVector) -> "CompanionMatrix":
        return cls(coeffs.k, tuple(tuple(row) for row in companion_rows(coeffs)))


@dataclass(frozen=True)
class MixedStateMatrix:
    """Mixed-state transition form of the same recurrence.

    First row (lambda_1, 1, ..., 1), second row (lambda_2, 0, ..., 0), and
    row i >= 3 carries the quotient lambda_i / lambda_{i-1} in column i-1.
    Similar to the companion matrix, hence the same characteristic polynomial.
    """

    k: int
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_coefficients(cls, coeffs: CoefficientVector) -> "MixedStateMatrix":
        k = coeffs.k
        lams = coeffs.values
        zero, one = Fraction(0), Fraction(1)
        rows = [[lams[0]] + [one] * (k - 1)]
        if k >= 2:
            rows.append([lams[1]] + [zero] * (k - 1))
        for i in range(3, k + 1):
            row = [zero] * k
            row[i - 2] = lams[i - 1] / lams[i - 2]
            rows.append(row)
        return cls(k, tuple(tuple(r) for r in rows))


def char_poly(coeffs: CoefficientVector) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, descending coefficients."""
    return (Fraction(1), *(-v for v in coeffs.values))


@dataclass(frozen=True)
class RootSet:
    """Roots sorted by descending modulus, then real part, then imaginary part.

    dominant is the index of the maximal-modulus root under that tie-break
    (always 0 after sorting); condition is the minimal pairwise distance.
    """

    roots: tuple[complex, ...]
    dominant: int
    condition: float


def _horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def find_roots(poly: Sequence, tol: float = 1e-13, max_iter: int = 500) -> RootSet:
    """All complex roots of a polynomial by simultaneous Durand-Kerner iteration.

    poly holds descending coefficients, leading coefficient nonzero (it is
    normalized away). Starting points are spaced on a circle of Cauchy-bound
    radius, rotated by a fixed irrational angle so no iterate starts on a
    symmetry axis. Raises NonConvergenceError at the iteration cap (best
    iterate attached) and NearRepeatedRootsError when the converged roots
    are closer than REPEATED_ROOT_FACTOR * tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    coeffs = [complex(c) for c in poly]
    if not coeffs or coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    lead = coeffs[0]
    coeffs = [c / lead for c in coeffs]
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("polynomial degree must be >= 1")

    radius = 1.0 + max(abs(c) for c in coeffs[1:])
    angle0 = math.sqrt(2.0)
    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * j / degree + angle0))
        for j in range(degree)
    ]
    converged = False
    for _ in range(max_iter):
        new = list(z)
        worst = 0.0
        for j in range(degree):
            denom = 1.0 + 0j
            for m in range(degree):
                if m != j:
                    denom *= z[j] - z[m]
            if denom == 0:
                denom = complex(tol, tol)
            delta = _horner(coeffs, z[j]) / denom
            new[j] = z[j] - delta
            worst = max(worst, abs(delta))
        z = new
        if worst < tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(max_iter, tuple(z))

    z.sort(key=lambda w: (-abs(w), -w.real, -w.imag))
    condition = math.inf
    for i in range(degree):
        for j in range(i + 1, degree):
            condition = min(condition, abs(z[i] - z[j]))
    threshold = REPEATED_ROOT_FACTOR * tol
    if condition < threshold:
        raise NearRepeatedRootsError(condition, threshold)
    return RootSet(tuple(z), 0, condition)


@dataclass(frozen=True)
class BinetForm:
    """Mode coefficients c_i with alpha_n = sum_i c_i root_i^n."""

    coefficients: tuple[complex, ...]


def binet_form(coeffs: CoefficientVector, seeds: SeedState, roots: RootSet) -> BinetForm:
    """Solve for the mode coefficients from the extended seed window.

    The k x k Vandermonde-type system matches alpha_n at n = -(k-1)..0.
    Refuses root sets whose minimal separation is below BINET_MIN_SEPARATION.
    """
    k = coeffs.k
    if len(roots.roots) != k:
        raise ValueError("root count must equal the recurrence order")
    if roots.condition < BINET_MIN_SEPARATION:
        raise RepeatedRootsError(
            f"minimal root separation {roots.condition:.3e} below {BINET_MIN_SEPARATION:.3e}"
        )
    a = np.zeros((k, k), dtype=complex)
    b = np.zeros(k, dtype=complex)
    for row in range(k):
        n = -(k - 1) + row
        for col in range(k):
            a[row, col] = roots.roots[col] ** n
        b[row] = float(seeds.extended[row])
    sol = np.linalg.solve(a, b)
    return BinetForm(tuple(complex(c) for c in sol))


def binet_eval(form: BinetForm, roots: RootSet, n: int) -> float:
    """Evaluate the Binet form at level n (n >= -(k-1)).

    The result of the complex mode sum must be essentially real: the
    imaginary residue is required below IMAG_RESIDUE_LIMIT * max(1, |real part|),
    else ImaginaryResidueError. FloatRangeError names n when a power or
    the sum overflows float64.
    """
    k = len(form.coefficients)
    if n < -(k - 1):
        raise ValueError(f"n must be >= -(k-1) = {-(k - 1)}")
    try:
        value = sum((c * root**n for c, root in zip(form.coefficients, roots.roots)), 0j)
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise FloatRangeError("Binet value", n)
    limit = IMAG_RESIDUE_LIMIT * max(1.0, abs(value.real))
    if abs(value.imag) > limit:
        raise ImaginaryResidueError(value, limit)
    return value.real


@dataclass(frozen=True)
class RatioLimitReport:
    """Observed consecutive-term ratio against the dominant root."""

    n: int
    ratio: float
    dominant: float
    deviation: float
    tol: float
    subdominant_ratio: float
    convergence_expected: bool
    passed: Optional[bool]  # None when n is too small for the tolerance


def ratio_limit_check(
    coeffs: CoefficientVector, seeds: SeedState, n_max: int, tol: float = 1e-10
) -> RatioLimitReport:
    """Compare alpha_{n+1}/alpha_n at n = n_max with the dominant root.

    Requires a real positive dominant root, strictly separated in modulus,
    with a nonvanishing dominant mode coefficient (DominantModeAbsentError
    otherwise). passed is set only when the modulus gap makes convergence
    expected at this n_max, namely (sub/dom)^n_max < tol/10.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    roots = find_roots(char_poly(coeffs))
    dom = roots.roots[roots.dominant]
    if abs(dom.imag) > 1e-9 * max(1.0, abs(dom)) or dom.real <= 0:
        raise ComputationError(
            f"dominant root {dom!r} is not real positive; no ratio limit"
        )
    others = [abs(r) for i, r in enumerate(roots.roots) if i != roots.dominant]
    sub = max(others) if others else 0.0
    if sub >= abs(dom):
        raise ComputationError("dominant root is not strictly separated in modulus")
    form = binet_form(coeffs, seeds, roots)
    if abs(form.coefficients[roots.dominant]) <= tol:
        raise DominantModeAbsentError(
            "seed state has no component along the dominant mode"
        )
    seq = iterate_sequence(coeffs, seeds, n_max + 1)
    denom = seq.values[n_max]
    if denom == 0:
        raise ComputationError(f"alpha_{n_max} = 0; ratio undefined")
    ratio = seq.values[n_max + 1] / denom
    deviation = abs(float(ratio) - dom.real)
    sub_ratio = sub / abs(dom)
    expected = sub_ratio**n_max < tol / 10.0
    return RatioLimitReport(
        n=n_max,
        ratio=float(ratio),
        dominant=dom.real,
        deviation=deviation,
        tol=tol,
        subdominant_ratio=sub_ratio,
        convergence_expected=expected,
        passed=(deviation <= tol) if expected else None,
    )


@dataclass(frozen=True)
class StochasticReport:
    """Result of the exact stochasticity test and the stationary state."""

    is_stochastic: bool
    nonnegative: bool
    sums_to_one: bool
    stationary: Optional[tuple[Fraction, ...]]
    dominant_root: Optional[complex]
    dominant_gap: Optional[float]  # |dominant - 1| when roots were computable


def stochastic_analysis(coeffs: CoefficientVector) -> StochasticReport:
    """Exact stochasticity test plus stationary distribution and dominant root.

    The coefficient vector is a probability row iff every lambda_i >= 0 and
    they sum to exactly 1 (exact rational test). In that case the companion
    matrix T is row-stochastic and irreducible (lambda_k > 0), and pi T = pi
    reads pi_0 = lambda_k pi_{k-1}, pi_c = pi_{c-1} + lambda_{k-c} pi_{k-1}:
    pi_c is the tail sum lambda_k + ... + lambda_{k-c} divided by the mean
    sum_i i lambda_i, which is the sum of the tail sums, so sum(pi) = 1.
    The dominant root is reported for confirmation against 1.
    """
    lams = coeffs.values
    nonnegative = all(v >= 0 for v in lams)
    sums_to_one = sum(lams) == 1
    is_stochastic = nonnegative and sums_to_one

    stationary = None
    if is_stochastic:
        tails = list(accumulate(reversed(lams)))
        mean = sum(tails)
        stationary = tuple(t / mean for t in tails)

    dominant_root = None
    dominant_gap = None
    try:
        roots = find_roots(char_poly(coeffs))
        dominant_root = roots.roots[roots.dominant]
        dominant_gap = abs(dominant_root - 1.0)
    except ComputationError:
        pass
    return StochasticReport(
        is_stochastic=is_stochastic,
        nonnegative=nonnegative,
        sums_to_one=sums_to_one,
        stationary=stationary,
        dominant_root=dominant_root,
        dominant_gap=dominant_gap,
    )
