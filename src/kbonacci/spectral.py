"""Characteristic polynomials, roots, Binet forms, and stochastic analysis.

The characteristic polynomial of the order-k recurrence is
x^k - lambda_1 x^{k-1} - ... - lambda_k, built directly from the
coefficients; matrix_char_poly computes det(xI - M) of an arbitrary square
rational matrix by exact Faddeev-LeVerrier (in _exact, with the other exact
linear algebra), which gives an independent route for cross-checks
(companion matrix, mixed-state matrix, abelianizations).

Roots are exact-first: an exact squarefree test (gcd(p, p') modulo a
61-bit prime, over Fraction only when that is nontrivial) refuses a repeated
root before any float work, and a simultaneous Aberth-Ehrlich iteration from
Newton-polygon starting radii finds the simple ones, stopping on a relative
correction. Everything downstream (Binet coefficients, ratio limits,
dominant root reports) consumes its RootSet. A probability row needs no
iteration: its dominant root is exactly 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from ._exact import matrix_char_poly, squarefree
from .errors import (
    ComputationError,
    DominantModeAbsentError,
    FloatRangeError,
    ImaginaryResidueError,
    NearRepeatedRootsError,
    NonConvergenceError,
    RepeatedRootsError,
)
from .recurrence import CoefficientVector, SeedState, iterate_sequence

__all__ = [
    "CompanionMatrix",
    "MixedStateMatrix",
    "RootSet",
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
        k = coeffs.k
        zero, one = Fraction(0), Fraction(1)
        rows = [tuple(one if c == r + 1 else zero for c in range(k)) for r in range(k - 1)]
        rows.append(coeffs.values[::-1])
        return cls(k, tuple(rows))


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

    Two values within tol * max(1, |x|, |y|) of each other (tol that of
    find_roots) count as equal in that order, so conjugate pairs and roots
    of equal modulus keep a fixed order whatever noise is in their last
    bits. dominant is the index of the maximal-modulus root under that
    tie-break (always 0 after sorting); condition is the minimal pairwise
    distance. iterations counts the Aberth sweeps and last_correction is
    the largest relative correction |delta_j| / max(1, |z_j|) of the last
    sweep (at most tol).
    """

    roots: tuple[complex, ...]
    dominant: int
    condition: float
    iterations: int = 0
    last_correction: float = 0.0


# Angle offset of the starting points (Bini 1996), so that no start lies on
# a symmetry axis of a real polynomial.
_START_ANGLE = 0.7
# Hull edges whose slopes differ by less than this are merged, so that no
# two edges put starting points on circles of (nearly) one radius.
_HULL_SLOPE_TOL = 1e-3


def _starting_points(coeffs: list[complex]) -> list[complex]:
    """Bini's starting points for a polynomial with nonzero constant term.

    Over the upper convex hull of the points (i, log|a_i|), a_i the
    coefficient of x^i and zero coefficients skipped, edge number e, from
    i0 to i1, carries h = i1 - i0 points at angles 2 pi (m / h + e / n) + 0.7
    on the circle of radius |a_i0 / a_i1|^(1 / h), the root moduli the
    Newton polygon predicts. The points are pairwise distinct.
    """
    n = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(reversed(coeffs)):
        if c == 0:
            continue
        pt = (i, math.log(abs(c)))
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) / (x1 - x0) > (pt[1] - y1) / (pt[0] - x1) + _HULL_SLOPE_TOL:
                break
            hull.pop()
        hull.append(pt)
    z = []
    for e, ((i0, l0), (i1, l1)) in enumerate(zip(hull, hull[1:])):
        h = i1 - i0
        radius = math.exp((l0 - l1) / h)
        z.extend(
            cmath.rect(radius, 2.0 * math.pi * (m / h + e / n) + _START_ANGLE)
            for m in range(h)
        )
    return z


def _newton_terms(
    coeffs: list[complex], rev: list[complex], z: complex, reverse_beyond: float
) -> tuple[complex, complex]:
    """(u, v) with p(z) / p'(z) = u / v, by Horner in z up to
    |z| = reverse_beyond and on the reversed polynomial in w = 1/z beyond:
    p(z) = z^n q(w) and p'(z) = z^(n-1) (n q(w) - w q'(w)), so neither part
    overflows for a large root. Horner in z is the default because the
    rounding of w shifts the point of evaluation by up to half an ulp of z."""
    if abs(z) <= reverse_beyond:
        p = dp = 0j
        for c in coeffs:
            dp = dp * z + p
            p = p * z + c
        return p, dp
    w = 1.0 / z
    q = dq = 0j
    for c in rev:
        dq = dq * w + q
        q = q * w + c
    return z * q, (len(coeffs) - 1) * q - w * dq


def _root_order(tol: float):
    """Sort key: descending modulus, real part, imaginary part, each
    compared up to tol * max(1, |x|, |y|)."""

    def compare(a: complex, b: complex) -> int:
        for x, y in ((abs(a), abs(b)), (a.real, b.real), (a.imag, b.imag)):
            if abs(x - y) > tol * max(1.0, abs(x), abs(y)):
                return -1 if x > y else 1
        return 0

    return cmp_to_key(compare)


def find_roots(poly: Sequence, tol: float = 1e-13, max_iter: int = 500) -> RootSet:
    """All complex roots of a polynomial: an exact squarefree gate, then a
    simultaneous Aberth-Ehrlich iteration.

    poly holds descending coefficients, leading coefficient nonzero. When
    every coefficient is exact (int or Fraction, as char_poly gives), a
    repeated root is decided before any float work (_exact.squarefree:
    gcd(p, p') modulo 2^61 - 1, over Fraction only when that is nontrivial)
    and raises RepeatedRootsError. Zero roots are split off exactly. The
    iteration (Aberth 1973, Math. Comp. 27; Bini 1996, Numer. Algorithms
    13) starts from the radii of the Newton polygon and updates each root
    in turn, Gauss-Seidel style, by
    delta_j = N_j / (1 - N_j * sum_{m != j} 1 / (z_j - z_m)), with the
    Newton correction N_j = p(z_j) / p'(z_j) evaluated by Horner. The stop
    is relative: a root stays put once |delta_j| <= tol * max(1, |z_j|),
    and the iteration ends when every root has. Raises NonConvergenceError
    at the iteration cap (best iterate attached) and, as the float
    backstop for inexact input and squarefree near-repeats,
    NearRepeatedRootsError when the converged roots are closer than
    REPEATED_ROOT_FACTOR * tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not poly or poly[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if len(poly) < 2:
        raise ValueError("polynomial degree must be >= 1")
    if all(isinstance(c, (int, Fraction)) for c in poly) and not squarefree(poly):
        raise RepeatedRootsError("the polynomial has a repeated root (gcd(p, p') is not constant)")
    lead = poly[0]
    try:
        coeffs = [complex(c / lead) for c in poly]
    except OverflowError:
        raise ComputationError("polynomial coefficients beyond the float64 range") from None
    zeros = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    rev = coeffs[::-1]
    # |z|^n stays below 2^512 in Horner on z, leaving headroom for the coefficients
    reverse_beyond = 2.0 ** (512 / max(1, len(coeffs) - 1))

    z = _starting_points(coeffs)
    active = range(len(z))
    iterations = 0
    worst = 0.0
    while active:
        if iterations == max_iter:
            raise NonConvergenceError(max_iter, tuple(z))
        iterations += 1
        moving = []
        worst = 0.0
        for j in active:
            zj = z[j]
            u, v = _newton_terms(coeffs, rev, zj, reverse_beyond)
            if u == 0:
                continue  # z_j is a root to working precision
            s = 0j
            for w in z:
                if w != zj:
                    s += 1.0 / (zj - w)
            den = v - u * s
            if den == 0:
                moving.append(j)
                continue
            delta = u / den
            zj -= delta
            z[j] = zj
            rel = abs(delta) / max(1.0, abs(zj))
            if not rel <= tol:  # a NaN keeps iterating into the cap
                moving.append(j)
            worst = max(worst, rel)
        active = moving
    z.extend([0j] * zeros)

    z.sort(key=_root_order(tol))
    condition = math.inf
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            condition = min(condition, abs(z[i] - z[j]))
    threshold = REPEATED_ROOT_FACTOR * tol
    if condition < threshold:
        raise NearRepeatedRootsError(condition, threshold)
    return RootSet(tuple(z), 0, condition, iterations, worst)


def binet_form(coeffs: CoefficientVector, seeds: SeedState, roots: RootSet) -> tuple[complex, ...]:
    """The mode coefficients c_i with alpha_n = sum_i c_i root_i^n, solved
    from the extended seed window.

    The k x k Vandermonde-type system matches alpha_n at n = -(k-1)..0.
    Refuses root sets whose minimal separation is below BINET_MIN_SEPARATION.
    FloatRangeError names n when the seed alpha_n or a root's power root^n
    of the system is beyond the float64 range (a root that is 0.0 in
    float64 has no negative power).
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
        try:
            b[row] = float(seeds.extended[row])
        except OverflowError:
            raise FloatRangeError("seed value", n) from None
        for col in range(k):
            try:
                a[row, col] = roots.roots[col] ** n
            except (OverflowError, ZeroDivisionError):
                raise FloatRangeError(f"power of root {col + 1}", n) from None
    sol = np.linalg.solve(a, b)
    return tuple(complex(c) for c in sol)


def binet_eval(coefficients: Sequence[complex], roots: RootSet, n: int) -> float:
    """alpha_n = sum_i c_i root_i^n at level n (n >= -(k-1)), the c_i the
    mode coefficients that binet_form gives.

    The result of the complex mode sum must be essentially real: the
    imaginary residue is required below IMAG_RESIDUE_LIMIT * max(1, |real part|),
    else ImaginaryResidueError. FloatRangeError names n when a power or
    the sum overflows float64.
    """
    k = len(coefficients)
    if n < -(k - 1):
        raise ValueError(f"n must be >= -(k-1) = {-(k - 1)}")
    try:
        value = sum((c * root**n for c, root in zip(coefficients, roots.roots)), 0j)
    except (OverflowError, ZeroDivisionError):
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
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
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
    modes = binet_form(coeffs, seeds, roots)
    if abs(modes[roots.dominant]) <= tol:
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
    The dominant root of a probability row is exactly 1, reported without
    a root iteration: sum(lambda) = 1 makes 1 a root, p'(1) =
    sum_i i lambda_i > 0 makes it simple, Perron-Frobenius makes it
    dominant, and it sorts first among the roots of modulus 1. Any other
    row gets its dominant root from find_roots, or none when that fails.
    """
    lams = coeffs.values
    nonnegative = all(v >= 0 for v in lams)
    sums_to_one = sum(lams) == 1
    is_stochastic = nonnegative and sums_to_one

    stationary = dominant_root = dominant_gap = None
    if is_stochastic:
        tails = list(accumulate(reversed(lams)))
        mean = sum(tails)
        stationary = tuple(t / mean for t in tails)
        dominant_root, dominant_gap = 1 + 0j, 0.0
    else:
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
