"""Exact linear algebra shared by the recurrence, spectral and substitution layers.

Matrices are lists of rows and vectors are lists; entries are Python ints or
fractions.Fraction. The kernels are written once for both: integer work is
many times faster than Fraction work (no gcd per operation), so callers
convert their inputs with same_arithmetic, the one place that chooses, and
their results back with fractions. matrix_char_poly scales its matrix to
integers instead, and solve works over Fraction because it divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ComputationError


def same_arithmetic(*groups):
    """Each group of rationals (ints or Fractions) as a list of ints when every
    entry of every group is integral, else as a list of the entries as given."""
    if all(x.denominator == 1 for group in groups for x in group):
        return [[x.numerator for x in group] for group in groups]
    return [list(group) for group in groups]


def fractions(values) -> tuple[Fraction, ...]:
    """Results of either arithmetic as a tuple of Fractions, without copying
    the ones that already are."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_pow(a, e: int):
    """a**e for a square matrix and e >= 0, by square and multiply."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else mat_mul(result, a)
        e >>= 1
        if e:
            a = mat_mul(a, a)
    if result is None:
        return [[int(r == c) for c in range(len(a))] for r in range(len(a))]
    return result


def solve(rows, rhs) -> list[Fraction]:
    """x with rows . x = rhs, by Gauss-Jordan elimination over Fraction.

    Raises ComputationError when the system is singular.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[r])] for r, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ComputationError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def matrix_char_poly(rows) -> tuple[Fraction, ...]:
    """det(xI - M) of a square rational matrix, descending coefficients.

    Exact at any size: Faddeev-LeVerrier on A = d*M, d the lcm of M's
    denominators. With P_1 = I, c_j = -tr(A P_j) / j and
    P_{j+1} = A P_j + c_j I; A is integral, so every c_j is an integer and
    each division is exact, and the coefficient of x^(n-j) in det(xI - M)
    is c_j / d^j. n matrix products, O(n^4). The 0 x 0 matrix gives (1,).
    ValueError unless the matrix is square.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m = [[Fraction(x) for x in row] for row in rows]
    d = lcm(1, *(x.denominator for row in m for x in row))
    a = [[(x * d).numerator for x in row] for row in m]
    coeffs = [Fraction(1)]
    p = mat_pow(a, 0)  # P_1 = I
    for j in range(1, n + 1):
        ap = mat_mul(a, p)
        c = -sum(ap[i][i] for i in range(n)) // j
        coeffs.append(Fraction(c, d**j))
        p = ap
        for i in range(n):
            p[i][i] += c
    return tuple(coeffs)
