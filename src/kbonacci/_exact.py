"""Exact linear algebra shared by the recurrence, spectral, algebra and
substitution layers.

Matrices are lists of rows and vectors are lists; entries are Python ints or
fractions.Fraction. The kernels are written once for both: integer work is
many times faster than Fraction work (no gcd per operation), so callers
convert their inputs with same_arithmetic, the one place that chooses, and
their results back with fractions. matrix_char_poly scales its matrix to
integers the same way. as_fraction is the one coercion of exact inputs.
Companion powers are polynomial powers (Fiduccia 1985, SIAM J. Comput.
14(1)), k^2 products per squaring against k^3 for a matrix product.
squarefree decides exactly whether a polynomial has a repeated root, so that
the float root iteration only ever runs on simple roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(value) -> Fraction:
    """An exact input as a Fraction; ints and strings like "1/2" are
    accepted. Floats are refused (TypeError): they are not exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("exact coefficients must be int, str, or Fraction, not float")
    return Fraction(value)


def same_arithmetic(coefficients, *groups):
    """(d, coefficients, *groups) as lists for a computation linear in the
    groups' entries: all ints when every coefficient is integral, the group
    entries scaled by d, the lcm of their denominators (so results are d
    times the true ones); else d = 1 and every entry as given."""
    if any(c.denominator != 1 for c in coefficients):
        return (1, list(coefficients), *map(list, groups))
    d = lcm(1, *(x.denominator for group in groups for x in group))
    scaled = ([x.numerator * (d // x.denominator) for x in group] for group in groups)
    return (d, [c.numerator for c in coefficients], *scaled)


def fractions(values, d: int = 1) -> tuple[Fraction, ...]:
    """Results of either arithmetic, divided by d, as a tuple of Fractions,
    without copying the ones that already are."""
    if d != 1:
        return tuple(Fraction(x, d) for x in values)
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def companion_power(lams, e: int):
    """Rows of T**e (e >= 0), T the companion matrix of
    chi(x) = x^k - lams[0] x^(k-1) - ... - lams[k-1]: row i holds the
    ascending coefficients of x^(e+i) mod chi (Cayley-Hamilton), by square
    and multiply on polynomials, where multiplying by x is a shift and one
    reduction."""
    k = len(lams)
    low = lams[::-1]  # x^k = sum_j low[j] x^j mod chi

    def times_x(p):
        top = p[-1]
        return [top * low[0], *(p[j - 1] + top * low[j] for j in range(1, k))]

    def square(p):
        q = [0] * (2 * k - 1)
        for a, x in enumerate(p):
            q[2 * a] += x * x
            twice = 2 * x
            for b in range(a + 1, k):
                q[a + b] += twice * p[b]
        for top_at in range(2 * k - 2, k - 1, -1):
            top = q[top_at]
            for j in range(k):
                q[top_at - k + j] += top * low[j]
        return q[:k]

    p = [1] + [0] * (k - 1)
    for bit in bin(e)[2:]:
        p = square(p)
        if bit == "1":
            p = times_x(p)
    rows = [p]
    for _ in range(k - 1):
        rows.append(times_x(rows[-1]))
    return rows


def matrix_char_poly(rows) -> tuple[Fraction, ...]:
    """det(xI - M) of a square rational matrix, descending coefficients.

    Exact at any size: Faddeev-LeVerrier on A = d*M, d the lcm of M's
    denominators. With P_1 = I, c_j = -tr(A P_j) / j and
    P_{j+1} = A P_j + c_j I; A is integral, so every c_j is an integer and
    each division is exact, and the coefficient of x^(n-j) in det(xI - M)
    is c_j / d^j. n matrix products, O(n^4). The 0 x 0 matrix gives (1,).
    ValueError unless the matrix is square; TypeError for a float entry.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m = [[as_fraction(x) for x in row] for row in rows]
    d = lcm(1, *(x.denominator for row in m for x in row))
    a = [[(x * d).numerator for x in row] for row in m]
    coeffs = [Fraction(1)]
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    for j in range(1, n + 1):
        ap = mat_mul(a, p)
        c = -sum(ap[i][i] for i in range(n)) // j
        coeffs.append(Fraction(c, d**j))
        p = ap
        for i in range(n):
            p[i][i] += c
    return tuple(coeffs)


# A Mersenne prime: residues fit a 64-bit word and squarefree's modular gcd
# stays in small-int arithmetic.
SQUAREFREE_PRIME = (1 << 61) - 1


def squarefree(poly) -> bool:
    """Whether an exact polynomial (descending coefficients, leading one
    nonzero) has no repeated complex root, i.e. gcd(p, p') is constant.

    The denominators are cleared and the gcd is taken modulo
    SQUAREFREE_PRIME first, O(n^2) int work. A trivial gcd there proves p
    squarefree over Q: a nonconstant gcd g over Q can be taken primitive in
    Z[x] (Gauss), its leading coefficient divides p's, which the prime does
    not divide, so g mod the prime keeps its degree and divides both
    residues. Only a nontrivial modular gcd (a repeated root, or the rare
    prime that divides a resultant) is decided again over Fraction.
    """
    q = [as_fraction(c) for c in poly]
    d = lcm(1, *(c.denominator for c in q))
    p = [c.numerator * (d // c.denominator) for c in q]
    n = len(p) - 1
    dp = [c * (n - i) for i, c in enumerate(p[:-1])]
    prime = SQUAREFREE_PRIME
    if p[0] % prime and _gcd_degree([c % prime for c in p], [c % prime for c in dp], prime) == 0:
        return True
    return _gcd_degree(list(map(Fraction, p)), list(map(Fraction, dp))) == 0


def _gcd_degree(a, b, prime=None) -> int:
    """Degree of gcd(a, b) by Euclid's algorithm, descending coefficient
    lists, over GF(prime) (int residues) or over Q (Fractions) when prime
    is None. The zero polynomial has degree -1."""

    def strip(c):
        i = 0
        while i < len(c) and c[i] == 0:
            i += 1
        return c[i:]

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[0], -1, prime) if prime else 1 / b[0]
        r = a
        while len(r) >= len(b):
            f = r[0] * inv
            r = [x - f * y for x, y in zip(r[1:], b[1:])] + r[len(b):]
            r = strip([x % prime for x in r] if prime else r)
        a, b = b, r
    return len(a) - 1
