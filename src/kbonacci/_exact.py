"""Exact linear algebra shared by the recurrence, spectral, algebra and
substitution layers.

Matrices are lists of rows and vectors are lists; entries are Python ints or
fractions.Fraction. The kernels are written once for both: integer work is
many times faster than Fraction work (no gcd per operation), so callers
convert their inputs with same_arithmetic, the one place that chooses, and
their results back with fractions. matrix_char_poly scales its matrix to
integers the same way. as_fraction is the one coercion of exact inputs.
Both rational kernels split denominators over a coprime base of the input
denominators (coprime_base: gcds, no factoring). Iteration with
non-integral coefficients, which same_arithmetic leaves on Fractions, runs
on ints too (rational_recurrence): each value's exponents over the base
and its numerator's residue modulo their product keep it in lowest terms
with no gcd of long values. Companion powers are polynomial powers
(Fiduccia 1985, SIAM J. Comput. 14(1)), k^2 products per squaring against
k^3 for a matrix product; they run on ints for any coefficients, for
x = y/q, q the lcm of the coefficient denominators
(rational_companion_power), and each result is divided back once. Every
such reduced pair becomes a Fraction in _written, the one writer of
Fraction slots here, with neither a gcd nor Fraction's argument dispatch.
iterate and companion_sequence, the recurrence's two routes, and mat_vec
use only exact +, - and *, so they also run unchanged on decimal.Decimal in
an exact context, as the command line does for integer values. squarefree
decides exactly whether a polynomial has a repeated root, so that the
float root iteration only ever runs on simple roots.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from itertools import repeat
from math import ceil, gcd, lcm, prod
from operator import add, floordiv, sub


# The largest |e| of a literal such as "1e400": Fraction builds 10^|e|
# first, a power with 10^12 digits for "1e1000000000000".
MAX_LITERAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def as_fraction(value) -> Fraction:
    """An exact input as a Fraction; ints and strings like "1/2" are
    accepted. Floats are refused (TypeError): they are not exact, and so
    is a string whose exponent e has |e| > MAX_LITERAL_EXPONENT (ValueError)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("exact coefficients must be int, str, or Fraction, not float")
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent and int(exponent[1]) > MAX_LITERAL_EXPONENT:
        raise ValueError(f"exponent outside [-{MAX_LITERAL_EXPONENT}, {MAX_LITERAL_EXPONENT}]")
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


_new = object.__new__
_set_numerator = Fraction._numerator.__set__
_set_denominator = Fraction._denominator.__set__


def fractions(values, d: int = 1) -> tuple[Fraction, ...]:
    """A column of results, divided by d, as a tuple of Fractions. The
    column is one of same_arithmetic's two kinds: all Fractions with d = 1,
    returned as they are, or all ints with any d, each divided by its gcd
    with d and written by _written."""
    if values and type(values[0]) is Fraction:
        return tuple(values)
    if d == 1:
        return _written(values, repeat(1), len(values))
    g = list(map(gcd, values, repeat(d)))
    return _written(map(floordiv, values, g), map(floordiv, repeat(d), g), len(values))


def _written(numerators, denominators, size: int) -> tuple[Fraction, ...]:
    """The size Fractions numerators[i]/denominators[i] as a tuple, built
    without Fraction's gcd and type dispatch: the slots are written
    directly, one slot at a time for the whole tuple, as CPython's own
    Fraction._from_coprime_ints (3.12+) does for one. The slot names are
    those of CPython 3.10-3.13. A pair that is not in lowest terms with a
    positive denominator gives a Fraction that compares and hashes wrongly,
    so callers must guarantee both conditions."""
    out = tuple(map(_new, repeat(Fraction, size)))
    deque(map(_set_numerator, out, numerators), 0)
    deque(map(_set_denominator, out, denominators), 0)
    return out


def _strip(x: int, b: int) -> tuple[int, int]:
    """(x / b^v, v) for x != 0, b^v the largest power of b dividing x."""
    v = 0
    while x % b == 0:
        x //= b
        v += 1
    return x, v


def coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which each of numbers (all >= 1) is
    a product of powers, by splitting on gcds (factor refinement, Bach,
    Driscoll and Shallit 1993, J. Algorithms 15): no factoring, so a large
    denominator with no known factors costs a few gcds."""
    base, pending = [], list(numbers)
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for j, b in enumerate(base):
            g = gcd(x, b)
            if g != 1:  # b x / g shrinks, so this ends
                del base[j]
                pending += (g, b // g, x // g)
                break
        else:
            base.append(x)
    return base


def rational_recurrence(lams, window, n: int) -> tuple[Fraction, ...]:
    """alpha_0..alpha_n of alpha_{m+1} = sum_i lams[i] alpha_{m-i} as
    reduced Fractions, from the window (alpha_{-(k-1)}, ..., alpha_0); lams
    and window hold Fractions.

    Every denominator is a product of powers of B, a coprime base of the
    input denominators. A value is held as its numerator and denominator,
    and, while it is in the window, the exponents e_b of B in its
    denominator (None for zero) and its numerator's residue mod M = prod B.
    lams[i] = L_i prod b^u_ib, L_i the numerator's cofactor after every
    whole power of each b is taken out; L_i may still share a proper factor
    with some b. A step takes E_b = max(0, max_i(e_ib - u_ib)) over the
    nonzero terms, so that every term is a multiple of 1/prod b^E_b, the
    sum X = sum_i m_i numerator_i with m_i = L_i prod b^(E_b - e_ib + u_ib),
    and D = prod b^E_b. If gcd(R, M) = 1 for R = sum_i (m_i mod M) r_i
    mod M, r_i the terms' residues, nothing cancels and the step divides no
    long value. Else it divides X by b while E_b > 0 and gcd(R, b) = b,
    taking the residue again after each division, and D once by the
    product q of those divisions. X/D is then reduced, unless
    1 < gcd(R, b) < b for some b with E_b > 0: that proper factor refines B
    (coprime_base), and the run starts again from the window. Each
    refinement splits a divisor of the lcm of the denominators, so there
    are finitely many. The loop has only big-by-small products, sums,
    exact // and % by small ints, gcds of small ints, and one division of
    the denominator per step at most. The values are kept in growing lists
    read by negative index, as in iterate, and become Fractions by
    _written.

    Only the differences of the exponents matter to a step, so its small
    factors are computed once per window shape (see shape_of), and the next
    shape is looked up by how often the step divided by each element of B.
    """
    base = coprime_base([x.denominator for x in (*lams, *window)])
    while True:
        values = _recurrence_over(base, lams, window, n)
        if type(values) is tuple:
            return values
        base = coprime_base([*base, values])


def _recurrence_over(base, lams, window, n: int) -> tuple[Fraction, ...] | int:
    """rational_recurrence's run over B = base: its values, or the proper
    factor of an element of B that a step found."""
    modulus = prod(base)

    def split(x):  # (x / prod b^e_b, e) for an integer x != 0
        e = []
        for b in base:
            x, v = _strip(x, b)
            e.append(v)
        return x, tuple(e)

    def power(a):
        return prod(b**ab for b, ab in zip(base, a))

    terms = []  # (L_i, u_i)
    for lam in lams:
        L, up = split(lam.numerator)
        terms.append((L, tuple(map(sub, up, split(lam.denominator)[1]))))
    k = len(lams)
    # alpha_{m-i} is numerators[-1 - i], as in iterate; the exponents and
    # residues of the last k values are windows of the same order.
    numerators = [x.numerator for x in window]
    denominators = [x.denominator for x in window]
    exponents = deque((split(x.denominator)[1] if x else None for x in window), maxlen=k)
    residues = deque((x % modulus for x in numerators), maxlen=k)
    shapes = {}

    def shape_of():
        """(step data, top) for the window, top the exponents of its newest
        nonzero entry; (None, None) when every entry is zero.

        The shape is the exponents relative to top, rel_i = e_i - top,
        newest first. With dE = max_i(rel_i - u_i), the multipliers are
        m_i = L_i prod b^(dE - rel_i + u_i) of the nonzero entries. The
        step data are the newest nonzero entry's index, m_i and m_i mod M,
        the (index, m_i, m_i mod M) of the others, dE, whether dE has a
        negative component, prod b^dE split as b^+dE / b^-dE (D is that
        times the newest entry's denominator), and the next shapes by
        division counts. E = top + dE unless a component is negative, where
        every term is a multiple of b: E_b is then 0.
        """
        top = next((e for e in reversed(exponents) if e is not None), None)
        if top is None:
            return None, None
        key = tuple(None if e is None else tuple(map(sub, e, top)) for e in reversed(exponents))
        step = shapes.get(key)
        if step is None:
            live = [
                (-1 - i, L, tuple(map(sub, rel, u)))
                for i, (rel, (L, u)) in enumerate(zip(key, terms))
                if rel is not None
            ]
            dE = tuple(max(c) for c in zip(*(s for _, _, s in live)))
            multipliers = []
            for i, L, s in live:
                m = L * power(map(sub, dE, s))
                multipliers.append((i, m, m % modulus))
            (first, m, r), *rest = multipliers
            step = shapes[key] = (
                first,
                m,
                r,
                tuple(rest),
                dE,
                min(dE, default=0) < 0,
                power(max(d, 0) for d in dE),
                power(max(-d, 0) for d in dE),
                {},
            )
        return step, top

    step, top = shape_of()
    no_divisions = (0,) * len(base)
    for _ in range(n):
        X = 0
        if step:
            first, m, r, rest, dE, clips, times, over, follow = step
            X = m * numerators[first]
            R = r * residues[first]
            for i, m, r in rest:
                X += m * numerators[i]
                R += r * residues[i]
        if not X:
            numerators.append(0)
            denominators.append(1)
            exponents.append(None)
            residues.append(0)
            step, top = shape_of()
            continue
        E = tuple(map(add, top, dE))
        clipped = clips and min(E) < 0
        if clipped:
            c = power(max(-x, 0) for x in E)
            X *= c
            R *= c
            E = tuple(max(x, 0) for x in E)
            D, q = power(E), 1
        else:
            D, q = denominators[first] * times, over
        R %= modulus
        counts = no_divisions
        if gcd(R, modulus) != 1:  # X shares a factor with B: divide out those of D
            E, counts = list(E), [0] * len(base)
            for j, factor in enumerate(base):
                while E[j]:
                    g = gcd(R, factor)
                    if g == 1:
                        break
                    if g != factor:
                        return g
                    X //= factor
                    R = X % modulus
                    E[j] -= 1
                    counts[j] += 1
                    q *= factor
            E, counts = tuple(E), tuple(counts)
        if q != 1:
            D //= q
        numerators.append(X)
        denominators.append(D)
        exponents.append(E)
        residues.append(R)
        if clipped:
            step, top = shape_of()
        else:
            nxt = follow.get(counts)
            if nxt is None:
                nxt = follow[counts] = shape_of()[0]
            step, top = nxt, E
    del numerators[: k - 1], denominators[: k - 1]
    return _written(numerators, denominators, n + 1)


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


def rational_companion_power(lams, window, e: int) -> tuple[Fraction, ...]:
    """T**e applied to window (both Fractions) as reduced Fractions, by
    companion_power on ints: with q the lcm of the coefficients'
    denominators, x = y/q turns chi into the integral
    psi(y) = y^k - sum_i mu_i y^(k-i), mu_i = lams[i-1] q^i. If W_j are the
    coefficients of y^t mod psi, x^t = sum_j W_j q^j x^j / q^t mod chi, so
    with window = r/d, r integral, result t (t = e, ..., e+k-1) is
    N_t / (q^t d), N_t = sum_j W_j q^j r_j.

    q^t d can hold far more of a factor than the result's denominator:
    with lams = (-1/2, 1/65537), alpha_t needs 65537^(t/2), q^t holds
    65537^t. So the known part of that excess is divided out first. Over
    a coprime base B of the denominators of lams and window, every
    denominator is a product of powers of B. For b in B, with
    g = max_i(v_b(den lams[i-1]) / i) and c = min_j(j g - v_b(den window[j]))
    over the nonzero entries, every prime p of b gives
    v_p(alpha_t) >= v_p(b) (c - t g), by induction over the recurrence, as
    v_p(lams[i-1]) >= -i g v_p(b). So b^(v_b(q^t d) - s) divides N_t for
    s = max(0, ceil(t g - c)), and result t is
    (N_t / prod b^(v_b(q^t d) - s)) / prod b^s, whose gcd works on about
    the reduced sizes; the reduced pairs are written by _written.
    With integral coefficients q = 1, every s is v_b(d), and this is the
    integer path of same_arithmetic."""
    q = lcm(*(c.denominator for c in lams))
    mus = [c.numerator * (q**i // c.denominator) for i, c in enumerate(lams, 1)]
    d = lcm(1, *(x.denominator for x in window))
    scaled = [x.numerator * (d // x.denominator) * q**j for j, x in enumerate(window)]
    bounds = []
    for b in coprime_base([x.denominator for x in (*lams, *window)]):
        g = max(Fraction(_strip(lam.denominator, b)[1], i) for i, lam in enumerate(lams, 1))
        c = min((j * g - _strip(x.denominator, b)[1] for j, x in enumerate(window) if x), default=0)
        bounds.append((b, _strip(q, b)[1], _strip(d, b)[1], g, c))
    out = []
    for t, x in enumerate(mat_vec(companion_power(mus, e), scaled), e):
        over = under = 1
        for b, vq, vd, g, c in bounds:
            s = max(0, ceil(t * g - c))
            over *= b ** (t * vq + vd - s)
            under *= b**s
        # each test skips a pass over x that would divide by 1
        if over != 1:
            x //= over
        common = gcd(x, under) if under != 1 else 1
        if common != 1:
            x, under = x // common, under // common
        out.append((x, under))
    return _written(*zip(*out), len(out))


def iterate(lams, window: list, n: int) -> list:
    """alpha_0..alpha_n of alpha_{m+1} = sum_i lams[i] alpha_{m-i}, from the
    window list (alpha_{-(k-1)}, ..., alpha_0), which it extends in place.
    A step adds the terms of coefficient +1, subtracts those of -1 and
    multiplies only by the other coefficients, reading its k terms by index
    from the growing list. A sum starts from a value or from int 0, never
    from a product, so on Decimals no value is -0 (Decimal(-2) * 0 is)."""
    # values holds alpha_{-(k-1)}..alpha_m, so alpha_{m-i+1} is values[-i].
    values = window
    plus = [-i for i, c in enumerate(lams, 1) if c == 1]
    minus = [-i for i, c in enumerate(lams, 1) if c == -1]
    scaled = [(-i, c) for i, c in enumerate(lams, 1) if c not in (1, -1)]
    first = plus.pop() if plus else 0  # a +1 term starts the sum, saving an addition to 0
    for _ in range(n):
        nxt = values[first] if first else 0
        for i in plus:
            nxt += values[i]
        for i in minus:
            nxt -= values[i]
        for i, c in scaled:
            nxt += c * values[i]
        values.append(nxt)
    del values[: len(lams) - 1]
    return values


def companion_sequence(lams, window: list, n: int) -> list:
    """The same alpha_0..alpha_n as iterate, by companion powers: one power
    T^k, then the disjoint windows w_{(j+1)k} = T^k w_{jk} from the seed
    window w_0, O(n k) products."""
    step = companion_power(lams, len(lams))
    values = window[-1:]
    while len(values) <= n:
        window = mat_vec(step, window)
        values += window
    del values[n + 1 :]
    return values


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
