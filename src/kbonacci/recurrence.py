"""Exact k-step linear recurrences over arbitrary-precision rationals.

A coefficient vector (lambda_1, ..., lambda_k) with every entry nonzero
defines the recurrence

    alpha_{n+1} = lambda_1 * alpha_n + ... + lambda_k * alpha_{n-k+1}.

Sequences are pinned down by a seed state built from a base value alpha_0
and k-1 higher ladder values (alpha_0^(2), ..., alpha_0^(k)); the values at
negative indices follow the convention alpha_{-m} = alpha_0^(m+1) / lambda_{m+1}.

Three independent evaluation routes are provided: direct iteration,
companion-matrix powers T^n, taken as x^n modulo the characteristic
polynomial (Fiduccia 1985, SIAM J. Comput. 14(1)), and, for the all-ones
coefficient case, the Miles multinomial formula. All three are exact and
return fractions.Fraction values. Iteration and companion powers share one
integer path: with integral coefficients they run on Python ints, several
times faster than Fraction arithmetic, the seeds scaled by the lcm of their
denominators (see _exact.same_arithmetic). Iteration with non-integral
coefficients runs on ints as well, for any denominators: each value is
kept in lowest terms from its denominator's exponents over a coprime base
of the input denominators, found by gcds with no factoring, and its
reduced pair is written into a Fraction directly (see
_exact.rational_recurrence and _exact._written). Companion powers with any
coefficients run on the integers mu_i = lambda_i q^i, q the lcm of the
coefficients' denominators (q = 1 for integral ones), and each result is
divided back once, after the part of q^n that its denominator provably
lacks over the same coprime base is divided out (see
_exact.rational_companion_power). matrix_sequence stays on Fractions for
non-integral coefficients, an independent route to check iteration
against. Miles' numbers never use the recurrence: at k = 2 they are
Miles' sum of binomials comb(t - a, a), walked by term ratios, and for
k >= 3 an alternating sum of t // (k+1) + 1 terms read off the
compositions' generating function (1 - x)/(1 - 2x + x^(k+1)); k = 2 keeps
the walk because the closed form is slower there (see miles_number). The
iteration and companion loops themselves are _exact.iterate and
_exact.companion_sequence, which use only exact +, - and *: the command
line runs them on decimal.Decimal to print integer values in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import _exact
from .errors import DomainError, OrderMismatchError

__all__ = [
    "CoefficientVector",
    "SeedState",
    "ExactSequence",
    "extend_seeds",
    "iterate_sequence",
    "matrix_power_sequence",
    "matrix_sequence",
    "miles_number",
    "energy_from_miles",
]


@dataclass(frozen=True)
class CoefficientVector:
    """Recurrence coefficients (lambda_1, ..., lambda_k), all nonzero.

    The order k is the number of coefficients. Entries are coerced to
    Fraction; ints and strings like "1/2" are accepted.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_exact.as_fraction(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("recurrence order k must be at least 1")
        if any(v == 0 for v in vals):
            raise ValueError("all recurrence coefficients must be nonzero")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SeedState:
    """Seed data for one sequence.

    alpha0   the base value alpha_0
    higher   the k-1 values (alpha_0^(2), ..., alpha_0^(k))
    extended the window (alpha_{-(k-1)}, ..., alpha_{-1}, alpha_0) obtained
             from the division convention; this is what iteration and the
             companion matrix act on.
    """

    alpha0: Fraction
    higher: tuple[Fraction, ...] = field(default=())
    extended: tuple[Fraction, ...] = field(default=())


def extend_seeds(coeffs: CoefficientVector, alpha0, higher) -> SeedState:
    """Build a SeedState from vacuum-form data.

    higher must have length k-1. The extended window is filled via
    alpha_{-m} = alpha_0^(m+1) / lambda_{m+1} for m = 1..k-1, which is well
    defined because coefficients are nonzero.
    """
    alpha0 = _exact.as_fraction(alpha0)
    higher_t = tuple(_exact.as_fraction(h) for h in higher)
    if len(higher_t) != coeffs.k - 1:
        raise OrderMismatchError(
            f"expected {coeffs.k - 1} higher seed values for order k={coeffs.k}, "
            f"got {len(higher_t)}"
        )
    extended = []
    for m in range(coeffs.k - 1, 0, -1):
        extended.append(higher_t[m - 1] / coeffs.values[m])
    extended.append(alpha0)
    return SeedState(alpha0, higher_t, tuple(extended))


@dataclass(frozen=True)
class ExactSequence:
    """Values alpha_0..alpha_n of one sequence, all exact rationals."""

    values: tuple[Fraction, ...]


def _validated(coeffs: CoefficientVector, seeds: SeedState, n: int, name: str):
    if n < 0:
        raise ValueError(f"{name} must be >= 0")
    if len(seeds.extended) != coeffs.k:
        raise OrderMismatchError("seed state extended window length must equal k")
    return coeffs.values, seeds.extended


def _inputs(coeffs: CoefficientVector, seeds: SeedState, n: int, name: str):
    return _exact.same_arithmetic(*_validated(coeffs, seeds, n, name))


def iterate_sequence(coeffs: CoefficientVector, seeds: SeedState, n_max: int) -> ExactSequence:
    """Evaluate alpha_0..alpha_{n_max} by direct iteration.

    Exact, with Fraction results. n_max must be >= 0.
    """
    d, lams, window = _inputs(coeffs, seeds, n_max, "n_max")
    if type(lams[0]) is Fraction:
        return ExactSequence(_exact.rational_recurrence(lams, window, n_max))
    return ExactSequence(_exact.fractions(_exact.iterate(lams, window, n_max), d))


def matrix_power_sequence(coeffs: CoefficientVector, seeds: SeedState, n: int) -> tuple[Fraction, ...]:
    """Return T^n applied to the extended seed window, T the companion matrix.

    The result is (alpha_{n-k+1}, ..., alpha_n); its last component equals
    iterate_sequence(coeffs, seeds, n).values[n]. The rows of T^n are
    x^n, ..., x^(n+k-1) modulo the characteristic polynomial, by square and
    multiply on polynomials (Fiduccia 1985), on ints for any coefficients
    (see _exact.rational_companion_power); results are always Fractions.
    """
    return _exact.rational_companion_power(*_validated(coeffs, seeds, n, "n"), n)


def matrix_sequence(coeffs: CoefficientVector, seeds: SeedState, n_max: int) -> ExactSequence:
    """alpha_0..alpha_{n_max} as matrix_power_sequence(coeffs, seeds, m)[-1]
    in one pass: one power T^k, then the disjoint windows
    w_{(j+1)k} = T^k w_{jk} from the seed window w_0, O(n_max * k) products."""
    d, lams, window = _inputs(coeffs, seeds, n_max, "n_max")
    values = _exact.companion_sequence(lams, window, n_max)
    return ExactSequence(_exact.fractions(values, d))


def _miles(k: int, t: int) -> int:
    """F_{t+k-1}^(k), k >= 2 and t >= 0, by the identity miles_number
    names for k."""
    if k == 2:
        # term a is comb(t - a, a); the quotient is the next one, so // is exact
        term = value = 1
        for a in range(t // 2):
            K = t - 2 * a
            term = term * (K * (K - 1)) // ((a + 1) * (t - a))
            value += term
        return value
    if t == 0:
        return 1
    top = t // (k + 1)
    acc = 1
    for j in range(1, top + 1):
        n = t - j * k  # >= j >= 1, so comb(n - 1, j - 1) = comb(n, j) j / n exactly
        term = comb(n, j)
        term += term * j // n
        acc = (acc << (k + 1)) + (-term if j % 2 else term)
    return (acc << (t - top * (k + 1))) >> 1


def miles_number(k: int, m: int) -> int:
    """k-generalized Fibonacci number F_m^(k), without the recurrence.

    F_m^(k) counts the compositions of t = m - k + 1 into parts <= k
    (Miles 1960): the sum over a_1 + 2 a_2 + ... + k a_k = t of
    (a_1 + ... + a_k)! / (a_1! ... a_k!).

    k = 2: Miles' sum itself, sum over a of comb(t - a, a). Each term is
    the one before it times K (K - 1) / ((a + 1) (t - a)), K = t - 2 a,
    starting from 1; the product is formed before the division and the
    quotient is the next binomial, so each // is exact.

    k >= 3: the coefficient of x^t in the compositions' generating
    function (1 - x)/(1 - 2x + x^(k+1)) (Flajolet and Sedgewick,
    Analytic Combinatorics, ch. I). For t >= 1,

        2 F = sum_{j=0}^{t // (k+1)} (-1)^j
              [comb(t - jk, j) + comb(t - jk - 1, j - 1)] 2^(t - j(k+1)),

    summed by Horner's rule in 2^(k+1) and halved exactly; F = 1 at
    t = 0. Each term takes one comb: n = t - jk >= j >= 1, so
    comb(n - 1, j - 1) = comb(n, j) j / n, an exact division.

    k = 2 keeps the walk: there the closed form has t/3 + 1 terms, and
    their binomials of numbers up to t bits make it several times slower
    from t of a few hundred on. Neither identity runs the recurrence, so
    the value stays an independent check of iteration.

    Requires k >= 2 and m >= k - 1 (DomainError otherwise).
    """
    if k < 2:
        raise DomainError("miles_number requires order k >= 2")
    target = m - k + 1
    if target < 0:
        raise DomainError(f"m must be >= k - 1, got m={m} for k={k}")
    return _miles(k, target)


def energy_from_miles(k: int, n: int) -> int:
    """Energy level E_n for the all-ones coefficient case: F_{n+k-1}^(k)."""
    if n < 0:
        raise DomainError("level n must be >= 0")
    return miles_number(k, n + k - 1)
