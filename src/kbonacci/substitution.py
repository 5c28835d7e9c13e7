"""Substitution rules on k letters whose growth follows the k-step recurrence.

A coefficient vector of naturals (lambda_1, ..., lambda_k) with integral
quotients q_i = lambda_i / lambda_{i-1} for i >= 3 admits rules of the shape

    A_1 -> A_1^{l_1} A_{i_1} A_1^{l_2} A_{i_2} ... A_{i_{k-1}} A_1^{l_k}
    A_2 -> A_1^{lambda_2}
    A_i -> A_{i-1}^{q_i}            for i = 3..k

with (i_1, ..., i_{k-1}) a permutation of 2..k and the l_j a composition of
lambda_1. There are (lambda_1 + 1)(lambda_1 + 2)...(lambda_1 + k - 1) such
rules, and they differ only in the image of A_1: enumerate_rules builds the
other k - 1 images once and lists the rules by permutation, then by
composition, both in lexicographic order. Chain iteration from the single
letter A_1 grows words whose lengths obey the recurrence; the
abelianization (letter-count) matrix has the same characteristic
polynomial as the companion matrix.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Optional

from . import _exact
from .errors import NonIntegralCoefficientsError, RuleFormatError
from .recurrence import CoefficientVector
from .spectral import MixedStateMatrix

__all__ = [
    "SubstitutionRule",
    "AbelianizationMatrix",
    "ChainState",
    "GrowthReport",
    "enumerate_rules",
    "parse_rule",
    "abelianization",
    "grow_chain",
    "growth_law_check",
    "rule_coefficients",
    "chain_notes",
]


@dataclass(frozen=True)
class SubstitutionRule:
    """Images of the alphabet letters A, B, C, ... in order."""

    letters: tuple[str, ...]
    images: tuple[str, ...]

    def image(self, letter: str) -> str:
        return self.images[self.letters.index(letter)]

    def as_text(self) -> str:
        return ",".join(f"{a}:{w}" for a, w in zip(self.letters, self.images))


def _natural_lambdas(coeffs: CoefficientVector) -> list[int]:
    lams = []
    for i, v in enumerate(coeffs.values, start=1):
        if v.denominator != 1 or v < 1:
            raise NonIntegralCoefficientsError(
                f"lambda_{i} = {v} is not a natural number >= 1"
            )
        lams.append(v.numerator)
    for i in range(3, len(lams) + 1):
        if lams[i - 1] % lams[i - 2] != 0:
            raise NonIntegralCoefficientsError(
                f"quotient lambda_{i}/lambda_{i - 1} = "
                f"{Fraction(lams[i - 1], lams[i - 2])} is not integral"
            )
    return lams


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # All tuples of nonnegative ints summing to total, lexicographic order.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_rules(coeffs: CoefficientVector) -> list[SubstitutionRule]:
    """All rules for the coefficient vector, ordered by (permutation, composition).

    Coefficients must be naturals with integral quotients q_i for i >= 3
    (NonIntegralCoefficientsError otherwise). The count is
    prod_{j=1}^{k-1} (lambda_1 + j).
    """
    lams = _natural_lambdas(coeffs)
    k = len(lams)
    letters = tuple(string.ascii_uppercase[:k])
    # A_2 -> A_1^{lambda_2}, A_i -> A_{i-1}^{q_i}: the images every rule shares
    powers = lams[1:2] + [lams[i] // lams[i - 1] for i in range(2, k)]
    tail = tuple(a * p for a, p in zip(letters, powers))
    rules = []
    for perm in permutations(letters[1:]):
        slots = (*perm, "")
        for comp in _compositions(lams[0], k):
            head = "".join("A" * l + letter for l, letter in zip(comp, slots))
            rules.append(SubstitutionRule(letters, (head, *tail)))
    return rules


def parse_rule(text: str) -> SubstitutionRule:
    """Parse rule text of the form "A:ABAC,B:A,C:BB"."""
    entries = []
    for part in text.split(","):
        if ":" not in part:
            raise RuleFormatError(f"rule entry {part!r} is missing ':'")
        letter, _, word = part.partition(":")
        letter = letter.strip()
        word = word.strip()
        if len(letter) != 1 or not letter.isupper():
            raise RuleFormatError(f"bad letter {letter!r} in rule text")
        if not word:
            raise RuleFormatError(f"empty image for letter {letter!r}")
        entries.append((letter, word))
    letters = tuple(sorted(a for a, _ in entries))
    expected = tuple(string.ascii_uppercase[: len(letters)])
    if letters != expected or len(set(letters)) != len(entries):
        raise RuleFormatError(
            f"letters must be exactly {''.join(expected)} without repeats"
        )
    by_letter = dict(entries)
    alphabet = set(letters)
    for a, w in entries:
        bad = set(w) - alphabet
        if bad:
            raise RuleFormatError(
                f"image of {a!r} uses letters {sorted(bad)} outside the alphabet"
            )
    return SubstitutionRule(expected, tuple(by_letter[a] for a in expected))


@dataclass(frozen=True)
class AbelianizationMatrix:
    """entries[r][c] = count of letter c in the image of letter r."""

    k: int
    entries: tuple[tuple[int, ...], ...]


def abelianization(rule: SubstitutionRule) -> AbelianizationMatrix:
    k = len(rule.letters)
    entries = tuple(
        tuple(rule.images[r].count(rule.letters[c]) for c in range(k)) for r in range(k)
    )
    return AbelianizationMatrix(k, entries)


@dataclass(frozen=True)
class ChainState:
    """Chain snapshot: word is None once length exceeds the materialization cap."""

    step: int
    word: Optional[str]
    letter_counts: tuple[int, ...]
    length: int


def grow_chain(rule: SubstitutionRule, steps: int, word_cap: int = 10000) -> list[ChainState]:
    """Iterate the rule from the single first letter for the given step count.

    Letter counts and lengths are exact integers at every step; the word
    itself is materialized only while its length stays within word_cap.
    """
    return _grow(rule, steps, word_cap, 1)


def _grow(rule: SubstitutionRule, steps: int, word_cap: int, one) -> list[ChainState]:
    """grow_chain with counts and lengths in the arithmetic of one: 1 for
    ints, or decimal.Decimal(1) inside an exact decimal context, which the
    command line uses to print large counts in time linear in their digits."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if word_cap < 1:
        raise ValueError("word_cap must be >= 1")
    k = len(rule.letters)
    # counts(step) = counts(step - 1) . M, i.e. the transpose of M times counts
    columns = tuple(tuple(one * x for x in col) for col in zip(*abelianization(rule).entries))
    counts = tuple(one if i == 0 else one * 0 for i in range(k))
    word: Optional[str] = rule.letters[0] if 1 <= word_cap else None
    table = str.maketrans(dict(zip(rule.letters, rule.images)))
    states = [ChainState(0, word, counts, one)]
    for step in range(1, steps + 1):
        counts = tuple(_exact.mat_vec(columns, counts))
        length = sum(counts)
        if word is not None and length <= word_cap:
            word = word.translate(table)
        else:
            word = None
        states.append(ChainState(step, word, counts, length))
    return states


def rule_coefficients(rule: SubstitutionRule) -> tuple[int, ...]:
    """Recover (lambda_1..lambda_k) from a rule in the canonical shape.

    lambda_1 and lambda_2 are the first column of the abelianization and
    lambda_i = q_i * lambda_{i-1} for i >= 3, q_i read from row i, column
    i-1. The rule is in the canonical shape when these are naturals and the
    abelianization equals their MixedStateMatrix: first row
    (lambda_1, 1, ..., 1), second row (lambda_2, 0, ..., 0), row i >= 3 the
    single quotient q_i at column i-1. ValueError otherwise.
    """
    mat = abelianization(rule).entries
    lams = [row[0] for row in mat[:2]]
    for i in range(2, len(mat)):
        lams.append(mat[i][i - 1] * lams[-1])
    if min(lams) >= 1:
        mixed = MixedStateMatrix.from_coefficients(CoefficientVector(tuple(lams)))
        if mixed.rows == mat:
            return tuple(lams)
    raise ValueError("rule is not in the canonical shape; no growth law")


@dataclass(frozen=True)
class GrowthReport:
    lengths: tuple[int, ...]
    recurrence_ok: bool
    violations: tuple[int, ...]
    frequency_checked: bool
    frequency_deviation: Optional[float]
    dominant_frequencies: Optional[tuple[float, ...]]


def growth_law_check(rule: SubstitutionRule, steps: int) -> GrowthReport:
    """Check the length recurrence and, for long chains, letter frequencies.

    Lengths must satisfy length(n+1) = sum_i lambda_i length(n-i+1) exactly
    for every n >= k. If the final length exceeds 10^4 the letter frequencies,
    exact counts over exact length, are compared (max deviation 0.05) with the
    normalized dominant left eigenvector v of the MixedStateMatrix, which
    rule_coefficients proved equal to the abelianization: vM = r v, r the
    simple dominant root. Newton descends from y = 1/lambda_1 onto y = 1/r,
    the one positive root of P(y) = y h_1 = 1, h_j = lambda_j + y h_{j+1}
    (Horner). Back-substitution from v_1 = 1 gives v_j = y h_j / lambda_j.
    """
    lams = rule_coefficients(rule)
    k = len(lams)
    if steps < 2 * k:
        raise ValueError(f"steps must be >= 2k = {2 * k}")
    states = grow_chain(rule, steps, word_cap=1)
    lengths = tuple(s.length for s in states)
    violations = []
    for n in range(k, steps):
        predicted = sum(lams[i - 1] * lengths[n - i + 1] for i in range(1, k + 1))
        if lengths[n + 1] != predicted:
            violations.append(n)
    freq_dev = dom_freq = None
    if lengths[-1] > 10**4:
        y, prev = 1.0 / lams[0], math.inf
        while y < prev:  # until y stops descending; vec is then v_k..v_1 over y
            h, dh, vec = 0.0, 0.0, []
            for c in reversed(lams):
                h, dh = c + y * h, h + y * dh
                vec.append(h / c)
            prev, y = y, y - max((y * h - 1.0) / (h + y * dh), 0.0)
        vec[-1] = h
        total = math.fsum(vec)
        dom_freq = tuple(v / total for v in reversed(vec))
        final = states[-1]
        freq_dev = max(abs(c / final.length - v) for c, v in zip(final.letter_counts, dom_freq))
    return GrowthReport(
        lengths=lengths,
        recurrence_ok=not violations,
        violations=tuple(violations),
        frequency_checked=dom_freq is not None,
        frequency_deviation=freq_dev,
        dominant_frequencies=dom_freq,
    )


# The worked three-letter chain has a widely quoted length sequence
# "1, 4, 11, 29, ..." whose fourth entry contradicts both direct rewriting
# and the length recurrence; reports surface the discrepancy rather than
# silently correcting it.
_QUOTED_MISPRINT_IMAGES = ("ABAC", "A", "BB")
_QUOTED_MISPRINT_SEQUENCE = (1, 4, 11, 29)


def chain_notes(rule: SubstitutionRule, states: list[ChainState]) -> list[str]:
    """Advisory notes for a grown chain (empty for most rules)."""
    notes = []
    if rule.images == _QUOTED_MISPRINT_IMAGES and len(states) >= 4:
        actual = states[3].length
        quoted = _QUOTED_MISPRINT_SEQUENCE[3]
        if actual != quoted:
            notes.append(
                f"note: this chain's lengths are sometimes quoted as "
                f"{', '.join(str(v) for v in _QUOTED_MISPRINT_SEQUENCE)}, ...; "
                f"the quoted step-3 value {quoted} is inconsistent with "
                f"letter-by-letter rewriting and with the length recurrence, "
                f"which both give {actual}"
            )
    return notes
