"""Substitution rules: enumeration, chain growth, abelianization, growth law.

Counts are pinned against the closed product formula and against pairwise
distinctness of the generated rule texts; letter counts are cross-checked by
actually counting letters in materialized words.
"""

from fractions import Fraction as F
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kbonacci import (
    CoefficientVector,
    NonIntegralCoefficientsError,
    RuleFormatError,
    SubstitutionRule,
    abelianization,
    chain_notes,
    char_poly,
    enumerate_rules,
    grow_chain,
    growth_law_check,
    matrix_char_poly,
    parse_rule,
    rule_coefficients,
)

ABAC_RULE = "A:ABAC,B:A,C:BB"
STEP3_WORD = "ABACAABACBBABACABACAABACBBAA"


def coeffs_of(*vals):
    return CoefficientVector(tuple(F(v) for v in vals))


def eig_frequencies(rule):
    """Normalized dominant left eigenvector of the abelianization, by numpy's eig."""
    eigvals, eigvecs = np.linalg.eig(np.array(abelianization(rule).entries, dtype=float).T)
    vec = np.real(eigvecs[:, np.argmax(np.abs(eigvals))])
    return vec / vec.sum()


# Natural vectors with integral quotients, k = 1..4.
CANONICAL_VECTORS = [
    (1,), (3,), (1, 1), (2, 3), (2, 1, 2), (1, 1, 1), (1, 2, 6), (2, 1, 1, 3), (1, 2, 2, 4),
]


def count_formula(k, lambda1):
    out = 1
    for j in range(1, k):
        out *= lambda1 + j
    return out


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_rules(coeffs_of(2, 1, 2))) == 12
        assert len(enumerate_rules(coeffs_of(1, 1))) == 2
        assert len(enumerate_rules(coeffs_of(1, 1, 1))) == 6

    def test_fibonacci_rules(self):
        images = {r.image("A") for r in enumerate_rules(coeffs_of(1, 1))}
        assert images == {"AB", "BA"}
        for r in enumerate_rules(coeffs_of(1, 1)):
            assert r.image("B") == "A"

    def test_abac_rule_is_enumerated(self):
        texts = [r.as_text() for r in enumerate_rules(coeffs_of(2, 1, 2))]
        assert ABAC_RULE in texts

    def test_enumeration_is_deterministic(self):
        a = [r.as_text() for r in enumerate_rules(coeffs_of(2, 1, 2))]
        b = [r.as_text() for r in enumerate_rules(coeffs_of(2, 1, 2))]
        assert a == b

    def test_k1_single_rule(self):
        rules = enumerate_rules(coeffs_of(3))
        assert len(rules) == 1
        assert rules[0].as_text() == "A:AAA"

    def test_count_formula_grid(self):
        for l1, l2, q3 in product((1, 2, 3), (1, 2), (1, 2)):
            for k in (2, 3, 4):
                lams = [l1, l2]
                while len(lams) < k:
                    lams.append(lams[-1] * q3)
                rules = enumerate_rules(coeffs_of(*lams[:k]))
                texts = [r.as_text() for r in rules]
                assert len(texts) == count_formula(k, l1), lams
                assert len(set(texts)) == len(texts), lams

    def test_image_alphabet_sizes(self):
        for r in enumerate_rules(coeffs_of(2, 1, 2)):
            assert len(r.image("A")) == 4  # lambda_1 + (k-1) slots
            assert r.image("B") == "A" * 1  # lambda_2 copies
            assert r.image("C") in ("BB",)  # q_3 = lambda_3/lambda_2 copies

    @pytest.mark.parametrize("lams", [(3, 1, 2, 4), (1, 1, 1, 1, 1), (2, 2, 4, 8), (1, 2, 2, 2, 2, 2)])
    def test_rule_order(self, lams):
        # The module docstring's shape, listed by permutation of 2..k and then
        # by composition of lambda_1, both sorted lexicographically.
        k = len(lams)
        letters = "ABCDEFGHIJ"[:k]
        tail = ["A" * lams[1]] + [letters[i - 1] * (lams[i] // lams[i - 1]) for i in range(2, k)]
        comps = sorted(c for c in product(range(lams[0] + 1), repeat=k) if sum(c) == lams[0])
        expected = []
        for perm in sorted(permutations(range(2, k + 1))):
            for comp in comps:
                head = "A" * comp[0] + "".join(letters[i - 1] + "A" * l for i, l in zip(perm, comp[1:]))
                expected.append(",".join(f"{a}:{w}" for a, w in zip(letters, [head, *tail])))
        assert [r.as_text() for r in enumerate_rules(coeffs_of(*lams))] == expected
        assert len(expected) == count_formula(k, lams[0])

    @pytest.mark.parametrize(
        "vals", [(F(1, 2), F(1)), (1, 2, 3), (-1, 1), (2, -1, 2)]
    )
    def test_non_natural_rejected(self, vals):
        with pytest.raises(NonIntegralCoefficientsError):
            enumerate_rules(coeffs_of(*vals))


class TestGrowth:
    def test_fibonacci_words(self):
        states = grow_chain(parse_rule("A:AB,B:A"), 4)
        assert [s.word for s in states] == ["A", "AB", "ABA", "ABAAB", "ABAABABA"]
        assert [s.length for s in states] == [1, 2, 3, 5, 8]

    def test_abac_chain_words(self):
        states = grow_chain(parse_rule(ABAC_RULE), 4)
        assert states[0].word == "A"
        assert states[1].word == "ABAC"
        assert states[2].word == "ABACAABACBB"
        assert states[3].word == STEP3_WORD
        assert [s.length for s in states] == [1, 4, 11, 28, 75]

    def test_letter_counts(self):
        states = grow_chain(parse_rule(ABAC_RULE), 4)
        assert states[3].letter_counts == (14, 9, 5)
        assert states[4].letter_counts == (37, 24, 14)

    def test_word_cap_keeps_counts_exact(self):
        states = grow_chain(parse_rule(ABAC_RULE), 4, word_cap=11)
        assert states[2].word == "ABACAABACBB"
        assert states[3].word is None
        assert states[4].word is None
        assert states[3].letter_counts == (14, 9, 5)
        assert states[4].length == 75

    def test_counts_match_word(self):
        for rule in enumerate_rules(coeffs_of(2, 1, 2))[:4]:
            for state in grow_chain(rule, 3):
                assert state.word is not None
                for letter, count in zip(rule.letters, state.letter_counts):
                    assert state.word.count(letter) == count

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            grow_chain(parse_rule("A:AB,B:A"), -1)


class TestAbelianization:
    def test_abac_rule_matrix(self):
        mat = abelianization(parse_rule(ABAC_RULE))
        assert mat.entries == ((2, 1, 1), (1, 0, 0), (0, 2, 0))

    def test_reordered_head_same_matrix(self):
        # ACAB has the same letter content in image(A) as ABAC
        other = parse_rule("A:ACAB,B:A,C:BB")
        assert abelianization(other).entries == ((2, 1, 1), (1, 0, 0), (0, 2, 0))

    def test_coefficients_recovered(self):
        for vals in CANONICAL_VECTORS:
            for rule in enumerate_rules(coeffs_of(*vals)):
                assert rule_coefficients(rule) == vals
        assert rule_coefficients(parse_rule("A:AB,B:A")) == (1, 1)
        assert rule_coefficients(parse_rule("A:AA")) == (2,)

    def test_non_canonical_shape_rejected(self):
        with pytest.raises(ValueError):
            rule_coefficients(parse_rule("A:BB,B:AA"))
        # Replacing any one letter of a canonical image by another letter
        # moves a count off the canonical pattern: a second copy or no copy
        # of a letter in image(A), or a stray letter in a one-letter power.
        for vals in CANONICAL_VECTORS:
            for rule in enumerate_rules(coeffs_of(*vals)):
                for r, word in enumerate(rule.images):
                    for pos, old in enumerate(word):
                        for new in rule.letters:
                            if new == old:
                                continue
                            images = list(rule.images)
                            images[r] = word[:pos] + new + word[pos + 1 :]
                            with pytest.raises(ValueError, match="canonical shape"):
                                rule_coefficients(SubstitutionRule(rule.letters, tuple(images)))

    def test_char_poly_agrees_with_companion(self):
        for vals in [(1, 1), (2, 1, 2), (1, 1, 1)]:
            for rule in enumerate_rules(coeffs_of(*vals)):
                mat = abelianization(rule)
                rows = tuple(
                    tuple(F(x) for x in row) for row in mat.entries
                )
                assert matrix_char_poly(rows) == char_poly(coeffs_of(*vals))


class TestGrowthLaw:
    def test_fibonacci(self):
        rep = growth_law_check(parse_rule("A:AB,B:A"), 12)
        assert rep.recurrence_ok
        assert rep.violations == ()
        assert rep.lengths[:6] == (1, 2, 3, 5, 8, 13)

    def test_abac_rule(self):
        rep = growth_law_check(parse_rule(ABAC_RULE), 8)
        assert rep.recurrence_ok
        assert rep.lengths[:5] == (1, 4, 11, 28, 75)

    def test_k1_doubling(self):
        rep = growth_law_check(parse_rule("A:AA"), 6)
        assert rep.recurrence_ok
        assert rep.lengths == (1, 2, 4, 8, 16, 32, 64)

    def test_fibonacci_frequencies(self):
        rep = growth_law_check(parse_rule("A:AB,B:A"), 20)
        assert rep.frequency_checked
        assert rep.frequency_deviation is not None
        assert rep.frequency_deviation <= 0.05
        golden = (5**0.5 - 1) / 2
        assert rep.dominant_frequencies[0] == pytest.approx(golden, abs=1e-6)
        assert rep.dominant_frequencies[1] == pytest.approx(1 - golden, abs=1e-6)

    @given(st.data())
    def test_frequencies_match_eig(self, data):
        # Canonical rules with k <= 5, lambda_1, lambda_2 <= 4 and quotients
        # <= 3: the back-substituted Perron vector against numpy's eig.
        k = data.draw(st.integers(2, 5))
        lams = [data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))]
        while len(lams) < k:
            lams.append(lams[-1] * data.draw(st.integers(1, 3)))
        rule = data.draw(st.sampled_from(enumerate_rules(coeffs_of(*lams))))
        rep = growth_law_check(rule, 30)
        assert rep.recurrence_ok and rep.frequency_checked
        assert np.max(np.abs(eig_frequencies(rule) - rep.dominant_frequencies)) <= 1e-12
        final = grow_chain(rule, 30, word_cap=1)[-1]
        deviations = [abs(c / final.length - v) for c, v in zip(final.letter_counts, rep.dominant_frequencies)]
        assert rep.frequency_deviation == max(deviations) <= 0.05

    def test_frequencies_beside_a_repeated_root(self):
        # x^3 - 5x^2 - 125x - 375 = (x - 15)(x + 5)^2: the dominant root 15
        # is simple, so the frequencies exist although -5 repeats.
        rule = parse_rule("A:AAAAABC,B:" + "A" * 125 + ",C:BBB")
        rep = growth_law_check(rule, 6)
        assert rep.recurrence_ok and rep.frequency_checked
        assert np.max(np.abs(eig_frequencies(rule) - rep.dominant_frequencies)) <= 1e-12
        assert rep.dominant_frequencies == pytest.approx((75 / 86, 6 / 86, 5 / 86), abs=1e-15)

    def test_short_run_skips_frequencies(self):
        rep = growth_law_check(parse_rule(ABAC_RULE), 6)
        assert not rep.frequency_checked
        assert rep.frequency_deviation is None

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            growth_law_check(parse_rule(ABAC_RULE), 4)


class TestRuleText:
    def test_round_trip(self):
        for rule in enumerate_rules(coeffs_of(2, 1, 2)):
            assert parse_rule(rule.as_text()).as_text() == rule.as_text()

    def test_order_insensitive(self):
        assert parse_rule("B:A,A:AB").as_text() == "A:AB,B:A"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "A:AB",  # B used but never defined
            "A:AB,B:",  # empty image
            "A:AB,C:A",  # letters must be the contiguous prefix A, B
            "A:AB,B:A,B:AA",  # duplicate letter
            "A:AB,B:AZ",  # image letter outside the alphabet
            "A-AB,B-A",  # bad separator
            "A:ab,B:A",  # lowercase not allowed
        ],
    )
    def test_bad_rule_text(self, text):
        with pytest.raises(RuleFormatError):
            parse_rule(text)


class TestChainNotes:
    def test_misprint_note_for_abac_rule(self):
        states = grow_chain(parse_rule(ABAC_RULE), 4)
        notes = chain_notes(parse_rule(ABAC_RULE), states)
        assert len(notes) == 1
        assert "29" in notes[0]
        assert "28" in notes[0]

    def test_no_note_for_other_rules(self):
        rule = parse_rule("A:AB,B:A")
        assert chain_notes(rule, grow_chain(rule, 5)) == []

    def test_no_note_before_step_three(self):
        rule = parse_rule(ABAC_RULE)
        assert chain_notes(rule, grow_chain(rule, 2)) == []


rule_texts = st.sampled_from(
    [r.as_text() for r in enumerate_rules(coeffs_of(2, 1, 2))]
    + [r.as_text() for r in enumerate_rules(coeffs_of(1, 1))]
    + [r.as_text() for r in enumerate_rules(coeffs_of(1, 1, 1))]
    + [r.as_text() for r in enumerate_rules(coeffs_of(3, 1))]
)


class TestProperties:
    @given(rule_texts, st.integers(min_value=0, max_value=5))
    def test_substitution_image_concatenates(self, text, steps):
        rule = parse_rule(text)
        states = grow_chain(rule, steps + 1)
        prev, cur = states[steps], states[steps + 1]
        if prev.word is None or cur.word is None:
            return
        assert cur.word == "".join(rule.image(ch) for ch in prev.word)

    @given(rule_texts)
    def test_lengths_follow_recurrence(self, text):
        rule = parse_rule(text)
        lams = rule_coefficients(rule)
        k = len(lams)
        lengths = [s.length for s in grow_chain(rule, 2 * k + 2)]
        for n in range(k, len(lengths)):
            expected = sum(lams[i] * lengths[n - 1 - i] for i in range(k))
            assert lengths[n] == expected
