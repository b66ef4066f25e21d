import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import palindromes, words

from palwidth.palindromes import (
    CertificateError,
    NotAPalindromeError,
    PalindromicDecomposition,
    SelfCheckError,
    check_free,
    check_group_certificate,
    combine_coset_decomposition,
    commutator_decomposition,
    conjugate_decomposition,
    pal_pair_power,
    pal_power,
)
from palwidth import wreath
from palwidth.words import AB, AT, EMPTY, Alphabet, Word, parse


def w(text):
    return parse(text, AB)


def free_product(factors):
    out = Word()
    for f in factors:
        out = out * f
    return out


class TestPalPower:
    def test_square(self):
        assert pal_power(w("aba"), 2) == w("abaaba")

    def test_negative(self):
        assert pal_power(w("a"), -3) == w("A^3")

    def test_zero(self):
        assert pal_power(w("b A b"), 0) == EMPTY

    def test_rejects_non_palindrome(self):
        with pytest.raises(NotAPalindromeError):
            pal_power(w("ab"), 2)

    @given(palindromes(AB), st.integers(-5, 5))
    def test_result_is_palindrome(self, p, m):
        assert pal_power(p, m).is_palindrome()
        assert pal_power(p, m) == p**m


class TestConjugate:
    def test_trivial_conjugator(self):
        dec = conjugate_decomposition(EMPTY, (w("a"),), AB)
        assert dec.factors == (w("a"),)
        pals = (w("aba"), w("B"), w("bab"))
        dec = conjugate_decomposition(EMPTY, pals, AB)
        assert dec.factors == pals  # input palindromes come back unchanged

    def test_even_pair(self):
        dec = conjugate_decomposition(w("b"), (w("a"), w("a")), AB)
        assert dec.length == 2
        # oracle: reduce-and-compare against the conjugate computed directly
        assert free_product(dec.factors) == w("B a a b")

    def test_odd_pays_one(self):
        dec = conjugate_decomposition(w("ab"), (w("b"),), AB)
        assert dec.length == 2  # k = 1 odd -> k + 1
        assert free_product(dec.factors) == w("ab").inverse() * w("b") * w("ab")

    def test_rejects_non_palindrome(self):
        with pytest.raises(NotAPalindromeError):
            conjugate_decomposition(w("b"), (w("ab"),), AB)

    def test_needs_factor(self):
        with pytest.raises(ValueError):
            conjugate_decomposition(w("b"), (), AB)

    @given(words(AB, 6), st.lists(palindromes(AB, 3), min_size=1, max_size=4))
    def test_certified_and_bounded(self, u, pals):
        k = len(pals)
        dec = conjugate_decomposition(u, pals, AB)
        check_free(dec)
        assert dec.length <= k + (k % 2)
        expected = u.inverse() * free_product(pals) * u
        assert free_product(dec.factors) == expected


class TestCommutator:
    def test_empty_u(self):
        dec = commutator_decomposition(EMPTY, (w("a"),), AB)
        assert dec.target == EMPTY
        assert free_product(dec.factors) == EMPTY

    def test_single(self):
        dec = commutator_decomposition(w("b"), (w("a"),), AB)
        assert dec.length <= 3
        assert free_product(dec.factors) == w("B A b a")

    def test_two_pals(self):
        dec = commutator_decomposition(w("b"), (w("a"), w("bab")), AB)
        assert dec.length <= 4

    @given(words(AB, 6), st.lists(palindromes(AB, 3), min_size=1, max_size=4))
    def test_certified_and_bounded(self, u, pals):
        k = len(pals)
        dec = commutator_decomposition(u, pals, AB)
        check_free(dec)
        assert dec.length <= 2 * k + (k % 2)
        p = free_product(pals)
        assert free_product(dec.factors) == u.inverse() * p.inverse() * u * p


class TestPalPairPower:
    def test_m_one(self):
        dec = pal_pair_power(w("a"), w("b"), 1, AB)
        assert dec.factors == (w("a"), w("b"))

    def test_m_two(self):
        dec = pal_pair_power(w("a"), w("b"), 2, AB)
        assert dec.factors == (w("aba"), w("b"))

    def test_m_minus_one(self):
        dec = pal_pair_power(w("a"), w("b"), -1, AB)
        assert free_product(dec.factors) == w("B A")

    def test_m_zero(self):
        dec = pal_pair_power(w("a"), w("b"), 0, AB)
        assert dec.target == EMPTY and dec.factors == ()

    @given(palindromes(AB, 3), palindromes(AB, 3), st.integers(-4, 4))
    def test_two_factors(self, p, q, m):
        dec = pal_pair_power(p, q, m, AB)
        check_free(dec)
        assert dec.length <= 2
        assert dec.target == (p * q) ** m


class TestCombine:
    def test_counts_add(self):
        left = commutator_decomposition(w("b"), (w("a"),), AB)
        right = PalindromicDecomposition(w("b"), (w("b"),), AB)
        combined = combine_coset_decomposition(left, right)
        assert combined.length == left.length + 1
        assert combined.target == left.target * w("b")

    def test_identity_coset(self):
        empty = PalindromicDecomposition(EMPTY, (), AB)
        right = PalindromicDecomposition(w("aba"), (w("aba"),), AB)
        combined = combine_coset_decomposition(empty, right)
        assert combined.target == w("aba")
        assert combined.length == 1

    def test_simple_pair(self):
        left = PalindromicDecomposition(w("a"), (w("a"),), AB)
        right = PalindromicDecomposition(w("b"), (w("b"),), AB)
        combined = combine_coset_decomposition(left, right)
        assert combined.target == w("ab") and combined.length == 2

    def test_alphabet_mismatch(self):
        left = PalindromicDecomposition(w("a"), (w("a"),), AB)
        right = PalindromicDecomposition(parse("t", AT), (parse("t", AT),), AT)
        with pytest.raises(CertificateError):
            combine_coset_decomposition(left, right)

    def test_invalid_input_rejected(self):
        bogus = PalindromicDecomposition(w("ab"), (w("ab"),), AB)
        good = PalindromicDecomposition(w("b"), (w("b"),), AB)
        with pytest.raises(CertificateError):
            combine_coset_decomposition(bogus, good)


class TestChecker:
    def test_detects_non_palindromic_factor(self):
        with pytest.raises(CertificateError):
            check_free(PalindromicDecomposition(w("ab"), (w("ab"),), AB))

    def test_detects_wrong_product(self):
        with pytest.raises(CertificateError):
            check_free(PalindromicDecomposition(w("a"), (w("b"),), AB))

    def test_detects_empty_factor(self):
        with pytest.raises(CertificateError):
            check_free(PalindromicDecomposition(EMPTY, (EMPTY,), AB))

    def test_detects_missing_factors(self):
        with pytest.raises(CertificateError):
            check_free(PalindromicDecomposition(w("a"), (), AB))

    def test_detects_foreign_letters(self):
        t = parse("t", AT)
        with pytest.raises(CertificateError):
            check_free(PalindromicDecomposition(t, (t,), AB))

    def test_foreign_letter_messages_name_the_first_one(self):
        abt = Alphabet(("a", "b", "t"))
        factor = parse("a t b t a", abt)
        with pytest.raises(CertificateError, match="^factor letter 't' outside the alphabet$"):
            check_free(PalindromicDecomposition(factor, (factor,), AB))
        target = parse("b a t", abt)
        with pytest.raises(CertificateError, match="^target letter 't' outside the alphabet$"):
            check_free(PalindromicDecomposition(target, (w("a"),), AB))


class TestGroupCertificate:
    """`check_group_certificate`, the self-check of the group-level
    constructors, over Z wr Z."""

    def test_evaluates_product_and_target_once_each(self, monkeypatch):
        # the decomposition evaluates nothing but its one self-check
        calls = []
        original = wreath.evaluate

        def counting(word):
            calls.append(word)
            return original(word)

        monkeypatch.setattr(wreath, "evaluate", counting)
        g = wreath.WreathElement.of([(-20100, 2)], -4)
        wreath.three_palindrome_decomposition(g)
        assert len(calls) == 2

    def test_wrong_product(self):
        dec = PalindromicDecomposition(w("ab"), (w("a"), w("b"), w("a")), AB)
        with pytest.raises(SelfCheckError, match="certificate invalid: factor product differs"):
            check_group_certificate(dec, wreath.evaluate, wreath.evaluate(w("ab")), 3)

    def test_target_is_another_element(self):
        dec = PalindromicDecomposition(w("ab"), (w("a"), w("b")), AB)
        with pytest.raises(SelfCheckError, match="target does not evaluate to the element"):
            check_group_certificate(dec, wreath.evaluate, wreath.evaluate(w("ba")), 3)

    def test_too_many_factors(self):
        dec = PalindromicDecomposition(w("ab"), (w("a"), w("b")), AB)
        with pytest.raises(SelfCheckError, match="2 factors, expected <= 1"):
            check_group_certificate(dec, wreath.evaluate, wreath.evaluate(w("ab")), 1)
