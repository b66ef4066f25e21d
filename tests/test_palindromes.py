import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import (
    dropping_the_last_factor,
    free_value,
    padding_with_a_cancelling_pair,
    palindromes,
    words,
)

from palwidth.palindromes import (
    CertificateError,
    NotAPalindromeError,
    PalindromicDecomposition,
    SelfCheckError,
    check_group_certificate,
    check_in_group,
    commutator_decomposition,
    conjugate_decomposition,
)
from palwidth import baumslag, heisenberg, search, wreath
from palwidth import palindromes as free_constructions
from palwidth.words import AB, AT, EMPTY, Alphabet, Word, parse


def w(text):
    return parse(text, AB)


def free_product(factors):
    out = Word()
    for f in factors:
        out = out * f
    return out


def power(p, m):
    """reduce(p^m), by repeated products with p or its inverse."""
    return free_product((p if m >= 0 else p.inverse(),) * abs(m))


class TestPalPower:
    @given(palindromes(AB), st.integers(-5, 5))
    def test_result_is_palindrome(self, p, m):
        # reduction keeps a power of a palindrome symmetric
        assert power(p, m).is_palindrome()
        assert power(p, m) * power(p, -m) == EMPTY


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
        with pytest.raises(ValueError, match="need at least one palindrome"):
            commutator_decomposition(w("b"), (), AB)

    @given(words(AB, 6), st.lists(palindromes(AB, 3), min_size=1, max_size=4))
    def test_certified_and_bounded(self, u, pals):
        k = len(pals)
        dec = conjugate_decomposition(u, pals, AB)
        check_in_group(dec, free_value)
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
        check_in_group(dec, free_value)
        assert dec.length <= 2 * k + (k % 2)
        p = free_product(pals)
        assert free_product(dec.factors) == u.inverse() * p.inverse() * u * p


class TestPalPairPower:
    @given(palindromes(AB, 3), palindromes(AB, 3), st.integers(-4, 4))
    def test_two_factors(self, p, q, m):
        # (pq)^m is the symmetric string (pq)^{m-1} p followed by q; negative
        # powers use the inverse pair q^-1, p^-1
        target = power(p * q, m)
        if m < 0:
            p, q, m = q.inverse(), p.inverse(), -m
        factors = (power(p * q, m - 1) * p, q) if m else ()
        dec = PalindromicDecomposition(target, tuple(f for f in factors if f), AB)
        check_in_group(dec, free_value)
        assert dec.length <= 2


class TestChecker:
    """`check_in_group` in the free group, whose exact evaluator is the
    identity on reduced words."""

    def test_detects_non_palindromic_factor(self):
        with pytest.raises(CertificateError):
            check_in_group(PalindromicDecomposition(w("ab"), (w("ab"),), AB), free_value)

    def test_detects_wrong_product(self):
        with pytest.raises(CertificateError):
            check_in_group(PalindromicDecomposition(w("a"), (w("b"),), AB), free_value)

    def test_detects_empty_factor(self):
        with pytest.raises(CertificateError):
            check_in_group(PalindromicDecomposition(EMPTY, (EMPTY,), AB), free_value)

    def test_detects_missing_factors(self):
        with pytest.raises(CertificateError):
            check_in_group(PalindromicDecomposition(w("a"), (), AB), free_value)

    def test_detects_foreign_letters(self):
        t = parse("t", AT)
        with pytest.raises(CertificateError):
            check_in_group(PalindromicDecomposition(t, (t,), AB), free_value)

    def test_foreign_letter_messages_name_the_first_one(self):
        abt = Alphabet(("a", "b", "t"))
        factor = parse("a t b t a", abt)
        with pytest.raises(CertificateError, match="^factor letter 't' outside the alphabet$"):
            check_in_group(PalindromicDecomposition(factor, (factor,), AB), free_value)
        target = parse("b a t", abt)
        with pytest.raises(CertificateError, match="^target letter 't' outside the alphabet$"):
            check_in_group(PalindromicDecomposition(target, (w("a"),), AB), free_value)


class TestGroupCertificate:
    """`check_group_certificate`, the self-check of the group-level
    constructors, over Z wr Z."""

    def test_evaluates_product_and_target_once_each(self, monkeypatch):
        # the decomposition evaluates nothing but its one self-check: the
        # target, then the factor product unless it is the target word
        calls = []
        original = wreath.evaluate

        def counting(word):
            calls.append(word)
            return original(word)

        monkeypatch.setattr(wreath, "evaluate", counting)
        # three lamps: a commutator of one lattice step (two lamps) would
        # make the factor product the target word itself
        g = wreath.WreathElement.of([(-20100, 2), (-20090, -1), (-20080, 1)], -4)
        wreath.three_palindrome_decomposition(g)
        assert len(calls) == 2
        calls.clear()
        wreath.three_palindrome_decomposition(wreath.WreathElement.of([(-20100, 2)], -4))
        assert len(calls) == 1

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


class TestOneSelfCheck:
    """Every palindromic answer goes through `check_group_certificate`: a
    constructor whose certificate loses its last factor raises."""

    @pytest.mark.parametrize(
        "module, build",
        [
            (free_constructions,
             lambda: conjugate_decomposition(w("b"), (w("a"), w("a")), AB)),
            (free_constructions,
             lambda: commutator_decomposition(w("b"), (w("a"), w("bab")), AB)),
            (wreath, lambda: wreath.three_palindrome_decomposition(wreath.evaluate(w("ab")))),
            (wreath, lambda: wreath.palindrome_witness(wreath.evaluate(w("aba")))),
            (baumslag, lambda: baumslag.two_palindrome_decomposition(
                baumslag.evaluate(parse("t a", AT), 2))),
            (heisenberg, lambda: heisenberg.two_palindrome_product(
                heisenberg.evaluate(w("a b a b")))),
            (search, lambda: search.pal_length_bounded(
                wreath.evaluator(), wreath.evaluator().eval(w("ab")), 2, 1)),
        ],
        ids=["conjugate", "commutator", "wreath-three", "wreath-palindrome",
             "bs-two", "heis-two", "search"],
    )
    def test_a_dropped_last_factor_is_an_invalid_certificate(self, monkeypatch, module, build):
        build()  # a sound answer passes
        monkeypatch.setattr(module, "PalindromicDecomposition", dropping_the_last_factor)
        with pytest.raises(SelfCheckError, match="^certificate invalid: "):
            build()

    def test_a_search_factor_that_is_no_palindrome(self, monkeypatch):
        monkeypatch.setattr(search._PalProductIndex, "factors", lambda self, k, split: (w("ab"),))
        message = "^certificate invalid: factor 'a b' is not a palindrome$"
        with pytest.raises(SelfCheckError, match=message):
            search.pal_length_bounded(wreath.evaluator(), wreath.evaluator().eval(w("ab")), 2, 1)

    @pytest.mark.parametrize("pals", [(w("a"), w("a")), (w("a"),)], ids=["even", "odd"])
    def test_a_conjugate_over_its_bound(self, monkeypatch, pals):
        # k + (k mod 2) is 2 for one palindrome and for two
        padded = padding_with_a_cancelling_pair
        monkeypatch.setattr(free_constructions, "PalindromicDecomposition", padded)
        with pytest.raises(SelfCheckError, match="^certificate has 4 factors, expected <= 2$"):
            conjugate_decomposition(w("b"), pals, AB)

    def test_a_commutator_over_its_bound(self, monkeypatch):
        # a sound conjugate with two more factors makes the commutator too long
        conjugate = conjugate_decomposition

        def padded(u, pals, alphabet):
            dec = conjugate(u, pals, alphabet)
            return dec._replace(factors=dec.factors + (w("a"), w("A")))

        monkeypatch.setattr(free_constructions, "conjugate_decomposition", padded)
        with pytest.raises(SelfCheckError, match="^certificate has 5 factors, expected <= 3$"):
            commutator_decomposition(w("b"), (w("a"),), AB)
