import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import words

from palwidth.heisenberg import (
    HeisElement,
    evaluate,
    from_wreath,
    is_palindrome_image,
    palindrome_word_for,
    reversal_image,
    two_palindrome_product,
)
from palwidth.search import enumerate_palindromes
from palwidth.suites import mat_eval, mat_inv, mat_mul, mat_of_heis
from palwidth.words import AB, parse
from palwidth.wreath import WreathElement
from palwidth.wreath import evaluate as wr_evaluate


def w(text):
    return parse(text, AB)


coords = st.integers(-40, 40)
triples = st.builds(HeisElement, coords, coords, coords)


class TestLaw:
    def test_ab_vs_ba(self):
        a, b = HeisElement(1, 0, 0), HeisElement(0, 1, 0)
        assert a * b == HeisElement(1, 1, 0)
        assert b * a == HeisElement(1, 1, 1)  # ba = ab[b,a]

    def test_center(self):
        z = HeisElement(0, 0, 5)
        g = HeisElement(3, -2, 7)
        assert z * g == HeisElement(3, -2, 12)
        assert g * z == HeisElement(3, -2, 12)

    @given(triples, triples)
    def test_matrix_oracle(self, g, h):
        assert mat_of_heis(g * h) == mat_mul(mat_of_heis(g), mat_of_heis(h))

    @given(triples)
    def test_inverse(self, g):
        assert g * g.inverse() == HeisElement.identity()
        assert mat_of_heis(g.inverse()) == mat_inv(mat_of_heis(g))

    @given(triples, triples, triples)
    def test_associative(self, g, h, k):
        assert (g * h) * k == g * (h * k)


class TestEvaluate:
    def test_commutator(self):
        assert evaluate(w("B A b a")) == HeisElement(0, 0, 1)

    def test_no_collection_needed(self):
        assert evaluate(w("a^2 b")) == HeisElement(2, 1, 0)

    def test_abab(self):
        assert evaluate(w("ab ab")) == HeisElement(2, 2, 1)
        assert mat_eval(w("ab ab")) == mat_of_heis(HeisElement(2, 2, 1))

    def test_wrong_alphabet(self):
        from palwidth.words import AT

        with pytest.raises(ValueError):
            evaluate(parse("t", AT))

    @given(words(AB, 16))
    def test_matches_matrix_evaluation(self, u):
        assert mat_of_heis(evaluate(u)) == mat_eval(u)

    @given(words(AB, 12), words(AB, 12))
    def test_homomorphism(self, u, v):
        assert evaluate(u * v) == evaluate(u) * evaluate(v)


class TestQuotient:
    def test_lamp_images(self):
        # a_i maps to (1, 0, -i); the defining relation a_2 = a_0^-1 a_1^2 holds
        a0 = WreathElement.of([(0, 1)])
        a1 = WreathElement.of([(1, 1)])
        a2 = WreathElement.of([(2, 1)])
        assert from_wreath(a2) == HeisElement(1, 0, -2)
        assert from_wreath(a0.inverse() * a1 * a1) == from_wreath(a2)

    def test_normal_form_block(self):
        for k, l, m in itertools.product((-2, 0, 1, 3), repeat=3):
            g = WreathElement.of([(0, k), (1, l)], m)
            assert from_wreath(g) == HeisElement(k + l, m, -l)

    def test_identity(self):
        assert from_wreath(WreathElement.identity()) == HeisElement.identity()

    @given(words(AB, 14))
    def test_commutes_with_evaluation(self, u):
        assert from_wreath(wr_evaluate(u)) == evaluate(u)

    @given(words(AB, 10), words(AB, 10))
    def test_is_homomorphism(self, u, v):
        g, h = wr_evaluate(u), wr_evaluate(v)
        assert from_wreath(g * h) == from_wreath(g) * from_wreath(h)


class TestPalindromeImages:
    def test_examples(self):
        assert is_palindrome_image(HeisElement(1, 2, 1))
        assert evaluate(w("bab")) == HeisElement(1, 2, 1)
        assert not is_palindrome_image(HeisElement(0, 0, 1))
        assert is_palindrome_image(HeisElement.identity())

    @given(words(AB, 14))
    def test_reversal_image(self, u):
        assert evaluate(u.reverse()) == reversal_image(evaluate(u))

    def test_palindrome_law_exhaustive(self):
        for p in enumerate_palindromes(AB, 8):
            h = evaluate(p)
            assert 2 * h.z == h.x * h.y

    def test_attainment_small_grid(self):
        images = {evaluate(p) for p in enumerate_palindromes(AB, 8)}
        for x in range(-3, 4):
            for y in range(-3, 4):
                if (x * y) % 2 == 0:
                    assert HeisElement(x, y, x * y // 2) in images

    def test_explicit_families(self):
        for x in range(-4, 5):
            for y in range(-4, 5):
                word = palindrome_word_for(x, y)
                if (x * y) % 2:
                    assert word is None
                else:
                    assert word.is_palindrome()
                    assert evaluate(word) == HeisElement(x, y, x * y // 2)


def brute_force_two_pal(h, bound=40):
    """Independent decision by exhausting the split (x1, y1); the split
    determines both z contributions, so this scans the whole search space."""
    for x1 in range(-bound, bound + 1):
        for y1 in range(-bound, bound + 1):
            if (x1 * y1) % 2:
                continue
            x2, y2 = h.x - x1, h.y - y1
            if (x2 * y2) % 2:
                continue
            if x1 * y1 // 2 + x2 * y2 // 2 + x2 * y1 == h.z:
                return True
    return False


class TestTwoPalindromeProduct:
    def test_central_element_needs_three(self):
        assert two_palindrome_product(HeisElement(0, 0, 1)) is None
        assert two_palindrome_product(HeisElement(0, 0, -1)) is None

    def test_identity(self):
        assert two_palindrome_product(HeisElement.identity()) is not None

    def test_pal_images_trivially_split(self):
        for x, y in ((2, 3), (-1, 4), (0, 0), (5, -2)):
            h = HeisElement(x, y, x * y // 2)
            pair = two_palindrome_product(h)
            assert pair is not None
            w1, w2 = pair
            assert evaluate(w1) * evaluate(w2) == h

    def test_ab_and_ba_images(self):
        for word in ("ab", "ba"):
            h = evaluate(w(word))
            pair = two_palindrome_product(h)
            assert pair is not None
            w1, w2 = pair
            assert w1.is_palindrome() and w2.is_palindrome()
            assert evaluate(w1) * evaluate(w2) == h

    def test_matches_brute_force_grid(self):
        for x in range(-3, 4):
            for y in range(-3, 4):
                for z in range(-3, 4):
                    h = HeisElement(x, y, z)
                    assert (two_palindrome_product(h) is not None) == brute_force_two_pal(h)

    def test_matches_word_level_search(self):
        # every image of a pair of palindromic words (length <= 6 each) must
        # be decided yes; the central elements must never appear among them
        images = sorted(
            {evaluate(p) for p in enumerate_palindromes(AB, 6)},
            key=lambda h: (h.x, h.y, h.z),
        )
        pair_images = {g * h for g in images for h in images}
        for h in pair_images:
            assert two_palindrome_product(h) is not None
        assert HeisElement(0, 0, 1) not in pair_images

    @given(triples)
    def test_witnesses_verify(self, h):
        pair = two_palindrome_product(h)
        if pair is not None:
            w1, w2 = pair
            assert w1.is_palindrome() and w2.is_palindrome()
            assert evaluate(w1) * evaluate(w2) == h


@given(st.integers(), st.integers(), st.integers())
def test_str_is_the_json_literal(x, y, z):
    h = HeisElement(x, y, z)
    assert str(h) == json.dumps(h.to_json())


@given(triples, triples)
def test_results_equal_fresh_records(g, h):
    # a tuple-backed record: whatever builds it equals and hashes like the
    # record built from its own fields
    for got in (g * h, g.inverse(), HeisElement.from_json(g.to_json()), evaluate(w("ab"))):
        fresh = HeisElement(got.x, got.y, got.z)
        assert type(got) is HeisElement
        assert got == fresh and hash(got) == hash(fresh)


def test_json_round_trip():
    h = HeisElement(1, -2, 3)
    assert HeisElement.from_json(h.to_json()) == h
    with pytest.raises(ValueError):
        HeisElement.from_json([1, 2])
    with pytest.raises(ValueError):
        HeisElement.from_json([1, 2, True])
