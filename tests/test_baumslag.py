import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import words

from palwidth.baumslag import (
    BSElement,
    _lowest_terms,
    evaluate,
    evaluator,
    normal_form,
    normal_form_word,
    two_palindrome_decomposition,
)
from palwidth.palindromes import check_in_group
from palwidth.search import pal_length_bounded
from palwidth.words import AB, AT, EMPTY, parse, reduce

NS = (2, 3, -2)


def w(text):
    return parse(text, AT)


class TestRepresentation:
    @pytest.mark.parametrize("n", NS)
    def test_defining_relation(self, n):
        assert evaluate(w("t^-1 a t"), n) == evaluate(w(f"a^{n}"), n)

    def test_translations(self):
        g = evaluate(w("a^3"), 2)
        assert (g.num, g.den_exp, g.dil) == (3, 0, 0)

    def test_fractional_translation(self):
        g = evaluate(w("t a t^-1"), 2)
        assert (g.num, g.den_exp, g.dil) == (1, 1, 0)
        assert g.translation() == pytest.approx(0.5)

    def test_encoding_reduced(self):
        g = BSElement(4, 2, 0, 2)  # 4 / 2^2 reduces to 1 / 2^0
        assert (g.num, g.den_exp) == (1, 0)
        assert BSElement(0, 5, 1, 2).den_exp == 0

    def test_negative_n_reduction(self):
        g = BSElement(4, 1, 0, -2)  # 4 / (-2) = -2
        assert (g.num, g.den_exp) == (-2, 0)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            BSElement(0, 0, 0, 1)
        with pytest.raises(ValueError):
            BSElement(1, -1, 0, 2)

    def test_mismatched_groups(self):
        with pytest.raises(ValueError):
            BSElement.identity(2) * BSElement.identity(3)

    def test_wrong_alphabet(self):
        from palwidth.words import AB

        with pytest.raises(ValueError):
            evaluate(parse("b", AB), 2)

    @pytest.mark.parametrize("n", NS)
    @given(u=words(AT, 10), v=words(AT, 10))
    @settings(max_examples=60)
    def test_homomorphism(self, n, u, v):
        assert evaluate(u * v, n) == evaluate(u, n) * evaluate(v, n)

    @pytest.mark.parametrize("n", NS)
    @given(u=words(AT, 10))
    @settings(max_examples=60)
    def test_inverse(self, n, u):
        g = evaluate(u, n)
        assert g * g.inverse() == BSElement.identity(n)
        assert evaluate(u.inverse(), n) == g.inverse()


def generator_fold(w, n):
    """Evaluate by multiplying the generator images syllable by syllable."""
    out = BSElement.identity(n)
    for gen, exp in w.syllables:
        if gen == "a":
            out = out * BSElement(exp, 0, 0, n)
        elif gen == "t":
            out = out * BSElement(0, 0, exp, n)
        else:
            raise ValueError(f"word is not over the alphabet {{a, t}}: {gen!r}")
    return out


class TestEvaluateAgainstGeneratorFold:
    @pytest.mark.parametrize("n", [2, 3, -2, 5, -7])
    @given(raw=st.lists(st.tuples(st.sampled_from("at"), st.integers(-40, 40)), max_size=10))
    @settings(max_examples=150)
    def test_same_element(self, n, raw):
        u = reduce(raw)
        assert evaluate(u, n) == generator_fold(u, n)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rejects_a_small_parameter(self, n):
        with pytest.raises(ValueError, match=r"\|n\| >= 2, got"):
            evaluate(w("a t"), n)

    def test_rejects_a_foreign_generator(self):
        with pytest.raises(ValueError, match="not over the alphabet {a, t}: 'b'"):
            evaluate(parse("a b", AB), 2)


@given(
    n=st.sampled_from([2, 3, -2, 5, -7, 10]),
    unit=st.integers(1, 10**6),
    power=st.integers(0, 80),
    den_exp=st.integers(1, 90),
)
def test_lowest_terms_strips_as_one_by_one(n, unit, power, den_exp):
    num, e = unit * n**power, den_exp
    while e and num % n == 0:
        num //= n
        e -= 1
    assert _lowest_terms(unit * n**power, den_exp, n) == (num, e)


class TestNormalForm:
    def test_identity(self):
        assert normal_form(BSElement.identity(2)) == (0, 0, 0)

    def test_generator(self):
        assert normal_form(evaluate(w("a"), 2)) == (0, 1, 0)

    def test_conjugate(self):
        assert normal_form(evaluate(w("t a t^-1"), 2)) == (1, 1, 1)

    @pytest.mark.parametrize("n", NS)
    @given(u=words(AT, 14))
    @settings(max_examples=80)
    def test_round_trip_and_minimality(self, n, u):
        g = evaluate(u, n)
        k, l, m = normal_form(g)
        assert k >= 0 and m >= 0
        assert evaluate(normal_form_word(k, l, m), n) == g
        if k > 0 and m > 0:
            assert l % n != 0

    @pytest.mark.parametrize("n", NS)
    @given(raw=st.lists(st.tuples(st.sampled_from("at"), st.integers(-6, 6)), max_size=8))
    @settings(max_examples=80)
    def test_normal_form_has_the_fewest_t_letters(self, n, raw):
        # the input cap on a word's total |t|-exponent then also bounds the
        # normal form, and the normal form's own check never trips first
        u = reduce(raw)
        k, _, m = normal_form(evaluate(u, n))
        assert k + m <= sum(abs(e) for g, e in u.syllables if g == "t")


class TestDecomposition:
    def test_single_palindrome(self):
        dec = two_palindrome_decomposition(evaluate(w("a"), 2))
        assert [str(f) for f in dec.factors] == ["a"]

    def test_ta(self):
        g = evaluate(w("t a"), 2)
        dec = two_palindrome_decomposition(g)
        assert dec.length == 2
        check_in_group(dec, lambda word: evaluate(word, 2))

    def test_displayed_factorization(self):
        dec = two_palindrome_decomposition(evaluate(w("t^2 a^3 t^-1"), 2))
        assert [str(f) for f in dec.factors] == ["t^2 a^3 t^2", "t^-3"]

    def test_pure_dilation_single_factor(self):
        dec = two_palindrome_decomposition(evaluate(w("t^-4"), 3))
        assert [str(f) for f in dec.factors] == ["t^-4"]

    def test_identity(self):
        dec = two_palindrome_decomposition(BSElement.identity(2))
        assert dec.factors == () and dec.target == EMPTY

    @pytest.mark.parametrize("n", NS)
    @given(u=words(AT, 14))
    @settings(max_examples=80)
    def test_random_words(self, n, u):
        g = evaluate(u, n)
        dec = two_palindrome_decomposition(g)
        assert dec.length <= 2
        check_in_group(dec, lambda word: evaluate(word, n))
        assert evaluate(dec.target, n) == g


class TestBoundedPalindromeSearch:
    """One palindrome is a k = 1 query on the search engine."""

    def test_identity(self):
        res = pal_length_bounded(evaluator(2), BSElement.identity(2), 1, 1)
        assert res.k == 0 and res.factors == ()

    def test_witness_re_evaluates(self):
        g = evaluate(w("ata"), 2)
        res = pal_length_bounded(evaluator(2), g, 1, 3)
        assert res.found
        (witness,) = res.factors
        assert witness.is_palindrome()
        assert evaluate(witness, 2) == g

    def test_ta_not_palindromic_within_bound(self):
        assert not pal_length_bounded(evaluator(2), evaluate(w("t a"), 2), 1, 9).found


def test_json_round_trip():
    g = evaluate(w("t a^5 t^-2"), 3)
    assert BSElement.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        BSElement.from_json({"num": 1, "den_exp": 0, "dil": 0})
    with pytest.raises(ValueError):
        BSElement.from_json({"num": 1.5, "den_exp": 0, "dil": 0, "n": 2})
