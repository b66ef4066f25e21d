import hypothesis.strategies as st
import pytest
from hypothesis import given
from strategies import letters, raw_seqs, words

from palwidth.words import (
    AB,
    AT,
    EMPTY,
    Alphabet,
    ParseError,
    Word,
    format_word,
    parse,
    reduce,
    run_word,
    shortlex_key,
)


class TestParse:
    def test_caret_and_alias(self):
        assert parse("a^2 B", AB).letters == (("a", 1), ("a", 1), ("b", -1))

    def test_reduction_on_parse(self):
        assert parse("a A", AB) == EMPTY

    def test_at_alphabet(self):
        assert parse("t^-1 a t", AT).letters == (("t", -1), ("a", 1), ("t", 1))

    def test_packed_tokens(self):
        assert parse("aBab", AB).letters == (("a", 1), ("b", -1), ("a", 1), ("b", 1))

    def test_negative_exponent_on_alias(self):
        assert parse("A^-2", AB) == parse("a^2", AB)

    def test_zero_exponent(self):
        assert parse("a^0 b", AB) == parse("b", AB)

    def test_unknown_generator_position(self):
        with pytest.raises(ParseError) as exc:
            parse("a c", AB)
        assert exc.value.position == 2

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse("a^", AB)
        with pytest.raises(ParseError):
            parse("a^x", AB)

    def test_non_letter(self):
        with pytest.raises(ParseError):
            parse("a+b", AB)


class TestFormat:
    def test_runs(self):
        assert format_word(parse("aaaBB", AB)) == "a^3 b^-2"

    def test_empty(self):
        assert format_word(EMPTY) == ""
        assert parse("", AB) == EMPTY

    @given(words(AB))
    def test_round_trip(self, w):
        assert parse(format_word(w), AB) == w

    def test_canonicalizes(self):
        assert format_word(parse("a a b B a", AB)) == "a^3"


class TestReduce:
    def test_inverse_cancellation(self):
        assert reduce([("a", 1), ("a", -1)]) == EMPTY

    def test_inner_cancellation(self):
        assert reduce(parse("a", AB).letters + parse("b", AB).letters
                      + parse("B", AB).letters + parse("a", AB).letters) == parse("a a", AB)

    def test_already_reduced(self):
        w = parse("a b A", AB)
        assert reduce(w.letters) == w

    @given(raw_seqs(AB, 16))
    def test_idempotent(self, raw):
        once = reduce(raw)
        assert reduce(once.letters) == once

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word((("a", 1), ("a", -1)))

    def test_constructor_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="zero exponent"):
            Word((("a", 0),))
        with pytest.raises(ValueError, match="zero exponent"):
            Word((("a", 2), ("b", 0), ("a", 1)))

    def test_constructor_rejects_neighbours_sharing_a_generator(self):
        with pytest.raises(ValueError, match="share the generator"):
            Word((("a", 2), ("a", 3)))
        with pytest.raises(ValueError, match="share the generator"):
            Word((("b", 1), ("a", -1), ("a", 1)))
        assert Word((("a", 2), ("b", -1), ("a", 3))).syllables == (("a", 2), ("b", -1), ("a", 3))


class TestInvolutions:
    @given(words(AB))
    def test_reverse_reverse(self, w):
        assert w.reverse().reverse() == w

    @given(words(AB))
    def test_invert_invert(self, w):
        assert w.inverse().inverse() == w

    @given(words(AB))
    def test_invert_reverse_commute(self, w):
        assert w.inverse().reverse() == w.reverse().inverse()

    @given(words(AB))
    def test_group_inverse(self, w):
        assert w * w.inverse() == EMPTY
        assert w.inverse() * w == EMPTY

    def test_examples(self):
        assert parse("a B", AB).reverse() == parse("B a", AB)
        assert parse("a b", AB).inverse() == parse("B A", AB)
        assert parse("A", AB).inverse() == parse("a", AB)


class TestPalindromeStability:
    """Free reduction commutes with reversal, so reducing a symmetric raw
    sequence always yields a symmetric word."""

    @given(raw_seqs(AB, 10))
    def test_even_symmetric(self, raw):
        symmetric = raw + list(reversed(raw))
        assert reduce(symmetric).is_palindrome()

    @given(raw_seqs(AB, 10), letters(AB))
    def test_odd_symmetric(self, raw, center):
        symmetric = raw + [center] + list(reversed(raw))
        assert reduce(symmetric).is_palindrome()

    @given(raw_seqs(AB, 12))
    def test_reduce_commutes_with_reversal(self, raw):
        assert reduce(list(reversed(raw))) == reduce(raw).reverse()


class TestPalindromeTest:
    def test_examples(self):
        assert parse("a b a", AB).is_palindrome()
        assert not parse("a b", AB).is_palindrome()
        assert parse("A b A", AB).is_palindrome()
        assert not parse("a b A", AB).is_palindrome()  # signs respected
        assert EMPTY.is_palindrome()


# --- syllables against a letter-list reference --------------------------------
#
# The reference below works one letter at a time, the way words were stored
# before they became syllables; every syllable operation must agree with it.


def ref_reduce(seq):
    stack = []
    for gen, sign in seq:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return stack


def ref_letters(syllables):
    """Expand (gen, exp) pairs into a letter list."""
    return [(g, 1 if e > 0 else -1) for g, e in syllables for _ in range(abs(e))]


def ref_format(seq):
    runs = []
    for letter in seq:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    return " ".join(g if n * s == 1 else f"{g}^{n * s}" for (g, s), n in runs)


# raw (gen, exp) sequences with exponents up to 4 in size, zeros included
raw_syllables = st.lists(st.tuples(st.sampled_from("ab"), st.integers(-4, 4)), max_size=10)


class TestSyllablesAgainstLetters:
    @given(raw_syllables)
    def test_reduce(self, raw):
        w = reduce(raw)
        assert list(w.letters) == ref_reduce(ref_letters(raw))
        assert len(w) == len(w.letters)
        assert all(e for _, e in w.syllables)
        assert all(x[0] != y[0] for x, y in zip(w.syllables, w.syllables[1:]))

    @given(raw_syllables, raw_syllables)
    def test_mul(self, raw1, raw2):
        u, v = reduce(raw1), reduce(raw2)
        assert list((u * v).letters) == ref_reduce(list(u.letters) + list(v.letters))
        assert u * v == reduce(raw1 + raw2)

    @given(raw_syllables)
    def test_inverse_and_reverse(self, raw):
        w = reduce(raw)
        seq = list(w.letters)
        assert list(w.inverse().letters) == [(g, -s) for g, s in reversed(seq)]
        assert list(w.reverse().letters) == seq[::-1]

    @given(raw_syllables, st.sampled_from(["", "a", "A", "b", "B", "a^3"]))
    def test_is_palindrome(self, raw, center):
        w = reduce(raw)
        seq = list(w.letters)
        assert w.is_palindrome() == (seq == seq[::-1])
        symmetric = w * parse(center, AB) * w.reverse()
        assert symmetric.is_palindrome()
        assert list(symmetric.letters) == list(symmetric.letters)[::-1]

    @given(raw_syllables)
    def test_format_and_parse(self, raw):
        w = reduce(raw)
        assert format_word(w) == ref_format(w.letters)
        assert parse(format_word(w), AB) == w

    @given(raw_syllables)
    def test_parse_one_token_per_syllable(self, raw):
        text = " ".join(f"{g}^{e}" for g, e in raw)
        assert parse(text, AB) == reduce(raw)
        assert list(parse(text, AB).letters) == ref_reduce(ref_letters(raw))


class TestLongRuns:
    def test_huge_exponent_is_one_syllable(self):
        w = parse("a^200000000", AT)
        assert w.syllables == (("a", 200000000),)
        assert len(w) == 200000000
        assert format_word(w) == "a^200000000"

    def test_cancellation_cascades_across_the_seam(self):
        abt = Alphabet(("a", "b", "t"))
        u = parse("b^5 a^7 t^-3 a^1000000", abt)
        v = parse("a^-1000000 t^3 a^-7 b^2", abt)
        assert (u * v).syllables == (("b", 7),)
        assert (u * v.inverse() * v).syllables == u.syllables

    def test_words_are_not_iterable(self):
        # callers pick .syllables or .letters; signs are never guessed
        with pytest.raises(TypeError):
            iter(parse("a^3 b", AB))


def test_run_word():
    assert run_word("a", 3) == parse("a^3", AB)
    assert run_word("b", -2) == parse("b^-2", AB)
    assert run_word("a", 0) == EMPTY


def test_shortlex_letter_order():
    ws = [parse(s, AB) for s in ("a", "A", "b", "B", "aa", "ab")]
    keys = [shortlex_key(w, AB) for w in ws]
    assert keys == sorted(keys)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert AB.index("b") == 1
    with pytest.raises(ValueError):
        AB.index("t")
