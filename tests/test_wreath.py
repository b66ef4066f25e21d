import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import palindromes, words

from palwidth import search
from palwidth.palindromes import check_in_group
from palwidth.search import BudgetExceeded, enumerate_palindromes
from palwidth.words import AB, EMPTY, Word, parse, run_word
from palwidth.wreath import (
    NotInDerivedError,
    SupportVector,
    WreathElement,
    commutator_witness,
    commutator_with_b,
    evaluate,
    evaluator,
    palindrome_witness,
    reversal_image,
    support_word,
    three_palindrome_decomposition,
    to_word,
)


def w(text):
    return parse(text, AB)


def elem(support, shift=0):
    return WreathElement(SupportVector(support), shift)


class TestSupportVector:
    def test_drops_zeros(self):
        assert SupportVector({0: 0, 1: 2}) == SupportVector({1: 2})
        assert not SupportVector()

    def test_accumulates_pairs(self):
        assert SupportVector([(0, 1), (0, -1), (2, 3)]) == SupportVector({2: 3})

    def test_shift_examples(self):
        assert SupportVector({0: 1}).shift(1) == SupportVector({1: 1})
        f = SupportVector({-1: 2, 3: -1})
        assert f.shift(0) == f
        assert f.shift(-3) == SupportVector({-4: 2, 0: -1})

    def test_exponent_sum(self):
        assert SupportVector().exponent_sum() == 0
        assert SupportVector({0: -1, 1: 1}).exponent_sum() == 0
        assert SupportVector({2: 5, -1: -2}).exponent_sum() == 3

    def test_mirror(self):
        assert SupportVector({-1: 2, 3: 1}).mirror() == SupportVector({1: 2, -3: 1})

    def test_arithmetic(self):
        f = SupportVector({0: 1, 2: -1})
        g = SupportVector({0: -1, 5: 2})
        assert f + g == SupportVector({2: -1, 5: 2})
        assert f - f == SupportVector()
        assert -f == SupportVector({0: -1, 2: 1})

    @given(
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3)),
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3)),
        st.integers(-3, 3),
    )
    def test_arithmetic_matches_normalised_construction(self, f_raw, g_raw, k):
        # results built without the normalising pass hold no zero entries
        # and equal (and hash as) the vectors normalised from scratch
        f, g = SupportVector(f_raw), SupportVector(g_raw)
        cases = [
            (f + g, list(f.items()) + list(g.items())),
            (f.add_shifted(g, k), list(f.items()) + [(i + k, e) for i, e in g.items()]),
            (-f, [(i, -e) for i, e in f.items()]),
            (f.shift(k), [(i + k, e) for i, e in f.items()]),
            (f.mirror(), [(-i, e) for i, e in f.items()]),
        ]
        for got, pairs in cases:
            expected = SupportVector(pairs)
            assert got == expected and hash(got) == hash(expected)
            assert all(e for _, e in got.items())


class TestEvaluate:
    def test_generators(self):
        assert evaluate(w("a")) == elem({0: 1})
        assert evaluate(w("b^3")) == elem({}, 3)

    def test_lamp_convention(self):
        assert evaluate(w("B a b")) == elem({1: 1})
        assert evaluate(w("b a B")) == elem({-1: 1})

    def test_commutator(self):
        g = evaluate(w("B A b a"))
        assert g == elem({0: 1, 1: -1})
        assert g.tail.exponent_sum() == 0

    def test_wrong_alphabet(self):
        from palwidth.words import AT

        with pytest.raises(ValueError):
            evaluate(parse("t", AT))

    @given(words(AB, 12), words(AB, 12))
    def test_homomorphism(self, u, v):
        assert evaluate(u * v) == evaluate(u) * evaluate(v)

    @given(words(AB, 12))
    def test_inverse(self, u):
        g = evaluate(u)
        assert g * g.inverse() == WreathElement.identity()
        assert evaluate(u.inverse()) == g.inverse()

    @given(words(AB, 12))
    def test_reversal_antiautomorphism(self, u):
        assert evaluate(u.reverse()) == reversal_image(evaluate(u))

    @given(st.integers(-4, 4), st.integers(-3, 3))
    def test_conjugation_coherence(self, index, k):
        # words that evaluate into the lamp subgroup shift by +k under b^-k . b^k
        f = SupportVector({index: 2, index + 2: -1})
        word = run_word("b", -k) * support_word(f) * run_word("b", k)
        assert evaluate(word) == WreathElement(f.shift(k), 0)


class TestWords:
    @given(st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5),
           st.integers(-4, 4))
    def test_to_word_round_trip(self, support, shift):
        g = elem(support, shift)
        assert evaluate(to_word(g)) == g

    def test_single_block(self):
        assert support_word(SupportVector({1: 1})) == w("B a b")
        assert support_word(SupportVector({-1: 2, 3: -1})) == w("b a^2 b^-4 A b^3")


class TestDerived:
    def test_examples(self):
        assert WreathElement.identity().in_derived_subgroup()
        assert elem({0: -1, 1: 1}).in_derived_subgroup()
        assert not elem({}, 1).in_derived_subgroup()
        assert not elem({0: 1}).in_derived_subgroup()


class TestWitness:
    def test_commutator_of_generators(self):
        c = elem({0: -1, 1: 1})
        f = commutator_witness(c)
        assert f == SupportVector({0: 1})
        assert commutator_with_b(f) == c

    def test_identity(self):
        assert commutator_witness(WreathElement.identity()) == SupportVector()

    def test_prefix_sums(self):
        c = elem({-2: 1, 0: -2, 3: 1})
        f = commutator_witness(c)
        assert f == SupportVector({-2: -1, -1: -1, 0: 1, 1: 1, 2: 1})
        assert commutator_with_b(f) == c

    def test_rejects_non_derived(self):
        with pytest.raises(NotInDerivedError):
            commutator_witness(elem({}, 1))
        with pytest.raises(NotInDerivedError):
            commutator_witness(elem({0: 1}))

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=8))
    def test_witness_property(self, support):
        tail = SupportVector(support)
        tail = tail - SupportVector.unit(0, tail.exponent_sum())
        c = WreathElement(tail, 0)
        assert commutator_with_b(commutator_witness(c)) == c


class TestThreePalindromes:
    def test_single_factor_exactly_on_palindrome_images(self):
        # a symmetric tail makes the canonical word a palindrome, so the
        # certificate of every palindrome image is that one word
        for g in search.ball_table(evaluator(), 6).entries:
            dec = three_palindrome_decomposition(g)
            assert (dec.length <= 1) == (palindrome_witness(g) is not None), g

    def test_b_is_single_factor(self):
        dec = three_palindrome_decomposition(elem({}, 1))
        assert [str(f) for f in dec.factors] == ["b"]

    def test_identity_empty(self):
        dec = three_palindrome_decomposition(WreathElement.identity())
        assert dec.factors == () and dec.target == EMPTY

    def test_ab(self):
        g = evaluate(w("ab"))
        dec = three_palindrome_decomposition(g)
        assert dec.length <= 3
        check_in_group(dec, evaluate)
        assert evaluate(dec.target) == g

    def test_spec_element(self):
        g = elem({-1: 2, 0: -2}, 3)
        dec = three_palindrome_decomposition(g)
        assert dec.length <= 3
        check_in_group(dec, evaluate)
        assert evaluate(dec.target) == g

    @given(st.dictionaries(st.integers(-5, 5), st.integers(-5, 5), max_size=6),
           st.integers(-5, 5))
    def test_random_elements(self, support, shift):
        g = elem(support, shift)
        dec = three_palindrome_decomposition(g)
        assert dec.length <= 3
        check_in_group(dec, evaluate)
        assert evaluate(dec.target) == g


# Shortlex words of the radius-6 ball elements that are not palindrome
# images yet matched one of the literal overlap shapes tail = h + h^(b^-l)
# or l*unit(-k) + h + h^(b^-2k) of the palindrome-shape classifier that
# `wreath` once had: reversal mirrors the support, which those shapes miss.
LITERAL_SHAPE_FALSE_POSITIVES = [
    "b a^2 b^-1", "b a^-2 b^-1", "b^-1 a^2 b", "b^-1 a^-2 b", "a b a^2 b^-1",
    "a b a b^-2", "a b a^-2 b^-1", "a b^2 a^-1 b^-1", "a b^-1 a^2 b", "a b^-1 a b^2",
    "a b^-1 a^-2 b", "a b^-2 a^-1 b", "a^-1 b a^2 b^-1", "a^-1 b a^-2 b^-1",
    "a^-1 b a^-1 b^-2", "a^-1 b^2 a b^-1", "a^-1 b^-1 a^2 b", "a^-1 b^-1 a^-2 b",
    "a^-1 b^-1 a^-1 b^2", "a^-1 b^-2 a b", "b a b a b^-1", "b a b^-2 a^-1", "b a b^-3",
    "b a^-1 b a^-1 b^-1", "b a^-1 b^-2 a", "b a^-1 b^-3", "b^3 a b^-1",
    "b^3 a^-1 b^-1", "b^-1 a b^2 a^-1", "b^-1 a b^3", "b^-1 a b^-1 a b",
    "b^-1 a^-1 b^2 a", "b^-1 a^-1 b^3", "b^-1 a^-1 b^-1 a^-1 b", "b^-3 a b",
    "b^-3 a^-1 b", "a^2 b a^2 b^-1", "a^2 b a^-2 b^-1", "a^2 b^-1 a^2 b",
    "a^2 b^-1 a^-2 b", "a^-2 b a^2 b^-1", "a^-2 b a^-2 b^-1", "a^-2 b^-1 a^2 b",
    "a^-2 b^-1 a^-2 b", "b a^4 b^-1", "b a^2 b^-3", "b a b^2 a b^-1",
    "b a b^2 a^-1 b^-1", "b a b^-2 a b^-1", "b a b^-2 a^-1 b^-1", "b a^-4 b^-1",
    "b a^-2 b^-3", "b a^-1 b^2 a b^-1", "b a^-1 b^2 a^-1 b^-1", "b a^-1 b^-2 a b^-1",
    "b a^-1 b^-2 a^-1 b^-1", "b^2 a^2 b^-2", "b^2 a^-2 b^-2", "b^3 a^2 b^-1",
    "b^3 a^-2 b^-1", "b^-1 a^4 b", "b^-1 a^2 b^3", "b^-1 a b^2 a b",
    "b^-1 a b^2 a^-1 b", "b^-1 a b^-2 a b", "b^-1 a b^-2 a^-1 b", "b^-1 a^-4 b",
    "b^-1 a^-2 b^3", "b^-1 a^-1 b^2 a b", "b^-1 a^-1 b^2 a^-1 b", "b^-1 a^-1 b^-2 a b",
    "b^-1 a^-1 b^-2 a^-1 b", "b^-2 a^2 b^2", "b^-2 a^-2 b^2", "b^-3 a^2 b",
    "b^-3 a^-2 b",
]


class TestClassify:
    """`palindrome_witness`: a palindromic word for every palindrome image,
    None for every other element."""

    def accepts(self, g):
        witness = palindrome_witness(g)
        assert witness is not None and witness.is_palindrome()
        assert evaluate(witness) == g
        return witness

    def test_literal_palindrome_classifies(self):
        self.accepts(evaluate(w("aba")))

    def test_bab_is_accepted(self):
        assert self.accepts(evaluate(w("bab"))) == w("bab")

    def test_pure_shift_is_accepted(self):
        assert self.accepts(elem({}, 5)) == w("b^5")

    def test_recorded_literal_form_gap(self):
        # B a b b a B is a palindrome whose image matches neither literal
        # overlap shape; the witness spells the lamp above the fixed point
        # first, so here it is the word itself
        word = w("B a b b a B")
        assert word.is_palindrome()
        assert self.accepts(evaluate(word)) == word

    def test_ab_is_not_a_palindrome_image(self):
        # the lamp at 0 has no partner at -shift - 0 = -1
        assert palindrome_witness(evaluate(w("ab"))) is None

    def test_ab_not_reached_by_short_palindromes(self):
        # corroborates the proof: no palindromic word of length <= 8 evaluates to ab
        target = evaluate(w("ab"))
        assert all(evaluate(p) != target for p in enumerate_palindromes(AB, 8))

    def test_agrees_with_enumeration_on_the_radius_8_ball(self):
        images = {evaluate(p) for p in enumerate_palindromes(AB, 16)}
        table = search.ball_table(evaluator(), 8)
        assert len(table) == 7537
        accepted = 0
        for g in table.entries:
            if g in images:
                self.accepts(g)
                accepted += 1
            else:
                assert palindrome_witness(g) is None, g
        assert accepted == len(images & table.entries.keys())

    def test_literal_shape_false_positives_are_rejected(self):
        assert len(LITERAL_SHAPE_FALSE_POSITIVES) == 76
        for text in LITERAL_SHAPE_FALSE_POSITIVES:
            assert palindrome_witness(evaluate(w(text))) is None, text

    @given(u=words(AB, 8), centre=st.sampled_from(["", "a^-3", "a", "a^4", "b", "B"]))
    def test_witness_equations(self, u, centre):
        # every u * c * rev(u) is accepted, with a witness that re-evaluates
        self.accepts(evaluate(u * w(centre) * u.reverse()))

    @given(p=palindromes(max_half=6), index=st.integers(-8, 8), exponent=st.integers(-3, 3))
    def test_one_changed_lamp_breaks_the_symmetry(self, p, index, exponent):
        # changing one lamp off the fixed point leaves it without its partner
        g = evaluate(p)
        changed = WreathElement(g.tail + SupportVector.unit(index, exponent), g.shift)
        if exponent and 2 * index != -g.shift:
            assert palindrome_witness(changed) is None
        else:
            self.accepts(changed)

    def test_far_lamp_is_over_the_input_cap(self):
        # in a child capped at 1 GiB: an uncapped routine that walked 10^8
        # lamp indices would exhaust the memory of the machine running the tests
        code = (
            "from palwidth.wreath import SupportVector, WreathElement, palindrome_witness\n"
            "palindrome_witness(WreathElement(SupportVector({0: 1, 10**8: 1}), 1))\n"
        )

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert time.perf_counter() - start < 5
        assert "BudgetExceeded: lamp span plus |shift| is 100000001" in proc.stderr

    @given(p=palindromes(max_half=6))
    def test_cap_is_the_lamp_span_plus_shift(self, p):
        # the witness of an element at the cap is the uncapped one
        g = evaluate(p)
        witness = palindrome_witness(g)
        items = g.tail.items()
        lo = min([0] + [i for i, _ in items])
        hi = max([0] + [i for i, _ in items])
        span = hi - lo + abs(g.shift)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "MAX_INPUT_SPAN", span)
            assert palindrome_witness(g) == witness
            m.setattr(search, "MAX_INPUT_SPAN", span - 1)
            with pytest.raises(BudgetExceeded):
                palindrome_witness(g)


class TestJson:
    def test_round_trip(self):
        g = elem({-1: 2, 0: -2}, 3)
        doc = json.loads(g.literal())
        assert doc == {"support": {"-1": 2, "0": -2}, "shift": 3}
        assert WreathElement.from_json(doc) == g

    def test_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            WreathElement.from_json({"support": {}, "shift": "x"})
        with pytest.raises(ValueError):
            WreathElement.from_json({"support": {"0": 0}, "shift": 0})
        with pytest.raises(ValueError):
            WreathElement.from_json({"shift": 0})
        with pytest.raises(ValueError):
            WreathElement.from_json({"support": {"0": True}, "shift": 0})
