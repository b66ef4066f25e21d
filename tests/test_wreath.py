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
    classify_palindrome_form,
    commutator_witness,
    commutator_with_b,
    evaluate,
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


class TestClassify:
    def test_literal_palindrome_classifies(self):
        form = classify_palindrome_form(evaluate(w("aba")))
        assert form.matches() and not form.mirrored

    def test_bab_is_a_form(self):
        form = classify_palindrome_form(evaluate(w("bab")))
        assert form.kind == "a-form" and form.k == 1 and not form.mirrored

    def test_ab_is_neither(self):
        assert not classify_palindrome_form(evaluate(w("ab"))).matches()

    def test_ab_not_reached_by_short_palindromes(self):
        # corroborates "neither": no palindromic word of length <= 8 evaluates to ab
        target = evaluate(w("ab"))
        assert all(evaluate(p) != target for p in enumerate_palindromes(AB, 8))

    def test_soundness_with_mirror_fallback(self):
        for p in enumerate_palindromes(AB, 9):
            form = classify_palindrome_form(evaluate(p))
            assert form.matches(), f"palindrome {p} classified as neither"

    def test_recorded_literal_form_gap(self):
        # B a b b a B is a palindrome whose image matches neither literal
        # shape: reversal mirrors the support, which the literal shapes miss.
        word = w("B a b b a B")
        assert word.is_palindrome()
        form = classify_palindrome_form(evaluate(word))
        assert form.matches() and form.mirrored

    def test_witness_equations(self):
        for p in enumerate_palindromes(AB, 8):
            g = evaluate(p)
            form = classify_palindrome_form(g)
            assert form.matches()
            h = form.h
            partner = h.mirror() if form.mirrored else h
            if form.kind == "b-form":
                assert g.tail == h + partner.shift(-form.l) and g.shift == form.l
            else:
                spike = SupportVector.unit(-form.k, form.l)
                assert g.tail == spike + h + partner.shift(-2 * form.k)
                assert g.shift == 2 * form.k

    def test_pure_shift_is_b_form(self):
        form = classify_palindrome_form(elem({}, 5))
        assert form.kind == "b-form" and not form.mirrored

    def test_far_lamp_is_over_the_input_cap(self):
        # in a child capped at 1 GiB: walking 10^8 lamp indices would
        # exhaust the memory of the machine running the tests
        code = (
            "from palwidth.wreath import SupportVector, WreathElement, classify_palindrome_form\n"
            "classify_palindrome_form(WreathElement(SupportVector({0: 1, 10**8: 1}), 1))\n"
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
        # the classification of an element at the cap is the uncapped one
        g = evaluate(p)
        form = classify_palindrome_form(g)
        items = g.tail.items()
        lo = min([0] + [i for i, _ in items])
        hi = max([0] + [i for i, _ in items])
        span = hi - lo + abs(g.shift)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(search, "MAX_INPUT_SPAN", span)
            assert classify_palindrome_form(g) == form
            m.setattr(search, "MAX_INPUT_SPAN", span - 1)
            with pytest.raises(BudgetExceeded):
                classify_palindrome_form(g)


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
