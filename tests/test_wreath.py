import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from strategies import palindromes, words

from palwidth import search
from palwidth.cli import certificate_json, recheck_certificate
from palwidth.heisenberg import from_wreath
from palwidth.palindromes import check_in_group
from palwidth.search import BudgetExceeded, enumerate_palindromes
from palwidth.words import AB, EMPTY, Word, parse, reduce, run_word
from palwidth.wreath import (
    NotInDerivedError,
    WreathElement,
    _lattice_factors,
    _solve_commutator,
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
    return WreathElement.of(support.items(), shift)


def trips_at_the_hull(routine, g, words=1):
    """`routine(g)`, run with the input cap at g's lamp hull hi - lo times
    `words`; with the cap one lower it must raise BudgetExceeded."""
    size = (g.tail[-1][0] - g.tail[0][0]) * words
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "MAX_INPUT_SPAN", size - 1)
        with pytest.raises(BudgetExceeded):
            routine(g)
        m.setattr(search, "MAX_INPUT_SPAN", size)
        return routine(g)


def lattice_step(g):
    """The gcd of the gaps between g's lamps, 1 for fewer than two lamps."""
    lo = g.tail[0][0]
    return math.gcd(*(i - lo for i, _ in g.tail)) or 1


def is_canonical(tail):
    return all(i < j for (i, _), (j, _) in zip(tail, tail[1:])) and all(e for _, e in tail)


lamp_maps = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3))
elements = st.builds(elem, lamp_maps, st.integers(-3, 3))


class TestTail:
    def test_drops_zeros(self):
        assert WreathElement.of([(0, 0), (1, 2)]).tail == ((1, 2),)
        assert WreathElement.of([(3, 0)]) == WreathElement.identity()

    def test_accumulates_pairs(self):
        assert WreathElement.of([(0, 1), (0, -1), (2, 3)]).tail == ((2, 3),)
        assert WreathElement.of([(5, 1), (-2, 4), (5, 1)]).tail == ((-2, 4), (5, 2))

    def test_shift_examples(self):
        # conjugating by b^k moves the lamp at index i to i + k
        def conjugate(g, k):
            b_k = WreathElement((), k)
            return b_k.inverse() * g * b_k

        assert conjugate(elem({0: 1}), 1) == elem({1: 1})
        f = elem({-1: 2, 3: -1})
        assert conjugate(f, 0) == f
        assert conjugate(f, -3) == elem({-4: 2, 0: -1})

    def test_exponent_sum(self):
        # the exponent sum is the x-coordinate of the quotient and vanishes
        # on the shift-0 part of the derived subgroup
        for lamps, total in (({}, 0), ({0: -1, 1: 1}, 0), ({2: 5, -1: -2}, 3)):
            assert from_wreath(elem(lamps)).x == total
            assert elem(lamps).in_derived_subgroup() == (total == 0)

    def test_mirror(self):
        assert reversal_image(elem({-1: 2, 3: 1})) == elem({1: 2, -3: 1})

    def test_arithmetic(self):
        # shift-0 elements multiply by adding their lamps
        f = elem({0: 1, 2: -1})
        g = elem({0: -1, 5: 2})
        assert f * g == elem({2: -1, 5: 2})
        assert f * f.inverse() == WreathElement.identity()
        assert f.inverse() == elem({0: -1, 2: 1})

    @given(elements, elements, words(AB, 10),
           st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), max_size=8),
           st.integers(-3, 3))
    def test_every_construction_is_canonical(self, g, h, u, raw, k):
        # each way of building an element yields a strictly ascending,
        # zero-free tail, equal to (and hashing as) `of` on the raw pairs
        # and the record built afresh from its own fields
        a_runs = []
        pos = 0
        for gen, exp in u.syllables:
            if gen == "a":
                a_runs.append((-pos, exp))
            else:
                pos += exp
        b_k = WreathElement((), k)  # the products with a lampless factor skip the merge
        cases = [
            (g * h, list(g.tail) + [(i - g.shift, e) for i, e in h.tail], g.shift + h.shift),
            (g * b_k, list(g.tail), g.shift + k),
            (b_k * g, [(i - k, e) for i, e in g.tail], g.shift + k),
            (g.inverse(), [(i + g.shift, -e) for i, e in g.tail], -g.shift),
            (reversal_image(g), [(-g.shift - i, e) for i, e in g.tail], g.shift),
            (evaluate(u), a_runs, pos),
            (WreathElement.from_json(g.to_json()), list(g.tail), g.shift),
            (WreathElement.of(raw, 1), raw, 1),
        ]
        for got, pairs, shift in cases:
            expected = WreathElement.of(pairs, shift)
            fresh = WreathElement(tuple(got.tail), got.shift)
            assert type(got) is WreathElement and is_canonical(got.tail)
            assert got == expected and hash(got) == hash(expected)
            assert got == fresh and hash(got) == hash(fresh)
        sums = {}
        for i, e in raw:
            sums[i] = sums.get(i, 0) + e
        assert WreathElement.of(raw).tail == tuple(sorted((i, e) for i, e in sums.items() if e))


    @given(elements, st.integers(-6, 6), st.integers(-3, 3).filter(bool), st.integers(-3, 3))
    def test_one_lamp_product_is_the_merged_pairs(self, g, index, exponent, shift):
        # a one-lamp right factor (every a^±1 step of the ball) goes in place
        lamp = WreathElement(((index, exponent),), shift)
        cases = [(lamp, [(index - g.shift, exponent)], shift)]
        # and a lamp that it cancels to zero leaves the tail
        cases += [(WreathElement(((i + g.shift, -e),), shift), [(i, -e)], shift) for i, e in g.tail]
        for right, pairs, s in cases:
            got = g * right
            expected = WreathElement.of(list(g.tail) + pairs, g.shift + s)
            assert type(got) is WreathElement and is_canonical(got.tail)
            assert got == expected and hash(got) == hash(expected)

    def test_one_lamp_product_examples(self):
        g = elem({-2: 1, 0: 3, 4: -1}, 1)
        assert g * elem({1: -3}) == elem({-2: 1, 4: -1}, 1)  # cancels index 0
        assert g * elem({2: 5}, -1) == elem({-2: 1, 0: 3, 1: 5, 4: -1})  # inserted
        assert g * elem({-2: 2}) == elem({-3: 2, -2: 1, 0: 3, 4: -1}, 1)  # at the front
        assert g * elem({6: 2}) == elem({-2: 1, 0: 3, 4: -1, 5: 2}, 1)  # at the end
        assert g * elem({5: 1}) == elem({-2: 1, 0: 3}, 1)  # cancels the last lamp


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
        assert g.in_derived_subgroup()

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

    @given(st.integers(-10**40, 10**40), words(AB, 12), st.integers(-10**40, 10**40))
    def test_far_travel_around_a_word(self, k, u, m):
        # a leading b-syllable is kept out of the lamp keys and added back
        # at the end; the value is the product all the same
        word = run_word("b", k) * u * run_word("b", m)
        assert evaluate(word) == elem({}, k) * evaluate(u) * elem({}, m)

    def test_a_lamp_past_twice_the_cap_is_refused(self, monkeypatch):
        # the first lamp is keyed 0, and a key past 2 cap + 2 is refused as
        # it is reached, even when a later letter cancels that lamp
        monkeypatch.setattr(search, "MAX_INPUT_SPAN", 41)
        assert evaluate(w("a b^-84 a")) == elem({0: 1, 84: 1}, -84)
        with pytest.raises(BudgetExceeded, match="more than 84 from its first"):
            evaluate(w("a b^85 a b^-85 a b^85 A"))

    @given(st.integers(-4, 4), st.integers(-3, 3))
    def test_conjugation_coherence(self, index, k):
        # words that evaluate into the lamp subgroup shift by +k under b^-k . b^k
        word = run_word("b", -k) * support_word(((index, 2), (index + 2, -1))) * run_word("b", k)
        assert evaluate(word) == elem({index + k: 2, index + 2 + k: -1})


class TestWords:
    @given(st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5),
           st.integers(-4, 4))
    def test_to_word_round_trip(self, support, shift):
        g = elem(support, shift)
        assert evaluate(to_word(g)) == g

    def test_single_block(self):
        assert support_word(((1, 1),)) == w("B a b")
        assert support_word(((-1, 2), (3, -1))) == w("b a^2 b^-4 A b^3")

    @staticmethod
    def raw_walk(tail):
        syllables, pos = [], 0
        for i, e in tail:
            syllables += [("b", pos - i), ("a", e)]
            pos = i
        return syllables + [("b", pos)]

    @pytest.mark.parametrize(
        "tail",
        [(), ((0, 2),), ((0, -1), (3, 2)), ((-4, 1), (0, 3)), ((-2, 1), (0, -1), (5, 2)), ((2, 1),)],
    )
    def test_walk_ends_at_index_0(self, tail):
        word = support_word(tail)
        assert word == reduce(self.raw_walk(tail))
        Word(word.syllables)  # the constructor's own reducedness check

    @given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=6))
    def test_equals_the_folded_walk(self, lamps):
        tail = tuple(sorted(lamps.items()))
        word = support_word(tail)
        assert word == reduce(self.raw_walk(tail))
        Word(word.syllables)


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
        assert f == {0: 1}
        assert commutator_with_b(f) == c

    def test_identity(self):
        assert commutator_witness(WreathElement.identity()) == {}

    def test_prefix_sums(self):
        c = elem({-2: 1, 0: -2, 3: 1})
        f = commutator_witness(c)
        assert list(f.items()) == [(-2, -1), (-1, -1), (0, 1), (1, 1), (2, 1)]
        assert commutator_with_b(f) == c

    def test_rejects_non_derived(self):
        with pytest.raises(NotInDerivedError):
            commutator_witness(elem({}, 1))
        with pytest.raises(NotInDerivedError):
            commutator_witness(elem({0: 1}))

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=8))
    def test_step_1_is_the_prefix_sum_witness(self, support):
        # f_i = -(n_lo + ... + n_i) for lo <= i < hi, zeros left out
        c = WreathElement.of([*support.items(), (0, -sum(support.values()))])
        lamps = dict(c.tail)
        expected, acc = {}, 0
        for i in range(min(lamps, default=0), max(lamps, default=0)):
            acc += lamps.get(i, 0)
            if acc:
                expected[i] = -acc
        assert _solve_commutator(c, 1) == _solve_commutator(c) == expected

    @given(st.integers(-10**30, 10**30), st.integers(1, 50),
           st.dictionaries(st.integers(0, 12), st.integers(-6, 6), max_size=8))
    def test_lattice_witness(self, offset, m, support):
        # lamps on offset + m i with exponent sum 0: f(i - m) - f(i) = c(i),
        # on at most (hi - lo) / m indices of the same lattice
        c = WreathElement.of([(offset + m * i, e) for i, e in support.items()]
                             + [(offset, -sum(support.values()))])
        f = _solve_commutator(c, m)
        assert WreathElement.of([(i, -e) for i, e in f.items()] + [(i + m, e) for i, e in f.items()]) == c
        assert all((i - offset) % m == 0 and e for i, e in f.items())
        if c.tail:
            assert len(f) <= (c.tail[-1][0] - c.tail[0][0]) // m

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-6, 6), max_size=8))
    def test_witness_property(self, support):
        c = WreathElement.of([*support.items(), (0, -sum(support.values()))])
        f = commutator_witness(c)
        assert commutator_with_b(f) == c
        assert list(f) == sorted(f)


class TestThreePalindromes:
    def test_single_factor_exactly_on_palindrome_images(self):
        # a symmetric tail makes the canonical word a palindrome, so the
        # certificate of every palindrome image is that one word
        for enc in search.ball_table(evaluator(), 6):
            g = WreathElement.from_flat(enc)
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

    @given(st.integers(-50_000, 50_000), st.integers(1, 50),
           st.dictionaries(st.integers(0, 12), st.integers(-5, 5).filter(bool), min_size=1,
                           max_size=6),
           st.integers(-9, 9))
    def test_factors_grow_with_the_lamp_hull_only(self, offset, m, window, shift):
        # wherever the lamps sit on a lattice offset + m i, each factor has
        # at most 4 (hi - lo) / m + 5 syllables, hi and lo the outermost lamp
        # indices, and fewer when the gaps have a gcd that m divides
        g = elem({offset + m * i: e for i, e in window.items()}, shift)
        dec = three_palindrome_decomposition(g)
        bound = 4 * (g.tail[-1][0] - g.tail[0][0]) // lattice_step(g) + 5
        assert all(len(f.syllables) <= bound for f in dec.factors), dec.factors
        assert check_in_group(dec, evaluate) == g

    @given(st.integers(-50_000, 50_000), st.integers(2, 50),
           st.dictionaries(st.integers(0, 12), st.integers(-5, 5).filter(bool), min_size=2,
                           max_size=6),
           st.integers(-60, 60))
    def test_a_lattice_certificate_is_no_longer_than_the_step_1_one(self, offset, m, window, shift):
        # per factor, the commutator in steps of b^m never costs more
        # syllables than the one in steps of b; only the last factor
        # b^(l+m) can appear where b^(l+1) was empty, for the shift l = -1
        g = elem({offset + m * i: e for i, e in window.items()}, shift)
        assume(not to_word(g).is_palindrome())
        dec = three_palindrome_decomposition(g)
        dense = _lattice_factors(g, 1)
        assert all(len(f.syllables) <= len(d.syllables) for f, d in zip(dec.factors, dense))
        if len(dec.factors) > len(dense):
            assert shift == -1 and dec.factors[-1] == run_word("b", lattice_step(g) - 1)
        assert check_in_group(dec, evaluate) == g

    @pytest.mark.parametrize(
        "shift, factors",
        [
            # lamps 206 apart: one commutator step of b^206
            (-4, ["b^3 a b^-206 a b^3", "b^-3 a^-3 b^-3", "b^202"]),
            # the shift -206 leaves the last factor empty
            (-206, ["b^3 a b^-206 a b^3", "b^-3 a^-3 b^-3"]),
            # b^(l+1) was empty for the shift -1, b^(l+206) is not
            (-1, ["b^3 a b^-206 a b^3", "b^-3 a^-3 b^-3", "b^205"]),
        ],
    )
    def test_lattice_examples(self, shift, factors):
        g = elem({-3: 1, 203: -2}, shift)
        dec = three_palindrome_decomposition(g)
        assert [str(f) for f in dec.factors] == factors
        assert check_in_group(dec, evaluate) == g

    def test_far_lamps_give_a_small_certificate(self):
        doc = {"support": {"99980": -3, "99990": 1}, "shift": 3}
        dec = three_palindrome_decomposition(WreathElement.from_json(doc))
        text = json.dumps(certificate_json("wreath", dec, doc), sort_keys=True, indent=2)
        assert len(text) < 1024
        assert recheck_certificate(json.loads(text))


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
        table = [WreathElement.from_flat(enc) for enc in search.ball_table(evaluator(), 8)]
        assert len(table) == 7537
        accepted = 0
        for g in table:
            if g in images:
                self.accepts(g)
                accepted += 1
            else:
                assert palindrome_witness(g) is None, g
        assert accepted == len(images & set(table))

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
        changed = WreathElement.of(g.tail + ((index, exponent),), g.shift)
        if exponent and 2 * index != -g.shift:
            assert palindrome_witness(changed) is None
        else:
            self.accepts(changed)

    def test_far_lamp_is_over_the_input_cap(self):
        # in a child capped at 1 GiB: an uncapped routine that walked 10^8
        # lamp indices would exhaust the memory of the machine running the tests
        code = (
            "from palwidth.wreath import WreathElement, palindrome_witness\n"
            "palindrome_witness(WreathElement(((0, 1), (10**8, 1)), 1))\n"
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
        assert "BudgetExceeded: lamp hull is 100000000" in proc.stderr

    @given(p=palindromes(max_half=6))
    def test_cap_is_the_lamp_hull(self, p):
        # the witness of an element at the cap is the uncapped one
        g = evaluate(p)
        assume(g.tail)
        witness = palindrome_witness(g)
        assert trips_at_the_hull(palindrome_witness, g) == witness


def window(width):
    """Lamp maps with nonzero exponents at some of the indices 0..width."""
    exponents = st.integers(-10**9, 10**9).filter(bool)
    return st.dictionaries(st.integers(0, width), exponents, min_size=1)


# translations and shifts, near and far past 2^64: the decomposition cap
# sees the lamp hull alone, wherever it sits
FAR = st.integers(-10**9, 10**9) | st.integers(-10**400, 10**400)


def index_words(g):
    """64-bit words in g's farthest lamp index, at least 1."""
    return max(1, -(-max(-g.tail[0][0], g.tail[-1][0]).bit_length() // 64))


class TestInputCap:
    @given(lamps=window(12), step=st.integers(1, 50), offset=FAR, shift=FAR)
    def test_decomposition_cap_is_the_lamp_hull(self, lamps, step, offset, shift):
        # lamps on a lattice: the cap is the hull, not the commutator's steps
        g = WreathElement.of(((offset + step * i, e) for i, e in lamps.items()), shift)
        trips_at_the_hull(three_palindrome_decomposition, g)

    @given(f=window(11), offset=FAR)
    def test_witness_cap_is_the_lamp_hull_in_index_words(self, f, offset):
        # [f, b] for f on the indices 0..11 has its lamps in 0..12; the
        # witness lists up to that many indices, each as wide as g's
        g = commutator_with_b({i + offset: e for i, e in f.items()})
        witness = trips_at_the_hull(commutator_witness, g, index_words(g))
        assert commutator_with_b(witness) == g

    def test_index_words(self):
        assert [index_words(elem({i: 1})) for i in (0, 1, 2**64 - 1, 2**64, -(2**128))] == [1, 1, 1, 2, 3]


class TestJson:
    @given(st.dictionaries(st.integers(-10**6, 10**6), st.integers(-10**9, 10**9)),
           st.integers(-10**6, 10**6))
    def test_str_is_the_sorted_json_literal(self, lamps, shift):
        # support keys sort as strings: "-1" < "-2" < "0" < "10" < "2"
        g = elem(lamps, shift)
        assert str(g) == json.dumps(g.to_json(), sort_keys=True)

    def test_str_sorts_keys_as_strings(self):
        g = elem({-1: 1, -2: 2, 0: 3, 10: 4, 2: 5}, -7)
        assert str(g) == (
            '{"shift": -7, "support": {"-1": 1, "-2": 2, "0": 3, "10": 4, "2": 5}}'
        )
        # a key sorts before every longer key it begins
        g = elem({10: -3, 2: 5, 1: 7, -10: 11, -1: 13}, 0)
        assert str(g) == json.dumps(g.to_json(), sort_keys=True) == (
            '{"shift": 0, "support": {"-1": 13, "-10": 11, "1": 7, "10": -3, "2": 5}}'
        )
        assert str(WreathElement.identity()) == '{"shift": 0, "support": {}}'

    def test_round_trip(self):
        g = elem({-1: 2, 0: -2}, 3)
        doc = json.loads(str(g))
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

    @pytest.mark.parametrize("key", ["01", "+1", "1_0", " 1", "-0", "1.0", "x"])
    def test_rejects_non_canonical_keys(self, key):
        # every index has one spelling, so a second key cannot overwrite it
        with pytest.raises(ValueError):
            WreathElement.from_json({"support": {key: 1}, "shift": 0})
        with pytest.raises(ValueError):
            WreathElement.from_json({"support": {"1": 2, key: 3}, "shift": 0})

    @given(st.one_of(
        st.sampled_from(["-0", "00", "+1", "1_0", " 1", "1\n", "١", "٣", "-", ""]),
        st.integers(-10**30, 10**30).map(str),
        st.text("-+0123456789_ ١", max_size=6),
    ))
    def test_a_key_is_canonical_when_int_gives_it_back(self, key):
        # the key is checked as text, so a far key is converted once
        try:
            canonical = str(int(key)) == key
        except ValueError:
            canonical = False
        doc = {"support": {key: 1}, "shift": 0}
        if canonical:
            assert WreathElement.from_json(doc) == WreathElement(((int(key), 1),), 0)
        else:
            with pytest.raises(ValueError, match="not a canonical decimal index"):
                WreathElement.from_json(doc)
