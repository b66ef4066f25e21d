import io
import itertools

import pytest

from palwidth import baumslag, heisenberg, wreath
from palwidth.heisenberg import HeisElement
from palwidth.search import (
    MAX_DIGITS,
    BudgetExceeded,
    _PalProductIndex,
    ball_table,
    check_digits,
    enumerate_palindromes,
    enumerate_reduced_words,
    pal_length_bounded,
    pal_length_histogram,
    write_ball_csv,
)
from palwidth.words import AB, EMPTY, Word, parse, shortlex_key


def w(text):
    return parse(text, AB)


GROUPS = (wreath.evaluator(), heisenberg.evaluator(), baumslag.evaluator(2))


def brute_ball(ev, radius):
    """Minimal length and shortlex-first witness of every element, found by
    evaluating every reduced word of length <= radius."""
    ball = {}
    for n in range(radius + 1):
        for word in enumerate_reduced_words(ev.alphabet, n):
            ball.setdefault(ev.eval(word), (n, word))
    return ball


def brute_pal_lengths(ev, max_factors, max_len):
    """Least k for every element that is a product of k <= max_factors
    palindromes of length <= max_len. Evaluates each concatenation of
    factors as a word, never touching the engine's mul/inv join."""
    pals = [p for p in enumerate_palindromes(ev.alphabet, max_len) if p]
    least = {ev.eval(EMPTY): 0}
    for k in range(1, max_factors + 1):
        for factors in itertools.product(pals, repeat=k):
            product = Word()
            for f in factors:
                product = product * f
            least.setdefault(ev.eval(product), k)
    return least


class TestEnumeration:
    def test_length_one(self):
        got = [str(p) for p in enumerate_palindromes(AB, 1)]
        assert got == ["", "a", "a^-1", "b", "b^-1"]

    def test_count_up_to_two(self):
        got = list(enumerate_palindromes(AB, 2))
        assert len(got) == 9
        assert {str(p) for p in got[5:]} == {"a^2", "a^-2", "b^2", "b^-2"}

    def test_membership(self):
        pals = {p for p in enumerate_palindromes(AB, 3)}
        assert w("aba") in pals
        assert w("abb") not in pals

    def test_against_brute_force_oracle(self):
        # oracle: filter all reduced words by the palindrome predicate
        brute = []
        for n in range(7):
            for word in enumerate_reduced_words(AB, n):
                if word.is_palindrome():
                    brute.append(word)
        assert list(enumerate_palindromes(AB, 6)) == brute

    def test_shortlex_order(self):
        seq = [shortlex_key(p, AB) for p in enumerate_palindromes(AB, 6)]
        assert seq == sorted(seq)

    def test_each_exactly_once(self):
        seq = list(enumerate_palindromes(AB, 7))
        assert len(seq) == len(set(seq))

    def test_all_reduced_and_palindromic(self):
        for p in enumerate_palindromes(AB, 7):
            assert p.is_palindrome()  # Word constructor enforces reducedness


class TestBallTable:
    def test_radius_zero(self):
        table = ball_table(heisenberg.evaluator(), 0)
        assert len(table) == 1
        assert table.entries[HeisElement.identity()] == (0, EMPTY)

    def test_wreath_radius_one(self):
        table = ball_table(wreath.evaluator(), 1)
        assert len(table) == 5

    def test_heis_commutator_appears_at_four(self):
        ev = heisenberg.evaluator()
        assert HeisElement(0, 0, 1) not in ball_table(ev, 2).entries
        table = ball_table(ev, 4)
        length, witness = table.entries[HeisElement(0, 0, 1)]
        assert length == 4
        assert heisenberg.evaluate(witness) == HeisElement(0, 0, 1)

    def test_lengths_match_witnesses(self):
        table = ball_table(wreath.evaluator(), 4)
        for enc, (length, witness) in table.entries.items():
            assert len(witness) == length
            assert wreath.evaluate(witness) == enc

    def test_against_brute_force_oracle(self):
        # oracle: minimal length and shortlex-first witness over all reduced words
        ev = heisenberg.evaluator()
        assert ball_table(ev, 3).entries == brute_ball(ev, 3)

    @pytest.mark.parametrize("ev", GROUPS, ids=lambda ev: ev.label)
    def test_against_brute_force_oracle_all_groups(self, ev):
        # oracle: minimal length and shortlex-first witness over all reduced words
        table = ball_table(ev, 5)
        assert table.entries == brute_ball(ev, 5)
        # the BFS inserts in (length, shortlex witness) order, which the
        # multiplication BFS relies on to keep shortlex-first witnesses
        order = [(n, shortlex_key(word, ev.alphabet)) for n, word in table.entries.values()]
        assert order == sorted(order)

    def test_determinism(self):
        ev = baumslag.evaluator(2)
        t1 = ball_table(ev, 4)
        t2 = ball_table(ev, 4)
        assert t1.entries == t2.entries
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_ball_csv(t1, ev, buf1)
        write_ball_csv(t2, ev, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as exc:
            ball_table(heisenberg.evaluator(), 6, max_states=10)
        assert exc.value.completed >= 0

    def test_csv_shape(self):
        buf = io.StringIO()
        ev = heisenberg.evaluator()
        write_ball_csv(ball_table(ev, 1), ev, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "normal_form,min_length,witness"
        assert len(lines) == 6  # header + identity + four generators


class TestPalLengthBounded:
    def test_identity_is_zero(self):
        ev = heisenberg.evaluator()
        res = pal_length_bounded(ev, HeisElement.identity(), 2, 4)
        assert res.k == 0 and res.factors == ()

    def test_central_element_unknown_at_two(self):
        ev = heisenberg.evaluator()
        res = pal_length_bounded(ev, HeisElement(0, 0, 1), 2, 8)
        assert not res.found

    def test_central_element_at_three(self):
        ev = heisenberg.evaluator()
        res = pal_length_bounded(ev, HeisElement(0, 0, 1), 3, 8)
        assert res.k == 3
        product = Word()
        for f in res.factors:
            assert f.is_palindrome() and len(f) <= 8
            product = product * f
        assert heisenberg.evaluate(product) == HeisElement(0, 0, 1)

    def test_single_palindrome_found_at_one(self):
        ev = wreath.evaluator()
        res = pal_length_bounded(ev, wreath.evaluate(w("aba")), 3, 4)
        assert res.k == 1

    def test_ab_needs_two_in_wreath(self):
        ev = wreath.evaluator()
        res = pal_length_bounded(ev, wreath.evaluate(w("ab")), 3, 6)
        assert res.k == 2  # not a palindrome image, but splits as b^-1 . bab etc.

    def test_monotone_in_bounds(self):
        ev = heisenberg.evaluator()
        target = HeisElement(0, 0, 1)
        grid = {}
        for mf in (1, 2, 3):
            for ml in (4, 6, 8):
                res = pal_length_bounded(ev, target, mf, ml)
                grid[(mf, ml)] = res.k if res.found else float("inf")
        for mf in (1, 2):
            for ml in (4, 6, 8):
                assert grid[(mf + 1, ml)] <= grid[(mf, ml)]
        for mf in (1, 2, 3):
            for ml in (4, 6):
                assert grid[(mf, ml + 2)] <= grid[(mf, ml)]

    def test_determinism(self):
        ev = heisenberg.evaluator()
        r1 = pal_length_bounded(ev, HeisElement(2, 2, 1), 3, 6)
        r2 = pal_length_bounded(ev, HeisElement(2, 2, 1), 3, 6)
        assert r1 == r2

    def test_minimal_k_matches_brute_force_products(self):
        for ev in (heisenberg.evaluator(), baumslag.evaluator(2)):
            least = brute_pal_lengths(ev, 3, 4)
            for enc in ball_table(ev, 3).entries:
                assert pal_length_bounded(ev, enc, 3, 4).k == least.get(enc), (ev.label, enc)

    def test_requires_positive_factors(self):
        with pytest.raises(ValueError):
            pal_length_bounded(heisenberg.evaluator(), HeisElement(0, 0, 1), 0, 4)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_requires_a_palindrome_length(self, max_len):
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            pal_length_bounded(heisenberg.evaluator(), HeisElement(0, 0, 1), 2, max_len)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            pal_length_bounded(heisenberg.evaluator(), HeisElement(9, 9, 9), 3, 8, max_states=50)


class TestHistogram:
    def test_small_wreath_histogram(self):
        hist = pal_length_histogram(wreath.evaluator(), 3, 2, 3)
        assert hist["0"] == 1
        assert sum(hist.values()) == len(ball_table(wreath.evaluator(), 3))
        assert hist["1"] > 0 and hist["2"] > 0

    def test_heis_histogram_has_no_unknown_at_three(self):
        # within the radius-3 ball every element splits into <= 3 short palindromes
        hist = pal_length_histogram(heisenberg.evaluator(), 3, 3, 6)
        assert hist["unknown"] == 0

    @pytest.mark.parametrize("ev", GROUPS, ids=lambda ev: ev.label)
    def test_against_brute_force_products(self, ev):
        least = brute_pal_lengths(ev, 3, 4)
        for radius in range(5):
            expected = {str(k): 0 for k in range(4)}
            expected["unknown"] = 0
            for enc in brute_ball(ev, radius):
                expected[str(least.get(enc, "unknown"))] += 1
            assert pal_length_histogram(ev, radius, 3, 4) == expected, radius

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_requires_a_palindrome_length(self, max_len):
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            pal_length_histogram(heisenberg.evaluator(), 1, 2, max_len)

    def test_budget_counts_only_the_levels_a_target_needs(self):
        # heis, max_len 4: |L1| = 28 and |L2| = 533 palindrome products, and
        # the balls of radius 3 and 4 have 53 and 135 elements. Level 2 is
        # built only for a target that reaches k = 3, and no element of the
        # radius-3 ball does, so a cap of 200 suffices there.
        ev = heisenberg.evaluator()
        hist = pal_length_histogram(ev, 3, 3, 4, max_states=200)
        assert hist == {"0": 1, "1": 20, "2": 32, "3": 0, "unknown": 0}
        # two radius-4 elements need three factors, which builds level 2
        with pytest.raises(BudgetExceeded) as exc:
            pal_length_histogram(ev, 4, 3, 4, max_states=200)
        assert exc.value.completed == 1

    def test_budget_below_the_first_level(self):
        # the radius-2 ball (17 elements) fits under the cap, level 1 does not
        with pytest.raises(BudgetExceeded) as exc:
            pal_length_histogram(heisenberg.evaluator(), 2, 3, 4, max_states=20)
        assert exc.value.completed == 0


def exact_heis_length(h):
    """Palindromic length in N_{2,2}: 1 on the palindrome images, 2 on the
    products of two, 3 on the rest."""
    if h == HeisElement.identity():
        return 0
    if heisenberg.is_palindrome_image(h):
        return 1
    return 2 if heisenberg.two_palindrome_product(h) is not None else 3


class TestExactOracle:
    """The engine against the exact deciders. The engine may miss a
    product whose factors are longer than max_len, so its k is never
    below the exact one; it may be above it."""

    @pytest.mark.parametrize("radius", [8, 10])
    def test_heis_engine_is_never_below_the_exact_length(self, radius):
        ev = heisenberg.evaluator()
        index = _PalProductIndex(ev, radius, None)
        for h in ball_table(ev, radius).entries:
            exact = exact_heis_length(h)
            if exact == 0:
                continue
            k = next((k for k in (1, 2, 3) if index.reaches(h, k)), None)
            assert k is None or k >= exact, h
            if exact == 1 and len(heisenberg.palindrome_word_for(h.x, h.y)) <= radius:
                assert k == 1, h

    def test_wreath_engine_single_palindromes_are_decided_images(self):
        ev = wreath.evaluator()
        index = _PalProductIndex(ev, 8, None)
        for g in ball_table(ev, 8).entries:
            witness = wreath.palindrome_witness(g)
            if g == wreath.WreathElement.identity():
                assert witness == EMPTY
            elif index.reaches(g, 1):
                assert witness is not None, g
            elif witness is not None:
                assert len(witness) > 8, g


@pytest.mark.parametrize("sign", [1, -1])
def test_digit_cap_counts_decimal_digits(sign):
    check_digits(sign * (10**MAX_DIGITS - 1), "x")  # MAX_DIGITS digits
    check_digits(sign * 2 ** (3 * MAX_DIGITS), "x")
    with pytest.raises(BudgetExceeded, match=f"x has more than {MAX_DIGITS} decimal digits"):
        check_digits(sign * 10**MAX_DIGITS, "x")
