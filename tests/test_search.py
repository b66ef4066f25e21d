import collections
import dataclasses
import io
import itertools

import pytest
from strategies import shortlex_key

from palwidth import baumslag, heisenberg, wreath
from palwidth.heisenberg import HeisElement
from palwidth.palindromes import SelfCheckError
from palwidth.search import (
    MAX_DIGITS,
    BudgetExceeded,
    _PalProductIndex,
    ball_table,
    check_digits,
    count_palindromes,
    enumerate_palindromes,
    enumerate_reduced_words,
    pal_length_bounded,
    pal_length_histogram,
    pal_length_histogram_of,
    write_ball_csv,
)
from palwidth.words import AB, AT, EMPTY, Word, parse, reduce


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
        for alphabet in (AB, AT):
            brute = []
            for n in range(10):
                for word in enumerate_reduced_words(alphabet, n):
                    if word.is_palindrome():
                        brute.append(word)
            assert list(enumerate_palindromes(alphabet, 9)) == brute

    def test_count_of_each_length(self):
        # a mirrored reduced half-word of ⌈n/2⌉ letters: 4 first letters, 3 after
        counts = collections.Counter(len(p) for p in enumerate_palindromes(AB, 11))
        assert counts[0] == 1
        for n in range(1, 12):
            assert counts[n] == 4 * 3 ** ((n + 1) // 2 - 1)

    @pytest.mark.parametrize("alphabet", [AB, AT], ids=["AB", "AT"])
    def test_count_without_enumerating(self, alphabet):
        counts = [count_palindromes(alphabet, n) for n in range(12)]
        assert counts == [0, 4, 8, 20, 32, 68, 104, 212, 320, 644, 968, 1_940]
        assert counts == [sum(1 for p in enumerate_palindromes(alphabet, n) if p) for n in range(12)]

    @pytest.mark.parametrize("alphabet", [AB, AT], ids=["AB", "AT"])
    def test_reduced_words_against_all_letter_sequences(self, alphabet):
        letters = alphabet.letters()
        for n in range(6):
            brute = [
                reduce(seq)
                for seq in itertools.product(letters, repeat=n)
                if all(x != (y[0], -y[1]) for x, y in zip(seq, seq[1:]))
            ]
            assert list(enumerate_reduced_words(alphabet, n)) == brute

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
        assert table[HeisElement.identity()] == (0, EMPTY)

    def test_wreath_radius_one(self):
        table = ball_table(wreath.evaluator(), 1)
        assert len(table) == 5

    def test_heis_commutator_appears_at_four(self):
        ev = heisenberg.evaluator()
        assert HeisElement(0, 0, 1) not in ball_table(ev, 2)
        table = ball_table(ev, 4)
        length, witness = table[HeisElement(0, 0, 1)]
        assert length == 4
        assert heisenberg.evaluate(witness) == HeisElement(0, 0, 1)

    def test_lengths_match_witnesses(self):
        table = ball_table(wreath.evaluator(), 4)
        for enc, (length, witness) in table.items():
            assert len(witness) == length
            assert wreath.evaluate(witness) == enc

    def test_against_brute_force_oracle(self):
        # oracle: minimal length and shortlex-first witness over all reduced words
        ev = heisenberg.evaluator()
        assert ball_table(ev, 3) == brute_ball(ev, 3)

    @pytest.mark.parametrize("ev", GROUPS, ids=lambda ev: ev.label)
    def test_against_brute_force_oracle_all_groups(self, ev):
        # oracle: minimal length and shortlex-first witness over all reduced words
        table = ball_table(ev, 5)
        assert table == brute_ball(ev, 5)
        # the BFS inserts in (length, shortlex witness) order, which the
        # multiplication BFS relies on to keep shortlex-first witnesses
        order = [(n, shortlex_key(word, ev.alphabet)) for n, word in table.values()]
        assert order == sorted(order)

    def test_determinism(self):
        ev = baumslag.evaluator(2)
        t1 = ball_table(ev, 4)
        t2 = ball_table(ev, 4)
        assert t1 == t2
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
            for enc in ball_table(ev, 3):
                assert pal_length_bounded(ev, enc, 3, 4).k == least.get(enc), (ev.label, enc)

    @pytest.mark.parametrize(
        "ev, target, max_len, factors",
        [
            (heisenberg.evaluator(), HeisElement(0, 0, 1), 10, ["b^-2", "b a^-1 b", "a"]),
            (wreath.evaluator(), "a b", 4, ["a b a", "a^-1"]),
            (wreath.evaluator(), "a b a^-1 b^-1", 4, ["b^2", "b^-1 a^-1 b^-1", "a"]),
            (baumslag.evaluator(2), "a t", 2, ["a", "t"]),
            (baumslag.evaluator(2), "a t a", 2, ["a", "t", "a"]),
        ],
        ids=["heis-centre", "wreath-k2", "wreath-k3", "bs2-k2", "bs2-k3"],
    )
    def test_pinned_witnesses(self, ev, target, max_len, factors):
        # the first split in the join order is the witness, so the order of
        # the levels and of the join is part of the output
        if isinstance(target, str):
            target = ev.eval(parse(target, ev.alphabet))
        res = pal_length_bounded(ev, target, 3, max_len)
        assert [str(f) for f in res.factors] == factors

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

    def test_witness_failing_reverification_is_a_self_check_error(self):
        # the evaluator is right on the one-letter palindromes the search
        # multiplies, and wrong on the two-letter product it re-verifies
        ev = wreath.evaluator()
        liar = dataclasses.replace(ev, eval=lambda u: ev.eval(u if len(u) <= 1 else EMPTY))
        with pytest.raises(SelfCheckError, match="failed re-verification"):
            pal_length_bounded(liar, wreath.evaluate(w("ab")), 2, 1)


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

    def test_callback_counts_of_the_radius_10_heis_histogram(self):
        # the search does the same group work whatever the element encoding:
        # the ball BFS and the histogram's level builds and joins together
        ev, calls = counting(heisenberg.evaluator())
        hist = pal_length_histogram(ev, 10, 3, 10)
        assert hist == {"0": 1, "1": 160, "2": 3472, "3": 676, "unknown": 0}
        assert calls["mul"] == 35_700 and calls["inv"] == 161

    # Z wr Z, radius 6, max_len 6: |L1| = 98, so building level 2 takes
    # 98^2 = 9,604 products and adds at most that many states to the 98
    WREATH_HIST = {"0": 1, "1": 98, "2": 796, "unknown": 230}

    def test_level_2_is_built_once_the_joins_cost_as_much(self):
        # once the k = 2 joins have tried 9,604 products, level 2 is built
        # and the remaining targets are answered by membership in it
        ev, calls = counting(wreath.evaluator())
        table = ball_table(wreath.evaluator(), 6)
        assert pal_length_histogram_of(ev, table, 2, 6) == self.WREATH_HIST
        assert calls["mul"] == 19_229 and calls["inv"] == 98

    @pytest.mark.parametrize(
        "cap, mul_calls", [(98 + 9_604 - 1, 35_928), (98 + 9_604, 19_229), (None, 19_229)]
    )
    def test_level_2_is_built_early_only_under_the_cap(self, cap, mul_calls):
        ev, calls = counting(wreath.evaluator())
        table = ball_table(wreath.evaluator(), 6)
        assert pal_length_histogram_of(ev, table, 2, 6, cap) == self.WREATH_HIST
        assert calls["mul"] == mul_calls

    def test_joins_into_a_new_level_count_from_zero(self):
        # heis, max_len 2: |L1| = 8. The k = 2 joins build level 2 early;
        # the k = 3 joins then start their own count towards |L2| * 8, and
        # carrying the k = 2 joins over would build level 3 sooner
        ev, calls = counting(heisenberg.evaluator())
        table = ball_table(heisenberg.evaluator(), 6)
        hist = pal_length_histogram_of(ev, table, 3, 2)
        assert hist == {"0": 1, "1": 8, "2": 40, "3": 188, "unknown": 356}
        assert calls["mul"] == 889 and calls["inv"] == 8

    @pytest.mark.parametrize("max_factors", [2, 3])
    @pytest.mark.parametrize("cap", [97, 98, 7_868, 7_869, 9_701, 9_702, None])
    def test_early_builds_keep_every_trip_point(self, max_factors, cap):
        # |L2| = 7,771, so the lazy order trips below 98 + 7,771 = 7,869
        # states at the first target that needs three factors
        ev = wreath.evaluator()
        table = ball_table(ev, 6)
        expected = outcome(lambda: lazy_histogram(ev, table, max_factors, 6, cap))
        assert outcome(lambda: pal_length_histogram_of(ev, table, max_factors, 6, cap)) == expected

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

    @pytest.mark.parametrize("cap", [98, 103])
    def test_an_index_over_the_cap_trips_before_evaluating_a_palindrome(self, cap):
        # Z wr Z, max_len 6: 104 palindromes with 98 images. Their count is
        # checked before any is evaluated, so a cap below it trips at depth
        # 0 even where the images would fit.
        ev, calls = counting(wreath.evaluator())
        with pytest.raises(BudgetExceeded) as exc:
            _PalProductIndex(ev, 6, cap)
        assert str(exc.value) == (
            "palindrome product index exceeded its state cap (completed depth 0)"
        )
        assert calls == {"eval": 0, "mul": 0, "inv": 0}
        index = _PalProductIndex(ev, 6, 104)
        assert calls["eval"] == 104 and index.states == len(index.levels[1]) == 98

    @pytest.mark.parametrize("room, mul_calls", [(100, 103), (7_770, 9_604)])
    def test_a_level_over_the_cap_stops_as_it_outgrows_the_room(self, room, mul_calls):
        # Z wr Z, max_len 6: level 2 has 7,771 states from 9,604 products,
        # the last of them new. With room for fewer, its build stops at the
        # first state past the room, with the trip of a finished build,
        # instead of holding the whole level first.
        ev, calls = counting(wreath.evaluator())
        index = _PalProductIndex(ev, 6, 98 + room)
        with pytest.raises(BudgetExceeded) as exc:
            index.ensure(2)
        assert str(exc.value) == (
            "palindrome product index exceeded its state cap (completed depth 1)"
        )
        assert exc.value.completed == 1 and calls["mul"] == mul_calls
        index = _PalProductIndex(ev, 6, 98 + 7_771)
        index.ensure(2)
        assert len(index.levels[2]) == 7_771 and index.states == 98 + 7_771

    def test_budget_below_the_first_level(self):
        # the radius-2 ball (17 elements) fits under the cap, level 1 does not
        with pytest.raises(BudgetExceeded) as exc:
            pal_length_histogram(heisenberg.evaluator(), 2, 3, 4, max_states=20)
        assert exc.value.completed == 0


@pytest.mark.parametrize("max_len", [4, 5, 6])
@pytest.mark.parametrize(
    "ev",
    [wreath.evaluator(), heisenberg.evaluator()] + [baumslag.evaluator(n) for n in (2, 3, -2)],
    ids=lambda ev: ev.label,
)
def test_levels_never_shrink(ev, max_len):
    # right multiplication by one palindrome is injective, so level d + 1
    # has at least |L_d| states: the join's right level is never the larger
    index = _PalProductIndex(ev, max_len, None)
    index.ensure(3 if max_len == 4 else 2)
    sizes = [len(level) for level in index.levels[1:]]
    assert sizes == sorted(sizes), sizes


def counting(ev):
    """`ev` with counted `eval`, `mul` and `inv` callbacks, and the counts."""
    calls = {"eval": 0, "mul": 0, "inv": 0}

    def counted(kind, fn):
        def wrapped(*args):
            calls[kind] += 1
            return fn(*args)

        return wrapped

    counted_ev = dataclasses.replace(
        ev, eval=counted("eval", ev.eval), mul=counted("mul", ev.mul), inv=counted("inv", ev.inv)
    )
    return counted_ev, calls


def outcome(histogram):
    """A histogram, or ("trip", completed depth) when it exceeds its cap."""
    try:
        return histogram()
    except BudgetExceeded as exc:
        return ("trip", exc.completed)


def lazy_histogram(ev, table, max_factors, max_len, cap):
    """The histogram in the lazy build order: it builds only the levels
    ⌈k/2⌉ a join needs, never one early, answers k = 1 by membership and
    joins every target at k >= 2 against level ⌊k/2⌋."""
    index = _PalProductIndex(ev, max_len, cap)
    identity = ev.eval(EMPTY)
    inverses = {}

    def reaches(g, k):
        left = (k + 1) // 2
        index.ensure(left)
        if k == left:
            return g in index.levels[k]
        if k - left not in inverses:
            inverses[k - left] = [ev.inv(h) for h in index.levels[k - left]]
        return any(ev.mul(g, h) in index.levels[left] for h in inverses[k - left])

    hist = {str(k): 0 for k in range(max_factors + 1)}
    hist["unknown"] = 0
    for enc in table:
        found = (0,) if enc == identity else (
            k for k in range(1, max_factors + 1) if reaches(enc, k)
        )
        hist[str(next(iter(found), "unknown"))] += 1
    return hist


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
        for h in ball_table(ev, radius):
            exact = exact_heis_length(h)
            if exact == 0:
                continue
            k = next((k for k in (1, 2, 3) if index.split(h, k) is not None), None)
            assert k is None or k >= exact, h
            if exact == 1 and len(heisenberg.palindrome_word_for(h.x, h.y)) <= radius:
                assert k == 1, h

    def test_wreath_engine_single_palindromes_are_decided_images(self):
        ev = wreath.evaluator()
        index = _PalProductIndex(ev, 8, None)
        for g in ball_table(ev, 8):
            witness = wreath.palindrome_witness(g)
            if g == wreath.WreathElement.identity():
                assert witness == EMPTY
            elif index.split(g, 1) is not None:
                assert witness is not None, g
            elif witness is not None:
                assert len(witness) > 8, g


@pytest.mark.parametrize("sign", [1, -1])
def test_digit_cap_counts_decimal_digits(sign):
    check_digits(sign * (10**MAX_DIGITS - 1), "x")  # MAX_DIGITS digits
    check_digits(sign * 2 ** (3 * MAX_DIGITS), "x")
    with pytest.raises(BudgetExceeded, match=f"x has more than {MAX_DIGITS} decimal digits"):
        check_digits(sign * 10**MAX_DIGITS, "x")
