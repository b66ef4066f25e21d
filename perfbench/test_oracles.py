"""Tests of the benchmark's oracles: they model the three groups, and each
of them rejects a corrupted certificate. Nothing here imports palwidth."""

import json
import random
from types import SimpleNamespace

import pytest

import oracles as o
from oracles import Affine, CheckFailed, Heis, Wreath


def random_reduced(rng, gens, length):
    letters = [(g, s) for g in gens for s in (1, -1)]
    out = []
    for _ in range(length):
        out.append(rng.choice([c for c in letters if not out or c != (out[-1][0], -out[-1][1])]))
    return out


def test_syllables_fold_runs_and_cancel():
    assert o.raw_tokens("a A^2 b^-3 T") == [("a", 1), ("a", -2), ("b", -3), ("t", -1)]
    assert o.syllables("a a^2 b B a^-3") == ()
    assert o.syllables("a^2 b^0 a") == (("a", 3),)
    assert o.is_reduced_text("a^2 b a") and not o.is_reduced_text("a b B")
    with pytest.raises(CheckFailed):
        o.raw_tokens("a ^ 2")


def letters_of(syls):
    return [(g, 1 if e > 0 else -1) for g, e in syls for _ in range(abs(e))]


def test_palindrome_test_agrees_with_letter_reversal():
    rng = random.Random(0)
    for _ in range(500):
        letters = random_reduced(rng, ("a", "b"), rng.randint(0, 6))
        for word in (letters, letters + letters[::-1], letters + [("b", 1)] + letters[::-1]):
            syls = o.fold(word)
            expanded = letters_of(syls)
            assert o.is_palindrome(syls) == (expanded == expanded[::-1])


def test_reduced_palindromes_are_every_palindrome_once():
    found = o.reduced_palindromes(("a", "b"), 6)
    brute = set()
    words = [[]]
    for _ in range(6):
        words = [w + [c] for w in words for c in [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
                 if not w or c != (w[-1][0], -w[-1][1])]
        brute |= {o.fold(w) for w in words if w == w[::-1]}
    assert len(found) == len(set(found)) == len(brute) == 104
    assert set(found) == brute


@pytest.mark.parametrize("group", [Wreath, Affine(2), Affine(3), Affine(-2), Heis])
def test_evaluate_is_a_homomorphism(group):
    rng = random.Random(1)
    for _ in range(300):
        u = random_reduced(rng, group.gens, rng.randint(0, 10))
        v = random_reduced(rng, group.gens, rng.randint(0, 10))
        gu, gv = group.evaluate(u), group.evaluate(v)
        assert group.evaluate(u + v) == group.mul(gu, gv)
        assert group.mul(gu, group.inv(gu)) == group.identity


@pytest.mark.parametrize("n", [2, 3, -2])
def test_affine_satisfies_the_defining_relation(n):
    bs = Affine(n)
    assert bs.evaluate(o.syllables("t^-1 a t")) == bs.evaluate(o.syllables(f"a^{n}"))
    assert bs.normal_form_letters(bs.evaluate(o.syllables("t^-3 a t^3"))) == abs(n) ** 3
    assert bs.normal_form_letters(bs.evaluate(o.syllables("t a"))) == 2


def test_literals_read_as_documented():
    # a_i = b^-i a b^i; an element is (prod a_i^e) b^shift
    doc = {"support": {"-3": 1, "0": 2}, "shift": 3}
    assert Wreath.from_literal(doc) == Wreath.evaluate(o.syllables("a^2 b^3 a"))
    # x -> n^dil x + num / n^den_exp
    doc = {"num": 3, "den_exp": 1, "dil": -1, "n": 2}
    assert Affine(2).from_literal(doc) == Affine(2).evaluate(o.syllables("a^3 t^-1"))
    assert Heis.from_literal([1, 1, 0]) == Heis.evaluate(o.syllables("a b"))


def test_lamps_commute_and_quotient_is_a_homomorphism():
    lamp1 = o.syllables("b^-1 a b")
    a = o.syllables("a")
    assert Wreath.evaluate(a + lamp1) == Wreath.evaluate(lamp1 + a)
    rng = random.Random(2)
    for _ in range(300):
        w = random_reduced(rng, ("a", "b"), rng.randint(0, 12))
        assert Wreath.to_heis(Wreath.evaluate(w)) == Heis.evaluate(w)


def test_commutator_witness_check():
    c = Wreath.from_literal({"support": {"0": -1, "1": 1}, "shift": 0})
    assert Wreath.commutator_with_b(Wreath.from_support([(0, 1)])) == c
    assert Wreath.commutator_with_b(Wreath.from_support([(0, 2)])) != c
    assert Wreath.commutator_with_b(Wreath.from_support([(1, 1)])) != c


def certificate(group, target, factors, element):
    return json.dumps({
        "group": group,
        "target": {"word": target, "element": element},
        "factors": factors,
        "length": len(factors),
        "verified": True,
    })


# (group label, oracle, max factors, target word, valid factors, literal,
#  corrupted factor lists: one exponent changed, one factor dropped, a
#  non-palindromic factor with the same product)
CASES = [
    ("wreath", Wreath, 3, "a^2 b^3 a", ["a^2", "b^3", "a"],
     {"support": {"-3": 1, "0": 2}, "shift": 3},
     [["a^2", "b^3", "a^2"], ["a^2", "b^3"], ["a^2 b", "b^2", "a"]]),
    ("bs:2", Affine(2), 2, "t a", ["t a t", "t^-1"],
     {"num": 1, "den_exp": 0, "dil": 1, "n": 2},
     [["t a^2 t", "t^-1"], ["t a t"], ["t a t^2", "t^-2"]]),
    ("bs:3", Affine(3), 2, "t^2 a^5", ["t^2 a^5 t^2", "t^-2"],
     {"num": 5, "den_exp": 0, "dil": 2, "n": 3},
     [["t^2 a^5 t^2", "t^-3"], ["t^-2"], ["t^2 a^5 t", "t^-1"]]),
    ("heis", Heis, 2, "a b", ["a", "b"], [1, 1, 0],
     [["a", "b^2"], ["b"], ["a b"]]),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_oracle_accepts_valid_and_rejects_corrupted_certificates(case):
    group, arith, max_factors, target, factors, literal, corrupted = case
    expected = arith.evaluate(o.syllables(target))
    o.check_certificate(certificate(group, target, factors, literal), group, arith, expected, max_factors)
    for bad in corrupted:
        with pytest.raises(CheckFailed):
            o.check_certificate(certificate(group, target, bad, literal), group, arith, expected, max_factors)


def test_certificate_limits():
    wreath_target = Wreath.evaluate(o.syllables("a^2 b^3 a"))
    too_many = certificate("wreath", "a^2 b^3 a", ["a", "a", "b^3", "a"],
                           {"support": {"-3": 1, "0": 2}, "shift": 3})
    with pytest.raises(CheckFailed):
        o.check_certificate(too_many, "wreath", Wreath, wreath_target, 3)
    empty = certificate("wreath", "", [], {"support": {}, "shift": 0})
    o.check_certificate(empty, "wreath", Wreath, Wreath.identity, 3)
    with pytest.raises(CheckFailed):
        o.check_certificate(empty, "wreath", Wreath, wreath_target, 3)


def test_heis_closed_form_histogram():
    dist = o.ball(Heis, 10)
    hist, n_pal = o.histogram(Heis, dist, 10, 3, 10)
    assert len(dist) == 4309 and n_pal == 968
    assert hist == {"0": 1, "1": 160, "2": 3472, "3+unknown": 676}


def test_wreath_levels_map_into_the_closed_form():
    # histogram() itself raises when a Z wr Z level leaves the N(2,2) closed form
    dist = o.ball(Wreath, 5)
    hist, n_pal = o.histogram(Wreath, dist, 5, 2, 5)
    assert sum(hist.values()) == len(dist) and n_pal == 4 + 4 + 12 + 12 + 36


@pytest.mark.parametrize("text", [
    "Traceback (most recent call last):",  # not JSON
    json.dumps({"group": "wreath", "factors": ["a"], "length": 1}),  # keys missing
    json.dumps({"group": "wreath", "factors": 5, "length": 1, "verified": True}),
])
def test_unreadable_certificate_makes_the_round_incorrect(text):
    import run

    part = SimpleNamespace(
        name="cert", ops=1, timed=False, replay=None, run=lambda span: text,
        check=lambda out: o.check_certificate(out, "wreath", Wreath, Wreath.identity, 3),
    )
    workload = SimpleNamespace(parts=[part], begin_round=lambda traced: None)
    out = run.run_round(workload, None, False)
    assert out["correct"] is False and out["attempted"] == 1 and out["failed"] == 0
