import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palwidth.heisenberg import HeisElement
from palwidth.suites import (
    SUITES,
    available_suites,
    mat_mul,
    random_palindrome,
    random_reduced_word,
    run_suite,
)
from palwidth.words import AB, AT, reduce


@pytest.mark.parametrize("name", available_suites())
def test_suite_passes_at_small_size(name):
    report = run_suite(name, seed=7, cases=150)
    assert report.passed, report.failures
    assert report.suite == name and report.seed == 7


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_registry_covers_documented_names():
    for name in ("wreath-hom", "heis-matrix-oracle", "bs-roundtrip"):
        assert name in SUITES


def test_deterministic_given_seed():
    a = run_suite("wreath-witness", seed=3, cases=100)
    b = run_suite("wreath-witness", seed=3, cases=100)
    assert a.passed == b.passed and a.failures == b.failures


@pytest.mark.parametrize("cases", [0, -1])
def test_rejects_an_empty_run(cases):
    with pytest.raises(ValueError, match="cases must be at least 1"):
        run_suite("bs-hom", cases=cases)


entries = st.integers(-10**6, 10**6)
matrices = st.tuples(*[st.tuples(entries, entries, entries)] * 3)


def nested_loop_product(p, q):
    out = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i][j] += p[i][k] * q[k][j]
    return tuple(tuple(row) for row in out)


@given(p=matrices, q=matrices)
def test_mat_mul_is_the_general_product(p, q):
    # arbitrary matrices, not only unitriangular ones: a product specialised
    # to the Heisenberg law would no longer check that law independently
    assert mat_mul(p, q) == nested_loop_product(p, q)


def test_matrix_oracle_catches_a_wrong_law(monkeypatch):
    def wrong_mul(self, other):
        return HeisElement(
            self.x + other.x, self.y + other.y, self.z + other.z + self.x * other.y
        )

    monkeypatch.setattr(HeisElement, "__mul__", wrong_mul)
    report = run_suite("heis-matrix-oracle", cases=200)
    assert not report.passed
    assert any("matrix law mismatch" in f for f in report.failures)


def per_step_reduced_word(rng, alphabet, length):
    """A reduced random word drawn by filtering the letters at every step."""
    letters = alphabet.letters()
    out = []
    for _ in range(length):
        choices = [c for c in letters if not out or c != (out[-1][0], -out[-1][1])]
        out.append(rng.choice(choices))
    return reduce(out)


@pytest.mark.parametrize("alphabet", [AB, AT], ids=["AB", "AT"])
def test_random_reduced_word_draws_as_filtering_each_step(alphabet):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for length in (0, 1, 2, 7, 30):
            assert random_reduced_word(fast, alphabet, length) == per_step_reduced_word(
                slow, alphabet, length
            )
        assert fast.getstate() == slow.getstate()


def test_pinned_draws():
    # the verify suites draw their cases through these two generators, so
    # the same seed must keep giving the same words
    rng = random.Random(2024)
    assert [str(random_palindrome(rng, AB, 9)) for _ in range(8)] == [
        "a^-1 b^-5 a^-1", "a^-1 b^-2 a^-1", "b a^-1 b^-2 a^-1 b", "b^2",
        "a b^-2 a", "b^-2", "a^-2", "",
    ]
    assert [str(random_reduced_word(rng, AT, 6)) for _ in range(6)] == [
        "t^-1 a^-2 t^-2 a", "t a^-1 t a^-2 t", "t^-1 a^-1 t^2 a t",
        "a^-3 t^-1 a^2", "t^2 a^-1 t^-2 a^-1", "a t^3 a^2",
    ]
