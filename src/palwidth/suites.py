"""Seeded verification suites behind `palwidth verify`.

Each suite draws every case from a single random.Random(seed) (Python's
Mersenne Twister, stable across platforms) and returns a report; the
acceptance tests reuse the same functions at their stated sizes.

Each constructed answer is checked once, by its constructor, through
`palindromes.check_group_certificate` (product, palindromic factors and
factor bound) or its own exact check: the construction suites
(`palrewrite-bounds`, `wreath-decomp`, `bs-decomp`) only draw cases, the
others add only the checks a constructor does not make, and `run_suite`
records a constructor's SelfCheckError as a failed run, whose report
`verify` prints before it exits 1.

This module also houses the 3x3 unitriangular integer-matrix model of the
class-2 group: it is the independent oracle for the coordinate product
law, kept out of `heisenberg` so the implementation cannot lean on it.
`mat_mul` is written out for speed but stays the general 3x3 integer
product on purpose: specialised to unitriangular matrices it would
re-derive the Heisenberg law and stop being an independent check of it.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from . import baumslag, heisenberg, palindromes, wreath
from .search import BudgetExceeded
from .words import AB, AT, Alphabet, Letter, Word, follow_ups, parse, reduce


# --- the unitriangular matrix oracle -----------------------------------

Matrix = tuple[tuple[int, int, int], ...]

MAT_IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
MAT_A: Matrix = ((1, 0, 0), (0, 1, 1), (0, 0, 1))  # x-generator
MAT_B: Matrix = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # y-generator


def mat_mul(p: Matrix, q: Matrix) -> Matrix:
    # the general 3x3 product, written out; see the module docstring
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = p
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q
    return (
        (
            p00 * q00 + p01 * q10 + p02 * q20,
            p00 * q01 + p01 * q11 + p02 * q21,
            p00 * q02 + p01 * q12 + p02 * q22,
        ),
        (
            p10 * q00 + p11 * q10 + p12 * q20,
            p10 * q01 + p11 * q11 + p12 * q21,
            p10 * q02 + p11 * q12 + p12 * q22,
        ),
        (
            p20 * q00 + p21 * q10 + p22 * q20,
            p20 * q01 + p21 * q11 + p22 * q21,
            p20 * q02 + p21 * q12 + p22 * q22,
        ),
    )


def mat_inv(p: Matrix) -> Matrix:
    # unitriangular: closed-form inverse
    return (
        (1, -p[0][1], p[0][1] * p[1][2] - p[0][2]),
        (0, 1, -p[1][2]),
        (0, 0, 1),
    )


def mat_of_heis(h: heisenberg.HeisElement) -> Matrix:
    return ((1, h.y, h.z), (0, 1, h.x), (0, 0, 1))


_MAT_LETTERS: dict[Letter, Matrix] = {
    ("a", 1): MAT_A,
    ("a", -1): mat_inv(MAT_A),
    ("b", 1): MAT_B,
    ("b", -1): mat_inv(MAT_B),
}


def mat_eval(w: Word) -> Matrix:
    out = MAT_IDENTITY
    for letter in w.letters:
        out = mat_mul(out, _MAT_LETTERS[letter])
    return out


# --- seeded generators ---------------------------------------------------


def random_reduced_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    # rng.choice draws one index below the length of the sequence, so the
    # precomputed follow-ups make the same draws as filtering each step
    follow = follow_ups(alphabet)
    out: list[Letter] = []
    choices = alphabet.letters()
    for _ in range(length):
        letter = rng.choice(choices)
        out.append(letter)
        choices = follow[letter]
    return reduce(out)


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> Word:
    return random_reduced_word(rng, alphabet, rng.randint(0, max_len))


def random_palindrome(rng: random.Random, alphabet: Alphabet, max_len: int) -> Word:
    half = random_reduced_word(rng, alphabet, rng.randint(0, max_len // 2))
    letters = half.letters
    if rng.random() < 0.5 and 2 * len(letters) < max_len:
        center = rng.choice(alphabet.letters())
        if letters and center not in follow_ups(alphabet)[letters[-1]]:
            center = letters[-1]
        return reduce(letters + (center,) + letters[::-1])
    return reduce(letters + letters[::-1])


def random_support(rng: random.Random, lo: int, hi: int, magnitude: int) -> dict[int, int]:
    entries = {}
    for i in range(lo, hi + 1):
        if rng.random() < 0.5:
            e = rng.randint(-magnitude, magnitude)
            if e:
                entries[i] = e
    return entries


def random_derived_element(
    rng: random.Random, lo: int, hi: int, magnitude: int
) -> wreath.WreathElement:
    """Random derived-subgroup element: a random support adjusted at one
    index to make the exponent sum vanish."""
    lamps = list(random_support(rng, lo, hi, magnitude).items())
    total = sum(e for _, e in lamps)
    if total:
        lamps.append((rng.randint(lo, hi), -total))
    return wreath.WreathElement.of(lamps)


def random_wreath_element(
    rng: random.Random, lo: int, hi: int, magnitude: int, shift_bound: int
) -> wreath.WreathElement:
    return wreath.WreathElement.of(
        random_support(rng, lo, hi, magnitude).items(), rng.randint(-shift_bound, shift_bound)
    )


def random_heis(rng: random.Random, magnitude: int) -> heisenberg.HeisElement:
    return heisenberg.HeisElement(
        rng.randint(-magnitude, magnitude),
        rng.randint(-magnitude, magnitude),
        rng.randint(-magnitude, magnitude),
    )


# --- suites ---------------------------------------------------------------


class SuiteReport(NamedTuple):
    # no timing field: identical invocations must be byte-identical
    suite: str
    seed: int
    cases: int
    passed: bool
    failures: list[str]

    def to_json(self) -> dict:
        return self._asdict()


def _suite_freeword_fuzz(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for _ in range(cases):
        raw = [rng.choice(AB.letters()) for _ in range(rng.randint(0, 14))]
        w = reduce(raw)
        if reduce(w.letters) != w:
            failures.append(f"reduce not idempotent on {raw}")
        if w.inverse().inverse() != w or w.reverse().reverse() != w:
            failures.append(f"involution failed on {w}")
        if w.inverse().reverse() != w.reverse().inverse():
            failures.append(f"inverse/reverse do not commute on {w}")
        if w * w.inverse() != Word():
            failures.append(f"w * w^-1 != 1 for {w}")
        symmetric = raw + [rng.choice(AB.letters())] + list(reversed(raw))
        if not reduce(symmetric).is_palindrome():
            failures.append(f"reduction broke symmetry of {symmetric}")
    return failures


def _suite_palrewrite_bounds(rng: random.Random, cases: int) -> list[str]:
    for _ in range(cases):
        u = random_word(rng, AB, 8)
        pals = tuple(random_palindrome(rng, AB, 8) for _ in range(rng.randint(1, 4)))
        palindromes.conjugate_decomposition(u, pals, AB)
        palindromes.commutator_decomposition(u, pals, AB)
    return []


def _suite_wreath_hom(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for _ in range(cases):
        u = random_word(rng, AB, 12)
        v = random_word(rng, AB, 12)
        if wreath.evaluate(u * v) != wreath.evaluate(u) * wreath.evaluate(v):
            failures.append(f"hom failed on {u} | {v}")
        g = wreath.evaluate(u)
        if g * g.inverse() != wreath.WreathElement.identity():
            failures.append(f"inverse failed on {u}")
        if wreath.evaluate(u.reverse()) != wreath.reversal_image(g):
            failures.append(f"reversal image failed on {u}")
    return failures


def _suite_wreath_witness(rng: random.Random, cases: int) -> list[str]:
    for _ in range(cases):
        wreath.commutator_witness(random_derived_element(rng, -6, 6, 6))
    return []


def _suite_wreath_decomp(rng: random.Random, cases: int) -> list[str]:
    for _ in range(cases):
        wreath.three_palindrome_decomposition(random_wreath_element(rng, -5, 5, 5, 5))
    return []


def _suite_heis_matrix_oracle(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for _ in range(cases):
        g = random_heis(rng, 1000)
        h = random_heis(rng, 1000)
        if mat_of_heis(g * h) != mat_mul(mat_of_heis(g), mat_of_heis(h)):
            failures.append(f"matrix law mismatch on {g} * {h}")
        if mat_of_heis(g.inverse()) != mat_inv(mat_of_heis(g)):
            failures.append(f"matrix inverse mismatch on {g}")
    for _ in range(max(1, cases // 10)):
        w = random_word(rng, AB, 30)
        if mat_of_heis(heisenberg.evaluate(w)) != mat_eval(w):
            failures.append(f"matrix evaluation mismatch on {w}")
    return failures


def _suite_heis_quotient(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for _ in range(cases):
        w = random_word(rng, AB, 14)
        if heisenberg.from_wreath(wreath.evaluate(w)) != heisenberg.evaluate(w):
            failures.append(f"quotient square failed on {w}")
        g1 = random_wreath_element(rng, -4, 4, 4, 4)
        g2 = random_wreath_element(rng, -4, 4, 4, 4)
        if heisenberg.from_wreath(g1 * g2) != heisenberg.from_wreath(g1) * heisenberg.from_wreath(g2):
            failures.append(f"quotient is not a homomorphism on {g1}, {g2}")
    return failures


def _suite_bs_hom(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for n in (2, 3, -2):
        relation = baumslag.evaluate(parse("t^-1 a t", AT), n)
        power = baumslag.evaluate(parse(f"a^{n}", AT), n)
        if relation != power:
            failures.append(f"defining relation fails for n={n}")
        for _ in range(cases // 3 + 1):
            u = random_word(rng, AT, 12)
            v = random_word(rng, AT, 12)
            if baumslag.evaluate(u * v, n) != baumslag.evaluate(u, n) * baumslag.evaluate(v, n):
                failures.append(f"hom failed for n={n} on {u} | {v}")
            g = baumslag.evaluate(u, n)
            if g * g.inverse() != baumslag.BSElement.identity(n):
                failures.append(f"inverse failed for n={n} on {u}")
    return failures


def _suite_bs_roundtrip(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for n in (2, 3, -2):
        for _ in range(cases // 3 + 1):
            g = baumslag.evaluate(random_word(rng, AT, 16), n)
            k, l, m = baumslag.normal_form(g)
            if k < 0 or m < 0:
                failures.append(f"negative exponents in normal form of {g}")
            if k > 0 and m > 0 and l % n == 0:
                failures.append(f"non-minimal form ({k}, {l}, {m}) for {g}")
    return failures


def _suite_bs_decomp(rng: random.Random, cases: int) -> list[str]:
    for n in (2, 3, -2):
        for _ in range(cases // 3 + 1):
            baumslag.two_palindrome_decomposition(baumslag.evaluate(random_word(rng, AT, 20), n))
    return []


SUITES: dict[str, tuple[Callable[[random.Random, int], list[str]], int]] = {
    "freeword-fuzz": (_suite_freeword_fuzz, 2000),
    "palrewrite-bounds": (_suite_palrewrite_bounds, 500),
    "wreath-hom": (_suite_wreath_hom, 2000),
    "wreath-witness": (_suite_wreath_witness, 2000),
    "wreath-decomp": (_suite_wreath_decomp, 1000),
    "heis-matrix-oracle": (_suite_heis_matrix_oracle, 20000),
    "heis-quotient": (_suite_heis_quotient, 2000),
    "bs-hom": (_suite_bs_hom, 1500),
    "bs-roundtrip": (_suite_bs_roundtrip, 1500),
    "bs-decomp": (_suite_bs_decomp, 900),
}


def available_suites() -> list[str]:
    return sorted(SUITES)


# The most cases one suite run draws. A case takes 0.01-0.11 ms on one
# core (Python 3.11), so a run at the cap ends within seconds.
MAX_CASES = 100_000


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> SuiteReport:
    if name not in SUITES:
        # the name is not echoed, so that the error line has room for the whole list
        raise ValueError(f"unknown suite ...; known: {', '.join(available_suites())}")
    fn, default_cases = SUITES[name]
    n = default_cases if cases is None else cases
    if n < 1:
        raise ValueError("cases must be at least 1")
    if n > MAX_CASES:
        raise BudgetExceeded(f"cases is {n}, over the cap of {MAX_CASES}")
    try:
        failures = fn(random.Random(seed), n)
    except palindromes.SelfCheckError as exc:  # a constructor failed its own check
        failures = [str(exc)]
    return SuiteReport(name, seed, n, not failures, failures[:10])
