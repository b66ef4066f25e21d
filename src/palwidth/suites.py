"""Seeded verification suites behind `palwidth verify`.

Each suite draws every case from a single random.Random(seed) (Python's
Mersenne Twister, stable across platforms) and returns a report; the
acceptance tests reuse the same functions at their stated sizes.

This module also houses the 3x3 unitriangular integer-matrix model of the
class-2 group: it is the independent oracle for the coordinate product
law, kept out of `heisenberg` so the implementation cannot lean on it.
`mat_mul` is written out for speed but stays the general 3x3 integer
product on purpose: specialised to unitriangular matrices it would
re-derive the Heisenberg law and stop being an independent check of it.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import baumslag, heisenberg, palindromes, wreath
from .words import AB, Alphabet, Letter, Word, reduce


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


@functools.cache
def _follow_ups(alphabet: Alphabet) -> dict[Letter, tuple[Letter, ...]]:
    """The letters that may follow each letter in a reduced word, in
    letter order."""
    letters = alphabet.letters()
    return {c: tuple(x for x in letters if x != (c[0], -c[1])) for c in letters}


def random_reduced_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    # rng.choice draws one index below the length of the sequence, so the
    # precomputed follow-ups make the same draws as filtering each step
    follow = _follow_ups(alphabet)
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
        if letters and center == (letters[-1][0], -letters[-1][1]):
            center = letters[-1]
        return reduce(letters + (center,) + letters[::-1])
    return reduce(letters + letters[::-1])


def random_support(
    rng: random.Random, lo: int, hi: int, magnitude: int
) -> wreath.SupportVector:
    entries = {}
    for i in range(lo, hi + 1):
        if rng.random() < 0.5:
            e = rng.randint(-magnitude, magnitude)
            if e:
                entries[i] = e
    return wreath.SupportVector(entries)


def random_derived_element(
    rng: random.Random, lo: int, hi: int, magnitude: int
) -> wreath.WreathElement:
    """Random derived-subgroup element: a random support adjusted at one
    index to make the exponent sum vanish."""
    tail = random_support(rng, lo, hi, magnitude)
    total = tail.exponent_sum()
    if total:
        tail = tail - wreath.SupportVector.unit(rng.randint(lo, hi), total)
    return wreath.WreathElement(tail, 0)


def random_wreath_element(
    rng: random.Random, lo: int, hi: int, magnitude: int, shift_bound: int
) -> wreath.WreathElement:
    return wreath.WreathElement(
        random_support(rng, lo, hi, magnitude), rng.randint(-shift_bound, shift_bound)
    )


def random_heis(rng: random.Random, magnitude: int) -> heisenberg.HeisElement:
    return heisenberg.HeisElement(
        rng.randint(-magnitude, magnitude),
        rng.randint(-magnitude, magnitude),
        rng.randint(-magnitude, magnitude),
    )


# --- suites ---------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: int
    passed: bool
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> dict:
        # no timing field: identical invocations must be byte-identical
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
        }


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
    failures = []
    for _ in range(cases):
        u = random_word(rng, AB, 8)
        k = rng.randint(1, 4)
        pals = tuple(random_palindrome(rng, AB, 8) for _ in range(k))
        eps = k % 2
        conj = palindromes.conjugate_decomposition(u, pals, AB)
        if conj.length > k + eps:
            failures.append(f"conjugate bound violated: {conj.length} > {k + eps}")
        comm = palindromes.commutator_decomposition(u, pals, AB)
        if comm.length > 2 * k + eps:
            failures.append(f"commutator bound violated: {comm.length} > {2 * k + eps}")
        # constructors self-check; re-check independently anyway
        try:
            palindromes.check_free(conj)
            palindromes.check_free(comm)
        except palindromes.CertificateError as exc:
            failures.append(str(exc))
    return failures


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
    failures = []
    for _ in range(cases):
        c = random_derived_element(rng, -6, 6, 6)
        f = wreath.commutator_witness(c)
        if wreath.commutator_with_b(f) != c:
            failures.append(f"[f, b] != c for {c}")
    return failures


def _suite_wreath_decomp(rng: random.Random, cases: int) -> list[str]:
    failures = []
    for _ in range(cases):
        g = random_wreath_element(rng, -5, 5, 5, 5)
        dec = wreath.three_palindrome_decomposition(g)
        if dec.length > 3:
            failures.append(f"{dec.length} factors for {g}")
        try:
            palindromes.check_in_group(dec, wreath.evaluate)
        except palindromes.CertificateError as exc:
            failures.append(str(exc))
    return failures


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
    from .words import AT, parse

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
    from .words import AT

    failures = []
    for n in (2, 3, -2):
        for _ in range(cases // 3 + 1):
            g = baumslag.evaluate(random_word(rng, AT, 16), n)
            k, l, m = baumslag.normal_form(g)
            if k < 0 or m < 0:
                failures.append(f"negative exponents in normal form of {g}")
            if baumslag.evaluate(baumslag.normal_form_word(k, l, m), n) != g:
                failures.append(f"round trip failed for {g}")
            if k > 0 and m > 0 and l % n == 0:
                failures.append(f"non-minimal form ({k}, {l}, {m}) for {g}")
    return failures


def _suite_bs_decomp(rng: random.Random, cases: int) -> list[str]:
    from .words import AT

    failures = []
    for n in (2, 3, -2):
        for _ in range(cases // 3 + 1):
            g = baumslag.evaluate(random_word(rng, AT, 20), n)
            dec = baumslag.two_palindrome_decomposition(g)
            if dec.length > 2:
                failures.append(f"{dec.length} factors for {g}")
            try:
                palindromes.check_in_group(dec, lambda w: baumslag.evaluate(w, n))
            except palindromes.CertificateError as exc:
                failures.append(str(exc))
    return failures


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


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(available_suites())}")
    fn, default_cases = SUITES[name]
    n = default_cases if cases is None else cases
    if n < 1:
        raise ValueError("cases must be at least 1")
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = fn(rng, n)
    elapsed = time.perf_counter() - start
    return SuiteReport(
        suite=name,
        seed=seed,
        cases=n,
        passed=not failures,
        failures=failures[:10],
        seconds=elapsed,
    )
