"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime caps. Run with `pytest -s tests/test_acceptance.py` to see one
PASS line per criterion."""

import random
import time

from strategies import free_value

from palwidth import baumslag, heisenberg, wreath
from palwidth.heisenberg import HeisElement
from palwidth.palindromes import (
    check_in_group,
    commutator_decomposition,
    conjugate_decomposition,
)
from palwidth.search import ball_table, enumerate_palindromes, pal_length_bounded
from palwidth.suites import (
    mat_eval,
    mat_mul,
    mat_of_heis,
    random_derived_element,
    random_heis,
    random_palindrome,
    random_word,
    random_wreath_element,
)
from palwidth.words import AB, AT, Word, parse

SEED = 20260810


def _report(name, start, limit=None):
    elapsed = time.perf_counter() - start
    budget = f" (limit {limit:.0f}s)" if limit else ""
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s{budget}")
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded its runtime cap: {elapsed:.2f}s >= {limit}s"


def test_c1_commutator_width_one():
    """Every derived-subgroup element is a single commutator, exactly."""
    rng = random.Random(SEED)
    start = time.perf_counter()
    for _ in range(10_000):
        c = random_derived_element(rng, -6, 6, 6)
        f = wreath.commutator_witness(c)
        assert wreath.commutator_with_b(f) == c
    _report("C1 commutator width of Z wr Z is 1", start, limit=5.0)


def test_c2_three_palindrome_upper_bound():
    """Verified certificates with at most 3 factors for random elements."""
    rng = random.Random(SEED + 1)
    start = time.perf_counter()
    for _ in range(10_000):
        g = random_wreath_element(rng, -5, 5, 5, 5)
        dec = wreath.three_palindrome_decomposition(g)
        assert dec.length <= 3
        check_in_group(dec, wreath.evaluate)
        assert wreath.evaluate(dec.target) == g
    _report("C2 pw(Z wr Z) <= 3", start, limit=30.0)


def test_c3_three_palindrome_lower_bound():
    """The central commutator image needs three palindromes: closed-form
    decision and exhaustive meet-in-the-middle agree."""
    start = time.perf_counter()
    image = heisenberg.from_wreath(wreath.evaluate(parse("B A b a", AB)))
    assert image in (HeisElement(0, 0, 1), HeisElement(0, 0, -1))
    assert heisenberg.two_palindrome_product(image) is None
    ev = heisenberg.evaluator()
    for target in (HeisElement(0, 0, 1), HeisElement(0, 0, -1)):
        assert pal_length_bounded(ev, target, 2, 10) is None
        three = pal_length_bounded(ev, target, 3, 10)
        assert len(three) == 3
        product = Word()
        for f in three:
            assert f.is_palindrome() and len(f) <= 10
            product = product * f
        assert heisenberg.evaluate(product) == target
    _report("C3 pw(Z wr Z) >= 3 via the nilpotent quotient", start, limit=120.0)


def test_c4_bs_two_palindromes():
    """Verified <= 2-factor certificates in BS(1, n), and t a is not the
    image of any palindromic word of length <= 13."""
    rng = random.Random(SEED + 2)
    start = time.perf_counter()
    for n in (2, 3, -2):
        for _ in range(1_000):
            g = baumslag.evaluate(random_word(rng, AT, 20), n)
            dec = baumslag.two_palindrome_decomposition(g)
            assert dec.length <= 2
            check_in_group(dec, lambda w: baumslag.evaluate(w, n))
            assert baumslag.evaluate(dec.target, n) == g
    ta = baumslag.evaluate(parse("ta", AT), 2)
    assert pal_length_bounded(baumslag.evaluator(2), ta, 1, 13) is None
    _report("C4 pw(BS(1,n)) <= 2 with bounded lower-bound evidence", start, limit=60.0)


def test_c5_heis_law_against_matrix_oracle():
    """Coordinate law agrees with the unitriangular matrix model."""
    rng = random.Random(SEED + 3)
    start = time.perf_counter()
    for _ in range(100_000):
        g = random_heis(rng, 1000)
        h = random_heis(rng, 1000)
        assert mat_of_heis(g * h) == mat_mul(mat_of_heis(g), mat_of_heis(h))
    for _ in range(10_000):
        w = random_word(rng, AB, 30)
        assert mat_of_heis(heisenberg.evaluate(w)) == mat_eval(w)
    _report("C5 nilpotent law matches the matrix oracle", start)


def test_c6_quotient_homomorphism():
    """The quotient map commutes with evaluation and kills the lamp relation."""
    rng = random.Random(SEED + 4)
    start = time.perf_counter()
    for _ in range(10_000):
        w = random_word(rng, AB, 14)
        assert heisenberg.from_wreath(wreath.evaluate(w)) == heisenberg.evaluate(w)
    a0 = wreath.WreathElement.of([(0, 1)])
    a1 = wreath.WreathElement.of([(1, 1)])
    a2 = wreath.WreathElement.of([(2, 1)])
    assert heisenberg.from_wreath(a2) == heisenberg.from_wreath(a0.inverse() * a1 * a1)
    _report("C6 quotient homomorphism onto the nilpotent group", start)


def test_c7_palindrome_image_law():
    """Images of palindromes of length <= 12 satisfy 2z = xy, and every
    (x, y, xy/2) with xy even, |x|, |y| <= 4 is attained."""
    start = time.perf_counter()
    images = set()
    for p in enumerate_palindromes(AB, 12):
        h = heisenberg.evaluate(p)
        assert 2 * h.z == h.x * h.y
        images.add(h)
    for x in range(-4, 5):
        for y in range(-4, 5):
            if (x * y) % 2 == 0:
                assert HeisElement(x, y, x * y // 2) in images
    _report("C7 palindrome-image law in the nilpotent quotient", start, limit=60.0)


def test_c8_construction_bounds():
    """Conjugation and commutator certificates stay within k + (k mod 2)
    and 2k + (k mod 2) factors."""
    rng = random.Random(SEED + 5)
    start = time.perf_counter()
    for _ in range(500):
        u = random_word(rng, AB, 8)
        k = rng.randint(1, 4)
        pals = tuple(random_palindrome(rng, AB, 8) for _ in range(k))
        eps = k % 2
        conj = conjugate_decomposition(u, pals, AB)
        check_in_group(conj, free_value)
        assert conj.length <= k + eps
        comm = commutator_decomposition(u, pals, AB)
        check_in_group(comm, free_value)
        assert comm.length <= 2 * k + eps
    _report("C8 word-level construction bounds", start)


def test_c9_engine_soundness():
    """Search witnesses re-evaluate to their targets; bounded length is
    monotone in both bounds; ball lengths equal witness lengths."""
    start = time.perf_counter()
    for ev in (wreath.evaluator(), heisenberg.evaluator(), baumslag.evaluator(2)):
        table = ball_table(ev, 3)
        for enc, (length, syllables) in table.items():
            witness = Word(syllables)
            assert len(witness) == length
            assert ev.eval(witness) == enc
    hev = heisenberg.evaluator()
    targets = [HeisElement(0, 0, 1), HeisElement(1, 1, 0), HeisElement(2, -1, 1)]
    for target in targets:
        best = float("inf")
        for max_factors, max_len in ((1, 4), (2, 4), (2, 6), (3, 6), (3, 8)):
            factors = pal_length_bounded(hev, target, max_factors, max_len)
            if factors is not None:
                product = Word()
                for f in factors:
                    assert f.is_palindrome() and len(f) <= max_len
                    product = product * f
                assert hev.eval(product) == target
                assert len(factors) <= best
                best = len(factors)
    _report("C9 search engine soundness and monotonicity", start)
