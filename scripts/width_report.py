#!/usr/bin/env python3
"""Desk-scale reproduction of the headline width facts.

Runs seeded random certificate checks (commutator witnesses, 3-palindrome
certificates in the wreath product, 2-palindrome certificates in BS(1, n))
plus the exhaustive central-element search in the nilpotent quotient, and
prints one line per fact.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palwidth import baumslag, heisenberg, wreath
from palwidth.palindromes import check_in_group
from palwidth.search import pal_length_bounded
from palwidth.suites import random_derived_element, random_word, random_wreath_element
from palwidth.words import AT, parse


def fact(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}{': ' + detail if detail else ''}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=2000)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    ok = True
    start = time.perf_counter()

    hits = sum(
        wreath.commutator_with_b(wreath.commutator_witness(c)) == c
        for c in (random_derived_element(rng, -6, 6, 6) for _ in range(args.cases))
    )
    ok &= fact("commutator width of Z wr Z is 1", hits == args.cases,
               f"{hits}/{args.cases} witnesses verified")

    good = 0
    for _ in range(args.cases):
        g = random_wreath_element(rng, -5, 5, 5, 5)
        dec = wreath.three_palindrome_decomposition(g)
        check_in_group(dec, wreath.evaluate)
        good += dec.length <= 3
    ok &= fact("pw(Z wr Z) <= 3", good == args.cases,
               f"{good}/{args.cases} certificates with <= 3 factors")

    center = heisenberg.from_wreath(wreath.evaluate(parse("B A b a", wreath.AB)))
    no_two = heisenberg.two_palindrome_product(center) is None
    search_two = pal_length_bounded(heisenberg.evaluator(), center, 2, 10)
    search_three = pal_length_bounded(heisenberg.evaluator(), center, 3, 10)
    ok &= fact("pw(Z wr Z) >= 3 (central obstruction in the quotient)",
               no_two and not search_two.found and search_three.k == 3,
               f"image {center}, shortest split uses {search_three.k} palindromes")

    bs_good = 0
    for n in (2, 3, -2):
        for _ in range(args.cases // 3):
            g = baumslag.evaluate(random_word(rng, AT, 20), n)
            dec = baumslag.two_palindrome_decomposition(g)
            check_in_group(dec, lambda w: baumslag.evaluate(w, n))
            bs_good += dec.length <= 2
    ta_unreached = not pal_length_bounded(
        baumslag.evaluator(2), baumslag.evaluate(parse("ta", AT), 2), 1, 13).found
    ok &= fact("pw(BS(1,n)) <= 2 for n in {2, 3, -2}",
               bs_good == 3 * (args.cases // 3), f"{bs_good} certificates verified")
    ok &= fact("t a has no palindromic word of length <= 13 (bounded evidence)",
               ta_unreached)

    print(f"total {time.perf_counter() - start:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
