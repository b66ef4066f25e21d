#!/usr/bin/env python3
"""Desk-scale reproduction of the headline width facts.

Prints one line per fact. The certificate facts (commutator witnesses and
3-palindrome certificates in the wreath product, 2-palindrome certificates
in BS(1, n)) are the verdicts of the `palwidth verify` suites at the given
seed and case count; the central-element search in the nilpotent quotient
and the bounded search for `t a` run here.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palwidth import baumslag, cli, heisenberg, wreath
from palwidth.search import pal_length_bounded
from palwidth.suites import run_suite
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
    start = time.perf_counter()
    passed = {name: run_suite(name, seed=args.seed, cases=args.cases).passed
              for name in ("wreath-witness", "wreath-decomp", "bs-decomp")}

    def verdict(name):
        return passed[name], f"verify {name} --seed {args.seed} --cases {args.cases}"

    ok = fact("commutator width of Z wr Z is 1", *verdict("wreath-witness"))
    ok &= fact("pw(Z wr Z) <= 3", *verdict("wreath-decomp"))

    center = heisenberg.from_wreath(wreath.evaluate(parse("B A b a", wreath.AB)))
    no_two = heisenberg.two_palindrome_product(center) is None
    search_two = pal_length_bounded(heisenberg.evaluator(), center, 2, 10)
    search_three = pal_length_bounded(heisenberg.evaluator(), center, 3, 10)
    ok &= fact("pw(Z wr Z) >= 3 (central obstruction in the quotient)",
               no_two and not search_two.found and search_three.k == 3,
               f"image {center}, shortest split uses {search_three.k} palindromes")

    ok &= fact("pw(BS(1,n)) <= 2 for n in {2, 3, -2}", *verdict("bs-decomp"))
    ta_unreached = not pal_length_bounded(
        baumslag.evaluator(2), baumslag.evaluate(parse("ta", AT), 2), 1, 13).found
    ok &= fact("t a has no palindromic word of length <= 13 (bounded evidence)",
               ta_unreached)

    print(f"total {time.perf_counter() - start:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(cli.run(main))
