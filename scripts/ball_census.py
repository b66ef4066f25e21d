#!/usr/bin/env python3
"""Tabulate Cayley-ball growth and bounded palindromic-length histograms.

Example:
    python3 scripts/ball_census.py --group heis --radius 6
    python3 scripts/ball_census.py --group wreath --radius 5 --max-len 6 --max-factors 3
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palwidth.cli import ArgumentParser, lookup_group, run, wants_histogram
from palwidth.search import DEFAULT_BUDGET, ball_table, check_bounds, pal_length_histogram_of


def census(ev, args) -> None:
    histogram = wants_histogram(args)
    if histogram:  # usage errors come before the ball is built
        check_bounds(args.max_factors, args.max_len)
    # one breadth-first search gives every radius: the ball of radius r
    # holds the entries of length <= r
    table = ball_table(ev, args.radius, max_states=args.budget)
    per_length = Counter(length for length, _ in table.values())
    print(f"# ball growth, group={args.group}")
    print("radius,elements")
    elements = 0
    for r in range(args.radius + 1):
        elements += per_length[r]
        print(f"{r},{elements}")

    if histogram:
        hist = pal_length_histogram_of(
            ev, table, args.max_factors, args.max_len, max_states=args.budget
        )
        print(f"# palindromic length within radius {args.radius}, "
              f"factors <= {args.max_factors}, palindrome length <= {args.max_len}")
        print("pal_length,count")
        for key, count in hist.items():
            print(f"{key},{count}")


def main():
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="heis")
    parser.add_argument("--radius", type=int, default=5)
    parser.add_argument("--max-len", type=int, default=None)
    parser.add_argument("--max-factors", type=int, default=None)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()
    census(lookup_group(args.group), args)
    return 0


if __name__ == "__main__":
    sys.exit(run(main))
