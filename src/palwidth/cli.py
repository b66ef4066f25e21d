"""Command-line frontend: decompose / witness / verify / explore.

A thin dispatcher over the library; it performs no mathematics itself.
Exit codes: 0 success/verified, 1 verification failure, 2 usage or parse
error, 3 resource budget exceeded. All randomness flows from --seed
through random.Random (Mersenne Twister), so reports are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, baumslag, heisenberg, suites, wreath
from .palindromes import CertificateError, PalindromicDecomposition, SelfCheckError
from .search import (
    MAX_DIGITS,
    BudgetExceeded,
    Evaluator,
    ball_table,
    pal_length_histogram,
    write_ball_csv,
)
from .words import ParseError, Word, parse
from .wreath import NotInDerivedError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def lookup_group(label: str) -> Evaluator:
    """The group record named by `wreath`, `heis` or `bs:N`."""
    if label == "wreath":
        return wreath.evaluator()
    if label == "heis":
        return heisenberg.evaluator()
    if label.startswith("bs:"):
        try:
            n = int(label.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad group parameter in {label!r} (expected bs:N)") from None
        return baumslag.evaluator(n)
    raise ValueError(f"unknown group {label!r} (expected wreath, heis or bs:N)")


def _read_element(group: Evaluator, text: str):
    """An element of `group` given as a JSON element literal or as word text."""
    text = text.strip()
    if text.startswith("{"):
        return group.decode(json.loads(text))
    return group.eval(parse(text, group.alphabet))


def certificate_json(group: str, dec: PalindromicDecomposition, element_json) -> dict:
    return {
        "group": group,
        "target": {"word": str(dec.target), "element": element_json},
        "factors": [str(f) for f in dec.factors],
        "length": dec.length,
        "verified": True,
        "tool_version": __version__,
    }


def recheck_certificate(doc: dict) -> bool:
    """Recompute `verified` from scratch; the stored flag is never trusted."""
    group = lookup_group(doc["group"])
    target = parse(doc["target"]["word"], group.alphabet)
    factors = tuple(parse(text, group.alphabet) for text in doc["factors"])
    if any(not f or not f.is_palindrome() for f in factors):
        return False
    product = Word()
    for f in factors:
        product = product * f
    value = group.eval(target)
    if group.eval(product) != value:
        return False
    element = doc["target"].get("element")
    if element is None:
        return True
    try:
        return group.decode(element) == value
    except ValueError:  # the stored literal is not an element of this group
        return False


def _emit(args, payload: str) -> None:
    print(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def cmd_decompose(args) -> int:
    group = lookup_group(args.group)
    if group.decompose is None:
        print(f"error: no decomposition routine for group {args.group!r}", file=sys.stderr)
        return EXIT_USAGE
    element = _read_element(group, args.element)
    doc = certificate_json(args.group, group.decompose(element), element.to_json())
    payload = json.dumps(doc, sort_keys=True, indent=2)
    _emit(args, payload)
    if args.recheck and not recheck_certificate(json.loads(payload)):
        print("error: certificate failed re-verification on reload", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_witness(args) -> int:
    element = _read_element(lookup_group("wreath"), args.element)
    f = wreath.commutator_witness(element)  # raises NotInDerivedError -> exit 1
    recomputed = wreath.commutator_with_b(f)
    doc = {
        "witness": {"support": {str(i): e for i, e in f.items()}},
        "commutator": recomputed.to_json(),
        "matches": recomputed == element,
        "tool_version": __version__,
    }
    _emit(args, json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK if recomputed == element else EXIT_VERIFY


def cmd_verify(args) -> int:
    try:
        report = suites.run_suite(args.suite, seed=args.seed, cases=args.cases)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, json.dumps(report.to_json(), sort_keys=True, indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_explore(args) -> int:
    ev = lookup_group(args.group)
    if args.radius is not None and args.max_len is None:
        table = ball_table(ev, args.radius, max_states=args.budget)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_ball_csv(table, ev, fh)
        else:
            write_ball_csv(table, ev, sys.stdout)
        summary = {
            "group": args.group,
            "radius": args.radius,
            "elements": len(table),
            "tool_version": __version__,
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return EXIT_OK
    if args.max_len is not None and args.max_factors is not None:
        radius = args.radius if args.radius is not None else args.max_len
        hist = pal_length_histogram(
            ev, radius, args.max_factors, args.max_len, max_states=args.budget
        )
        doc = {
            "group": args.group,
            "radius": radius,
            "max_len": args.max_len,
            "max_factors": args.max_factors,
            "histogram": hist,
            "tool_version": __version__,
        }
        _emit(args, json.dumps(doc, sort_keys=True, indent=2))
        return EXIT_OK
    print(
        "error: pass --radius for a ball table, or --max-len with --max-factors "
        "for a palindromic-length histogram",
        file=sys.stderr,
    )
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palwidth",
        description="Exact palindromic-width computations in Z wr Z, BS(1,n) and "
        "the rank-2 free nilpotent group.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="palindromic factorization certificate")
    p.add_argument("--group", required=True, help="wreath or bs:N")
    p.add_argument("element", help="word text or a JSON element literal")
    p.add_argument("--out", help="also write the certificate JSON to a file")
    p.add_argument("--recheck", action="store_true", help="re-verify the certificate on reload")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("witness", help="commutator witness for a derived wreath element")
    p.add_argument("element", help="word text or a JSON element literal")
    p.add_argument("--out", help="also write the result JSON to a file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run a named randomized property suite")
    p.add_argument("suite", help=f"one of: {', '.join(suites.available_suites())}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--out", help="also write the report JSON to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explore", help="ball tables and palindromic-length histograms")
    p.add_argument("--group", required=True, help="wreath, heis or bs:N")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--max-factors", type=int, default=None, dest="max_factors")
    p.add_argument("--budget", type=int, default=2_000_000, help="state cap for searches")
    p.add_argument("--out", help="write CSV/JSON to a file instead of stdout")
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    # let certificates print BS(1, n) exponents of up to MAX_DIGITS digits;
    # interpreters before 3.10.7 have no limit to raise
    if hasattr(sys, "set_int_max_str_digits") and 0 < sys.get_int_max_str_digits() < MAX_DIGITS:
        sys.set_int_max_str_digits(MAX_DIGITS)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotInDerivedError, CertificateError, SelfCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ParseError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
