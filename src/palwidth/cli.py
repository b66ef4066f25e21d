"""Command-line frontend: decompose / witness / verify / explore.

A thin dispatcher over the library; it performs no mathematics itself.
Exit codes: 0 success/verified, 1 verification failure or a stdout closed
early, 2 usage or parse error, 3 resource budget exceeded; a closed stderr
keeps the code. All randomness flows from --seed through random.Random
(Mersenne Twister), so reports are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, baumslag, heisenberg, wreath
from .palindromes import CertificateError, PalindromicDecomposition, SelfCheckError, check_in_group
from .search import (
    DEFAULT_BUDGET,
    MAX_DIGITS,
    BudgetExceeded,
    Evaluator,
    ball_table,
    pal_length_histogram,
    write_ball_csv,
)
from .words import parse
from .wreath import NotInDerivedError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# most specific first: NotInDerivedError and CertificateError are ValueErrors
EXIT_CODES = (
    (BudgetExceeded, EXIT_BUDGET),
    ((NotInDerivedError, CertificateError, SelfCheckError), EXIT_VERIFY),
    ((ValueError, KeyError), EXIT_USAGE),
)


def lookup_group(label: str) -> Evaluator:
    """The group record named by `wreath`, `heis` or `bs:N`."""
    if label == "wreath":
        return wreath.evaluator()
    if label == "heis":
        return heisenberg.evaluator()
    if label.startswith("bs:"):
        try:
            n = int(label[3:])
        except ValueError:
            n = None
        # only the canonical decimal N, so that each group has one label
        if n is None or f"bs:{n}" != label:
            raise ValueError(f"bad group parameter in {label!r} (expected bs:N)")
        return baumslag.evaluator(n)
    raise ValueError(f"unknown group {label!r} (expected wreath, heis or bs:N)")


def _unique_keys(pairs: list) -> dict:
    """A JSON object with each key once; json.loads would keep the last of
    a repeated key and silently drop the others."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r} in the element literal")
        doc[key] = value
    return doc


def _read_element(group: Evaluator, text: str):
    """An element of `group` given as a JSON element literal or as word text."""
    text = text.strip()
    if text.startswith("{"):
        return group.decode(json.loads(text, object_pairs_hook=_unique_keys))
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
    dec = PalindromicDecomposition(target, factors, group.alphabet)
    element = doc["target"].get("element")
    try:
        value = check_in_group(dec, group.eval)
        return element is None or group.decode(element) == value
    except ValueError:  # a CertificateError, or a literal that is not of this group
        return False


def _open_out(path: str, mode: str = "w", newline: str | None = None):
    """The --out file, opened for writing; a path that cannot be written
    is a usage error, not a verification failure."""
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from None


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work: open it
    for appending, which leaves an existing file alone, and remove a new one."""
    existed = os.path.lexists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        with _open_out(args.out) as fh:
            fh.write(payload + "\n")
    print(payload)


def cmd_decompose(args) -> int:
    group = lookup_group(args.group)
    if group.decompose is None:
        raise ValueError(f"no decomposition routine for group {args.group!r}")
    element = _read_element(group, args.element)
    doc = certificate_json(args.group, group.decompose(element), element.to_json())
    payload = json.dumps(doc, sort_keys=True, indent=2)
    _emit(args, payload)
    if args.recheck and not recheck_certificate(json.loads(payload)):
        raise CertificateError("certificate failed re-verification on reload")
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
    from . import suites  # only verify runs the suites, so other calls skip their import

    report = suites.run_suite(args.suite, seed=args.seed, cases=args.cases)
    _emit(args, json.dumps(report.to_json(), sort_keys=True, indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_explore(args) -> int:
    ev = lookup_group(args.group)
    if args.radius is not None and args.max_len is None:
        table = ball_table(ev, args.radius, max_states=args.budget)
        if args.out:
            with _open_out(args.out, newline="") as fh:
                write_ball_csv(table, ev, fh)
        else:
            write_ball_csv(table, ev, sys.stdout)
        summary = {
            "group": args.group,
            "radius": args.radius,
            "elements": len(table),
            "tool_version": __version__,
        }
        _print_stderr(json.dumps(summary, sort_keys=True))
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
    raise ValueError(
        "pass --radius for a ball table, or --max-len with --max-factors "
        "for a palindromic-length histogram"
    )


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
    p.add_argument("suite", help="suite name; an unknown name prints the known ones")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--out", help="also write the report JSON to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explore", help="ball tables and palindromic-length histograms")
    p.add_argument("--group", required=True, help="wreath, heis or bs:N")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--max-factors", type=int, default=None, dest="max_factors")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="state cap for searches and for the palindromes of level 1 (so --max-len 23 "
        "at most at the default)",
    )
    p.add_argument(
        "--out",
        help="write the ball CSV to a file instead of stdout; a histogram's JSON "
        "is written to the file and also printed",
    )
    p.set_defaults(func=cmd_explore)
    return parser


def _print_stderr(line: str) -> None:
    """Write one line to stderr. A closed stderr loses it and is dropped, so
    that the interpreter's last flush of it cannot fail (exit 120)."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # a missing (None) or closed stderr
        sys.stderr = None


def run(work) -> int:
    """Call `work` and flush stdout; an error in EXIT_CODES gives its code and
    an `error:` line on stderr."""
    try:
        code = work()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (`palwidth ... | head`): point it at devnull
        # so that the interpreter's last flush does not fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_VERIFY
    except Exception as exc:
        code = next((mapped for kinds, mapped in EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        # str() of a one-argument KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        _print_stderr(f"error: {message}")
        return code


def main(argv=None) -> int:
    # let certificates print BS(1, n) exponents of up to MAX_DIGITS digits;
    # interpreters before 3.10.7 have no limit to raise
    if hasattr(sys, "set_int_max_str_digits") and 0 < sys.get_int_max_str_digits() < MAX_DIGITS:
        sys.set_int_max_str_digits(MAX_DIGITS)
    args = build_parser().parse_args(argv)

    def work() -> int:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)

    return run(work)


if __name__ == "__main__":
    sys.exit(main())
