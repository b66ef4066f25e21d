"""Command-line frontend: decompose / witness / verify / explore.

A thin dispatcher over the library; it performs no mathematics itself.
Exit codes: 0 success/verified, 1 verification failure or a failed write
to stdout (a stdout closed at start or early, a full device), 2 usage or
parse error (also an --out file that cannot be written), 3 resource budget
exceeded (also a --budget over the default); a closed stderr keeps the
code. All randomness flows from --seed through random.Random (Mersenne
Twister), so reports are reproducible.
"""

from __future__ import annotations

import argparse
import errno
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
    check_bounds,
    pal_length_histogram_of,
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
    (ValueError, EXIT_USAGE),
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


def _read_element(group: Evaluator, text: str) -> tuple:
    """The encoding of an element of `group` given as a JSON element literal
    or as word text."""
    text = text.strip()
    if text.startswith(("{", "[")):
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError("the element literal is nested too deeply") from None
        return group.decode(doc)
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


def _write_out(path: str, write, mode: str = "w", newline: str | None = None) -> None:
    """Open the --out file and call write(fh) on it; a path that cannot be
    opened or written (a full device) is a usage error, not a verification
    failure."""
    try:
        with open(path, mode, encoding="utf-8", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from None


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written before any work: open it
    for appending, which leaves an existing file alone, and remove a new one."""
    existed = os.path.lexists(path)
    _write_out(path, lambda fh: None, "a")
    if not existed:
        try:
            os.remove(path)
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None


def _stdout():
    """sys.stdout, to write to. Python sets it to None when descriptor 1 is
    closed at start (`palwidth ... >&-`), and a write there fails as a write
    to a descriptor closed later does."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(args, make_doc) -> str:
    """Print the JSON text of make_doc(), also to the --out file, and return
    it. Printing refuses a number of more than MAX_DIGITS digits (`main`
    raises the interpreter's limit to that bound), and such a number,
    however the work made it, is over the digit cap."""
    try:
        payload = json.dumps(make_doc(), sort_keys=True, indent=2)
    except ValueError:  # str() of such a number; nothing else here raises it
        raise BudgetExceeded(
            f"a number to print has more than {MAX_DIGITS} decimal digits, over the digit cap"
        ) from None
    if getattr(args, "out", None):
        _write_out(args.out, lambda fh: fh.write(payload + "\n"))
    print(payload, file=_stdout())
    return payload


def cmd_decompose(args) -> int:
    group = lookup_group(args.group)
    element = _read_element(group, args.element)
    dec = group.decompose(element)
    payload = _emit(
        args, lambda: certificate_json(args.group, dec, json.loads(group.show(element)))
    )
    if args.recheck and not recheck_certificate(json.loads(payload)):
        raise CertificateError("certificate failed re-verification on reload")
    return EXIT_OK


def cmd_witness(args) -> int:
    element = wreath.WreathElement.from_flat(_read_element(lookup_group("wreath"), args.element))
    # checks [f, b] = element itself: NotInDerivedError or SelfCheckError -> exit 1
    f = wreath.commutator_witness(element)
    doc = {
        "witness": {"support": {str(i): e for i, e in f.items()}},
        "commutator": element.to_json(),
        "matches": True,
        "tool_version": __version__,
    }
    _emit(args, lambda: doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import suites  # only verify runs the suites, so other calls skip their import

    report = suites.run_suite(args.suite, seed=args.seed, cases=args.cases)
    _emit(args, report.to_json)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _wants_histogram(args) -> bool:
    """Whether --max-len and --max-factors ask for a histogram; either one
    alone is a usage error that names the other."""
    if (args.max_len is None) != (args.max_factors is None):
        missing = "--max-len" if args.max_len is None else "--max-factors"
        raise ValueError(f"a palindromic-length histogram needs {missing} as well")
    return args.max_len is not None


def cmd_explore(args) -> int:
    ev = lookup_group(args.group)
    histogram = _wants_histogram(args)
    radius = args.radius
    if histogram:
        check_bounds(args.max_factors, args.max_len)  # usage errors before the ball is built
        if radius is None:
            radius = args.max_len
    elif radius is None:
        raise ValueError(
            "pass --radius for a ball table, or --max-len with --max-factors "
            "for a palindromic-length histogram"
        )
    table = ball_table(ev, radius, max_states=args.budget)
    if histogram:
        hist = pal_length_histogram_of(
            ev, table, args.max_factors, args.max_len, max_states=args.budget
        )
        doc = {
            "group": args.group,
            "radius": radius,
            "max_len": args.max_len,
            "max_factors": args.max_factors,
            "histogram": hist,
            "tool_version": __version__,
        }
        _emit(args, lambda: doc)
    elif args.out:
        _write_out(args.out, lambda fh: write_ball_csv(table, ev, fh), newline="")
    else:
        write_ball_csv(table, ev, _stdout())
    # spheres[r]: the elements at distance exactly r, from the same ball
    spheres = [0] * (radius + 1)
    for length, _ in table.values():
        spheres[length] += 1
    summary = {
        "group": args.group,
        "radius": radius,
        "elements": len(table),
        "spheres": spheres,
        "tool_version": __version__,
    }
    _print_stderr(json.dumps(summary, sort_keys=True))
    return EXIT_OK


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors go through `run`: its own
    error() would print a usage block and the message whole (an input it
    echoes too) and exit, so this one raises the message as a ValueError,
    for one cut `error:` line and exit code 2."""

    def error(self, message: str):
        raise ValueError(f"{message} (see {self.prog} --help)")

    def _print_message(self, message: str, file=None) -> None:
        """Write the --help or --version text, argparse's only messages once
        error() raises, to stdout and flush it. Argparse's own writer falls
        back to stderr for a stdout closed at start and ignores a failed
        write; here it reaches `run`, as a subcommand's does."""
        if message:
            out = _stdout()
            out.write(message)
            out.flush()


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="palwidth",
        description="Exact palindromic-width computations in Z wr Z, BS(1,n) and "
        "the rank-2 free nilpotent group.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="palindromic factorization certificate")
    p.add_argument("--group", required=True, help="wreath, heis or bs:N")
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

    p = sub.add_parser(
        "explore",
        help="ball tables and palindromic-length histograms",
        description="Build the Cayley ball of --radius and print it as CSV, or print "
        "the bounded palindromic-length histogram over it. Either mode then writes a "
        'one-line JSON summary to stderr: "elements" in the ball and "spheres", the '
        "number of elements at each distance 0..radius.",
    )
    p.add_argument("--group", required=True, help="wreath, heis or bs:N")
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.add_argument("--max-factors", type=int, default=None, dest="max_factors")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="state cap for searches and for the palindromes of level 1 (so --max-len 23 "
        "at most at the default); it may lower the default but not raise it, since the "
        "default keeps a search inside 1 GiB",
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
        if sys.stdout is not None:  # None: nothing was written to it (`_stdout`)
            sys.stdout.flush()
        return code
    except OSError as exc:
        # a write to stdout failed: it is the one OSError that reaches here,
        # since the --out file's errors (_write_out, _check_out) are
        # ValueErrors. A stdout closed early (`palwidth ... | head`) ends
        # quietly, any other failure (a full device) with an error line.
        # Stdout then points at devnull, so that the interpreter's last
        # flush does not fail again.
        if sys.stdout is not None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _print_stderr(f"error: cannot write to stdout: {exc}")
        return EXIT_VERIFY
    except Exception as exc:
        code = next((mapped for kinds, mapped in EXIT_CODES if isinstance(exc, kinds)), None)
        if code is None:
            raise
        line = f"error: {exc}"
        if len(line) > 200:  # an input echoed whole: keep both ends, so the reason survives
            line = f"{line[:80]}...({len(line) - 160} characters)...{line[-80:]}"
        _print_stderr(line)
        return code


def main(argv=None) -> int:
    # let certificates print BS(1, n) exponents of up to MAX_DIGITS digits;
    # interpreters before 3.10.7 have no limit to raise
    if hasattr(sys, "set_int_max_str_digits") and 0 < sys.get_int_max_str_digits() < MAX_DIGITS:
        sys.set_int_max_str_digits(MAX_DIGITS)

    def work() -> int:
        args = build_parser().parse_args(argv)
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)

    return run(work)


if __name__ == "__main__":
    sys.exit(main())
