"""The benchmark's workloads: seeded inputs, the operations each round
makes against palwidth, and the checks of every output against `oracles`.

A round is a fixed list of parts, and a part is a batch of operations
timed as one. A run repeats whole rounds, so every run attempts the same
operations in the same proportions whatever its length.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracles as o
from oracles import require
from tracing import CallCounter, counting_yields

from palwidth import baumslag, cli, heisenberg, palindromes, search, suites, words, wreath


@dataclass
class Part:
    name: str
    ops: int  # operations attempted per call
    run: Callable[[Callable], Any]  # span function -> outputs
    check: Callable[[Any], int]  # outputs -> failed operations; raises CheckFailed
    stage: str | None = None  # stage metric the part's time counts toward
    units: int = 0  # certificates or elements the part adds to its stage
    replay: Callable[[Any, Callable], None] | None = None  # traced rounds only

    @property
    def timed(self) -> bool:
        return self.stage is not None


# --- seeded inputs ------------------------------------------------------------


def word_text(syls) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in syls if e)


def random_word_text(rng: random.Random, gens: tuple[str, ...], length: int) -> str:
    letters = [(g, s) for g in gens for s in (1, -1)]
    out: list[tuple[str, int]] = []
    for _ in range(length):
        out.append(rng.choice([c for c in letters if not out or c != (out[-1][0], -out[-1][1])]))
    return word_text(o.fold(out))


def random_lamps(rng: random.Random, lo: int, hi: int, magnitude: int) -> dict[int, int]:
    lamps = {}
    for i in range(lo, hi + 1):
        if rng.random() < 0.5:
            e = rng.randint(-magnitude, magnitude)
            if e:
                lamps[i] = e
    return lamps


def wreath_literal(lamps: dict[int, int], shift: int) -> dict:
    return {"support": {str(i): e for i, e in sorted(lamps.items()) if e}, "shift": shift}


# --- certificates -------------------------------------------------------------


def emit_certificate(group: str, dec, element_json, span) -> tuple[str, bool]:
    """What `palwidth decompose --recheck` does after the decomposition:
    serialise the certificate, reload it and recheck it."""
    with span("cli.certificate_json"):
        text = json.dumps(cli.certificate_json(group, dec, element_json), sort_keys=True, indent=2)
    with span("cli.recheck"):
        ok = cli.recheck_certificate(json.loads(text))
    return text, ok


def wreath_certificate(doc: dict, span) -> tuple[str, bool]:
    g = wreath.WreathElement.from_json(doc)
    with span("wreath.decompose"):
        dec = wreath.three_palindrome_decomposition(g)
    return emit_certificate("wreath", dec, g.to_json(), span)


def bs_certificate(n: int, text: str, span) -> tuple[str, bool]:
    with span("words.parse"):
        w = words.parse(text, words.AT)
    with span("baumslag.evaluate"):
        g = baumslag.evaluate(w, n)
    with span("baumslag.decompose"):
        dec = baumslag.two_palindrome_decomposition(g)
    return emit_certificate(f"bs:{n}", dec, g.to_json(), span)


def replay_certificate(output, alphabet, evaluate, evaluate_span: str, span, counts) -> None:
    """Repeat a certificate's reload step by step through the public word
    API, so each step gets its own span."""
    text, _ = output
    doc = json.loads(text)
    with span("words.parse"):
        target = words.parse(doc["target"]["word"], alphabet)
        factors = tuple(words.parse(f, alphabet) for f in doc["factors"])
    with span("words.is_palindrome"):
        for f in factors:
            f.is_palindrome()
    with span("words.mul"):
        product = words.EMPTY
        for f in factors:
            product = product * f
    with span("words.format"):
        for f in factors:
            words.format_word(f)
    with span("palindromes.check_in_group"):
        palindromes.check_in_group(
            palindromes.PalindromicDecomposition(target, factors, alphabet), evaluate
        )
    with span(evaluate_span):
        evaluate(product)
        g = evaluate(target)
    if evaluate_span == "baumslag.evaluate":
        with span("baumslag.normal_form"):
            baumslag.normal_form(g)
    counts["words.letters"] += sum(len(f) for f in factors)
    counts["cli.cert_bytes"] += len(text)


def chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class CertificateWorkload:
    """Builds the parts that decompose wreath and BS(1, n) inputs, and
    counts the letters and bytes of the certificates a traced round replays."""

    def __init__(self) -> None:
        self.counts = {"words.letters": 0, "cli.cert_bytes": 0}

    def begin_round(self, traced: bool) -> None:
        self.counts = dict.fromkeys(self.counts, 0)

    def layer_metrics(self, totals: dict[str, float]) -> dict[str, float]:
        return dict(self.counts)

    def wreath_part(self, name: str, docs: list[dict]) -> Part:
        expected = [o.Wreath.from_literal(doc) for doc in docs]

        def run(span):
            return [wreath_certificate(doc, span) for doc in docs]

        def check(outputs) -> int:
            for (text, rechecked), key in zip(outputs, expected, strict=True):
                require(rechecked, "wreath: palwidth's own recheck rejected its certificate")
                o.check_certificate(text, "wreath", o.Wreath, key, 3)
            return 0

        def replay(outputs, span) -> None:
            for out in outputs:
                replay_certificate(out, words.AB, wreath.evaluate, "wreath.evaluate", span, self.counts)

        return Part(name, len(docs), run, check, "wreath_certs_per_s", len(docs), replay)

    def bs_part(self, name: str, inputs: list[tuple[int, str]]) -> Part:
        expected = [o.Affine(n).evaluate(o.syllables(text)) for n, text in inputs]

        def run(span):
            return [bs_certificate(n, text, span) for n, text in inputs]

        def check(outputs) -> int:
            for (text, rechecked), key, (n, _) in zip(outputs, expected, inputs, strict=True):
                require(rechecked, f"bs:{n}: palwidth's own recheck rejected its certificate")
                o.check_certificate(text, f"bs:{n}", o.Affine(n), key, 2)
            return 0

        def replay(outputs, span) -> None:
            for out, (n, _) in zip(outputs, inputs):
                replay_certificate(
                    out, words.AT, lambda w, n=n: baumslag.evaluate(w, n),
                    "baumslag.evaluate", span, self.counts,
                )

        return Part(name, len(inputs), run, check, "bs_certs_per_s", len(inputs), replay)


# --- workload: certify ----------------------------------------------------------

CERTIFY_WREATH = 1200  # lamps in [-5, 5] with exponents in [-5, 5], shift in [-5, 5]
CERTIFY_BS_PER_N = 300  # for each n in (2, 3, -2)
CERTIFY_BS_WORD = 20  # random reduced words of 0..20 letters ...
CERTIFY_BS_LETTERS = 2000  # ... whose certificate has at most this many letters
CERTIFY_WITNESSES = 3000  # derived elements with lamps in [-6, 6], exponents in [-6, 6]
CERTIFY_CHUNK = 50  # certificates per timed part
WITNESS_CHUNK = 250  # witnesses per timed part

# the default case count of each `palwidth verify` suite
SUITE_CASES = {
    "bs-decomp": 900,
    "bs-hom": 1500,
    "bs-roundtrip": 1500,
    "freeword-fuzz": 2000,
    "heis-matrix-oracle": 20000,
    "heis-quotient": 2000,
    "palrewrite-bounds": 500,
    "wreath-decomp": 1000,
    "wreath-hom": 2000,
    "wreath-witness": 2000,
}


def bs_inputs(rng: random.Random, n: int, count: int) -> list[tuple[int, str]]:
    affine = o.Affine(n)
    out = []
    while len(out) < count:
        text = random_word_text(rng, ("a", "t"), rng.randint(0, CERTIFY_BS_WORD))
        if affine.normal_form_letters(affine.evaluate(o.syllables(text))) <= CERTIFY_BS_LETTERS:
            out.append((n, text))
    return out


def derived_literal(rng: random.Random) -> dict:
    lamps = random_lamps(rng, -6, 6, 6)
    total = sum(lamps.values())
    if total:
        i = rng.randint(-6, 6)
        lamps[i] = lamps.get(i, 0) - total
    return wreath_literal(lamps, 0)


def witness_part(name: str, docs: list[dict]) -> Part:
    expected = [o.Wreath.from_literal(doc) for doc in docs]

    def run(span):
        out = []
        for doc in docs:
            c = wreath.WreathElement.from_json(doc)
            with span("wreath.witness"):
                out.append(wreath.commutator_witness(c).items())
        return out

    def check(outputs) -> int:
        # claim (b): [f, b] = c, computed in the oracle's lamp arithmetic
        for items, key in zip(outputs, expected, strict=True):
            require(
                o.Wreath.commutator_with_b(o.Wreath.from_support(items)) == key,
                f"witness {items!r} does not give its commutator",
            )
        return 0

    return Part(name, len(docs), run, check, "witnesses_per_s", len(docs))


def suite_part(name: str, cases: int) -> Part:
    def run(span):
        with span(f"suites.{name}"):
            return suites.run_suite(name, seed=0, cases=cases)

    def check(report) -> int:
        # claim (f): passed, at the requested case count
        require(report.suite == name and report.cases == cases, f"suite {name}: wrong report")
        require(report.passed, f"suite {name} failed: {report.failures[:3]}")
        return 0

    return Part(f"suite:{name}", 1, run, check, "verify_suites_s", 1)


class Certify(CertificateWorkload):
    """Many small certificates and witnesses, plus the ten verify suites."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        rng = random.Random(f"certify:{seed}")
        wreath_docs = [
            wreath_literal(random_lamps(rng, -5, 5, 5), rng.randint(-5, 5))
            for _ in range(CERTIFY_WREATH)
        ]
        bs = [x for n in (2, 3, -2) for x in bs_inputs(rng, n, CERTIFY_BS_PER_N)]
        derived = [derived_literal(rng) for _ in range(CERTIFY_WITNESSES)]
        self.parts = (
            [self.wreath_part(f"wreath:{i}", c) for i, c in enumerate(chunks(wreath_docs, CERTIFY_CHUNK))]
            + [self.bs_part(f"bs:{i}", c) for i, c in enumerate(chunks(bs, CERTIFY_CHUNK))]
            + [witness_part(f"witness:{i}", c) for i, c in enumerate(chunks(derived, WITNESS_CHUNK))]
            # the suites draw their cases from their own default seed, as
            # `palwidth verify NAME` does
            + [suite_part(name, cases) for name, cases in SUITE_CASES.items()]
        )


# --- workload: long-words -------------------------------------------------------

# decompose calls whose words need more memory than the child is given;
# they do not depend on the seed
OVERSIZED = (("bs:3", "t^-20 a t^20"), ("bs:2", "a^200000000"))
OVERSIZED_ADDRESS_SPACE = 1 << 30
OVERSIZED_TIMEOUT_S = 60


def run_cli(root: str, args: list[str]) -> tuple[int | None, str]:
    """Run `palwidth ARGS` in a child process whose address space is capped;
    (None, "") when it does not finish in time."""

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (OVERSIZED_ADDRESS_SPACE, OVERSIZED_ADDRESS_SPACE))

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "palwidth", *args],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=OVERSIZED_TIMEOUT_S, preexec_fn=cap_memory,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


def oversized_part(root: str, group: str, text: str) -> Part:
    """Succeeds with a certificate that passes the oracle (exit 0) or a
    budget exit (exit 3); any other outcome is a failed operation."""
    n = int(group.split(":")[1])
    expected = o.Affine(n).evaluate(o.syllables(text))

    def run(span):
        return run_cli(root, ["decompose", "--group", group, "--recheck", text])

    def check(result) -> int:
        code, out = result
        if code == 0:
            o.check_certificate(out, group, o.Affine(n), expected, 2)
            return 0
        return 0 if code == 3 else 1

    return Part(f"oversized:{group}", 1, run, check)


def near(rng: random.Random, scale: int) -> int:
    """A distance within 1 % of `scale`, so input sizes barely move with the seed."""
    return scale + rng.randint(0, scale // 100)


def sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([e for e in range(-bound, bound + 1) if e])


class LongWords(CertificateWorkload):
    """A few certificates whose words reach 10^5-10^6 letters."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        rng = random.Random(f"long-words:{seed}")
        # t^k a^l with l = 3^11 + i + j and l = 3 * 2^16 + i + j: the
        # conjugates collapse to one long a-run
        bs = [
            (3, word_text([("t", rng.randint(1, 3)), ("a", nonzero(rng, 9)),
                           ("t", -11), ("a", 1), ("t", 11), ("a", nonzero(rng, 9))])),
            (2, word_text([("t", rng.randint(1, 3)), ("a", nonzero(rng, 9)),
                           ("t", -16), ("a", 3), ("t", 16), ("a", nonzero(rng, 9))])),
            # long exponent text: a^N t = t a^2N in BS(1, 2)
            (2, word_text([("a", near(rng, 100_000)), ("t", 1), ("a", -rng.randint(1, 9))])),
        ]
        # certificate length grows with lamp distance times exponent size,
        # so the seed picks only signs and distances within 1 %
        lamps = [
            {near(rng, 1000): 3 * sign(rng), -near(rng, 1000): 2 * sign(rng)},
            {near(rng, 20_000) * sign(rng): 2 * sign(rng)},
        ]
        self.parts = (
            [self.bs_part(f"bs:{i}", [x]) for i, x in enumerate(bs)]
            + [self.wreath_part(f"wreath:{i}", [wreath_literal(l, nonzero(rng, 5))])
               for i, l in enumerate(lamps)]
            + [oversized_part(root, group, text) for group, text in OVERSIZED]
        )


# --- workload: search -----------------------------------------------------------

# group: (ball radius, histogram radius, max_factors, max_len)
SEARCH = {
    "wreath": (9, 6, 2, 6),
    "heis": (10, 10, 3, 10),
    "bs2": (10, 8, 2, 8),
}


def program_evaluator(group: str):
    return {
        "wreath": wreath.evaluator,
        "heis": heisenberg.evaluator,
        "bs2": lambda: baumslag.evaluator(2),
    }[group]()


def oracle_group(group: str):
    return {"wreath": o.Wreath, "heis": o.Heis, "bs2": o.Affine(2)}[group]


class Search:
    """Cayley-ball tables and palindromic-length histograms."""

    def __init__(self, seed: int, root: str) -> None:
        # the inputs are fixed sizes, so the seed only orders the groups
        groups = sorted(SEARCH)
        random.Random(f"search:{seed}").shuffle(groups)
        self.traced = False
        self.counters = {g: CallCounter() for g in groups}
        self.evaluators = {g: program_evaluator(g) for g in groups}
        self.counted = {g: self.counters[g].wrap(self.evaluators[g]) for g in groups}
        self.tables: dict[str, Any] = {}  # from a ball part to the CSV part after it
        self.ball_elements: dict[str, int] = {}
        self.palindromes: dict[str, int] = {}
        self.parts = []
        hist_parts = []
        for g in groups:
            ball_radius, radius, max_factors, max_len = SEARCH[g]
            arith = oracle_group(g)
            dist = o.ball(arith, ball_radius)
            hist, _ = o.histogram(arith, dist, radius, max_factors, max_len)
            self.parts += [self.ball_part(g, ball_radius, len(dist)), self.csv_part(g, ball_radius)]
            hist_parts.append(self.hist_part(g, radius, max_factors, max_len, hist))
        self.parts += hist_parts

    def evaluator(self, group: str):
        return self.counted[group] if self.traced else self.evaluators[group]

    def ball_part(self, g: str, radius: int, expected: int) -> Part:
        def run(span):
            with span(f"search.{g}.ball"):
                table = search.ball_table(self.evaluator(g), radius)
            self.tables[g] = table
            self.ball_elements[g] = len(table)
            return len(table)

        def check(size) -> int:
            require(size == expected, f"{g} ball has {size} elements, expected {expected}")
            return 0

        return Part(f"ball:{g}", 1, run, check, "ball_elements_per_s", expected)

    def csv_part(self, g: str, radius: int) -> Part:
        verified: list[int] = []  # hash of the CSV the first round checked

        def run(span):
            table = self.tables.pop(g)  # released once written, as the CLI does
            out = io.StringIO()
            with span(f"search.{g}.csv"):
                search.write_ball_csv(table, self.evaluator(g), out)
            return out.getvalue()

        def check(text) -> int:
            # claim (c) is checked row by row once; later rounds must print
            # the same verified text. The oracle's ball is made here, after
            # palwidth's table is gone, and dropped again. hash() is stable
            # within the process, and hashlib would add OpenSSL's pages to
            # peak_rss_mb.
            if verified:
                require(hash(text) == verified[0], f"{g} ball CSV changed between rounds")
                return 0
            check_ball_csv(g, text, o.ball(oracle_group(g), radius))
            verified.append(hash(text))
            return 0

        return Part(f"csv:{g}", 1, run, check, "ball_elements_per_s")

    def hist_part(self, g: str, radius: int, max_factors: int, max_len: int, expected) -> Part:
        size = sum(expected.values())

        def run(span):
            # traced rounds count the palindromes palwidth enumerates
            counting = (counting_yields(search, "enumerate_palindromes") if self.traced
                        else contextlib.nullcontext([0]))
            with span(f"search.{g}.hist"), counting as enumerated:
                hist = search.pal_length_histogram(self.evaluator(g), radius, max_factors, max_len)
            self.palindromes[g] = enumerated[0]
            return hist

        def check(hist) -> int:
            got = dict(hist)
            if "3+unknown" in expected:
                got["3+unknown"] = got.pop("3") + got.pop("unknown")
            require(got == expected, f"{g} histogram {hist} differs from the oracle's {expected}")
            return 0

        return Part(f"hist:{g}", 1, run, check, f"hist_{g}_elements_per_s", size)

    def begin_round(self, traced: bool) -> None:
        self.traced = traced
        self.ball_elements = {}
        self.palindromes = {}
        for counter in self.counters.values():
            counter.reset()

    def layer_metrics(self, totals: dict[str, float]) -> dict[str, float]:
        out: dict[str, float] = {}
        for g, counter in self.counters.items():
            spans = sum(totals.get(f"search.{g}.{s}", 0.0) for s in ("ball", "csv", "hist"))
            out.update({
                f"search.{g}.eval_calls": counter.calls["eval"],
                f"search.{g}.mul_calls": counter.calls["mul"],
                f"search.{g}.inv_calls": counter.calls["inv"],
                f"search.{g}.group_s": counter.seconds,
                f"search.{g}.self_s": spans - counter.seconds,
                f"search.{g}.ball_elements": self.ball_elements.get(g, 0),
                f"search.{g}.palindromes": self.palindromes.get(g, 0),
            })
        return out


def check_ball_csv(g: str, text: str, dist: dict) -> None:
    """Every row's element, minimal length and witness agree with the
    oracle's breadth-first search, and the rows cover the ball once."""
    arith = oracle_group(g)
    rows = csv.reader(io.StringIO(text))
    require(next(rows) == ["normal_form", "min_length", "witness"], f"{g} CSV header")
    seen = set()
    count = 0
    for normal_form, min_length, witness in rows:
        tokens = o.raw_tokens(witness)
        key = arith.evaluate(tokens)
        require(
            dist.get(key) == int(min_length) == o.letter_count(tokens),
            f"{g} CSV row {witness!r}: min_length {min_length}, oracle {dist.get(key)}",
        )
        require(arith.from_literal(json.loads(normal_form)) == key, f"{g} CSV row {witness!r}: element")
        seen.add(key)
        count += 1
    require(
        count == len(seen) == len(dist),
        f"{g} CSV has {count} rows for {len(seen)} of the {len(dist)} elements",
    )


WORKLOADS = {"certify": Certify, "long-words": LongWords, "search": Search}
