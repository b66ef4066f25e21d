"""Group-agnostic brute force: palindrome enumeration, Cayley-ball
tabulation, and bounded palindromic-length search.

Everything is parameterized by an `Evaluator`, the one record that
defines a group: an alphabet, an exact evaluation map from reduced words
to encodings, `mul`/`inv` on encodings, `show` for their text, and the
JSON decoder and certificate routine the command line uses. An encoding
is a plain tuple of ints, canonical (equal encodings iff equal group
elements), so the engine hashes and compares it as a tuple. Each group's
element class is a tuple subclass in the same layout, so the record's
boundary copies a tuple and converts nothing.

`mul` drives both searches. The ball BFS multiplies each frontier
element by the generator images instead of re-evaluating whole words.
The length search builds levels of d-fold palindrome products lazily.
One query serves the bounded search and the histogram: it tests
membership in level k once that is built, and otherwise runs a
meet-in-the-middle hash join against the right level's inverses,
computed once. It builds a level early once the joins into it have tried
as many products as the build takes, when that fits under the state cap.

All tie-breaking is shortlex in the fixed letter order a < a^-1 < b < ...,
so identical inputs produce identical outputs, witnesses included.
The identity has palindromic length 0 by convention and reported factors
are always non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .palindromes import PalindromicDecomposition, check_group_certificate
from .words import _TOKENS, EMPTY, Alphabet, Letter, Syllable, Word, follow_ups, reduce


class BudgetExceeded(RuntimeError):
    """Work over a cap: a search hit its state cap or `MAX_JOINS`, an
    input is over `MAX_INPUT_SPAN`, a number is over `MAX_DIGITS`, a state
    cap is over `DEFAULT_BUDGET`, or a `verify --cases` is over
    `suites.MAX_CASES`. `completed` is a search's last finished depth
    (product depth or BFS radius), None for the others."""

    def __init__(self, message: str, completed: int | None = None) -> None:
        if completed is not None:
            message = f"{message} (completed depth {completed})"
        super().__init__(message)
        self.completed = completed


# The largest lamp hull hi - lo of a Z wr Z element (lamps from lo to hi;
# index 0 and the shift do not count), and the largest total |t|-exponent
# of a BS(1, n) word or normal form, that the certificate and witness
# routines accept. Their work grows with these numbers (a loop over the
# lamps, a power n^k), not with the length of the input text. A lamp index
# or shift far from 0 costs its digits a few times, not once per lamp of
# the hull; only the commutator witness, which lists up to hi - lo indices
# as wide as the lamps, counts the hull once per 64 bits of its index.
MAX_INPUT_SPAN = 100_000


def check_input_span(span: int, what: str) -> None:
    """Raise BudgetExceeded when `span` is over MAX_INPUT_SPAN."""
    if span > MAX_INPUT_SPAN:
        raise BudgetExceeded(f"{what} is {span}, over the input cap of {MAX_INPUT_SPAN}")


# The most decimal digits a number that a certificate prints may have.
# Under the span cap a BS(1, n) a-exponent has about MAX_INPUT_SPAN *
# log10|n| digits, so this bound admits |n| < 10 at the cap. `check_digits`
# refuses longer numbers where they grow (that exponent, the z of an N_{2,2}
# word and its lift's x + z, the lamp sums and the last shift of a Z wr Z
# certificate), since printing takes time quadratic in the digits. The
# command line raises the interpreter's integer-string limit (4,300 digits
# by default) to this bound and refuses any other longer number as it is
# printed.
MAX_DIGITS = MAX_INPUT_SPAN


# The default state cap of every search, and the largest one a search
# accepts. A Z wr Z product level holds about 0.28 MB per 1,000 states
# (flat tuple keys; CI's capped explore call trips the cap at a 434 MB
# peak), so a search that trips this cap stays inside a 1 GiB address
# space.
DEFAULT_BUDGET = 1_500_000


# The most products the joins of one product index try in all: each undecided
# target tries a whole level. Twice the state cap, which one target never
# reaches; a histogram trips it after 3-5 s for bs:2 and Z wr Z at --max-len
# 14, and 12.3 s for a 100-digit n (4 us a product; Python 3.11.7, one core).
MAX_JOINS = 2 * DEFAULT_BUDGET


def check_budget(max_states: int) -> None:
    """Raise ValueError for a state cap below 1, since the identity alone is
    one state, and BudgetExceeded for one above DEFAULT_BUDGET, since a
    search may fill it before it trips. The upper bound is the command
    line's 1 GiB contract, and it holds for a library caller too."""
    if max_states < 1:
        raise ValueError("budget must be at least 1")
    if max_states > DEFAULT_BUDGET:
        raise BudgetExceeded(f"budget is {max_states}, over the cap of {DEFAULT_BUDGET}")


def check_digits(value: int, what: str) -> None:
    """Raise BudgetExceeded when |value| has more than MAX_DIGITS decimal
    digits."""
    # 10^MAX_DIGITS > 2^(3 * MAX_DIGITS), so a shorter value needs no power
    if abs(value).bit_length() > 3 * MAX_DIGITS and abs(value) >= 10**MAX_DIGITS:
        raise BudgetExceeded(
            f"{what} has more than {MAX_DIGITS} decimal digits, over the digit cap"
        )


# encoding -> (minimal word length, syllables of the shortlex-first witness)
Ball = dict[tuple, tuple[int, tuple[Syllable, ...]]]


@dataclass(frozen=True)
class Evaluator:
    """The record of one group, on its encodings: plain tuples of ints,
    equal exactly when the elements are. `show` gives an encoding's JSON
    element literal, byte for byte the `str` of the element class, and
    `decode` reads such a literal's JSON document."""

    alphabet: Alphabet
    eval: Callable[[Word], tuple]
    mul: Callable[[tuple, tuple], tuple]
    inv: Callable[[tuple], tuple]
    show: Callable[[tuple], str]
    decode: Callable[[Any], tuple]
    decompose: Callable[[tuple], PalindromicDecomposition]


def enumerate_reduced_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """Freely reduced words of exactly `length`, in lexicographic order."""
    follow = follow_ups(alphabet)

    def extend(prefix: list, choices: tuple[Letter, ...]) -> Iterator[Word]:
        if len(prefix) == length:
            yield reduce(prefix)
            return
        for c in choices:
            prefix.append(c)
            yield from extend(prefix, follow[c])
            prefix.pop()

    yield from extend([], alphabet.letters())


def enumerate_palindromes(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All reduced palindromic words of length <= max_len, each exactly
    once, in shortlex order.

    The first ⌈n/2⌉ letters of a reduced palindrome of length n form an
    arbitrary reduced word, and mirroring them gives the rest: the junction
    repeats a letter, which never cancels. So the palindromes of length n
    are the reduced words of length ⌈n/2⌉, mirrored, in the same order.
    """
    for n in range(max_len + 1):
        for half in enumerate_reduced_words(alphabet, (n + 1) // 2):
            letters = half.letters
            yield reduce(letters + letters[: n // 2][::-1])


def count_palindromes(alphabet: Alphabet, max_len: int) -> int:
    """The number of non-empty words `enumerate_palindromes` yields, without
    enumerating them: 2r·(2r − 1)^(⌈n/2⌉ − 1) of each length n ≥ 1 for r
    generators, summed in closed form over the pairs of lengths 2m − 1, 2m."""
    first = len(alphabet.letters())
    pairs, odd = divmod(max_len, 2)
    later = first - 1
    # 1 + later + ... + later^(pairs - 1)
    series = pairs if later == 1 else (later**pairs - 1) // (later - 1)
    return first * (2 * series + odd * later**pairs)


class _PalProductIndex:
    """Image sets of d-fold products of non-empty enumerated palindromes,
    with backpointers for witness reconstruction."""

    def __init__(self, ev: Evaluator, max_len: int, max_states: int = DEFAULT_BUDGET) -> None:
        check_budget(max_states)
        # level 1 has at most one state per palindrome, so once their count
        # fits under the cap, so does level 1. Each length adds a palindrome,
        # so lengths past the cap need not be counted.
        if count_palindromes(ev.alphabet, min(max_len, max_states + 1)) > max_states:
            raise BudgetExceeded("palindrome product index exceeded its state cap", 0)
        self.ev = ev
        self.max_states = max_states
        # levels[d] maps encoding -> (last palindrome, previous encoding)
        level1: dict[Any, tuple[Word, Any]] = {}
        for w in enumerate_palindromes(ev.alphabet, max_len):
            if w:
                level1.setdefault(ev.eval(w), (w, None))
        self.levels: list[dict[Any, tuple[Word, Any]]] = [{}, level1]
        self._inverses: dict[int, list[tuple[Any, Any]]] = {}
        self.joins = 0  # products tried by all joins
        self._joined = 0  # products tried by joins into level len(levels)
        self.states = len(level1)

    def _count(self, added: int, depth: int) -> None:
        self.states += added
        if self.states > self.max_states:
            raise BudgetExceeded("palindrome product index exceeded its state cap", depth - 1)

    def ensure(self, depth: int) -> None:
        """Build the levels up to `depth`. The cap is checked as each new
        state goes in, so a level that will not fit is abandoned as soon as
        it outgrows the room left, with the same trip as a finished one."""
        while len(self.levels) <= depth:
            mul = self.ev.mul
            base = self.levels[1].items()
            d = len(self.levels)
            room = self.max_states - self.states
            level: dict[Any, tuple[Word, Any]] = {}
            for enc_prev in self.levels[d - 1]:
                for enc1, (w, _) in base:
                    enc = mul(enc_prev, enc1)
                    if enc not in level:
                        level[enc] = (w, enc_prev)
                        if len(level) > room:  # trips the cap now
                            self._count(len(level), d)
            self.levels.append(level)
            self._joined = 0
            self._count(len(level), d)

    def factors(self, k: int, split: tuple[Any, Any]) -> tuple[Word, ...]:
        """The k palindromes of the product that `split(target, k)` found."""
        enc_l, enc_r = split
        right = 0 if enc_r is None else k // 2
        out: list[Word] = []
        for depth, enc in ((right, enc_r), (k - right, enc_l)):
            for d in range(depth, 0, -1):
                w, enc = self.levels[d][enc]
                out.append(w)
        return tuple(reversed(out))

    def inverses(self, depth: int) -> list[tuple[Any, Any]]:
        """(encoding, inverse) pairs of a built level in its order, computed once."""
        pairs = self._inverses.get(depth)
        if pairs is None:
            inv = self.ev.inv
            pairs = self._inverses[depth] = [(enc, inv(enc)) for enc in self.levels[depth]]
        return pairs

    def split(self, target: Any, k: int) -> tuple[Any, Any] | None:
        """The first split of `target` into a product of exactly k
        palindromes, for `factors`, or None. A built level k answers by
        membership, as (target, None). Otherwise level ⌈k/2⌉ is built and
        a hash join over the inverses of level ⌊k/2⌋, never the larger
        one, gives (level ⌈k/2⌉ encoding, level ⌊k/2⌋ encoding).

        Level k itself is built early, when level k - 1 is built and the
        joins into level k have tried as many products as building it takes,
        |L_(k-1)| * |L_1|, but only when that many new states still fit
        under the cap: such a build never raises, so the cap trips on the
        same inputs, at the same depth, as without it. One target tries at
        most |L_⌊k/2⌋| < |L_(k-1)| * |L_1| products, so a single query
        (`pal_length_bounded`) never builds a level early."""
        left = (k + 1) // 2
        self.ensure(left)
        if k < len(self.levels):
            return (target, None) if target in self.levels[k] else None
        lhs, mul = self.levels[left], self.ev.mul
        pairs = self.inverses(k - left)
        tried, found = len(pairs), None
        for i, (enc_r, inv_r) in enumerate(pairs, 1):
            need = mul(target, inv_r)
            if need in lhs:
                tried, found = i, (need, enc_r)
                break
        self.joins += tried
        if self.joins > MAX_JOINS:
            raise BudgetExceeded("palindrome product joins exceeded their cap", k - 1)
        if k == len(self.levels):
            self._joined += tried
            build = len(self.levels[k - 1]) * len(self.levels[1])
            if self._joined >= build and self.states + build <= self.max_states:
                self.ensure(k)
        return found


def check_bounds(max_factors: int, max_len: int) -> None:
    if max_factors < 1:
        raise ValueError("max_factors must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    # the histogram holds a count for each k up to max_factors
    check_input_span(max_factors, "max_factors")


def pal_length_bounded(
    ev: Evaluator,
    target: Any,
    max_factors: int,
    max_len: int,
    max_states: int = DEFAULT_BUDGET,
) -> tuple[Word, ...] | None:
    """The verified factors of the least k <= max_factors expressing
    `target` as a product of k enumerated palindromes of length <= max_len
    (`()` for the identity), or None for unknown. Absence is not a proof."""
    check_bounds(max_factors, max_len)
    if target == ev.eval(EMPTY):
        return ()
    index = _PalProductIndex(ev, max_len, max_states)
    for k in range(1, max_factors + 1):
        split = index.split(target, k)
        if split is not None:
            factors = index.factors(k, split)
            dec = PalindromicDecomposition(math.prod(factors, start=EMPTY), factors, ev.alphabet)
            check_group_certificate(dec, ev.eval, target, k)
            return factors
    return None


def ball_table(
    ev: Evaluator, radius: int, max_states: int = DEFAULT_BUDGET
) -> Ball:
    """Exact minimal word lengths within a radius, with shortlex-first
    witness words: a dict from encoding to (length, witness syllables).

    A breadth-first closure of generator multiplication from the identity.
    Each depth extends the previous frontier, in shortlex order, by every
    letter in letter order, so an element is first reached by its
    shortlex-first word of minimal length, and the entries come out in
    (length, shortlex witness) order."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    check_budget(max_states)
    identity = ev.eval(EMPTY)
    entries: Ball = {identity: (0, ())}
    frontier: list[tuple] = [(identity, ())]  # (encoding, witness syllables)
    steps = [(c, ev.eval(Word((c,)))) for c in ev.alphabet.letters()]
    mul = ev.mul
    for depth in range(1, radius + 1):
        new: list[tuple] = []
        for enc_w, syls in frontier:
            last_gen, last_exp = syls[-1] if syls else (None, 0)
            for c, enc_c in steps:
                gen, sign = c
                if gen == last_gen and (last_exp > 0) != (sign > 0):
                    continue  # a cancelling letter revisits a shorter element
                enc = mul(enc_w, enc_c)
                if enc not in entries:
                    # reduced by construction: the letter lengthens the last
                    # syllable with its own sign or starts a new generator
                    if gen == last_gen:
                        nw = syls[:-1] + ((gen, last_exp + sign),)
                    else:
                        nw = syls + (c,)
                    entries[enc] = (depth, nw)
                    new.append((enc, nw))
                    if len(entries) > max_states:
                        raise BudgetExceeded("ball table exceeded its state cap", depth - 1)
        frontier = new
    return entries


def write_ball_csv(table: Ball, ev: Evaluator, out) -> None:
    """CSV with columns normal_form, min_length, witness, in deterministic
    (length, shortlex witness) order, which is the order `ball_table`
    inserts its entries in: the bytes `csv.writer` writes, with its CRLF
    line ends and its quoting. That quotes every element literal, since
    each holds a comma, and doubles its double quotes; a witness is
    generator letters, exponents and spaces, which need no quotes. Each row
    is its own write, as `csv.writer` makes it: a write larger than the
    stream's buffer goes to the OS at once, and on a pipe closed part way
    Python reports the part written as the whole, so the failed write
    would go unseen."""
    show, token = ev.show, _TOKENS.__getitem__
    write = out.write
    write("normal_form,min_length,witness\r\n")
    for enc, (length, syls) in table.items():
        literal = show(enc).replace('"', '""')
        write(f'"{literal}",{length},{" ".join(map(token, syls))}\r\n')


def pal_length_histogram(
    ev: Evaluator,
    radius: int,
    max_factors: int,
    max_len: int,
    max_states: int = DEFAULT_BUDGET,
) -> dict[str, int]:
    """Bounded palindromic-length histogram over the ball of the given
    radius; elements not expressible within the bounds count as unknown."""
    check_bounds(max_factors, max_len)  # a usage error before any ball is built
    return pal_length_histogram_of(
        ev, ball_table(ev, radius, max_states), max_factors, max_len, max_states
    )


def pal_length_histogram_of(
    ev: Evaluator,
    table: Ball,
    max_factors: int,
    max_len: int,
    max_states: int = DEFAULT_BUDGET,
) -> dict[str, int]:
    """`pal_length_histogram` over the elements of a built ball table."""
    check_bounds(max_factors, max_len)
    index = _PalProductIndex(ev, max_len, max_states)
    identity = ev.eval(EMPTY)
    hist: dict[str, int] = {str(k): 0 for k in range(max_factors + 1)}
    hist["unknown"] = 0
    for enc in table:
        if enc == identity:
            hist["0"] += 1
            continue
        for k in range(1, max_factors + 1):
            if index.split(enc, k) is not None:
                hist[str(k)] += 1
                break
        else:
            hist["unknown"] += 1
    return hist
