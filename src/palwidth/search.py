"""Group-agnostic brute force: palindrome enumeration, Cayley-ball
tabulation, and bounded palindromic-length search.

Everything is parameterized by an `Evaluator`, the one record that
defines a group: a label, an alphabet, an exact evaluation map from
reduced words to canonical, hashable encodings (equal encodings iff equal
group elements, `str` giving the element literal), `mul`/`inv` on
encodings, and the JSON codec and certificate routine the command line
uses.

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
from typing import Any, Callable, Iterator, NamedTuple

from .palindromes import PalindromicDecomposition, SelfCheckError
from .words import EMPTY, Alphabet, Letter, Word, follow_ups, reduce


class BudgetExceeded(RuntimeError):
    """A search hit its state cap, or an input is over `MAX_INPUT_SPAN`;
    `completed` is a search's last finished depth (product depth or BFS
    radius), None for an input."""

    def __init__(self, message: str, completed: int | None = None) -> None:
        if completed is not None:
            message = f"{message} (completed depth {completed})"
        super().__init__(message)
        self.completed = completed


# The largest lamp span plus |shift| of a Z wr Z element, and the largest
# total |t|-exponent of a BS(1, n) word or normal form, that the certificate
# and witness routines accept. Their work grows with these numbers (a loop
# over the lamps, a power n^k), not with the length of the input text.
MAX_INPUT_SPAN = 100_000


def check_input_span(span: int, what: str) -> None:
    """Raise BudgetExceeded when `span` is over MAX_INPUT_SPAN."""
    if span > MAX_INPUT_SPAN:
        raise BudgetExceeded(f"{what} is {span}, over the input cap of {MAX_INPUT_SPAN}")


# The most decimal digits a certificate's BS(1, n) a-exponent may have.
# Under the span cap that exponent has about MAX_INPUT_SPAN * log10|n|
# digits, so this bound admits |n| < 10 at the cap. `check_digits` refuses
# longer exponents, since printing takes time quadratic in the digits, and
# the command line raises the interpreter's integer-string limit (4,300
# digits by default) to this bound.
MAX_DIGITS = MAX_INPUT_SPAN


# The default state cap of the command-line searches. A Z wr Z product
# level holds about 0.55 MB per 1,000 states, so a search that trips this
# cap stays inside a 1 GiB address space.
DEFAULT_BUDGET = 1_500_000


def check_budget(max_states: int | None) -> None:
    """Raise ValueError for a state cap below 1: no search fits under it,
    since the identity alone is one state."""
    if max_states is not None and max_states < 1:
        raise ValueError("budget must be at least 1")


def check_digits(value: int, what: str) -> None:
    """Raise BudgetExceeded when |value| has more than MAX_DIGITS decimal
    digits."""
    # 10^MAX_DIGITS > 2^(3 * MAX_DIGITS), so a shorter value needs no power
    if abs(value).bit_length() > 3 * MAX_DIGITS and abs(value) >= 10**MAX_DIGITS:
        raise BudgetExceeded(
            f"{what} has more than {MAX_DIGITS} decimal digits, over the digit cap"
        )


@dataclass(frozen=True)
class Evaluator:
    label: str
    alphabet: Alphabet
    eval: Callable[[Word], Any]
    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    decode: Callable[[Any], Any]  # JSON element literal -> encoding
    decompose: Callable[[Any], PalindromicDecomposition] | None  # None: no certificates


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


class PalSearchResult(NamedTuple):
    """Outcome of `pal_length_bounded`: k and verified witness factors, or
    unknown (k is None) within the stated bounds."""

    k: int | None
    factors: tuple[Word, ...] | None

    @property
    def found(self) -> bool:
        return self.k is not None


class _PalProductIndex:
    """Image sets of d-fold products of non-empty enumerated palindromes,
    with backpointers for witness reconstruction."""

    def __init__(self, ev: Evaluator, max_len: int, max_states: int | None) -> None:
        check_budget(max_states)
        # level 1 has at most one state per palindrome, so once their count
        # fits under the cap, so does level 1. Each length adds a palindrome,
        # so lengths past the cap need not be counted.
        if max_states is not None and (
            count_palindromes(ev.alphabet, min(max_len, max_states + 1)) > max_states
        ):
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
        self._joined = 0  # products tried by joins into level len(levels)
        self.states = len(level1)

    def _count(self, added: int, depth: int) -> None:
        self.states += added
        if self.max_states is not None and self.states > self.max_states:
            raise BudgetExceeded("palindrome product index exceeded its state cap", depth - 1)

    def ensure(self, depth: int) -> None:
        """Build the levels up to `depth`. The cap is checked as each new
        state goes in, so a level that will not fit is abandoned as soon as
        it outgrows the room left, with the same trip as a finished one."""
        while len(self.levels) <= depth:
            mul = self.ev.mul
            base = self.levels[1].items()
            d = len(self.levels)
            room = math.inf if self.max_states is None else self.max_states - self.states
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
        if k == len(self.levels):
            self._joined += tried
            build = len(self.levels[k - 1]) * len(self.levels[1])
            if self._joined >= build and (
                self.max_states is None or self.states + build <= self.max_states
            ):
                self.ensure(k)
        return found


def _check_bounds(max_factors: int, max_len: int) -> None:
    if max_factors < 1:
        raise ValueError("max_factors must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")


def pal_length_bounded(
    ev: Evaluator,
    target: Any,
    max_factors: int,
    max_len: int,
    max_states: int | None = None,
) -> PalSearchResult:
    """Smallest k <= max_factors expressing `target` as a product of k
    enumerated palindromes of length <= max_len, with a verified witness;
    unknown otherwise. Absence is not a proof."""
    _check_bounds(max_factors, max_len)
    if target == ev.eval(EMPTY):
        return PalSearchResult(0, ())
    index = _PalProductIndex(ev, max_len, max_states)
    for k in range(1, max_factors + 1):
        split = index.split(target, k)
        if split is not None:
            factors = index.factors(k, split)
            product = Word()
            for w in factors:
                product = product * w
            if ev.eval(product) != target:
                raise SelfCheckError("search witness failed re-verification")
            return PalSearchResult(k, factors)
    return PalSearchResult(None, None)


def ball_table(
    ev: Evaluator, radius: int, max_states: int | None = None
) -> dict[Any, tuple[int, Word]]:
    """Exact minimal word lengths within a radius, with shortlex-first
    witness words: a dict from canonical encoding to (length, witness).

    A breadth-first closure of generator multiplication from the identity.
    Each depth extends the previous frontier, in shortlex order, by every
    letter in letter order, so an element is first reached by its
    shortlex-first word of minimal length, and the entries come out in
    (length, shortlex witness) order."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    check_budget(max_states)
    identity = ev.eval(EMPTY)
    entries: dict[Any, tuple[int, Word]] = {identity: (0, EMPTY)}
    frontier: list[Any] = [identity]
    steps = [(c, ev.eval(Word((c,)))) for c in ev.alphabet.letters()]
    mul = ev.mul
    for depth in range(1, radius + 1):
        new: list[Any] = []
        for enc_w in frontier:
            syls = entries[enc_w][1].syllables
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
                        nw = Word._trusted(syls[:-1] + ((gen, last_exp + sign),))
                    else:
                        nw = Word._trusted(syls + (c,))
                    entries[enc] = (depth, nw)
                    new.append(enc)
                    if max_states is not None and len(entries) > max_states:
                        raise BudgetExceeded("ball table exceeded its state cap", depth - 1)
        frontier = new
    return entries


def write_ball_csv(table: dict[Any, tuple[int, Word]], ev: Evaluator, out) -> None:
    """CSV with columns normal_form, min_length, witness, in deterministic
    (length, shortlex witness) order, which is the order `ball_table`
    inserts its entries in; `ev` is not needed for that."""
    import csv  # only this writer needs it, so other calls skip its import

    writer = csv.writer(out)
    writer.writerow(["normal_form", "min_length", "witness"])
    for enc, (length, witness) in table.items():
        writer.writerow([str(enc), length, str(witness)])


def pal_length_histogram(
    ev: Evaluator,
    radius: int,
    max_factors: int,
    max_len: int,
    max_states: int | None = None,
) -> dict[str, int]:
    """Bounded palindromic-length histogram over the ball of the given
    radius; elements not expressible within the bounds count as unknown."""
    _check_bounds(max_factors, max_len)  # a usage error before any ball is built
    return pal_length_histogram_of(
        ev, ball_table(ev, radius, max_states), max_factors, max_len, max_states
    )


def pal_length_histogram_of(
    ev: Evaluator,
    table: dict[Any, tuple[int, Word]],
    max_factors: int,
    max_len: int,
    max_states: int | None = None,
) -> dict[str, int]:
    """`pal_length_histogram` over the elements of a built ball table."""
    _check_bounds(max_factors, max_len)
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
