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
The length search builds levels of d-fold palindrome products lazily;
the histogram tests membership in a level once it is built and only
otherwise runs a meet-in-the-middle hash join, against each level's
inverses computed once.

All tie-breaking is shortlex in the fixed letter order a < a^-1 < b < ...,
so identical inputs produce identical outputs, witnesses included.
The identity has palindromic length 0 by convention and reported factors
are always non-empty.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .palindromes import PalindromicDecomposition
from .words import EMPTY, Alphabet, Word, reduce


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
    letters = alphabet.letters()

    def extend(prefix: list) -> Iterator[Word]:
        if len(prefix) == length:
            yield reduce(prefix)
            return
        last = prefix[-1] if prefix else None
        for c in letters:
            if last is not None and c[0] == last[0] and c[1] == -last[1]:
                continue
            prefix.append(c)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


def enumerate_palindromes(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All reduced palindromic words of length <= max_len, each exactly
    once, in shortlex order.

    A reduced palindrome of even length is half + reversed half for an
    arbitrary reduced half (the junction doubles a letter, which never
    cancels); odd length additionally takes a center letter that must not
    cancel against the half's last letter.
    """
    centers = [Word((c,)) for c in alphabet.letters()]
    for n in range(max_len + 1):
        half = n // 2
        if n % 2 == 0:
            for u in enumerate_reduced_words(alphabet, half):
                yield u * u.reverse()
        elif n == 1:
            yield from centers
        else:
            for u in enumerate_reduced_words(alphabet, half):
                last_gen, last_exp = u.syllables[-1]
                for c in centers:
                    gen, sign = c.syllables[0]
                    if gen == last_gen and (sign > 0) != (last_exp > 0):
                        continue
                    yield u * c * u.reverse()


@dataclass(frozen=True)
class PalSearchResult:
    """Outcome of `pal_length_bounded`: k and verified witness factors, or
    unknown (k is None) within the stated bounds."""

    k: int | None
    factors: tuple[Word, ...] | None
    max_factors: int
    max_len: int

    @property
    def found(self) -> bool:
        return self.k is not None


class _PalProductIndex:
    """Image sets of d-fold products of non-empty enumerated palindromes,
    with backpointers for witness reconstruction."""

    def __init__(self, ev: Evaluator, max_len: int, max_states: int | None) -> None:
        self.ev = ev
        self.max_states = max_states
        self.states = 0
        base: dict[Any, Word] = {}
        for w in enumerate_palindromes(ev.alphabet, max_len):
            if w:
                base.setdefault(ev.eval(w), w)
        # levels[d] maps encoding -> (last palindrome, previous encoding)
        self.base = base
        self.levels: list[dict[Any, tuple[Word, Any]]] = [
            {},
            {enc: (w, None) for enc, w in base.items()},
        ]
        self._inverses: dict[int, list[tuple[Any, Any]]] = {}
        self._count(len(base), 1)

    def _count(self, added: int, depth: int) -> None:
        self.states += added
        if self.max_states is not None and self.states > self.max_states:
            raise BudgetExceeded("palindrome product index exceeded its state cap", depth - 1)

    def ensure(self, depth: int) -> None:
        while len(self.levels) <= depth:
            d = len(self.levels)
            prev = self.levels[d - 1]
            level: dict[Any, tuple[Word, Any]] = {}
            for enc_prev in prev:
                for enc1 in self.base:
                    level.setdefault(self.ev.mul(enc_prev, enc1), (self.base[enc1], enc_prev))
            self.levels.append(level)
            self._count(len(level), d)

    def factors(self, depth: int, enc: Any) -> tuple[Word, ...]:
        out: list[Word] = []
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

    def find(self, target: Any, k: int) -> tuple[Word, ...] | None:
        """First split of `target` into a product of exactly k palindromes."""
        left = (k + 1) // 2
        right = k - left
        self.ensure(left)
        if right == 0:
            if target in self.levels[left]:
                return self.factors(left, target)
            return None
        lhs, rhs = self.levels[left], self.levels[right]
        mul = self.ev.mul
        if len(rhs) <= len(lhs):
            for enc_r, inv_r in self.inverses(right):
                need = mul(target, inv_r)
                if need in lhs:
                    return self.factors(left, need) + self.factors(right, enc_r)
        else:
            for enc_l, inv_l in self.inverses(left):
                need = mul(inv_l, target)
                if need in rhs:
                    return self.factors(left, enc_l) + self.factors(right, need)
        return None

    def reaches(self, target: Any, k: int) -> bool:
        """Whether `target` is a product of exactly k palindromes. Builds the
        same levels as `find`; a level built already answers by membership."""
        self.ensure((k + 1) // 2)
        if k < len(self.levels):
            return target in self.levels[k]
        return self.find(target, k) is not None


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
        return PalSearchResult(0, (), max_factors, max_len)
    index = _PalProductIndex(ev, max_len, max_states)
    for k in range(1, max_factors + 1):
        factors = index.find(target, k)
        if factors is not None:
            product = Word()
            for w in factors:
                product = product * w
            if ev.eval(product) != target:
                raise AssertionError("search witness failed re-verification")
            return PalSearchResult(k, factors, max_factors, max_len)
    return PalSearchResult(None, None, max_factors, max_len)


@dataclass
class BallTable:
    """Exact minimal word lengths within a radius, with shortlex-first
    witness words keyed by canonical encoding."""

    radius: int
    entries: dict[Any, tuple[int, Word]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def ball_table(ev: Evaluator, radius: int, max_states: int | None = None) -> BallTable:
    """Breadth-first closure of generator multiplication from the identity.

    Each depth extends the previous frontier, in shortlex order, by every
    letter in letter order, so an element is first reached by its
    shortlex-first word of minimal length, and the entries come out in
    (length, shortlex witness) order."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
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
                    if gen == last_gen:  # the letter lengthens the last syllable
                        nw = Word(syls[:-1] + ((gen, last_exp + sign),))
                    else:
                        nw = Word(syls + (c,))
                    entries[enc] = (depth, nw)
                    new.append(enc)
                    if max_states is not None and len(entries) > max_states:
                        raise BudgetExceeded("ball table exceeded its state cap", depth - 1)
        frontier = new
    return BallTable(radius, entries)


def write_ball_csv(table: BallTable, ev: Evaluator, out) -> None:
    """CSV with columns normal_form, min_length, witness, in deterministic
    (length, shortlex witness) order, which is the order `ball_table`
    inserts its entries in; `ev` is not needed for that."""
    writer = csv.writer(out)
    writer.writerow(["normal_form", "min_length", "witness"])
    for enc, (length, witness) in table.entries.items():
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
    table: BallTable,
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
    for enc in table.entries:
        if enc == identity:
            hist["0"] += 1
            continue
        for k in range(1, max_factors + 1):
            if index.reaches(enc, k):
                hist[str(k)] += 1
                break
        else:
            hist["unknown"] += 1
    return hist
