"""Exact arithmetic in the wreath product Z wr Z and its width procedures.

Conventions, from which everything else is derived:

  * a_i denotes b^-i a b^i, so a_0 = a and conjugating by b^k moves the
    lamp at index i to index i + k;
  * an element is tail * b^shift with tail a finitely supported map from
    lamp indices to integer exponents. `WreathElement` is the flat tuple
    (shift, i1, e1, i2, e2, ...) of its lamps in strictly ascending index
    order with no zero exponent, which is also the group record's encoding.
    The form is unique, so tuple equality and hash decide group equality.
    `mul`, `inv` and `show` act on it and are its `*`, `inverse` and `str`
    (the JSON element literal), so each rule is written once.

`evaluate` sends a to the unit lamp at index 0 and b to a bare shift; its
homomorphism property is the binding contract that pins every sign choice,
and the randomized suites test exactly that contract.

The three constructive procedures:

  * `commutator_witness` solves [f, b] = c by prefix sums whenever the
    element has shift 0 and exponent sum 0 (every derived-subgroup element
    is a single commutator); f is an {index: exponent} lamp dict in
    ascending index order;
  * `three_palindrome_decomposition` certifies that every element is a
    product of at most three palindromic words. It commutes with b^m, m
    the gcd of the gaps between the lamps: b^-m a^k F b^m = a_m^k F^(b^m)
    for a lamp element F, so g = [f, b^m] a_m^k b^l, k the exponent sum
    and l the shift, where f(i - m) - f(i) is the lamp at i of the derived
    part g b^-l a_m^-k. Those lamps lie in one class mod m and sum to 0,
    so f is finite, and each factor has at most 4 (hi - lo) / m + 5
    syllables for lamps from lo to hi, wherever they sit. The middle
    factor carries the abelianized a-block at lamp index m: placing it at
    index 0 fails re-verification whenever the block is nontrivial,
    because the block sits to the right of b^-m in the factored word;
  * `palindrome_witness` decides whether an element is the image of a
    palindromic word: since reversal mirrors the support (a_i maps to
    a_-i), the images are the elements whose tail is symmetric under
    i -> -shift - i, and each comes with a re-verified palindrome.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .palindromes import PalindromicDecomposition, SelfCheckError, check_group_certificate
from . import search
from .search import BudgetExceeded, Evaluator, check_digits, check_input_span
from .words import AB, Word, _TokenTable, run_word


class NotInDerivedError(ValueError):
    """The element lies outside the derived subgroup."""


Tail = tuple[tuple[int, int], ...]
Flat = tuple[int, ...]  # (shift, i1, e1, i2, e2, ...), the indices ascending

_tuple_new = tuple.__new__

# the text str(i) prints for an int i, in ASCII digits
_CANONICAL_INDEX = re.compile(r"0|-?[1-9][0-9]*", re.ASCII)


class WreathElement(tuple):
    """tail * b^shift as the flat tuple (shift, i1, e1, i2, e2, ...) of the
    module docstring; `of` builds it from arbitrary pairs."""

    __slots__ = ()

    def __new__(cls, tail: Iterable[tuple[int, int]] = (), shift: int = 0) -> "WreathElement":
        return _tuple_new(cls, (shift, *chain.from_iterable(tail)))

    def __getnewargs__(self) -> tuple[Tail, int]:  # pickle and copy call __new__ with these
        return self.tail, self[0]

    shift = property(itemgetter(0), doc="The exponent of b^shift.")

    @property
    def tail(self) -> Tail:
        return tuple(zip(self[1::2], self[2::2]))

    @classmethod
    def of(cls, lamps: Iterable[tuple[int, int]], shift: int = 0) -> "WreathElement":
        """The element with these (index, exponent) pairs, in any order and
        with repeats, followed by b^shift: exponents at a repeated index add
        up and zero sums drop."""
        tail: dict[int, int] = {}
        for i, e in lamps:
            v = tail.get(i, 0) + e
            if v:
                tail[i] = v
            else:
                tail.pop(i, None)
        return cls(sorted(tail.items()), shift)

    @classmethod
    def identity(cls) -> "WreathElement":
        return cls()

    @classmethod
    def from_flat(cls, enc: Flat) -> "WreathElement":
        """The element of a flat encoding."""
        return _tuple_new(cls, enc)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return _tuple_new(WreathElement, mul(self, other))

    def inverse(self) -> "WreathElement":
        return _tuple_new(WreathElement, inv(self))

    def in_derived_subgroup(self) -> bool:
        return self[0] == 0 and sum(self[2::2]) == 0

    def to_json(self) -> dict:
        return {"support": {str(i): e for i, e in zip(self[1::2], self[2::2])}, "shift": self[0]}

    @classmethod
    def from_json(cls, doc: object) -> "WreathElement":
        if not isinstance(doc, dict) or set(doc) != {"support", "shift"}:
            raise ValueError('expected {"support": {...}, "shift": int}')
        support = doc["support"]
        shift = doc["shift"]
        if not isinstance(shift, int) or isinstance(shift, bool):
            raise ValueError("shift must be an integer")
        if not isinstance(support, dict):
            raise ValueError("support must be an object with decimal index keys")
        pairs = []
        for key, val in support.items():
            # one spelling per index, so no two keys name the same lamp; read
            # as text, since a far key costs its digits squared to convert
            if _CANONICAL_INDEX.fullmatch(key) is None:
                raise ValueError(f"support key {key!r} is not a canonical decimal index")
            if not isinstance(val, int) or isinstance(val, bool) or val == 0:
                raise ValueError(f"support entry {key!r} must be a nonzero integer")
            pairs.append((int(key), val))
        return cls.of(pairs, shift)

    def __str__(self) -> str:
        return show(self)


def mul(g: Flat, h: Flat) -> Flat:
    """The product of two flat encodings: (F, s)(G, t) = (F + G moved by -s,
    s + t), in one merge of the two ascending lamp lists, where exponents
    at a shared index add up and a zero sum drops."""
    s = g[0]
    n, m = len(g), len(h)
    if m == 1:  # a pure shift moves no lamp
        return (s + h[0],) + g[1:]
    out = [s + h[0]]
    i = j = 1
    while i < n and j < m:
        a, b = g[i], h[j] - s
        if a < b:
            out += g[i : i + 2]
            i += 2
        elif b < a:
            out += (b, h[j + 1])
            j += 2
        else:
            e = g[i + 1] + h[j + 1]
            if e:
                out += (a, e)
            i += 2
            j += 2
    out += g[i:]
    for k in range(j, m, 2):
        out += (h[k] - s, h[k + 1])
    return tuple(out)


def inv(g: Flat) -> Flat:
    """The inverse of a flat encoding: (F, s)^-1 = (-F moved by s, -s)."""
    s = g[0]
    out = [-s]
    for k in range(1, len(g), 2):
        out += (g[k] + s, -g[k + 1])
    return tuple(out)


# the text '"i": e' of each lamp, for `show`
_LAMPS = _TokenTable(lambda i, e: f'"{i}": {e}')


def show(g: Flat) -> str:
    """The JSON element literal of a flat encoding, byte for byte what
    `json.dumps(WreathElement.from_flat(g).to_json(), sort_keys=True)`
    prints. The support keys sort as strings, so "-1" < "-10" < "-2" < "0"
    < "10" < "2": sorting the entries '"i": e' gives that order, because
    the closing quote sorts before every digit and the keys are distinct."""
    lamps = ", ".join(sorted(map(_LAMPS.__getitem__, zip(g[1::2], g[2::2]))))
    return f'{{"shift": {g[0]}, "support": {{{lamps}}}}}'


def evaluate(w: Word) -> WreathElement:
    """Image of a word over {a, b} under a -> unit lamp at 0, b -> shift 1."""
    # accumulates in place rather than collecting pairs for `of`: a
    # second pass over every a-syllable doubled the cost on long words.
    # Lamps are keyed from the end of a leading b-syllable, which is added
    # back once at the end: a word that travels far once (a certificate
    # factor b^-j P b^-j) then keys its lamps near 0, not near j. The first
    # lamp is keyed 0, so |key| is its distance from the first lamp, and a
    # key past twice the input cap (a certificate factor keys its lamps up
    # to twice its element's hull from the first) is refused before a far
    # lamp is held, even one that a later letter would cancel
    syllables = w.syllables
    base = syllables[0][1] if syllables and syllables[0][0] == "b" else 0
    cap = 2 * search.MAX_INPUT_SPAN + 2
    low = -cap  # negated once, not once per lamp
    tail: dict[int, int] = {}
    shift = -base
    for gen, exp in syllables:
        if gen == "a":
            i = -shift
            if not low <= i <= cap:
                raise BudgetExceeded(
                    f"a lamp of the word is more than {cap} from its first, "
                    f"over twice the input cap of {search.MAX_INPUT_SPAN}"
                )
            v = tail.get(i, 0) + exp
            if v:
                tail[i] = v
            else:
                del tail[i]
        elif gen == "b":
            shift += exp
        else:
            raise ValueError(f"word is not over the alphabet {{a, b}}: {gen!r}")
    lamps = sorted(tail.items())
    if base:
        lamps = [(i - base, e) for i, e in lamps]
    return WreathElement(lamps, shift + base)


def reversal_image(g: WreathElement) -> WreathElement:
    """Image of g under the reversal anti-automorphism (fixes a and b,
    reverses products): evaluate(w.reverse()) == reversal_image(evaluate(w))."""
    s = g[0]
    return WreathElement(((-s - i, e) for i, e in zip(g[-2:0:-2], g[:0:-2])), s)


def support_word(tail: Iterable[tuple[int, int]]) -> Word:
    """Canonical word for (index, exponent) pairs in strictly ascending
    index order with nonzero exponents: ascending lamp walk with blocks
    b^-i a^(n_i) b^i and the b-travel between blocks fused; one syllable
    per block and per travel."""
    syllables: list[tuple[str, int]] = []
    pos = 0
    for i, e in tail:
        syllables += [("b", pos - i), ("a", e)]
        pos = i
    syllables.append(("b", pos))
    # the walk is reduced: the indices ascend strictly and no exponent is
    # zero, so only a travel from or back to index 0 can be empty
    start = 0 if syllables[0][1] else 1
    end = len(syllables) if pos else -1
    return Word._trusted(tuple(syllables[start:end]))


def to_word(g: WreathElement) -> Word:
    return support_word(zip(g[1::2], g[2::2])) * run_word("b", g[0])


def commutator_with_b(f: dict[int, int]) -> WreathElement:
    """[f, b] = f^-1 * f^b as an element, for the lamp map f."""
    lamps = f.items()
    return WreathElement.of(chain(((i, -e) for i, e in lamps), ((i + 1, e) for i, e in lamps)))


def _check_span(g: WreathElement) -> None:
    """Raise BudgetExceeded when the lamp hull hi - lo of g, for lamps from
    lo to hi, is over the input cap. Index 0 and the shift do not count: no
    routine walks from index 0 or along the shift, since b^shift and the
    conjugator b^j of `three_palindrome_decomposition` are one syllable each
    and `evaluate` keys the lamps of b^-j P b^-j near 0."""
    check_input_span(g[-2] - g[1] if len(g) > 1 else 0, "lamp hull")


def _check_witness_width(g: WreathElement) -> None:
    """Raise BudgetExceeded when the commutator witness of g, up to hi - lo
    indices each as wide as g's farthest lamp, is over the input cap in
    64-bit words. While every index fits in one word this is `_check_span`."""
    if len(g) > 1:
        lo, hi = g[1], g[-2]
        words = -(-max(-lo, hi).bit_length() // 64)
        check_input_span((hi - lo) * words, "lamp hull times 64-bit words per index")


def commutator_witness(g: WreathElement) -> dict[int, int]:
    """The lamp map f, as {index: exponent} in ascending index order, with
    [f, b] = g exactly, for g in the derived subgroup.

    Writing g's tail entries as n_m ... n_M, the witness has
    f_i = -(n_m + ... + n_i) for m <= i <= M - 1; the final equation closes
    because the exponent sum vanishes.
    """
    if not g.in_derived_subgroup():
        raise NotInDerivedError(
            "element is not in the derived subgroup (needs shift 0 and exponent sum 0)"
        )
    _check_span(g)
    _check_witness_width(g)
    f = _solve_commutator(g)
    if commutator_with_b(f) != g:
        raise SelfCheckError("commutator witness failed re-verification")
    return f


def _solve_commutator(g: WreathElement, step: int = 1) -> dict[int, int]:
    """f with f(i - step) - f(i) = g's exponent at i, for g with exponent
    sum 0 and its lamps in one class mod `step`: [f, b^step] = g. f is
    minus the running lamp sum along that class, so it ends at g's last
    lamp. Unchecked: the callers check the witness, or the certificate
    built on it."""
    f: dict[int, int] = {}
    acc = 0
    for i, e, j in zip(g[1::2], g[2::2], g[3::2]):
        acc += e
        check_digits(acc, "a partial lamp sum")
        if acc:
            f.update(dict.fromkeys(range(i, j, step), -acc))
    return f


def three_palindrome_decomposition(g: WreathElement) -> PalindromicDecomposition:
    """Certificate with at most three palindromic factors multiplying to g.

    Elements whose canonical word is already a palindrome are returned as
    a single factor. Otherwise, with m the gcd of the gaps between g's
    lamps (1 for a single lamp), g splits as d * a_m^k * b^l with d derived
    (k the exponent sum, l the shift), and the factors are

        w(-f) b^-m rev(w(-f))  .  rev(w(f)) a^k w(f)  .  b^(l+m)

    where w(.) is the canonical tail word and f solves
    f(i - m) - f(i) = d(i), that is [f, b^m] = d. Each factor is a
    symmetric string; the two rev(.) blocks cancel in the group because the
    tail subgroup is abelian, and b^-m a^k F b^m = a_m^k F^(b^m) for the
    lamp element F of f, so the product is [f, b^m] a_m^k b^l = g.

    The lamps of d, the a-block included, lie in one class mod m and sum
    to 0, so f, minus their running sum along that class, is finite: it
    has at most (hi - lo) / m entries for lamps from lo to hi, and each
    factor at most 4 (hi - lo) / m + 5 syllables (`_lattice_factors` puts
    the a-block inside the hull). The last factor is empty for l = -m: a
    shift of -1 gives two factors at m = 1 and three at m > 1.
    """
    _check_span(g)
    canonical = to_word(g)
    if canonical.is_palindrome():
        factors: tuple[Word, ...] = (canonical,) if canonical else ()
    else:
        lo = g[1]
        # gcd() of no gaps (a single lamp) is 0
        factors = _lattice_factors(g, math.gcd(*(i - lo for i in g[3::2])) or 1)
    dec = PalindromicDecomposition(canonical, factors, AB)
    check_group_certificate(dec, evaluate, g, 3)
    return dec


def _lattice_factors(g: WreathElement, m: int) -> tuple[Word, ...]:
    """The nonempty factors of `three_palindrome_decomposition` at the
    lattice step m, for g with at least one lamp and m >= 1 dividing every
    gap between its lamps.

    f runs over the lamp hull [lo, hi] of g joined with the a-block at
    index m, so with every lamp on one side of index m it would walk out
    from index m to the farthest lamp. Instead the block goes to
    p = lo + m floor((min(max(m, lo), hi) - lo) / m), the largest lattice
    point of the hull at or below index m (lo when every lamp lies above
    m), and with j = p - m the construction runs on b^j g b^-j, whose lamps
    (each moved by -j) span index m; its first two factors P1, P2 become
    b^-j P1 b^-j and b^j P2 b^j. Those gluings are symmetric, so the
    factors stay palindromes, and b^(l+m) commutes with b^j, so the product
    is b^-j (P1 P2 b^(l+m)) b^j = g. For j = 0 nothing is glued; for m = 1,
    p is index 1 clamped to the hull.
    """
    l, k = g[0], sum(g[2::2])
    check_digits(k, "the lamp sum k")
    check_digits(l + m, f"the shift l + {m}")
    lo, hi = g[1], g[-2]
    p = lo + m * ((min(max(m, lo), hi) - lo) // m)
    j = p - m
    # the construction for b^j g b^-j, whose lamps (each moved by -j) run
    # over index m; j = 0 when the hull of g already does
    derived = WreathElement.of((i - j, e) for i, e in g.tail + ((p, -k),))
    f = list(_solve_commutator(derived, m).items())
    w_pos = support_word(f)
    w_neg = support_word((i, -e) for i, e in f)
    first = w_neg * run_word("b", -m) * w_neg.reverse()
    middle = w_pos.reverse() * run_word("a", k) * w_pos
    if j:  # g = b^-j (first middle last) b^j, and last commutes with b^j
        first = run_word("b", -j) * first * run_word("b", -j)
        middle = run_word("b", j) * middle * run_word("b", j)
    last = run_word("b", l + m)
    return tuple(x for x in (first, middle, last) if x)


def palindrome_witness(g: WreathElement) -> Word | None:
    """A palindromic word evaluating to g, or None exactly when the tail of
    g is not symmetric under i -> -shift - i, that is when g differs from
    its reversal image.

    Reversal is an anti-automorphism (`reversal_image`), so the palindrome
    images are the products u * c * rev(u) with c = 1, a^m or b, and those
    are the elements with a symmetric tail; the fixed point -shift/2 of an
    even shift may hold any value. The witness takes u from the tail
    entries above the fixed point followed by b^(shift // 2), and c = b for
    an odd shift, a^(tail[-shift/2]) for an even one.
    """
    _check_span(g)
    if reversal_image(g) != g:
        return None
    s = g.shift
    u = support_word((i, e) for i, e in g.tail if 2 * i > -s) * run_word("b", s // 2)
    centre = run_word("b", 1) if s % 2 else run_word("a", dict(g.tail).get(-s // 2, 0))
    witness = u * centre * u.reverse()
    dec = PalindromicDecomposition(witness, (witness,) if witness else (), AB)
    check_group_certificate(dec, evaluate, g, 1)
    return witness


def evaluator() -> Evaluator:
    """The group record of Z wr Z."""
    return Evaluator(
        alphabet=AB,
        eval=lambda w: tuple(evaluate(w)),
        mul=mul,
        inv=inv,
        show=show,
        decode=lambda doc: tuple(WreathElement.from_json(doc)),
        decompose=lambda enc: three_palindrome_decomposition(WreathElement.from_flat(enc)),
    )
