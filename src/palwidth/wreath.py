"""Exact arithmetic in the wreath product Z wr Z and its width procedures.

Conventions, from which everything else is derived:

  * a_i denotes b^-i a b^i, so a_0 = a and conjugating by b^k moves the
    lamp at index i to index i + k;
  * an element is tail * b^shift with tail a finitely supported map from
    lamp indices to integer exponents, stored as a tuple of
    (index, exponent) pairs in strictly ascending index order with no
    zero exponent. The form is unique, so `WreathElement` is a plain
    tuple-backed record (a NamedTuple) whose own tuple equality and hash
    decide group equality; its `str` is the JSON element literal, byte for
    byte what `json.dumps(g.to_json(), sort_keys=True)` prints.

`evaluate` sends a to the unit lamp at index 0 and b to a bare shift; its
homomorphism property is the binding contract that pins every sign choice,
and the randomized suites test exactly that contract.

The three constructive procedures:

  * `commutator_witness` solves [f, b] = c by prefix sums whenever the
    element has shift 0 and exponent sum 0 (every derived-subgroup element
    is a single commutator); f is an {index: exponent} lamp dict in
    ascending index order;
  * `three_palindrome_decomposition` certifies that every element is a
    product of at most three palindromic words. The middle factor carries
    the abelianized a-block at lamp index 1: placing it at index 0 fails
    re-verification whenever the block is nontrivial, because the block
    sits to the right of b^-1 in the factored word.
  * `palindrome_witness` decides whether an element is the image of a
    palindromic word: since reversal mirrors the support (a_i maps to
    a_-i), the images are the elements whose tail is symmetric under
    i -> -shift - i, and each comes with a re-verified palindrome.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Iterable, NamedTuple

from .palindromes import PalindromicDecomposition, SelfCheckError, check_group_certificate
from .search import Evaluator, check_input_span
from .words import AB, Word, run_word


class NotInDerivedError(ValueError):
    """The element lies outside the derived subgroup."""


Tail = tuple[tuple[int, int], ...]

_tuple_new = tuple.__new__


def _merge(base: Iterable[tuple[int, int]], pairs: Iterable[tuple[int, int]], k: int = 0) -> Tail:
    """The tail of `base` (distinct indices) plus `pairs` moved by k:
    exponents at a repeated index add up and zero sums drop."""
    lamps = dict(base)
    for i, e in pairs:
        i += k
        v = lamps.get(i, 0) + e
        if v:
            lamps[i] = v
        else:
            lamps.pop(i, None)
    return tuple(sorted(lamps.items()))


class WreathElement(NamedTuple):
    """tail * b^shift, the tail given as (index, exponent) pairs in strictly
    ascending index order with no zero exponent. That form is unique, so
    the tuple equality and hash are group equality; `of` builds it from
    arbitrary pairs."""

    tail: Tail = ()
    shift: int = 0

    @classmethod
    def of(cls, lamps: Iterable[tuple[int, int]], shift: int = 0) -> "WreathElement":
        """The element with these (index, exponent) pairs, in any order and
        with repeats, followed by b^shift."""
        return cls(_merge((), lamps), shift)

    @classmethod
    def identity(cls) -> "WreathElement":
        return cls()

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        tail, s = self
        right, shift = other
        shift += s
        if not right:  # a pure shift moves no lamp
            return _tuple_new(WreathElement, (tail, shift))
        if not tail:  # nothing to merge into: the right tail, moved by -s
            tail = tuple([(i - s, e) for i, e in right]) if s else right
        elif len(right) == 1:  # one lamp, as in every step by a^±1
            ((i, e),) = right
            i -= s
            k = bisect_left(tail, (i,))  # (i,) sorts before every (i, e)
            if k < len(tail) and tail[k][0] == i:
                e += tail[k][1]
                tail = tail[:k] + (((i, e),) if e else ()) + tail[k + 1 :]
            else:
                tail = tail[:k] + ((i, e),) + tail[k:]
        else:
            tail = _merge(tail, right, -s)
        return _tuple_new(WreathElement, (tail, shift))

    def inverse(self) -> "WreathElement":
        s = self.shift
        return WreathElement(tuple((i + s, -e) for i, e in self.tail), -s)

    def in_derived_subgroup(self) -> bool:
        return self.shift == 0 and sum(e for _, e in self.tail) == 0

    def to_json(self) -> dict:
        return {
            "support": {str(i): e for i, e in self.tail},
            "shift": self.shift,
        }

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
        for key, val in support.items():
            # one spelling per index, so no two keys name the same lamp
            if str(int(key)) != key:
                raise ValueError(f"support key {key!r} is not a canonical decimal index")
            if not isinstance(val, int) or isinstance(val, bool) or val == 0:
                raise ValueError(f"support entry {key!r} must be a nonzero integer")
        return cls.of(((int(key), val) for key, val in support.items()), shift)

    def __str__(self) -> str:
        # json.dumps(self.to_json(), sort_keys=True) without the encoder: the
        # support keys sort as strings, so "-1" < "-10" < "-2" < "0" < "10" <
        # "2". Sorting the entries '"k": e' gives that order, because the
        # closing quote sorts before every digit and the keys are distinct.
        lamps = ", ".join(sorted([f'"{i}": {e}' for i, e in self.tail]))
        return f'{{"shift": {self.shift}, "support": {{{lamps}}}}}'


def evaluate(w: Word) -> WreathElement:
    """Image of a word over {a, b} under a -> unit lamp at 0, b -> shift 1."""
    # accumulates in place rather than collecting pairs for `_merge`: a
    # second pass over every a-syllable doubled the cost on long words
    tail: dict[int, int] = {}
    shift = 0
    for gen, exp in w.syllables:
        if gen == "a":
            i = -shift
            v = tail.get(i, 0) + exp
            if v:
                tail[i] = v
            else:
                del tail[i]
        elif gen == "b":
            shift += exp
        else:
            raise ValueError(f"word is not over the alphabet {{a, b}}: {gen!r}")
    return WreathElement(tuple(sorted(tail.items())), shift)


def reversal_image(g: WreathElement) -> WreathElement:
    """Image of g under the reversal anti-automorphism (fixes a and b,
    reverses products): evaluate(w.reverse()) == reversal_image(evaluate(w))."""
    s = g.shift
    return WreathElement(tuple((-s - i, e) for i, e in reversed(g.tail)), s)


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
    return support_word(g.tail) * run_word("b", g.shift)


def commutator_with_b(f: dict[int, int]) -> WreathElement:
    """[f, b] = f^-1 * f^b as an element, for the lamp map f."""
    return WreathElement(_merge(((i, -e) for i, e in f.items()), f.items(), 1), 0)


def _check_span(g: WreathElement) -> None:
    """Raise BudgetExceeded when the lamps of g, with index 0, span more
    than the input cap once |shift| is added."""
    tail = g.tail
    lo = min(0, tail[0][0]) if tail else 0
    hi = max(0, tail[-1][0]) if tail else 0
    check_input_span(hi - lo + abs(g.shift), "lamp span plus |shift|")


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
    return _solve_commutator(g)


def _solve_commutator(g: WreathElement) -> dict[int, int]:
    f: dict[int, int] = {}
    acc = 0
    for (i, e), (j, _) in zip(g.tail, g.tail[1:]):
        acc += e
        if acc:
            f.update(dict.fromkeys(range(i, j), -acc))
    if commutator_with_b(f) != g:
        raise SelfCheckError("commutator witness failed re-verification")
    return f


def three_palindrome_decomposition(g: WreathElement) -> PalindromicDecomposition:
    """Certificate with at most three palindromic factors multiplying to g.

    Splits g as a_1^k * b^l * d with d derived (k the exponent sum, l the
    shift), takes f with [f, b] = d shifted by -l, and emits

        w(-f) b^-1 rev(w(-f))  .  rev(w(f)) a^k w(f)  .  b^(l+1)

    where w(.) is the canonical tail word. Each factor is a symmetric
    string; the two rev(.) blocks cancel in the group because the tail
    subgroup is abelian. Elements whose canonical word is already a
    palindrome are returned as a single factor.
    """
    _check_span(g)
    canonical = to_word(g)
    if canonical.is_palindrome():
        factors: tuple[Word, ...] = (canonical,) if canonical else ()
        dec = PalindromicDecomposition(canonical, factors, AB)
        check_group_certificate(dec, evaluate, g, 3)
        return dec
    k = sum(e for _, e in g.tail)
    l = g.shift
    derived = WreathElement(_merge((), g.tail + ((1, -k),), l), 0)
    f = [(i - l, e) for i, e in _solve_commutator(derived).items()]
    w_pos = support_word(f)
    w_neg = support_word((i, -e) for i, e in f)
    b_inv = run_word("b", -1)
    first = w_neg * b_inv * w_neg.reverse()
    middle = w_pos.reverse() * run_word("a", k) * w_pos
    last = run_word("b", l + 1)
    dec = PalindromicDecomposition(
        canonical, tuple(x for x in (first, middle, last) if x), AB
    )
    check_group_certificate(dec, evaluate, g, 3)
    return dec


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
    if not witness.is_palindrome() or evaluate(witness) != g:
        raise SelfCheckError("palindrome witness failed re-verification")
    return witness


def evaluator() -> Evaluator:
    """The group record of Z wr Z."""
    return Evaluator(
        label="wreath",
        alphabet=AB,
        eval=evaluate,
        mul=operator.mul,
        inv=WreathElement.inverse,
        decode=WreathElement.from_json,
        decompose=three_palindrome_decomposition,
    )
