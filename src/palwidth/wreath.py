"""Exact arithmetic in the wreath product Z wr Z and its width procedures.

Conventions, from which everything else is derived:

  * a_i denotes b^-i a b^i, so a_0 = a and conjugating by b^k moves the
    lamp at index i to index i + k;
  * an element is tail * b^shift with tail a finitely supported map from
    lamp indices to integer exponents.

`evaluate` sends a to the unit lamp at index 0 and b to a bare shift; its
homomorphism property is the binding contract that pins every sign choice,
and the randomized suites test exactly that contract.

The three constructive procedures:

  * `commutator_witness` solves [f, b] = c by prefix sums whenever the
    element has shift 0 and exponent sum 0 (every derived-subgroup element
    is a single commutator);
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

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Union

from .palindromes import (
    CertificateError,
    PalindromicDecomposition,
    SelfCheckError,
    check_in_group,
)
from .search import Evaluator, check_input_span
from .words import AB, Word, reduce, run_word


class NotInDerivedError(ValueError):
    """The element lies outside the derived subgroup."""


class SupportVector:
    """Finitely supported map from lamp index to a nonzero integer exponent."""

    __slots__ = ("_entries", "_key")

    def __init__(self, entries: Union[dict[int, int], Iterable[tuple[int, int]]] = ()) -> None:
        data: dict[int, int] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for i, e in items:
            v = data.get(i, 0) + e
            if v:
                data[i] = v
            elif i in data:
                del data[i]
        self._entries = data
        self._key = tuple(sorted(data.items()))

    @classmethod
    def _trusted(cls, data: dict[int, int]) -> "SupportVector":
        """Wrap a dict that already holds only nonzero entries, skipping
        the normalising pass; the vector takes ownership of the dict."""
        vec = object.__new__(cls)
        vec._entries = data
        vec._key = tuple(sorted(data.items()))
        return vec

    @classmethod
    def unit(cls, index: int, exponent: int = 1) -> "SupportVector":
        return cls({index: exponent} if exponent else {})

    def items(self) -> tuple[tuple[int, int], ...]:
        """Entries in ascending index order."""
        return self._key

    def __getitem__(self, index: int) -> int:
        return self._entries.get(index, 0)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportVector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"SupportVector({dict(self._key)!r})"

    def __add__(self, other: "SupportVector") -> "SupportVector":
        return self.add_shifted(other, 0)

    def add_shifted(self, other: "SupportVector", k: int) -> "SupportVector":
        """self + other.shift(k), built in one pass."""
        merged = dict(self._entries)
        for i, e in other._entries.items():
            i += k
            v = merged.get(i, 0) + e
            if v:
                merged[i] = v
            else:
                del merged[i]
        return SupportVector._trusted(merged)

    def __neg__(self) -> "SupportVector":
        return SupportVector._trusted({i: -e for i, e in self._entries.items()})

    def __sub__(self, other: "SupportVector") -> "SupportVector":
        return self + (-other)

    def shift(self, k: int) -> "SupportVector":
        """Conjugate by b^k: the entry at index i moves to index i + k."""
        if k == 0:
            return self
        return SupportVector._trusted({i + k: e for i, e in self._entries.items()})

    def mirror(self) -> "SupportVector":
        """Image under the reversal anti-automorphism: a_i maps to a_-i."""
        return SupportVector._trusted({-i: e for i, e in self._entries.items()})

    def exponent_sum(self) -> int:
        """Sum of all exponents; vanishes exactly on derived-subgroup tails."""
        return sum(self._entries.values())


@dataclass(frozen=True)
class WreathElement:
    tail: SupportVector = SupportVector()
    shift: int = 0

    @classmethod
    def identity(cls) -> "WreathElement":
        return cls()

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return WreathElement(
            self.tail.add_shifted(other.tail, -self.shift), self.shift + other.shift
        )

    def inverse(self) -> "WreathElement":
        return WreathElement((-self.tail).shift(self.shift), -self.shift)

    def in_derived_subgroup(self) -> bool:
        return self.shift == 0 and self.tail.exponent_sum() == 0

    def to_json(self) -> dict:
        return {
            "support": {str(i): e for i, e in self.tail.items()},
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
        entries = {}
        for key, val in support.items():
            if not isinstance(val, int) or isinstance(val, bool) or val == 0:
                raise ValueError(f"support entry {key!r} must be a nonzero integer")
            entries[int(key)] = val
        return cls(SupportVector(entries), shift)

    def literal(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __str__(self) -> str:
        return self.literal()


_GENERATORS = {"a": WreathElement(SupportVector.unit(0), 0), "b": WreathElement(SupportVector(), 1)}


def evaluate(w: Word) -> WreathElement:
    """Image of a word over {a, b} under a -> unit lamp at 0, b -> shift 1."""
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
    return WreathElement(SupportVector._trusted(tail), shift)


def reversal_image(g: WreathElement) -> WreathElement:
    """Image of g under the reversal anti-automorphism (fixes a and b,
    reverses products): evaluate(w.reverse()) == reversal_image(evaluate(w))."""
    return WreathElement(g.tail.mirror().shift(-g.shift), g.shift)


def support_word(tail: SupportVector) -> Word:
    """Canonical word for a tail: ascending lamp walk with blocks
    b^-i a^(n_i) b^i and the b-travel between blocks fused; one syllable
    per block and per travel."""
    syllables: list[tuple[str, int]] = []
    pos = 0
    for i, e in tail.items():
        syllables += [("b", pos - i), ("a", e)]
        pos = i
    syllables.append(("b", pos))
    return reduce(syllables)


def to_word(g: WreathElement) -> Word:
    return support_word(g.tail) * run_word("b", g.shift)


def commutator_with_b(f: SupportVector) -> WreathElement:
    """[f, b] = f^-1 * f^b as an element."""
    return WreathElement(f.shift(1) - f, 0)


def _check_span(g: WreathElement) -> None:
    """Raise BudgetExceeded when the lamps of g, with index 0, span more
    than the input cap once |shift| is added."""
    items = g.tail.items()
    lo = min(0, items[0][0]) if items else 0
    hi = max(0, items[-1][0]) if items else 0
    check_input_span(hi - lo + abs(g.shift), "lamp span plus |shift|")


def commutator_witness(g: WreathElement) -> SupportVector:
    """f with [f, b] = g exactly, for g in the derived subgroup.

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


def _solve_commutator(g: WreathElement) -> SupportVector:
    items = g.tail.items()
    if not items:
        return SupportVector()
    lo, hi = items[0][0], items[-1][0]
    f: dict[int, int] = {}
    acc = 0
    for i in range(lo, hi):
        acc += g.tail[i]
        if acc:
            f[i] = -acc
    witness = SupportVector(f)
    if commutator_with_b(witness) != g:
        raise SelfCheckError("commutator witness failed re-verification")
    return witness


def _check_wreath_certificate(dec: PalindromicDecomposition, g: WreathElement) -> None:
    try:
        check_in_group(dec, evaluate)
    except CertificateError as exc:
        raise SelfCheckError(f"wreath certificate invalid: {exc}") from exc
    if evaluate(dec.target) != g:
        raise SelfCheckError("certificate target does not evaluate to the element")
    if dec.length > 3:
        raise SelfCheckError(f"certificate has {dec.length} factors, expected <= 3")


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
        _check_wreath_certificate(dec, g)
        return dec
    k = g.tail.exponent_sum()
    l = g.shift
    derived_tail = (g.tail - SupportVector.unit(1, k)).shift(l)
    f = _solve_commutator(WreathElement(derived_tail, 0)).shift(-l)
    w_pos = support_word(f)
    w_neg = support_word(-f)
    b_inv = run_word("b", -1)
    first = w_neg * b_inv * w_neg.reverse()
    middle = w_pos.reverse() * run_word("a", k) * w_pos
    last = run_word("b", l + 1)
    dec = PalindromicDecomposition(
        canonical, tuple(x for x in (first, middle, last) if x), AB
    )
    _check_wreath_certificate(dec, g)
    return dec


def palindrome_witness(g: WreathElement) -> Word | None:
    """A palindromic word evaluating to g, or None exactly when the tail of
    g is not symmetric under i -> -shift - i.

    Reversal is an anti-automorphism (`reversal_image`), so the palindrome
    images are the products u * c * rev(u) with c = 1, a^m or b, and those
    are the elements with a symmetric tail; the fixed point -shift/2 of an
    even shift may hold any value. The witness takes u from the tail
    entries above the fixed point followed by b^(shift // 2), and c = b for
    an odd shift, a^(tail[-shift/2]) for an even one.
    """
    _check_span(g)
    s = g.shift
    items = g.tail.items()
    if any(g.tail[-s - i] != e for i, e in items):
        return None
    upper = SupportVector._trusted({i: e for i, e in items if i > -s - i})
    u = support_word(upper) * run_word("b", s // 2)
    centre = run_word("b", 1) if s % 2 else run_word("a", g.tail[-(s // 2)])
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
