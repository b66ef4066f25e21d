"""Solvable Baumslag-Solitar groups BS(1, n) via the affine representation.

BS(1, n) = < a, t | t^-1 a t = a^n > with |n| >= 2 acts faithfully on the
rationals by a: x -> x + 1 and t: x -> x / n, composed left to right along
the word. An element is therefore a pair (q, dil) acting as
x -> n^dil * x + q, where q has a power-of-n denominator; the reduced
two-integer encoding (num, den_exp) with q = num / n^den_exp makes
equality a tuple comparison. `BSElement` is a tuple-backed record (a
NamedTuple subclass whose constructor normalises the fraction), so its
`==` and hash are the tuple's own.

Every element equals t^k a^l t^-m with k, m >= 0, and then
t^k a^l t^k . t^(-m-k) exhibits it as a product of two palindromes.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .palindromes import PalindromicDecomposition, SelfCheckError, check_group_certificate
from .search import MAX_DIGITS, BudgetExceeded, Evaluator, check_digits, check_input_span
from .words import AT, Word, run_word


def _check_parameter(n: int) -> None:
    if abs(n) < 2:
        raise ValueError(f"group parameter must satisfy |n| >= 2, got {n}")


# |n|^x >= 2^(x * (bit_length(|n|) - 1)), so past this many bits a power of
# n alone has more than MAX_DIGITS decimal digits
_POWER_BITS = int(MAX_DIGITS * math.log2(10))


def _power(n: int, x: int) -> int:
    """n**x, refused with BudgetExceeded before it is formed when its bit
    length alone puts it over the digit cap. With x under the span cap,
    only |n| >= 16 can reach that."""
    if x * (abs(n).bit_length() - 1) > _POWER_BITS:
        raise BudgetExceeded(
            f"a power n^{x} of the group parameter has more than {MAX_DIGITS} "
            "decimal digits, over the digit cap"
        )
    return n**x


def _lowest_terms(num: int, den_exp: int, n: int) -> tuple[int, int]:
    """num / n^den_exp in lowest terms, for den_exp > 0 and n dividing num."""
    # one n at a time would take time quadratic in a long num's length:
    # strip min(den_exp, v_n(num)) factors in O(log) divisions instead, by
    # n^(2^i) for i = 0, 1, ... while it divides, then back down the powers
    powers = []
    power, e = n, 1
    while e <= den_exp:
        q, r = divmod(num, power)
        if r:
            break
        num, den_exp = q, den_exp - e
        powers.append((power, e))
        power, e = power * power, 2 * e
    for power, e in reversed(powers):
        if e <= den_exp:
            q, r = divmod(num, power)
            if not r:
                num, den_exp = q, den_exp - e
    return num, den_exp


_tuple_new = tuple.__new__


def _normalised(num: int, den_exp: int, dil: int, n: int) -> "BSElement":
    """The element with translation num / n^den_exp, for den_exp >= 0 and a
    checked n, with the fraction put in lowest terms."""
    if num == 0:
        den_exp = 0
    elif den_exp and num % n == 0:
        num, den_exp = _lowest_terms(num, den_exp, n)
    return _tuple_new(BSElement, (num, den_exp, dil, n))


class _BSFields(NamedTuple):
    num: int
    den_exp: int
    dil: int
    n: int


class BSElement(_BSFields):
    """x -> n^dil * x + num / n^den_exp, with num / n^den_exp in lowest
    terms (den_exp 0 for a zero translation). The constructor normalises
    any non-negative den_exp, so the tuple equality and hash are group
    equality."""

    __slots__ = ()

    def __new__(cls, num: int, den_exp: int, dil: int, n: int) -> "BSElement":
        _check_parameter(n)
        if den_exp < 0:
            raise ValueError("den_exp must be non-negative")
        return _normalised(num, den_exp, dil, n)

    @classmethod
    def identity(cls, n: int) -> "BSElement":
        return cls(0, 0, 0, n)

    def __mul__(self, other: "BSElement") -> "BSElement":
        num1, e1, dil1, n = self
        num2, e2, dil2, n2 = other
        if n != n2:
            raise ValueError("cannot multiply elements of different BS(1, n) groups")
        # q = q1 * n^d2 + q2, over the common power-of-n denominator
        e1 -= dil2
        if e1 < 0:
            num1 *= n ** (-e1)
            e1 = 0
        if e1 >= e2:
            return _normalised(num1 + num2 * n ** (e1 - e2), e1, dil1 + dil2, n)
        return _normalised(num1 * n ** (e2 - e1) + num2, e2, dil1 + dil2, n)

    def inverse(self) -> "BSElement":
        num, den_exp, dil, n = self
        e = den_exp + dil
        if e >= 0:
            return _normalised(-num, e, -dil, n)
        return _tuple_new(BSElement, (-num * n ** (-e), 0, -dil, n))

    def to_json(self) -> dict:
        return {"num": self.num, "den_exp": self.den_exp, "dil": self.dil, "n": self.n}

    @classmethod
    def from_json(cls, doc: object) -> "BSElement":
        if not isinstance(doc, dict) or set(doc) != {"num", "den_exp", "dil", "n"}:
            raise ValueError('expected {"num": int, "den_exp": int, "dil": int, "n": int}')
        for key in ("num", "den_exp", "dil", "n"):
            if not isinstance(doc[key], int) or isinstance(doc[key], bool):
                raise ValueError(f"{key} must be an integer")
        return cls(doc["num"], doc["den_exp"], doc["dil"], doc["n"])

    def __str__(self) -> str:
        # json.dumps(self.to_json(), sort_keys=True) without the encoder
        return (
            f'{{"den_exp": {self.den_exp}, "dil": {self.dil}, '
            f'"n": {self.n}, "num": {self.num}}}'
        )


def evaluate(w: Word, n: int) -> BSElement:
    # fold syllable by syllable: normal forms carry a^l blocks with huge l,
    # and a syllable is one product with a generator image, formed over
    # plain integers as `BSElement.__mul__` forms it; num / n^den_exp stays
    # the rational of the normalised products, so normalising once at the
    # end gives the same element. A zero translation keeps den_exp 0, so a
    # leading t^-k leaves no n^k to strip. The numbers grow like
    # n^(total |t|-exponent), which is capped, and `_power` refuses a power
    # of n that alone is over the digit cap.
    check_input_span(
        sum(abs(e) for g, e in w.syllables if g == "t"), "total |t|-exponent of the word"
    )
    _check_parameter(n)
    num = den_exp = dil = 0
    for gen, exp in w.syllables:
        if gen == "a":
            num += exp * _power(n, den_exp)
        elif gen == "t":
            if num:
                den_exp -= exp
                if den_exp < 0:
                    num *= _power(n, -den_exp)
                    den_exp = 0
            dil += exp
        else:
            raise ValueError(f"word is not over the alphabet {{a, t}}: {gen!r}")
    return BSElement(num, den_exp, dil, n)


def normal_form(g: BSElement) -> tuple[int, int, int]:
    """The minimal (k, l, m) with g = t^k a^l t^-m, k, m >= 0.

    Re-evaluating t^k a^l t^-m gives (l * n^-m, k - m), so m must clear the
    reduced denominator exponent and keep k non-negative; the smallest such
    m makes the form unique, and n never divides l when both k and m are
    positive.
    """
    m = max(g.den_exp, -g.dil)
    k = g.dil + m
    # no word for g has a smaller total |t|-exponent than k + m, so an
    # element evaluated from a word under the cap stays under it here
    check_input_span(k + m, "total |t|-exponent of the normal form")
    # a zero translation needs no power of n
    l = g.num * _power(g.n, m - g.den_exp) if g.num else 0
    # certificates print l, and every other number of the element is shorter
    check_digits(l, "a-exponent of the normal form")
    if evaluate(normal_form_word(k, l, m), g.n) != g:
        raise SelfCheckError("normal form failed re-evaluation")
    return k, l, m


def normal_form_word(k: int, l: int, m: int) -> Word:
    return run_word("t", k) * run_word("a", l) * run_word("t", -m)


def two_palindrome_decomposition(g: BSElement) -> PalindromicDecomposition:
    """Certificate with at most two palindromic factors multiplying to g:
    the symmetric string t^k a^l t^k followed by t^(-m-k). Pure powers of t
    collapse to a single factor."""
    k, l, m = normal_form(g)
    target = normal_form_word(k, l, m)
    if l == 0:
        factors = (run_word("t", k - m),) if k != m else ()
    else:
        symmetric = run_word("t", k) * run_word("a", l) * run_word("t", k)
        factors = tuple(f for f in (symmetric, run_word("t", -m - k)) if f)
    dec = PalindromicDecomposition(target, factors, AT)
    check_group_certificate(dec, lambda w: evaluate(w, g.n), g, 2)
    return dec


def evaluator(n: int) -> Evaluator:
    """The group record of BS(1, n); its literals must carry this n."""

    def decode(doc: object) -> BSElement:
        element = BSElement.from_json(doc)
        if element.n != n:
            raise ValueError(f"element has n={element.n}, group is bs:{n}")
        return element

    return Evaluator(
        label=f"bs:{n}",
        alphabet=AT,
        eval=lambda w: evaluate(w, n),
        mul=operator.mul,
        inv=BSElement.inverse,
        decode=decode,
        decompose=two_palindrome_decomposition,
    )
