"""Solvable Baumslag-Solitar groups BS(1, n) via the affine representation.

BS(1, n) = < a, t | t^-1 a t = a^n > with |n| >= 2 acts faithfully on the
rationals by a: x -> x + 1 and t: x -> x / n, composed left to right along
the word. An element is therefore a pair (q, dil) acting as
x -> n^dil * x + q, where q has a power-of-n denominator; the reduced
two-integer encoding (num, den_exp) with q = num / n^den_exp makes
equality a tuple comparison.

Every element equals t^k a^l t^-m with k, m >= 0, and then
t^k a^l t^k . t^(-m-k) exhibits it as a product of two palindromes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .palindromes import (
    CertificateError,
    PalindromicDecomposition,
    SelfCheckError,
    check_in_group,
)
from .search import Evaluator, check_digits, check_input_span
from .words import AT, Word, run_word


def _check_parameter(n: int) -> None:
    if abs(n) < 2:
        raise ValueError(f"group parameter must satisfy |n| >= 2, got {n}")


def _lowest_terms(num: int, den_exp: int, n: int) -> tuple[int, int]:
    """num / n^den_exp in lowest terms, for den_exp > 0 and n dividing num."""
    # re-evaluating a normal form t^k a^l t^-m strips all m factors of n
    # from a long l, where one n at a time would take time quadratic in its
    # length; a short num strips faster one n at a time than by a power
    bits = abs(num).bit_length()
    if bits > 64 and den_exp * (abs(n).bit_length() - 1) < bits:
        q, r = divmod(num, n**den_exp)
        if not r:
            return q, 0
    while den_exp and num % n == 0:
        num //= n
        den_exp -= 1
    return num, den_exp


@dataclass(frozen=True)
class BSElement:
    num: int
    den_exp: int
    dil: int
    n: int

    def __post_init__(self) -> None:
        _check_parameter(self.n)
        if self.den_exp < 0:
            raise ValueError("den_exp must be non-negative")
        num, den_exp = self.num, self.den_exp
        if num == 0:
            den_exp = 0
        elif den_exp and num % self.n == 0:
            num, den_exp = _lowest_terms(num, den_exp, self.n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_exp", den_exp)

    @classmethod
    def identity(cls, n: int) -> "BSElement":
        return cls(0, 0, 0, n)

    def translation(self) -> Fraction:
        return Fraction(self.num, self.n**self.den_exp)

    def __mul__(self, other: "BSElement") -> "BSElement":
        if self.n != other.n:
            raise ValueError("cannot multiply elements of different BS(1, n) groups")
        n = self.n
        # q = q1 * n^d2 + q2, over the common power-of-n denominator
        e1, num1 = self.den_exp - other.dil, self.num
        if e1 < 0:
            num1 *= n ** (-e1)
            e1 = 0
        e2, num2 = other.den_exp, other.num
        e = max(e1, e2)
        return BSElement(
            num1 * n ** (e - e1) + num2 * n ** (e - e2), e, self.dil + other.dil, n
        )

    def inverse(self) -> "BSElement":
        e = self.den_exp + self.dil
        if e >= 0:
            return BSElement(-self.num, e, -self.dil, self.n)
        return BSElement(-self.num * self.n ** (-e), 0, -self.dil, self.n)

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
        return json.dumps(self.to_json(), sort_keys=True)


def evaluate(w: Word, n: int) -> BSElement:
    # fold syllable by syllable: normal forms carry a^l blocks with huge l,
    # and a syllable is one product with a generator image, formed over
    # plain integers as `BSElement.__mul__` forms it; num / n^den_exp stays
    # the rational of the normalised products, so normalising once at the
    # end gives the same element. A zero translation keeps den_exp 0, so a
    # leading t^-k leaves no n^k to strip. The numbers grow like
    # n^(total |t|-exponent), which is capped.
    check_input_span(
        sum(abs(e) for g, e in w.syllables if g == "t"), "total |t|-exponent of the word"
    )
    _check_parameter(n)
    num = den_exp = dil = 0
    for gen, exp in w.syllables:
        if gen == "a":
            num += exp * n**den_exp
        elif gen == "t":
            if num:
                den_exp -= exp
                if den_exp < 0:
                    num *= n ** (-den_exp)
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
    l = g.num * g.n ** (m - g.den_exp)
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
    try:
        check_in_group(dec, lambda w: evaluate(w, g.n))
    except CertificateError as exc:
        raise SelfCheckError(f"BS certificate invalid: {exc}") from exc
    if evaluate(dec.target, g.n) != g:
        raise SelfCheckError("certificate target does not evaluate to the element")
    if dec.length > 2:
        raise SelfCheckError(f"certificate has {dec.length} factors, expected <= 2")
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
        mul=lambda g1, g2: g1 * g2,
        inv=BSElement.inverse,
        decode=decode,
        decompose=two_palindrome_decomposition,
    )
