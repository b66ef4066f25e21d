"""The rank-2 free nilpotent group of class 2, in exact coordinates.

An element is the triple (x, y, z) standing for a^x b^y [b,a]^z with
[b,a] = b^-1 a^-1 b a central; the cross term x2*y1 in the product law
encodes ba = ab[b,a]. The 3x3 unitriangular integer-matrix model lives in
`suites` as the independent oracle for this law.

The quotient map from the wreath product sends the lamp generator a_i to
(1, 0, -i) and the shift generator to (0, 1, 0); it agrees letterwise with
`evaluate` here.

`HeisElement` is a plain tuple-backed record (a NamedTuple): its tuple
equality and hash are group equality, and its `str` is the JSON literal
[x, y, z], byte for byte what `json.dumps(h.to_json())` prints.

Palindrome images are exactly the triples with 2z = xy: they are the fixed
points of the reversal anti-automorphism (x, y, z) -> (x, y, xy - z), and
whenever xy is even the explicit words b^(y/2) a^x b^(y/2) or
a^(x/2) b^y a^(x/2) attain them. Products of two palindrome images reduce
to a linear Diophantine condition, decided exactly in
`two_palindrome_product`.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .palindromes import SelfCheckError
from .search import Evaluator
from .words import AB, EMPTY, Word, run_word
from .wreath import WreathElement

_tuple_new = tuple.__new__


class HeisElement(NamedTuple):
    """a^x b^y [b,a]^z."""

    x: int = 0
    y: int = 0
    z: int = 0

    @classmethod
    def identity(cls) -> "HeisElement":
        return cls()

    def __mul__(self, other: "HeisElement") -> "HeisElement":
        x1, y1, z1 = self
        x2, y2, z2 = other
        return _tuple_new(HeisElement, (x1 + x2, y1 + y2, z1 + z2 + x2 * y1))

    def inverse(self) -> "HeisElement":
        return HeisElement(-self.x, -self.y, self.x * self.y - self.z)

    def to_json(self) -> list[int]:
        return [self.x, self.y, self.z]

    @classmethod
    def from_json(cls, doc: object) -> "HeisElement":
        if (
            not isinstance(doc, list)
            or len(doc) != 3
            or any(not isinstance(v, int) or isinstance(v, bool) for v in doc)
        ):
            raise ValueError("expected a triple [x, y, z] of integers")
        return cls(*doc)

    def __str__(self) -> str:
        return f"[{self.x}, {self.y}, {self.z}]"


def evaluate(w: Word) -> HeisElement:
    """Image of a word over {a, b} under a -> (1,0,0), b -> (0,1,0)."""
    x = y = z = 0
    for gen, exp in w.syllables:
        if gen == "a":
            z += exp * y
            x += exp
        elif gen == "b":
            y += exp
        else:
            raise ValueError(f"word is not over the alphabet {{a, b}}: {gen!r}")
    return HeisElement(x, y, z)


def from_wreath(g: WreathElement) -> HeisElement:
    """The quotient homomorphism: a_i -> (1, 0, -i), shift -> y."""
    return HeisElement(
        sum(e for _, e in g.tail),
        g.shift,
        -sum(i * e for i, e in g.tail),
    )


def reversal_image(h: HeisElement) -> HeisElement:
    """Image under the reversal anti-automorphism fixing both generators."""
    return HeisElement(h.x, h.y, h.x * h.y - h.z)


def is_palindrome_image(h: HeisElement) -> bool:
    """True exactly when h is the image of some palindromic word."""
    return 2 * h.z == h.x * h.y


def palindrome_word_for(x: int, y: int) -> Word | None:
    """A palindromic word with image (x, y, xy/2), when xy is even."""
    if y % 2 == 0:
        half = run_word("b", y // 2)
        return half * run_word("a", x) * half
    if x % 2 == 0:
        half = run_word("a", x // 2)
        return half * run_word("b", y) * half
    return None


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def two_palindrome_product(h: HeisElement) -> tuple[Word, Word] | None:
    """Decide whether h is a product of two palindrome images; on success
    return a pair of palindromic word witnesses.

    Substituting z_i = x_i y_i / 2 into the product law collapses the
    constraint to the linear equation x*y1 - y*x1 = 2z - xy over the split
    (x1, y1). Solutions form a line x1(t) = x1 + t*x/g, y1(t) = y1 + t*y/g,
    and the evenness side conditions depend only on parities, which have
    period 2 in t; scanning t in {0, 1} therefore decides exactly.
    """
    x, y, z = h.x, h.y, h.z
    d = 2 * z - x * y
    if x == 0 and y == 0:
        if z != 0:
            return None
        return (EMPTY, EMPTY)
    g, s, t = _egcd(x, -y)  # x*s + (-y)*t = g
    if d % g:
        return None
    y1_base, x1_base = s * (d // g), t * (d // g)
    for step in (0, 1):
        x1 = x1_base + step * (x // g)
        y1 = y1_base + step * (y // g)
        x2, y2 = x - x1, y - y1
        if (x1 * y1) % 2 == 0 and (x2 * y2) % 2 == 0:
            w1 = palindrome_word_for(x1, y1)
            w2 = palindrome_word_for(x2, y2)
            assert w1 is not None and w2 is not None
            if evaluate(w1) * evaluate(w2) != h:
                raise SelfCheckError("two-palindrome witness failed re-verification")
            return (w1, w2)
    return None


def evaluator() -> Evaluator:
    """The group record of N_{2,2}, which has no certificate routine."""
    return Evaluator(
        label="heis",
        alphabet=AB,
        eval=evaluate,
        mul=operator.mul,
        inv=HeisElement.inverse,
        decode=HeisElement.from_json,
        decompose=None,
    )
