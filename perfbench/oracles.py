"""Arithmetic the benchmark checks palwidth's outputs against.

Nothing here imports palwidth. Words are handled as syllables: maximal
runs ``(generator, exponent)`` of one generator, so a certificate factor
such as ``t^12 a^531441 t^12`` costs three steps, not half a million.

Conventions are this module's own and are only required to give faithful
representations of the groups:

* Z wr Z: a lamp dict and a cursor. ``b^k`` moves the cursor by k and
  ``a^k`` adds k to the lamp under the cursor.
* BS(1, n): affine maps x -> n^d * x + q acting on the right, so
  ``a = (0, 1)`` and ``t = (1, 0)`` satisfy t^-1 a t = a^n.
* N(2,2): integer triples under (x1+x2, y1+y2, z1+z2+x2*y1), with
  a = (1, 0, 0) and b = (0, 1, 0).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable

Syllables = tuple[tuple[str, int], ...]

_TOKEN = re.compile(r"([A-Za-z])(?:\^([+-]?\d+))?")
_SPACE = re.compile(r"\s*")


class CheckFailed(Exception):
    """An output disagrees with the oracles, or cannot be read by them."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- words as syllables -------------------------------------------------


def raw_tokens(text: str) -> list[tuple[str, int]]:
    """Tokens of word text as written: uppercase letters are inverses and
    ``^k`` multiplies the letter's exponent. No folding is done."""
    out: list[tuple[str, int]] = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckFailed(f"unreadable word text at position {pos}: {text[pos:pos + 20]!r}")
        letter, exp = m.group(1), m.group(2)
        sign = 1 if letter.islower() else -1
        out.append((letter.lower(), sign * (int(exp) if exp is not None else 1)))
        pos = _SPACE.match(text, m.end()).end()
    return out


def fold(tokens: Iterable[tuple[str, int]]) -> Syllables:
    """Freely reduce a token sequence into maximal syllables."""
    stack: list[list] = []
    for gen, exp in tokens:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((gen, exp) for gen, exp in stack)


def syllables(text: str) -> Syllables:
    return fold(raw_tokens(text))


def letter_count(syls: Iterable[tuple[str, int]]) -> int:
    return sum(abs(e) for _, e in syls)


def is_reduced_text(text: str) -> bool:
    """True when the text spells a freely reduced word: folding it cancels
    no letter."""
    tokens = raw_tokens(text)
    return letter_count(tokens) == letter_count(fold(tokens))


def is_palindrome(syls: Syllables) -> bool:
    """A reduced word equals its letter reversal exactly when its syllable
    list is symmetric."""
    return syls == syls[::-1]


def _reduced_words(letters: list[tuple[str, int]], length: int) -> list[list[tuple[str, int]]]:
    words: list[list[tuple[str, int]]] = [[]]
    for _ in range(length):
        words = [w + [c] for w in words for c in letters if not w or c != (w[-1][0], -w[-1][1])]
    return words


def reduced_palindromes(gens: tuple[str, ...], max_len: int) -> list[Syllables]:
    """Every non-empty reduced palindromic word of length <= max_len, each
    once: a reduced half, a centre letter for odd lengths that does not
    cancel against the half, and the half reversed."""
    letters = [(g, s) for g in gens for s in (1, -1)]
    out: list[Syllables] = []
    for length in range(1, max_len + 1):
        for half in _reduced_words(letters, length // 2):
            if length % 2 == 0:
                out.append(fold(half + half[::-1]))
                continue
            for c in letters:
                if not half or c != (half[-1][0], -half[-1][1]):
                    out.append(fold(half + [c] + half[::-1]))
    return out


# --- Z wr Z ---------------------------------------------------------------

WreathKey = tuple[tuple[tuple[int, int], ...], int]


class Wreath:
    """Z wr Z as lamps under a cursor; elements are hashable keys
    ``(sorted lamp items, cursor)``."""

    gens = ("a", "b")
    identity: WreathKey = ((), 0)

    @staticmethod
    def key(lamps: dict[int, int], cursor: int) -> WreathKey:
        return tuple(sorted((i, e) for i, e in lamps.items() if e)), cursor

    @classmethod
    def evaluate(cls, syls: Iterable[tuple[str, int]]) -> WreathKey:
        lamps: dict[int, int] = {}
        cursor = 0
        for gen, exp in syls:
            if gen == "a":
                lamps[cursor] = lamps.get(cursor, 0) + exp
            elif gen == "b":
                cursor += exp
            else:
                raise CheckFailed(f"generator {gen!r} is not in Z wr Z")
        return cls.key(lamps, cursor)

    @classmethod
    def mul(cls, g: WreathKey, h: WreathKey) -> WreathKey:
        lamps = dict(g[0])
        for i, e in h[0]:
            lamps[i + g[1]] = lamps.get(i + g[1], 0) + e
        return cls.key(lamps, g[1] + h[1])

    @classmethod
    def inv(cls, g: WreathKey) -> WreathKey:
        return cls.key({i - g[1]: -e for i, e in g[0]}, -g[1])

    @classmethod
    def from_literal(cls, doc: dict) -> WreathKey:
        """Read palwidth's element literal ``{"support": {i: e}, "shift": s}``,
        which stands for (prod_i a_i^e) b^s with a_i = b^-i a b^i. Here
        b^-i a b^i lights the lamp at -i and returns the cursor to 0."""
        return cls.key({-int(i): e for i, e in doc["support"].items()}, doc["shift"])

    @classmethod
    def from_support(cls, items: Iterable[tuple[int, int]]) -> WreathKey:
        """The tail prod_i a_i^e (shift 0) in the same reading."""
        return cls.key({-i: e for i, e in items}, 0)

    @classmethod
    def commutator_with_b(cls, f: WreathKey) -> WreathKey:
        """[f, b] = f^-1 b^-1 f b."""
        b = ((), 1)
        return cls.mul(cls.mul(cls.inv(f), cls.inv(b)), cls.mul(f, b))

    @staticmethod
    def to_heis(g: WreathKey) -> tuple[int, int, int]:
        """The quotient onto N(2,2): the lamp at p is b^p a b^-p, which maps
        to (1, 0, p); lamps commute there, and the cursor adds b^c."""
        lamps, cursor = g
        return sum(e for _, e in lamps), cursor, sum(p * e for p, e in lamps)


# --- BS(1, n) -------------------------------------------------------------

AffineKey = tuple[int, Fraction]


class Affine:
    """BS(1, n) as affine maps x -> n^d * x + q, elements ``(d, q)``."""

    gens = ("a", "t")

    def __init__(self, n: int) -> None:
        if abs(n) < 2:
            raise ValueError(f"BS(1, n) needs |n| >= 2, got {n}")
        self.n = n
        self.identity: AffineKey = (0, Fraction(0))

    def scale(self, k: int) -> Fraction:
        return Fraction(self.n) ** k

    def evaluate(self, syls: Iterable[tuple[str, int]]) -> AffineKey:
        d, q = 0, Fraction(0)
        for gen, exp in syls:
            if gen == "a":
                q += exp
            elif gen == "t":
                d += exp
                q *= self.scale(exp)
            else:
                raise CheckFailed(f"generator {gen!r} is not in BS(1, n)")
        return d, q

    def mul(self, g: AffineKey, h: AffineKey) -> AffineKey:
        return g[0] + h[0], g[1] * self.scale(h[0]) + h[1]

    def inv(self, g: AffineKey) -> AffineKey:
        return -g[0], -g[1] * self.scale(-g[0])

    def from_literal(self, doc: dict) -> AffineKey:
        """Read palwidth's literal ``{"num", "den_exp", "dil", "n"}``, the
        map x -> n^dil * x + num / n^den_exp."""
        if doc["n"] != self.n:
            raise CheckFailed(f"literal has n={doc['n']}, expected {self.n}")
        return doc["dil"], Fraction(doc["num"]) / self.scale(doc["den_exp"])

    def normal_form_letters(self, g: AffineKey) -> int:
        """Letters of the shortest t^k a^l t^-m spelling g with k, m >= 0."""
        d, q = g
        m = 0
        while (q * self.scale(m)).denominator != 1 or d + m < 0:
            m += 1
        return (d + m) + abs(int(q * self.scale(m))) + m


# --- N(2,2) ---------------------------------------------------------------

HeisKey = tuple[int, int, int]


class Heis:
    """The free nilpotent group of rank 2 and class 2 as integer triples."""

    gens = ("a", "b")
    identity: HeisKey = (0, 0, 0)

    @staticmethod
    def evaluate(syls: Iterable[tuple[str, int]]) -> HeisKey:
        x = y = z = 0
        for gen, exp in syls:
            if gen == "a":
                z += exp * y
                x += exp
            elif gen == "b":
                y += exp
            else:
                raise CheckFailed(f"generator {gen!r} is not in N(2,2)")
        return x, y, z

    @staticmethod
    def mul(g: HeisKey, h: HeisKey) -> HeisKey:
        return g[0] + h[0], g[1] + h[1], g[2] + h[2] + h[0] * g[1]

    @staticmethod
    def inv(g: HeisKey) -> HeisKey:
        return -g[0], -g[1], g[0] * g[1] - g[2]

    @staticmethod
    def from_literal(doc: list) -> HeisKey:
        """palwidth's literal [x, y, z] is the triple itself."""
        x, y, z = doc
        return x, y, z

    @staticmethod
    def is_palindrome_image(g: HeisKey) -> bool:
        """Reversal fixes a and b and sends (x, y, z) to (x, y, xy - z), so
        palindrome images satisfy 2z = xy; b^(y/2) a^x b^(y/2) or
        a^(x/2) b^y a^(x/2) reaches each such triple in |x| + |y| letters."""
        x, y, z = g
        return 2 * z == x * y

    @classmethod
    def palindrome_images(cls, max_len: int) -> list[HeisKey]:
        """Images of the non-empty palindromes of length <= max_len, other
        than the identity: every (x, y, xy/2) with xy even and
        0 < |x| + |y| <= max_len."""
        out = []
        for x in range(-max_len, max_len + 1):
            for y in range(-(max_len - abs(x)), max_len - abs(x) + 1):
                if (x or y) and x * y % 2 == 0:
                    out.append((x, y, x * y // 2))
        return out

    @classmethod
    def two_palindrome_products(cls, max_len: int) -> set[HeisKey]:
        """Every product p1 p2 of two palindrome images of length <= max_len:
        the splits (x1, y1) + (x2, y2) with both halves palindrome images."""
        images = cls.palindrome_images(max_len)
        return {cls.mul(p, q) for p in images for q in images}


# --- balls and palindrome levels ------------------------------------------


def ball(group, radius: int) -> dict:
    """Word length of every element within `radius`, by breadth-first search
    over right multiplication by the generators and their inverses."""
    steps = [group.evaluate(((g, s),)) for g in group.gens for s in (1, -1)]
    dist = {group.identity: 0}
    frontier = [group.identity]
    for depth in range(1, radius + 1):
        new = []
        for g in frontier:
            for s in steps:
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = depth
                    new.append(h)
        frontier = new
    return dist


def palindrome_levels(group, max_len: int) -> tuple[set, set, int]:
    """(images of non-empty palindromes of length <= max_len, products of
    two such images, number of palindromic words enumerated)."""
    words = reduced_palindromes(group.gens, max_len)
    level1 = {group.evaluate(w) for w in words}
    level2 = {group.mul(p, q) for p in level1 for q in level1}
    return level1, level2, len(words)


def histogram(arith, dist: dict, radius: int, max_factors: int, max_len: int):
    """The palindromic-length histogram over the ball of `radius` within
    `dist`, for products of at most `max_factors` palindromes of length
    <= max_len, and the number of non-empty palindromic words enumerated.

    Claim (d) for N(2,2): k = 1 exactly for the palindrome images with
    |x| + |y| <= max_len, k = 2 exactly for products of two of them, and
    the rest is at k = 3 or unknown, keyed "3+unknown". For the other
    groups the palindromes are enumerated and multiplied in pairs."""
    n_pal = len(reduced_palindromes(arith.gens, max_len))
    heis_level2 = Heis.two_palindrome_products(max_len)
    if arith is Heis:
        level1, level2 = set(Heis.palindrome_images(max_len)), heis_level2
    else:
        level1, level2, n_pal = palindrome_levels(arith, max_len)
    rest = "3+unknown" if max_factors == 3 else "unknown"
    hist = {"0": 0, "1": 0, "2": 0, rest: 0}
    for g, d in dist.items():
        if d > radius:
            continue
        k = "0" if g == arith.identity else "1" if g in level1 else "2" if g in level2 else rest
        hist[k] += 1
        if arith is Wreath and k in ("1", "2"):
            # claim (e): the quotient onto N(2,2) cannot raise palindromic
            # length, so these levels must map into the closed form
            image = Wreath.to_heis(g)
            if not (Heis.is_palindrome_image(image) if k == "1" else image in heis_level2):
                raise RuntimeError(f"Z wr Z levels disagree with the N(2,2) closed form at {g}")
    return hist, n_pal


def check_certificate(text: str, group: str, arith, expected, max_factors: int) -> None:
    """Claim (a): a certificate in palwidth's JSON form has at most
    `max_factors` factors, each a non-empty reduced palindrome, and their
    product, its target word and its target literal are all `expected`."""
    doc = json.loads(text)
    factors = doc["factors"]
    require(doc["group"] == group and doc["verified"] is True, f"{group}: bad certificate header")
    require(doc["length"] == len(factors) <= max_factors, f"{group}: {len(factors)} factors")
    require(bool(factors) or expected == arith.identity, f"{group}: no factors for a non-identity")
    product: list[tuple[str, int]] = []
    for factor in factors:
        syls = syllables(factor)
        require(
            bool(syls) and is_reduced_text(factor) and is_palindrome(syls),
            f"{group}: factor {factor[:60]!r} is not a non-empty reduced palindrome",
        )
        product.extend(syls)
    require(arith.evaluate(product) == expected, f"{group}: factor product is not the element")
    require(
        arith.evaluate(syllables(doc["target"]["word"])) == expected,
        f"{group}: target word is not the element",
    )
    require(
        arith.from_literal(doc["target"]["element"]) == expected,
        f"{group}: target literal is not the element",
    )
