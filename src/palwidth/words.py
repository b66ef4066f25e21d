"""Freely reduced words over a signed generator alphabet, stored as syllables.

Words are the common currency of the package: every factorization
certificate, search witness and CLI argument is ultimately a word. A word
is stored as its syllables ((gen, exp), ...): maximal runs of one
generator, each with a nonzero integer exponent, no two neighbours
sharing a generator. The certificates of the paper have few syllables and
huge exponents (a^(n^m) in BS(1, n)), so `a^200000000` is a single
syllable, and parsing, formatting, products, inversion, reversal and the
palindrome test cost time in the number of syllables, not letters.
`parse` checks whether its tokens are already reduced, as every formatted
word is, and refolds only text that is not. `len`
still counts letters; `.letters` expands a word one entry per letter, for
short-word code such as enumerators and oracles. Words are deliberately
not iterable: a caller picks `.syllables` or `.letters`.

A word is a *palindrome* when it equals its own letter reversal, signs
included; since every syllable is a run of one letter, that is the case
exactly when the syllable sequence reads the same backwards. Free
reduction commutes with reversal, so reducing a symmetric letter sequence
always yields a symmetric word; constructions elsewhere rely on that and
the test suite fuzzes it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Callable, Iterable, NamedTuple

Letter = tuple[str, int]  # (generator name, +1 or -1)
Syllable = tuple[str, int]  # (generator name, nonzero exponent)


class ParseError(ValueError):
    """Malformed word text; carries the offending character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _AlphabetFields(NamedTuple):
    names: tuple[str, ...]


class Alphabet(_AlphabetFields):
    """Ordered declaration of generator names, e.g. ("a", "b") or ("a", "t").

    The declaration order fixes the letter order a < a^-1 < b < b^-1 < ...
    used for shortlex tie-breaking, so witnesses are reproducible. A
    tuple-backed record whose constructor validates the names.
    """

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...]) -> "Alphabet":
        if not names:
            raise ValueError("alphabet must declare at least one generator")
        for name in names:
            if len(name) != 1 or not name.isascii() or not name.islower():
                raise ValueError(
                    f"generator names must be single lowercase ascii letters, got {name!r}"
                )
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator name")
        return tuple.__new__(cls, (names,))

    def letters(self) -> tuple[Letter, ...]:
        """All signed letters in shortlex letter order."""
        out: list[Letter] = []
        for name in self.names:
            out.append((name, 1))
            out.append((name, -1))
        return tuple(out)


AB = Alphabet(("a", "b"))
AT = Alphabet(("a", "t"))


@functools.cache
def follow_ups(alphabet: Alphabet) -> dict[Letter, tuple[Letter, ...]]:
    """The letters that may follow each letter in a reduced word, in
    letter order."""
    letters = alphabet.letters()
    return {c: tuple(x for x in letters if x != (c[0], -c[1])) for c in letters}


def _fold(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Freely reduce a sequence of (gen, exp) pairs, letters included:
    merge neighbours that share a generator, drop zero exponents, and let
    the cancellation cascade."""
    stack: list[Syllable] = []
    for gen, exp in syllables:
        if not exp:
            continue
        if stack and stack[-1][0] == gen:
            exp += stack[-1][1]
            if exp:
                stack[-1] = (gen, exp)
            else:
                stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word. Build via `reduce`/`parse`/`run_word` or the
    operators; the constructor rejects syllables with a zero exponent and
    neighbouring syllables that share a generator."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for gen, exp in self.syllables:
            if not exp:
                raise ValueError(f"syllable {gen}^0 has a zero exponent")
            if gen == prev:
                raise ValueError(f"neighbouring syllables share the generator {gen!r}")
            prev = gen

    @classmethod
    def _trusted(cls, syllables: tuple[Syllable, ...]) -> "Word":
        """Wrap syllables that are reduced by construction, skipping the
        constructor's check."""
        word = object.__new__(cls)
        object.__setattr__(word, "syllables", syllables)
        return word

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The word expanded to one (gen, +1 or -1) entry per letter."""
        out: list[Letter] = []
        for gen, exp in self.syllables:
            out += [(gen, 1 if exp > 0 else -1)] * abs(exp)
        return tuple(out)

    def __len__(self) -> int:
        """The number of letters."""
        return sum(abs(exp) for _, exp in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        # both operands are reduced, so cancellation happens only at the
        # seam: merge the two syllables there, cascading while they cancel
        left, right = self.syllables, other.syllables
        i, j, n = len(left), 0, len(right)
        while i > 0 and j < n:
            gen, exp = left[i - 1]
            if right[j][0] != gen:
                break
            exp += right[j][1]
            if exp:
                return Word._trusted(left[: i - 1] + ((gen, exp),) + right[j + 1 :])
            i -= 1
            j += 1
        return Word._trusted(left[:i] + right[j:])

    def inverse(self) -> "Word":
        """Group inverse: reversed order, all signs flipped."""
        return Word._trusted(tuple((g, -e) for g, e in reversed(self.syllables)))

    def reverse(self) -> "Word":
        """Letter reversal, each letter keeping its own sign."""
        return Word._trusted(self.syllables[::-1])

    def is_palindrome(self) -> bool:
        return self.syllables == self.syllables[::-1]

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


EMPTY = Word()


def reduce(syllables: Iterable[Syllable]) -> Word:
    """Freely reduce an arbitrary sequence of letters or (gen, exp)
    syllables. Idempotent."""
    return Word._trusted(_fold(syllables))


def run_word(gen: str, exponent: int) -> Word:
    """The word gen^exponent (empty when exponent is 0)."""
    return Word(((gen, exponent),)) if exponent else EMPTY


def parse(text: str, alphabet: Alphabet) -> Word:
    """Parse word text: tokens are a generator letter with an optional
    ^exponent; uppercase letters abbreviate inverses (`A` = `a^-1`);
    whitespace is optional. Each token becomes one syllable, and the
    result is freely reduced: text that is reduced already (every
    formatted word is) is checked and kept, and only other text is
    refolded."""
    # certificates repeat a handful of tokens ("b^-1 a^2 b^-1 ..."), so
    # each distinct whitespace-separated chunk is scanned once
    scanned: dict[str, list[Syllable]] = {}
    syllables: list[Syllable] = []
    for chunk in text.split():
        syls = scanned.get(chunk)
        if syls is None:
            try:
                syls = scanned[chunk] = _scan(chunk, alphabet)
            except ParseError:
                _scan(text, alphabet)  # raises it again, positioned in `text`
                raise
        syllables += syls
    if _is_reduced(syllables):
        return Word._trusted(tuple(syllables))
    return reduce(syllables)


_GEN = itemgetter(0)
_EXP = itemgetter(1)


def _is_reduced(syllables: list[Syllable]) -> bool:
    """No zero exponent and no two neighbours on one generator, tested in
    passes that run in C rather than a Python loop per syllable."""
    if not all(map(_EXP, syllables)):
        return False
    gens = list(map(_GEN, syllables))
    return not any(map(eq, gens, gens[1:]))


@functools.cache
def _signed_letters(alphabet: Alphabet) -> dict[str, Letter]:
    """Each generator letter and its uppercase inverse alias, as a letter."""
    signed = {name: (name, 1) for name in alphabet.names}
    signed.update((name.upper(), (name, -1)) for name in alphabet.names)
    return signed


def _scan(text: str, alphabet: Alphabet) -> list[Syllable]:
    signed = _signed_letters(alphabet)
    syllables: list[Syllable] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        letter = signed.get(c)
        if letter is None:
            if c.isspace():
                i += 1
                continue
            if c.isalpha():
                raise ParseError(f"unknown generator {c!r}", i)
            raise ParseError(f"unexpected character {c!r}", i)
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            start = i
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            k = j
            while k < n and text[k] in "0123456789":  # ASCII only, unlike isdigit
                k += 1
            if k == j:
                raise ParseError("expected an integer exponent after '^'", start)
            exp = int(text[i:k])
            i = k
        syllables.append((letter[0], letter[1] * exp))
    return syllables


def _token(gen: str, exp: int) -> str:
    return gen if exp == 1 else f"{gen}^{exp}"


class _TokenTable(dict):
    """Key -> its text, formed by `form(*key)` on a miss, by default a
    syllable -> its token. It remembers at most `SIZE` texts of at most
    `LONGEST` characters, so neither many distinct keys nor huge numbers
    make it grow past a fixed size."""

    SIZE = 4096
    LONGEST = 24

    def __init__(self, form: Callable[..., str] = _token) -> None:
        super().__init__()
        self.form = form

    def __missing__(self, key: tuple) -> str:
        text = self.form(*key)
        if len(self) < self.SIZE and len(text) <= self.LONGEST:
            self[key] = text
        return text


_TOKENS = _TokenTable()


def format_word(w: Word) -> str:
    """Canonical text form: one `g^k` token per syllable (`g` alone when
    k is 1), space separated, the empty word rendered as the empty string.
    parse(format(w)) == w."""
    return " ".join(map(_TOKENS.__getitem__, w.syllables))
