"""Freely reduced words over a signed generator alphabet.

Words are the common currency of the package: every factorization
certificate, search witness and CLI argument is ultimately a word. A word
is stored fully expanded, one entry per letter; desk-scale inputs stay
short, so no run-length compression is attempted.

A word is a *palindrome* when it equals its own letter reversal, signs
included. Free reduction commutes with reversal, so reducing a symmetric
letter sequence always yields a symmetric word; constructions elsewhere
rely on that and the test suite fuzzes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Letter = tuple[str, int]  # (generator name, +1 or -1)


class ParseError(ValueError):
    """Malformed word text; carries the offending character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Alphabet:
    """Ordered declaration of generator names, e.g. ("a", "b") or ("a", "t").

    The declaration order fixes the letter order a < a^-1 < b < b^-1 < ...
    used for shortlex tie-breaking, so witnesses are reproducible.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet must declare at least one generator")
        for name in self.names:
            if len(name) != 1 or not name.isascii() or not name.islower():
                raise ValueError(
                    f"generator names must be single lowercase ascii letters, got {name!r}"
                )
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator name")

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator {name!r}") from None

    def letters(self) -> tuple[Letter, ...]:
        """All signed letters in shortlex letter order."""
        out: list[Letter] = []
        for name in self.names:
            out.append((name, 1))
            out.append((name, -1))
        return tuple(out)

    def letter_key(self, letter: Letter) -> int:
        gen, sign = letter
        return 2 * self.index(gen) + (0 if sign > 0 else 1)


AB = Alphabet(("a", "b"))
AT = Alphabet(("a", "t"))


def _reduced(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word. Build via `reduce`/`parse` or the operators;
    the constructor rejects unreduced letter tuples."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for left, right in zip(self.letters, self.letters[1:]):
            if left[0] == right[0] and left[1] == -right[1]:
                raise ValueError(f"letter sequence is not freely reduced at {left} {right}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        # both operands are reduced, so cancellation happens only at the seam
        left, right = self.letters, other.letters
        i, j, n = len(left), 0, len(right)
        while i > 0 and j < n:
            a, b = left[i - 1], right[j]
            if a[0] == b[0] and a[1] == -b[1]:
                i -= 1
                j += 1
            else:
                break
        return Word(left[:i] + right[j:])

    def __pow__(self, m: int) -> "Word":
        base = self if m >= 0 else self.inverse()
        out = Word()
        for _ in range(abs(m)):
            out = out * base
        return out

    def inverse(self) -> "Word":
        """Group inverse: reversed order, all signs flipped."""
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def reverse(self) -> "Word":
        """Letter reversal, each letter keeping its own sign."""
        return Word(tuple(reversed(self.letters)))

    def is_palindrome(self) -> bool:
        return self.letters == tuple(reversed(self.letters))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


EMPTY = Word()


def reduce(letters: Iterable[Letter]) -> Word:
    """Freely reduce an arbitrary letter sequence. Idempotent."""
    return Word(_reduced(letters))


def run_word(gen: str, exponent: int) -> Word:
    """The word gen^exponent (empty when exponent is 0)."""
    sign = 1 if exponent > 0 else -1
    return Word(((gen, sign),) * abs(exponent))


def shortlex_key(w: Word, alphabet: Alphabet):
    return (len(w.letters), tuple(alphabet.letter_key(l) for l in w.letters))


def parse(text: str, alphabet: Alphabet) -> Word:
    """Parse word text: tokens are a generator letter with an optional
    ^exponent; uppercase letters abbreviate inverses (`A` = `a^-1`);
    whitespace is optional. The result is freely reduced."""
    letters: list[Letter] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        base = c.lower()
        if not c.isalpha():
            raise ParseError(f"unexpected character {c!r}", i)
        if base not in alphabet:
            raise ParseError(f"unknown generator {c!r}", i)
        sign = 1 if c.islower() else -1
        i += 1
        count = 1
        if i < n and text[i] == "^":
            start = i
            i += 1
            j = i
            if j < n and text[j] in "+-":
                j += 1
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise ParseError("expected an integer exponent after '^'", start)
            exp = int(text[i:k])
            i = k
            if exp < 0:
                sign, count = -sign, -exp
            else:
                count = exp
        letters.extend([(base, sign)] * count)
    return Word(_reduced(letters))


def format_word(w: Word) -> str:
    """Canonical text form: runs collapsed to `g^k`, space separated,
    empty word rendered as the empty string. parse(format(w)) == w."""
    if not w.letters:
        return ""
    parts: list[str] = []
    run_letter, run = w.letters[0], 1
    for letter in w.letters[1:]:
        if letter == run_letter:
            run += 1
        else:
            parts.append(_token(run_letter, run))
            run_letter, run = letter, 1
    parts.append(_token(run_letter, run))
    return " ".join(parts)


def _token(letter: Letter, run: int) -> str:
    gen, sign = letter
    exp = run * sign
    return gen if exp == 1 else f"{gen}^{exp}"
