"""Shared hypothesis strategies for word-level property tests, and shared
test helpers."""

import hypothesis.strategies as st

from palwidth.palindromes import PalindromicDecomposition
from palwidth.words import AB, Alphabet, Word, reduce


def letters(alphabet: Alphabet = AB):
    return st.sampled_from(alphabet.letters())


def raw_seqs(alphabet: Alphabet = AB, max_size: int = 12):
    return st.lists(letters(alphabet), max_size=max_size)


def words(alphabet: Alphabet = AB, max_size: int = 12):
    return raw_seqs(alphabet, max_size).map(reduce)


@st.composite
def palindromes(draw, alphabet: Alphabet = AB, max_half: int = 5):
    """Reduced palindromes built from a half plus an optional center letter;
    a center that would cancel is replaced by the half's last letter."""
    half = draw(words(alphabet, max_half))
    center = draw(st.none() | letters(alphabet))
    ls = half.letters
    if center is None:
        return reduce(ls + ls[::-1])
    if ls and center == (ls[-1][0], -ls[-1][1]):
        center = ls[-1]
    return reduce(ls + (center,) + ls[::-1])


def shortlex_key(w: Word, alphabet: Alphabet):
    """Sort key of shortlex order: length first, then letters in the
    declared order a < a^-1 < b < b^-1 < ..."""
    rank = {letter: i for i, letter in enumerate(alphabet.letters())}
    return (len(w), tuple(rank[letter] for letter in w.letters))


def dropping_the_last_factor(target, factors, context):
    """A broken stand-in for the certificate record: monkeypatched into a
    constructor's module, it makes that constructor's self-check fail."""
    return PalindromicDecomposition(target, factors[:-1], context)


def padding_with_a_cancelling_pair(target, factors, context):
    """A broken stand-in like `dropping_the_last_factor`: the same product
    in two more factors than the constructor built, a and a^-1."""
    pair = (reduce([("a", 1)]), reduce([("a", -1)]))
    return PalindromicDecomposition(target, factors + pair, context)


def free_value(word):
    """The exact evaluator of the free group: a reduced word is its own
    value, so `check_in_group(dec, free_value)` checks a free certificate."""
    return word
