"""Shared hypothesis strategies for word-level property tests."""

import hypothesis.strategies as st

from palwidth.words import AB, Alphabet, reduce


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
