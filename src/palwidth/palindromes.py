"""Palindromic factorization certificates, and their one self-check.

The generic word-level constructions: conjugates and commutators of
palindrome products in the free group. `check_group_certificate` is the
only self-check of a palindromic answer, here and in every group module:
a reduced word is its own exact value in the free group, so the free
constructions pass it the identity as their evaluator. The checker only
uses word primitives (reversal, reduction, concatenation) and the
evaluator, so it stays independent of the construction code it
validates. Each answer is checked once, by its constructor; a failed
self-check raises SelfCheckError, which `suites.run_suite` reports as a
failed run.

Factor-count bookkeeping: conjugating a product of k palindromes costs
k + (k mod 2) factors, and a commutator against such a product costs
2k + (k mod 2); each constructor checks its own bound. Factors that
reduce to the empty word are dropped, so the counts are upper bounds.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .words import EMPTY, Alphabet, Word


class NotAPalindromeError(ValueError):
    """An input that must be a palindrome is not one."""


class CertificateError(ValueError):
    """A decomposition failed validation."""


class SelfCheckError(RuntimeError):
    """A construction failed its own re-verification; this is a bug."""


class PalindromicDecomposition(NamedTuple):
    """An ordered factorization of `target` into palindromic words.

    The factor product equals the target under an exact evaluator, which
    for the free-group constructions in this module is the identity on
    reduced words; see `check_in_group`.
    """

    target: Word
    factors: tuple[Word, ...]
    context: Alphabet

    @property
    def length(self) -> int:
        return len(self.factors)


def _check_factors(dec: PalindromicDecomposition) -> Word:
    """Shared factor checks; returns the reduced factor product."""
    allowed = set(dec.context.names)
    product = EMPTY
    for f in dec.factors:
        if not f:
            raise CertificateError("certificate contains an empty factor")
        if not f.is_palindrome():
            raise CertificateError(f"factor {str(f)!r} is not a palindrome")
        _check_alphabet(f, allowed, "factor")
        product = product * f
    _check_alphabet(dec.target, allowed, "target")
    if dec.target and not dec.factors:
        raise CertificateError("nonempty target with no factors")
    return product


def _check_alphabet(w: Word, allowed: set[str], what: str) -> None:
    """Raise CertificateError naming the first letter of w outside `allowed`."""
    if not allowed.issuperset(map(itemgetter(0), w.syllables)):
        gen = next(g for g, _ in w.syllables if g not in allowed)
        raise CertificateError(f"{what} letter {gen!r} outside the alphabet")


def check_in_group(dec: PalindromicDecomposition, evaluate: Callable[[Word], object]) -> object:
    """Validate with group equality decided by an exact evaluator; returns
    the target's value, so a caller need not evaluate it again."""
    product = _check_factors(dec)
    value = evaluate(dec.target)
    # equal reduced words are equal in every group
    if product != dec.target and evaluate(product) != value:
        raise CertificateError("factor product differs from target in the group")
    return value


def check_group_certificate(
    dec: PalindromicDecomposition,
    evaluate: Callable[[Word], object],
    element: object,
    bound: int,
) -> None:
    """Self-check of a group-level constructor: the certificate passes
    `check_in_group`, its target evaluates to `element` and it has at most
    `bound` factors. A failure is a bug, raised as SelfCheckError."""
    try:
        value = check_in_group(dec, evaluate)
    except CertificateError as exc:
        raise SelfCheckError(f"certificate invalid: {exc}") from exc
    if value != element:
        raise SelfCheckError("certificate target does not evaluate to the element")
    if dec.length > bound:
        raise SelfCheckError(f"certificate has {dec.length} factors, expected <= {bound}")


def _require_palindrome(p: Word) -> None:
    if not p.is_palindrome():
        raise NotAPalindromeError(f"{str(p)!r} is not a palindrome")


def _free_value(w: Word) -> Word:
    # the exact evaluator of the free group: a reduced word is its own value
    return w


def _star(u: Word) -> Word:
    # letterwise inverse: star(u) * u.reverse() and u.inverse() * star(u)
    # are both symmetric gluings
    return u.inverse().reverse()


def conjugate_decomposition(
    u: Word, pals: Sequence[Word], alphabet: Alphabet
) -> PalindromicDecomposition:
    """Certificate for u^-1 (p1 ... pk) u with k factors for even k and
    k + 1 for odd k.

    Consecutive palindromes pair up as (u^-1 p_i star(u)) (rev(u) p_{i+1} u),
    both symmetric strings whose junction star(u) rev(u) cancels; an odd
    tail pays one extra factor through the symmetric pair
    (u^-1 p star(u)) (rev(u) u).
    """
    pals = tuple(pals)
    if not pals:
        raise ValueError("need at least one palindrome to conjugate")
    for p in pals:
        _require_palindrome(p)
    u_inv = u.inverse()
    u_star = _star(u)
    u_rev = u.reverse()
    factors: list[Word] = []
    for i in range(0, len(pals) - 1, 2):
        factors.append(u_inv * pals[i] * u_star)
        factors.append(u_rev * pals[i + 1] * u)
    if len(pals) % 2:
        factors.append(u_inv * pals[-1] * u_star)
        factors.append(u_rev * u)
    target = u_inv * math.prod(pals, start=EMPTY) * u
    dec = PalindromicDecomposition(target, tuple(f for f in factors if f), alphabet)
    check_group_certificate(dec, _free_value, target, len(pals) + len(pals) % 2)
    return dec


def commutator_decomposition(
    u: Word, pals: Sequence[Word], alphabet: Alphabet
) -> PalindromicDecomposition:
    """Certificate for [u, p1 ... pk] with at most 2k + (k mod 2) factors:
    conjugate the reversed inverses, then append the palindromes themselves."""
    pals = tuple(pals)
    if not pals:
        raise ValueError("need at least one palindrome")
    for p in pals:
        _require_palindrome(p)
    product = math.prod(pals, start=EMPTY)
    conjugated = conjugate_decomposition(
        u, tuple(p.inverse() for p in reversed(pals)), alphabet
    )
    target = u.inverse() * product.inverse() * u * product
    dec = PalindromicDecomposition(
        target, tuple(f for f in conjugated.factors + pals if f), alphabet
    )
    check_group_certificate(dec, _free_value, target, 2 * len(pals) + len(pals) % 2)
    return dec
