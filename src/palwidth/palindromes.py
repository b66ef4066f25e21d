"""Palindromic factorization certificates in the free group.

The generic word-level constructions: conjugates and commutators of
palindrome products. Every constructor returns a PalindromicDecomposition
that has already passed `check_free`; the checker only uses word
primitives (reversal, reduction, concatenation), so it stays independent
of the construction code it validates.

Factor-count bookkeeping: conjugating a product of k palindromes costs
k + (k mod 2) factors, and a commutator against such a product costs
2k + (k mod 2). Factors that reduce to the empty word are dropped, so the
counts are upper bounds.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .words import Alphabet, Word


class NotAPalindromeError(ValueError):
    """An input that must be a palindrome is not one."""


class CertificateError(ValueError):
    """A decomposition failed validation."""


class SelfCheckError(RuntimeError):
    """A construction failed its own re-verification; this is a bug."""


class PalindromicDecomposition(NamedTuple):
    """An ordered factorization of `target` into palindromic words.

    For the free-group constructions in this module the factor product
    freely reduces to the target; group-level constructors (wreath,
    Baumslag-Solitar) validate the product under their exact evaluator
    instead, via `check_in_group`.
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
    product = Word()
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


def check_free(dec: PalindromicDecomposition) -> None:
    """Validate in the free group: palindromic factors whose reduced
    concatenation equals the target. Raises CertificateError."""
    product = _check_factors(dec)
    if product != dec.target:
        raise CertificateError(
            f"factor product {str(product)!r} does not reduce to target {str(dec.target)!r}"
        )


def check_in_group(dec: PalindromicDecomposition, evaluate: Callable[[Word], object]) -> object:
    """Validate with group equality decided by an exact evaluator; returns
    the target's value, so a caller need not evaluate it again."""
    product = _check_factors(dec)
    value = evaluate(dec.target)
    if evaluate(product) != value:
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


def _free_certificate(
    target: Word, factors: Sequence[Word], alphabet: Alphabet
) -> PalindromicDecomposition:
    dec = PalindromicDecomposition(target, tuple(f for f in factors if f), alphabet)
    check_free(dec)
    return dec


def _concat(ws: Sequence[Word]) -> Word:
    out = Word()
    for w in ws:
        out = out * w
    return out


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
    target = u_inv * _concat(pals) * u
    return _free_certificate(target, factors, alphabet)


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
    product = _concat(pals)
    conjugated = conjugate_decomposition(
        u, tuple(p.inverse() for p in reversed(pals)), alphabet
    )
    target = u.inverse() * product.inverse() * u * product
    return _free_certificate(target, conjugated.factors + pals, alphabet)
