"""Exact-arithmetic palindromic width computations for three classical
groups: the wreath product Z wr Z, the solvable Baumslag-Solitar groups
BS(1, n), and the rank-2 free nilpotent group of class 2. Factorizations
are emitted as machine-checkable certificates, and a group-agnostic brute
force engine cross-checks the width facts at desk scale.
"""

__version__ = "0.1.0"

from .palindromes import (
    CertificateError,
    NotAPalindromeError,
    PalindromicDecomposition,
    SelfCheckError,
    check_free,
    check_in_group,
    commutator_decomposition,
    conjugate_decomposition,
)
from .search import (
    BallTable,
    BudgetExceeded,
    Evaluator,
    PalSearchResult,
    ball_table,
    enumerate_palindromes,
    enumerate_reduced_words,
    pal_length_bounded,
)
from .words import AB, AT, EMPTY, Alphabet, Letter, ParseError, Word, parse, reduce

__all__ = [
    "AB",
    "AT",
    "EMPTY",
    "Alphabet",
    "BallTable",
    "BudgetExceeded",
    "CertificateError",
    "Evaluator",
    "Letter",
    "NotAPalindromeError",
    "PalSearchResult",
    "PalindromicDecomposition",
    "ParseError",
    "SelfCheckError",
    "Word",
    "__version__",
    "ball_table",
    "check_free",
    "check_in_group",
    "commutator_decomposition",
    "conjugate_decomposition",
    "enumerate_palindromes",
    "enumerate_reduced_words",
    "pal_length_bounded",
    "parse",
    "reduce",
]
