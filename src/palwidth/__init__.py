"""Exact-arithmetic palindromic width computations for three classical
groups: the wreath product Z wr Z, the solvable Baumslag-Solitar groups
BS(1, n), and the rank-2 free nilpotent group of class 2. Factorizations
are emitted as machine-checkable certificates, and a group-agnostic brute
force engine cross-checks the width facts at desk scale.
"""

__version__ = "0.1.0"
