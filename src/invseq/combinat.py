"""Closed-form counts for the commitment words used by the left-grown rules.

A "commitment" pre-declares the order in which marked zeros will be
incremented, encoded as a surjective word on {1..b}.  Two pattern regimes
occur: words avoiding 212, 112, 213 (rules R1+R2) and words additionally
avoiding 111 (rules R1+R3).  Both are counted by binomial-Catalan products;
everything here is exact integer arithmetic.
"""

from math import comb


def catalan(b: int) -> int:
    """C_b = binomial(2b, b) / (b + 1)."""
    if b < 0:
        raise ValueError("catalan undefined for negative index")
    return comb(2 * b, b) // (b + 1)


def words_R1R2(k: int, b: int) -> int:
    """Surjective words of length k on {1..b} avoiding 212, 112, 213.

    a_{k,b} = binomial(k-1, k-b) * C_b.  The empty word counts once
    (k = b = 0); b > k gives 0 since no surjective word exists.
    """
    if k == 0 and b == 0:
        return 1
    if b < 1 or b > k:
        return 0
    return comb(k - 1, k - b) * catalan(b)


def words_R1R3(k: int, b: int) -> int:
    """Surjective words of length k on {1..b} avoiding 111, 212, 112, 213.

    d_{k,b} = binomial(b, k-b) * C_b; zero when k > 2b (each letter can
    appear at most twice under the 111 ban).
    """
    if k == 0 and b == 0:
        return 1
    if b < 1 or b > k:
        return 0
    return comb(b, k - b) * catalan(b)


def multiplicity_m(ell: int, b: int) -> int:
    """m_{ell,b} = sum_{k=b}^{ell} a_{k,b} = binomial(ell, b) * C_b."""
    if b < 0 or b > ell:
        return 0
    return comb(ell, b) * catalan(b)


def multiplicity_w(ell: int, b: int) -> int:
    """w_{ell,b} = d_{ell-1,b} + d_{ell,b} = binomial(b+1, ell-b) * C_b.

    Out-of-support arguments return 0 rather than raising; the succession
    rule's stated range ceil((ell-1)/2) <= b <= ell is exactly the support.
    """
    if b < 0 or b > ell:
        return 0
    return comb(b + 1, ell - b) * catalan(b)
