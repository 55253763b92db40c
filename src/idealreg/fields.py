"""Exact scalars: arbitrary-precision rationals (default) and GF(p).

A field is its characteristic p, 0 for QQ.  `field_of` is the one check
where a characteristic enters; below it code takes p and uses plain Python
arithmetic, reducing mod p where it needs to.  `scalar` maps an integer or
rational to a Fraction (p = 0), or to an int in 0..p-1, where a/b goes to
a times the inverse of b mod p.  The working field is chosen once per run.
"""

from __future__ import annotations

from fractions import Fraction as _rat


def scalar(a, p):
    """a in the field of characteristic p."""
    if not p:
        return _rat(a)
    if type(a) is int:
        return a % p
    a = _rat(a)
    if a.denominator % p == 0:
        raise ValueError(f"{a} is not defined in GF({p})")
    return a.numerator * pow(a.denominator, -1, p) % p


# Miller-Rabin with the twelve prime bases 2..37 decides primality exactly
# below PRIME_BOUND, the least composite that is a strong pseudoprime to all
# of them (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).  The
# largest characteristic accepted is therefore the largest prime below
# 318665857834031151167461, about 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 318665857834031151167461


def _is_prime(p):
    """Deterministic Miller-Rabin; ValueError at or above PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError(f"characteristic {p} is above the supported bound")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def field_of(characteristic):
    """The characteristic, checked: 0 (QQ) or a prime below PRIME_BOUND."""
    if characteristic != 0 and not _is_prime(characteristic):
        raise ValueError(f"{characteristic} is not prime")
    return characteristic
