"""Exponent-vector monomials and the orders used throughout.

A monomial in n variables is a plain tuple of n non-negative integers.
Variables are indexed 1..n and ordered x1 > x2 > ... > xn.  Textual names
``x1``..``xn`` and the single-letter aliases a, b, c, ... (for n <= 26) are
accepted on input; letters are used on output whenever n <= 26.
"""

from __future__ import annotations

import re
from functools import lru_cache

Monomial = tuple  # tuple[int, ...]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def degree(u):
    return sum(u)


def support(u):
    """Sorted tuple of 1-based indices of the variables dividing u."""
    return tuple(i + 1 for i, e in enumerate(u) if e > 0)


def mono_mul(u, v):
    _same_ambient(u, v)
    return tuple(a + b for a, b in zip(u, v))


def mono_div(u, v):
    """u / v; raises if v does not divide u."""
    _same_ambient(u, v)
    w = tuple(a - b for a, b in zip(u, v))
    if any(e < 0 for e in w):
        raise ValueError("not divisible")
    return w


def divides(v, u):
    _same_ambient(u, v)
    return all(b <= a for a, b in zip(u, v))


def gcd_monomial(u, v):
    _same_ambient(u, v)
    return tuple(min(a, b) for a, b in zip(u, v))


def lcm_monomial(u, v):
    _same_ambient(u, v)
    return tuple(max(a, b) for a, b in zip(u, v))


def variable(i, n):
    """The monomial x_i in n variables."""
    if not 1 <= i <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def one(n):
    return (0,) * n


def compare_tau(u, v):
    """Lexicographic comparison with x1 > x2 > ... > xn; returns -1, 0 or 1."""
    _same_ambient(u, v)
    for a, b in zip(u, v):
        if a != b:
            return 1 if a > b else -1
    return 0


@lru_cache(maxsize=None)
def monomial_basis(n, e):
    """All degree-e monomials in n variables, tau (lex) descending."""
    if n == 0:
        return ((),) if e == 0 else ()
    if n == 1:
        return ((e,),)
    out = []
    for a in range(e, -1, -1):
        out.extend((a,) + rest for rest in monomial_basis(n - 1, e - a))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(n, e):
    """Map monomial -> position in monomial_basis(n, e)."""
    return {m: k for k, m in enumerate(monomial_basis(n, e))}


def var_name(i, n):
    if n <= 26:
        return _LETTERS[i - 1]
    return f"x{i}"


_FACTOR_RE = re.compile(r"^(x(\d+)|[a-z])(?:\^(\d+))?$")


def parse_monomial(text, nvars=None):
    """Parse ``a^2*b`` / ``x1^2*x3`` syntax.

    Returns (exponents, max_index_used); the tuple is padded to `nvars`
    when given, else to the largest index seen.
    """
    text = text.strip()
    exps = {}
    top = 0
    if text != "1":
        for factor in text.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if m is None:
                raise ValueError(f"bad monomial factor {factor!r}")
            name, xi, exp = m.groups()
            if xi is not None:
                i = int(xi)
                if i < 1:
                    raise ValueError(f"bad variable index in {factor!r}")
            else:
                i = _LETTERS.index(name) + 1
            exps[i] = exps.get(i, 0) + (1 if exp is None else int(exp))
            top = max(top, i)
    n = top if nvars is None else nvars
    if top > n:
        raise ValueError(f"variable index {top} exceeds ambient {n}")
    return tuple(exps.get(i, 0) for i in range(1, n + 1)), top


def format_monomial(u):
    if all(e == 0 for e in u):
        return "1"
    n = len(u)
    parts = []
    for i, e in enumerate(u, start=1):
        if e == 1:
            parts.append(var_name(i, n))
        elif e > 1:
            parts.append(f"{var_name(i, n)}^{e}")
    return "*".join(parts)


def _same_ambient(u, v):
    if len(u) != len(v):
        raise ValueError(f"ambient mismatch: {len(u)} vs {len(v)} variables")
