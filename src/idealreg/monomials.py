"""Exponent-vector monomials and the orders used throughout.

A monomial in n variables is a plain tuple of n non-negative integers.
Variables are indexed 1..n and ordered x1 > x2 > ... > xn.  Textual names
``x1``..``xn`` and the single-letter aliases a, b, c, ... (for n <= 26) are
accepted on input; letters are used on output whenever n <= 26.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement

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
    """All degree-e monomials in n variables, tau (lex) descending.

    The multisets of e variable indices come from
    `combinations_with_replacement` in lex ascending order of the sorted
    indices, which is lex descending order of the exponent tuples."""
    if e < 0:
        return ()
    zero = [0] * n
    out = []
    for picks in combinations_with_replacement(range(n), e):
        u = zero.copy()
        for i in picks:
            u[i] += 1
        out.append(tuple(u))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_index(n, e):
    """Map monomial -> position in monomial_basis(n, e)."""
    return {m: k for k, m in enumerate(monomial_basis(n, e))}


def var_name(i, n):
    if n <= 26:
        return _LETTERS[i - 1]
    return f"x{i}"


# AMBIENT_GUARD bounds what an input's ambient costs before any exponent
# tuple is built: r generators in n variables weigh n * (r + 16) cells, an
# exponent per cell plus the state each layer keeps per variable (about 16
# cells' worth).  `parse_monomial`, `MonomialIdeal.padded` and
# `transversal_ideal` check it.  Fresh process, 2 cores, Python 3.11:
#   quotients search "ideal(x58823)":          999 991 cells  0.26 s  71 MB
#   betti --cap 2 "ideal(x1, ..., x99, x8620)": 999 920 cells  1.07 s  34 MB
#   polymatroid check, the x_i x_j in 100 vars: 496 600 cells  0.82 s  61 MB
#   quotients check "ideal(x3000000)": 51 000 000 cells, refused in 0.11 s
AMBIENT_GUARD = 1_000_000


def check_ambient(n, gens):
    """Refuse gens generators in n variables past AMBIENT_GUARD."""
    cells = n * (gens + 16)
    if cells > AMBIENT_GUARD:
        raise ValueError(f"{gens} generators in {n} variables weigh {cells} cells, "
                         f"above AMBIENT_GUARD = {AMBIENT_GUARD}")


_FACTOR_RE = re.compile(r"^(x(\d+)|[a-z])(?:\^(\d+))?$")


def parse_monomial(text, nvars=None, gens=1):
    """Parse ``a^2*b`` / ``x1^2*x3`` syntax.

    Returns (exponents, max_index_used); the tuple is padded to `nvars`
    when given, else to the largest index seen, once `check_ambient`
    admits it for the `gens` generators parsed with this one.
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
    check_ambient(n, gens)
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
