"""Linear quotients for monomial ideals.

An ordered generating sequence m_1, ..., m_k has linear quotients when each
colon ideal (m_1, ..., m_{t-1}) : m_t is generated by variables.  For an
equigenerated ideal this forces a linear resolution, and in general the
regularity of an ideal with linear quotients is the largest generator
degree, so a certificate doubles as a regularity computation.

Only monomial ideals are handled: their minimal generating set is unique,
so an exhaustive search over orderings of G(I) settles existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .ideals import MonomialIdeal, minimalize
from .monomials import (
    degree,
    format_monomial,
    gcd_monomial,
    mono_div,
    parse_monomial,
)

SEARCH_GUARD = 24


def monomial_colon(gens, u):
    """Minimal generators of (gens) : u, via v -> v/gcd(v, u)."""
    if all(e == 0 for e in u):
        raise ValueError("colon by the unit monomial is the ideal itself")
    return minimalize(mono_div(v, gcd_monomial(v, u)) for v in gens)


@dataclass(frozen=True)
class QuotientCertificate:
    """Ordered generators with the variable set of each successive colon."""

    nvars: int
    order: tuple  # generators in the certified order
    colon_vars: tuple  # per step, sorted tuple of 1-based variable indices

    def max_degree(self):
        return max(degree(u) for u in self.order)

    def render(self):
        lines = []
        for u, vs in zip(self.order, self.colon_vars):
            colon = "(0)" if not vs else "(" + ", ".join(
                format_monomial(tuple(1 if k == i - 1 else 0 for k in range(self.nvars)))
                for i in vs
            ) + ")"
            lines.append(f"{format_monomial(u)}  :  {colon}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "nvars": self.nvars,
            "order": [format_monomial(u) for u in self.order],
            "colon_vars": [list(vs) for vs in self.colon_vars],
        }

    @classmethod
    def from_dict(cls, d):
        n = d["nvars"]
        order = tuple(parse_monomial(s, n)[0] for s in d["order"])
        return cls(n, order, tuple(tuple(vs) for vs in d["colon_vars"]))


@dataclass(frozen=True)
class QuotientFailure:
    step: int  # 1-based index of the failing generator
    offender: tuple  # a colon generator of degree >= 2

    def __bool__(self):
        return False


def _linear_colon(prefix, u):
    """Variables generating (prefix) : u, or None if it needs more.

    No v in prefix may divide u.  The colon is generated by the
    w = max(v - u, 0); the degree-1 ones are the variables S in it, and it
    is generated by S exactly when every w meets S.
    """
    ws = [[a - b if a > b else 0 for a, b in zip(v, u)] for v in prefix]
    S = {w.index(1) for w in ws if sum(w) == 1}
    if all(any(w[i] for i in S) for w in ws):
        return tuple(sorted(i + 1 for i in S))
    return None


def check_order(nvars, ordered_gens):
    """Certify an explicit generator order, or report the failing step."""
    gens = [tuple(u) for u in ordered_gens]
    if not gens:
        raise ValueError("empty generating sequence")
    for u in gens:
        if len(u) != nvars:
            raise ValueError(f"ambient mismatch: {len(u)} vs {nvars} variables")
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            if i != j and all(map(le, v, u)):
                raise ValueError(
                    f"generating sequence is not minimal: {format_monomial(v)} "
                    f"divides {format_monomial(u)}"
                )
    steps = [()]
    for t in range(1, len(gens)):
        vars_ = _linear_colon(gens[:t], gens[t])
        if vars_ is None:
            colon = monomial_colon(gens[:t], gens[t])
            return QuotientFailure(t + 1, next(v for v in colon if degree(v) >= 2))
        steps.append(vars_)
    return QuotientCertificate(nvars, tuple(gens), tuple(steps))


def verify_certificate(cert):
    """Re-check a (possibly deserialized) certificate from scratch."""
    res = check_order(cert.nvars, cert.order)
    return isinstance(res, QuotientCertificate) and res.colon_vars == cert.colon_vars


def search_order(I):
    """Find an order with linear quotients, or prove none exists.

    Depth-first search over orderings of G(I); a prefix is extendable by u
    only when (prefix) : u is variable-generated, and whether u extends a
    prefix depends only on the prefix as a set, so dead prefix-sets are
    memoized.  The search is exhaustive: None means no order exists.
    """
    if isinstance(I, MonomialIdeal):
        gens = list(I.gens)
        nvars = I.nvars
    else:
        raise TypeError("search_order expects a MonomialIdeal")
    if len(gens) > SEARCH_GUARD:
        raise ValueError(f"search guard exceeded: {len(gens)} > {SEARCH_GUARD}")
    # by degree, then revlex-descending: reversed exponents ascending
    gens.sort(key=lambda u: (degree(u), u[::-1]))
    dead = set()

    def extend(prefix, remaining):
        if not remaining:
            return prefix
        key = frozenset(remaining)
        if key in dead:
            return None
        for k, u in enumerate(remaining):
            if prefix and _linear_colon(prefix, u) is None:
                continue
            res = extend(prefix + [u], remaining[:k] + remaining[k + 1 :])
            if res is not None:
                return res
        dead.add(key)
        return None

    order = extend([], gens)
    if order is None:
        return None
    cert = check_order(nvars, order)
    assert isinstance(cert, QuotientCertificate)
    return cert


def regularity_from_certificate(cert):
    """Regularity of an ideal with linear quotients: its top generator degree."""
    return cert.max_degree()
