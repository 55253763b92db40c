"""Polymatroidal ideals: exchange checks, products, transversal ideals.

An equigenerated monomial ideal is polymatroidal when its exponent vectors
satisfy the exchange axiom: for generators u, v and any i with
nu_i(u) > nu_i(v) there is a j with nu_j(v) > nu_j(u) and x_j * u / x_i
again a generator.  Products of polymatroidal ideals are polymatroidal,
and squarefree (matroidal) ideals are closed under squarefree products;
both closure facts are re-asserted on every product this module builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .ideals import MonomialIdeal
from .monomials import format_monomial, mono_mul, variable
from .quotients import (
    GeneratorIndex,
    QuotientCertificate,
    check_order,
    revlex_desc,
)


@dataclass(frozen=True)
class ExchangeFailure:
    """Witness that the exchange axiom fails at (u, v, i): no admissible j."""

    u: tuple
    v: tuple
    index: int  # 1-based i with nu_i(u) > nu_i(v)
    reason: str = "no exchange index"

    def __bool__(self):
        return False

    def render(self):
        return (
            f"exchange fails for u = {format_monomial(self.u)}, "
            f"v = {format_monomial(self.v)}, i = x{self.index}: {self.reason}"
        )


def is_polymatroidal(I):
    """True, or the first ExchangeFailure in deterministic order.

    Pairs are scanned with u and v revlex-descending and i ascending.  On a
    bitset index of G(I) in that order, the v failing at i for a fixed u are
    those with nu_i(v) < nu_i(u) and nu_j(v) <= nu_j(u) for every j with
    x_j u / x_i in G(I); the lowest bit over all i is the first failing v.
    """
    if not I.is_equigenerated:
        g = I.gens
        return ExchangeFailure(g[0], g[-1], 0, "not equigenerated")
    ordered = revlex_desc(I.gens)
    index = GeneratorIndex(ordered)
    above = index.above
    n = I.nvars
    every = (1 << len(ordered)) - 1
    for u, moves in zip(ordered, index.moves):
        # reached[i]: the v with nu_j(v) > nu_j(u) for some x_j u / x_i in G(I)
        reached = [0] * n
        for j, i, _ in moves:
            reached[i] |= above[j][u[j]]
        fails = [every & ~above[i][u[i] - 1] & ~reached[i] if u[i] else 0
                 for i in range(n)]
        failing = reduce(or_, fails, 0)
        if failing:
            first = failing & -failing
            i = next(i for i, f in enumerate(fails) if f & first)
            return ExchangeFailure(u, ordered[first.bit_length() - 1], i + 1)
    return True


def polymatroidal_product(I, J):
    """G(IJ) for polymatroidal factors; the product is asserted polymatroidal."""
    for X in (I, J):
        res = is_polymatroidal(X)
        if res is not True:
            raise ValueError(f"factor not polymatroidal: {res.render()}")
    P = I.product(J)
    post = is_polymatroidal(P)
    assert post is True, f"product lost the exchange property: {post.render()}"
    return P


def revlex_certificate(I):
    """Linear-quotient certificate for G(I) in revlex-descending order."""
    res = is_polymatroidal(I)
    if res is not True:
        raise ValueError(f"not polymatroidal: {res.render()}")
    cert = check_order(I.nvars, revlex_desc(I.gens))
    assert isinstance(cert, QuotientCertificate), (
        "revlex order must give linear quotients on a polymatroidal ideal"
    )
    return cert


def is_matroidal(I):
    """Squarefree and polymatroidal."""
    if not I.is_squarefree:
        return False
    return is_polymatroidal(I) is True


def squarefree_product(I, J):
    """I * J: minimal set among the squarefree products uv; asserted matroidal."""
    for X in (I, J):
        if not is_matroidal(X):
            raise ValueError("squarefree product needs matroidal factors")
    products = (mono_mul(u, v) for u in I.gens for v in J.gens)
    prods = [w for w in products if all(e <= 1 for e in w)]
    if not prods:
        raise ValueError("no squarefree product of generators exists")
    P = MonomialIdeal.from_gens(I.nvars, prods)
    assert is_matroidal(P), "squarefree product lost matroidality"
    return P


def transversal_ideal(nvars, subsets):
    """Iterated squarefree product of variable ideals (x_i : i in A_k).

    Generators correspond to systems of distinct representatives of the
    subsets; absence of any transversal is an error.
    """
    subsets = [tuple(sorted(set(A))) for A in subsets]
    if not subsets or any(not A for A in subsets):
        raise ValueError("subsets must be nonempty")
    for A in subsets:
        if A[0] < 1 or A[-1] > nvars:
            raise ValueError("variable index out of range")
    acc = MonomialIdeal.from_gens(nvars, [variable(i, nvars) for i in subsets[0]])
    for A in subsets[1:]:
        nxt = MonomialIdeal.from_gens(nvars, [variable(i, nvars) for i in A])
        try:
            acc = squarefree_product(acc, nxt)
        except ValueError as exc:
            if "no squarefree product" in str(exc):
                raise ValueError("no transversal exists for the subsets") from exc
            raise
    return acc
