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

from . import check
from .ideals import MonomialIdeal
from .monomials import format_monomial, mono_mul, variable
from .quotients import QuotientCertificate, check_order  # noqa: F401 (bench/selftest.py traces it)


TRANSVERSAL_GUARD = 10_000_000
# transversal_ideal multiplies one subset in at a time, and each product
# runs the exchange check on its result, which takes up to
# r * n * min(n, r) steps on r generators in n variables.  Before each
# product the c = |G(acc)| * |A_k| candidate products bound r, and
# TRANSVERSAL_GUARD bounds the sum of c * n * min(n, c) over the products
# so far.  Timings of `polymatroid transversal`, in-process with the
# guard lifted (2 cores, Python 3.11; median of three), as generators,
# steps -> time and peak RSS:
#   6 copies of {1..12}:                   924,   2 738 880 -> 0.14 s,  23 MB
#   12 disjoint pairs in 24 variables:    4096,   4 708 224 -> 0.56 s,  59 MB
#   8 disjoint triples in 24 variables:   6561,   5 662 872 -> 0.82 s, 126 MB
#   5 disjoint 6-sets in 30 variables:    7776,   8 391 600 -> 1.14 s, 223 MB
#   6 copies of {1..14}:                  3003,   9 527 168 -> 0.42 s,  42 MB
#   13 disjoint pairs in 26 variables:    8192,  11 062 688 -> 1.56 s, 172 MB (refused)
#   7 copies of {1..14}:                  3432,  17 767 400 -> 0.67 s,  50 MB (refused)
#   12 disjoint pairs, 10 singletons:     4096,  56 791 968 -> 4.17 s,  84 MB (refused)
#   {1..100}, then 190 singletons:         100, 551 000 000 -> 5.04 s,  22 MB (refused)
#   8 copies of {1..16}:                 12870, 107 855 872 -> 7.00 s, 384 MB (refused)


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

    Pairs are scanned with u and v revlex-descending and i ascending.  On
    the bitset index of G(I) in that order (`I.generator_index`), the v
    failing at i for a fixed u are those with nu_i(v) < nu_i(u) and
    nu_j(v) <= nu_j(u) for every j with x_j u / x_i in G(I); the lowest bit
    over all i is the first failing v.  The generators of one degree
    reached from u by raising x_j are the x_j u / x_l, so x_j u / x_i is
    among them exactly when one of them has less x_i than u.
    """
    if not I.is_equigenerated:
        g = I.gens
        return ExchangeFailure(g[0], g[-1], 0, "not equigenerated")
    index = I.generator_index
    ordered = index.gens
    every = (1 << len(ordered)) - 1
    for u, raises in zip(ordered, index.raises):
        fails = []
        for at, above, e in zip(index.at, index.above, u):
            # lower: the v with less x_i than u
            f = lower = every & ~(at[e] | above[e]) if e else 0
            if f:  # drop the v above u in some x_j with x_j u / x_i in G(I)
                for _, ups, higher in raises:
                    if ups & lower:
                        f &= ~higher
            fails.append(f)
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
    check(post is True, lambda: f"product lost the exchange property: {post.render()}")
    return P


def revlex_certificate(I):
    """Linear-quotient certificate for G(I) in revlex-descending order:
    the `certificate` of the index of G(I) that the exchange check read."""
    res = is_polymatroidal(I)
    if res is not True:
        raise ValueError(f"not polymatroidal: {res.render()}")
    cert = I.generator_index.certificate()
    check(isinstance(cert, QuotientCertificate),
          "revlex order must give linear quotients on a polymatroidal ideal")
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
    P = _squarefree_product(I, J)
    if P is None:
        raise ValueError("no squarefree product of generators exists")
    return P


def _squarefree_product(I, J):
    """`squarefree_product` of factors known to be matroidal, or None when
    no product of generators is squarefree."""
    products = (mono_mul(u, v) for u in I.gens for v in J.gens)
    prods = [w for w in products if all(e <= 1 for e in w)]
    if not prods:
        return None
    P = MonomialIdeal.from_gens(I.nvars, prods)
    check(is_matroidal(P), "squarefree product lost matroidality")
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
    steps = 0
    for k, A in enumerate(subsets[1:], 2):
        products = len(acc.gens) * len(A)
        steps += products * nvars * min(nvars, products)
        if steps > TRANSVERSAL_GUARD:
            raise ValueError(
                f"the products up to subset {k} take {steps} exchange steps, "
                f"above TRANSVERSAL_GUARD = {TRANSVERSAL_GUARD}"
            )
        nxt = MonomialIdeal.from_gens(nvars, [variable(i, nvars) for i in A])
        # variable ideals are matroidal, and acc was asserted so when built
        acc = _squarefree_product(acc, nxt)
        if acc is None:
            raise ValueError("no transversal exists for the subsets")
    return acc
