"""Brute-force oracles and samplers that only the tests use.

The library computes each of these quantities along a faster route; the
tests compare that route against the plain definition here.
"""

from itertools import combinations

from idealreg import linalg
from idealreg.chains import canonical_decomposition, gamma
from idealreg.graded import degree_piece, ring_dim
from idealreg.linforms import (
    DecompositionReport,
    power_piece,
    primary_components,
    product_generators,
)
from idealreg.monomials import degree, divides, mono_div, mono_mul, one, support, variable
from idealreg.samplers import random_transversal_ideal, random_uniform_matroid_ideal


def is_chain(u):
    """Squarefree with support indices increasing by gaps of at least 2."""
    if degree(u) < 1:
        raise ValueError("the unit monomial is not a chain")
    if any(e > 1 for e in u):
        return False
    supp = support(u)
    return all(b - a > 1 for a, b in zip(supp, supp[1:]))


def all_chain_decompositions(u):
    """Every factorization of u into gap chains, by brute force."""
    if degree(u) == 0:
        return [()]
    n = len(u)
    supp = [i for i in range(1, n + 1) if u[i - 1] > 0]
    chains = []
    for r in range(1, len(supp) + 1):
        for picks in combinations(supp, r):
            if all(b - a > 1 for a, b in zip(picks, picks[1:])):
                m = one(n)
                for i in picks:
                    m = mono_mul(m, variable(i, n))
                chains.append(m)
    out = []
    seen = set()

    def walk(rest, acc):
        if degree(rest) == 0:
            key = tuple(sorted(acc))
            if key not in seen:
                seen.add(key)
                out.append(tuple(acc))
            return
        for c in chains:
            if all(a <= b for a, b in zip(c, rest)):
                walk(mono_div(rest, c), acc + [c])

    walk(tuple(u), [])
    return out


def gamma_of_monomial(t, u):
    return gamma(t, canonical_decomposition(u).shape)


def compare_revlex(u, v):
    """Graded reverse-lex comparison of same-degree monomials.

    u > v when, at the last index where the exponents differ, u has the
    smaller exponent.
    """
    if len(u) != len(v):
        raise ValueError(f"ambient mismatch: {len(u)} vs {len(v)} variables")
    if degree(u) != degree(v):
        raise ValueError("revlex comparison requires equal degrees")
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return 1 if a < b else -1
    return 0


def contains_monomial(I, u):
    """u lies in the monomial ideal I: some generator divides it."""
    return any(divides(g, u) for g in I.gens)


def random_matroidal(rng, nmax=6):
    """Squarefree polymatroidal sample (no principal multiples)."""
    n = rng.randint(2, nmax)
    if rng.randrange(2):
        return random_uniform_matroid_ideal(rng, n)
    return random_transversal_ideal(rng, n)


def verify_decomposition_all_components(family, cap):
    """`linforms.verify_decomposition` without its shortcuts: the power
    piece of every one of the 2^d - 1 components, maximal ones and
    repeated ideals included, in every degree 0..cap, each built alone."""
    d = len(family)
    if cap < d:
        raise ValueError(f"cap {cap} below the product's generation degree {d}")
    p = family[0].characteristic
    product = product_generators(family)
    components = primary_components(family)
    dims = {}
    containment_ok = True
    for e in range(cap + 1):
        pp = degree_piece(product, e)
        ncols = ring_dim(product.nvars, e)
        complement = []
        pieces = []
        for comp in components:
            (cp,) = power_piece(comp.ideal, comp.exponent, [e])
            pieces.append(cp)
            complement.extend(
                linalg.kernel_basis(cp.rows, cp.pivots, ncols, p)
            )
        inter_dim = ncols - linalg.rank(complement, p)
        dims[e] = (pp.dim, inter_dim)
        if e == d:
            for g in product.generators:
                for cp in pieces:
                    if not cp.contains_vector(g.vector(p), p):
                        containment_ok = False
    equal = containment_ok and all(a == b for a, b in dims.values())
    return DecompositionReport(cap, dims, containment_ok, equal)
