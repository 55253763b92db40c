"""Brute-force oracles and samplers that only the tests use.

The library computes each of these quantities along a faster route; the
tests compare that route against the plain definition here.
"""

import inspect
import random
from functools import cmp_to_key
from itertools import combinations

from hypothesis import strategies as st

from idealreg import linalg
from idealreg.chains import OmegaSet, canonical_decomposition, gamma, sigma_compare
from idealreg.graded import degree_piece, ring_dim
from idealreg.ideals import MonomialIdeal
from idealreg.linforms import (
    DecompositionReport,
    power_piece,
    primary_components,
    product_generators,
)
from idealreg.monomials import (
    degree,
    divides,
    format_monomial,
    mono_div,
    mono_mul,
    monomial_basis,
    one,
    support,
    variable,
)
from idealreg.quotients import GeneratorIndex
from idealreg.samplers import (
    random_polymatroidal,
    random_transversal_ideal,
    random_uniform_matroid_ideal,
)


def lcm_monomial(u, v):
    return tuple(map(max, u, v))


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


def omega_oracle(spec):
    """Omega of a chain product by its definition: every degree-sum(t)
    monomial m with gamma_i(m) >= gamma_i(t) for i = 1..t_1, each gamma
    taken through the validated `gamma`, sorted sigma-descending by
    `sigma_compare`."""
    members = [
        m for m in monomial_basis(spec.nvars, spec.total_degree)
        if all(gamma_of_monomial(i, m) >= gamma(i, spec.sizes)
               for i in range(1, spec.sizes[0] + 1))
    ]
    members.sort(key=cmp_to_key(sigma_compare), reverse=True)
    return OmegaSet(spec, tuple(members))


def mutant(module, name, edits):
    """`module.name` recompiled from the module's source with each
    (old, new) of `edits` applied; every `old` must occur exactly once."""
    source = inspect.getsource(module)
    for old, new in edits:
        assert source.count(old) == 1, f"mutation anchor {old!r} not unique"
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant of {module.__name__}>", "exec"), namespace)
    return namespace[name]


# mutants of `chains.omega`, each (old, new) edits of chains.py
OMEGA_MUTANTS = {
    "gamma index off by one": [
        ("gamma(i, shape) >= gamma(i, sizes)",
         "gamma(i + 1, shape) >= gamma(i, sizes)"),
    ],
    "sort not reversed": [
        ("members.sort(key=sigma_key, reverse=True)",
         "members.sort(key=sigma_key)"),
    ],
    "memo keyed on degree": [
        ("ok = verdicts.get(shape)", "ok = verdicts.get(sum(shape))"),
        ("ok = verdicts[shape] =", "ok = verdicts[sum(shape)] ="),
    ],
}


# mutants of the minimality check of `quotients.GeneratorIndex`, each
# (old, new) edits of quotients.py
MINIMALITY_MUTANTS = {
    "last variable left out of the set above g_k": [
        ("for high in highs:", "for high in highs[:-1]:"),
    ],
    "highest divisor named": [
        ("(divisors & -divisors).bit_length() - 1", "divisors.bit_length() - 1"),
    ],
}


def minimality_error(gens):
    """The error `check_order` raises on a sequence in which a member
    divides another, or None: every ordered pair is scanned, and the first
    member u that another one divides is named with the first such v."""
    pair = next(((v, u) for i, u in enumerate(gens)
                 for j, v in enumerate(gens)
                 if i != j and divides(v, u)), None)
    if pair is None:
        return None
    v, u = pair
    return (f"generating sequence is not minimal: {format_monomial(v)} "
            f"divides {format_monomial(u)}")


# mutants of `quotients.search_order`'s must-precede pruning, each (old, new)
# edits of quotients.py
SEARCH_MUTANTS = {
    "precedence edge reversed": [
        ("need[b] |= 1 << k", "need[k] |= 1 << b"),
    ],
    "predecessors looked up in the prefix": [
        ("if need[k] & remaining or", "if need[k] & prefix or"),
    ],
    "blocked set from the empty prefix": [
        ("index.covered(k, others)", "index.covered(k, 0)"),
    ],
    "cycle test ignores placed generators": [
        ("if left >> b & 1 and not n & left)", "if left >> b & 1 and not n)"),
    ],
}


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


def contains_vector(piece, vec, p):
    """vec lies in the subspace of the `DegreePiece` piece: it reduces to
    zero against the piece's quotient basis."""
    return not piece.quotient.reduce(vec, p)


def intersect(I, J):
    """Intersection of monomial ideals: pairwise lcms, minimalized."""
    if I.nvars != J.nvars:
        raise ValueError("ambient mismatch")
    return MonomialIdeal.from_gens(
        I.nvars, (lcm_monomial(u, v) for u in I.gens for v in J.gens)
    )


def colon_by_variable_power(I, i):
    """(I : x_i^infinity): zero out the x_i exponent of every generator."""
    gens = []
    for g in I.gens:
        h = list(g)
        h[i - 1] = 0
        gens.append(tuple(h))
    return MonomialIdeal.from_gens(I.nvars, gens)


def saturation(I):
    """(I : m^infinity) computed combinatorially."""
    acc = None
    for i in range(1, I.nvars + 1):
        J = colon_by_variable_power(I, i)
        acc = J if acc is None else intersect(acc, J)
    return acc


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
                    if not contains_vector(cp, g.vector(p), p):
                        containment_ok = False
    equal = containment_ok and all(a == b for a, b in dims.values())
    return DecompositionReport(cap, dims, containment_ok, equal)


def random_equigenerated(n, d, k, seed):
    """min(k, dim R_d) distinct degree-d monomials in n variables."""
    basis = monomial_basis(n, d)
    rng = random.Random(seed)
    return MonomialIdeal.from_gens(n, rng.sample(basis, min(k, len(basis))))


def equigenerated_ideals(nmax=6, dmax=3, kmax=8):
    """Hypothesis strategy for `random_equigenerated` with n in 2..nmax,
    d in 1..dmax and k in 1..kmax."""
    return st.tuples(
        st.integers(2, nmax), st.integers(1, dmax), st.integers(1, kmax),
        st.integers(0, 10**6),
    ).map(lambda args: random_equigenerated(*args))


def random_polymatroidal_product(seed, nmax=6, max_gens=60):
    """I * J for polymatroidal I, J of the samplers, redrawn until G(IJ)
    has at most max_gens generators."""
    rng = random.Random(seed)
    while True:
        I = random_polymatroidal(rng, nmax=nmax)
        J = random_polymatroidal(rng, nmax=nmax)
        n = max(I.nvars, J.nvars)
        P = I.padded(n).product(J.padded(n))
        if len(P.gens) <= max_gens:
            return P


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


def search_order_oracle(I):
    """An order of G(I) with linear quotients, or None: depth-first over
    orders of G(I) by degree and then revlex-descending, prefixes checked
    with `_linear_colon` on the members and dead remainders memoized as
    frozensets."""
    gens = sorted(I.gens, key=lambda u: (degree(u), u[::-1]))
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

    return extend([], gens)


class DroppedNeighbour(GeneratorIndex):
    """Mutant index: the first neighbour of g_0 is missing."""

    def __init__(self, gens):
        super().__init__(gens)
        if self.raises[0]:
            (i, ups, above), *rest = self.raises[0]
            self.raises[0] = ((i, ups & (ups - 1), above), *rest)


class AboveAtLeast(GeneratorIndex):
    """Mutant index: above[i][c] holds exponents >= c instead of > c."""

    def __init__(self, gens):
        super().__init__(gens)
        self.above = [{c: high | at[c] for c, high in above.items()}
                      for at, above in zip(self.at, self.above)]
        self.raises = [
            tuple((i, ups, self.above[i][u[i]]) for i, ups, _ in raises)
            for u, raises in zip(self.gens, self.raises)
        ]


class UnexcludedUps(GeneratorIndex):
    """Mutant index: ups = at[i][e + 1], the g one above g_k in x_i, also
    those above g_k in another variable, as `twice` is empty."""

    def __init__(self, gens):
        super().__init__(gens)
        self.twice = [0] * len(gens)
