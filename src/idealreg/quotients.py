"""Linear quotients for monomial ideals.

An ordered generating sequence m_1, ..., m_k has linear quotients when each
colon ideal (m_1, ..., m_{t-1}) : m_t is generated by variables.  For an
equigenerated ideal this forces a linear resolution, and in general the
regularity of an ideal with linear quotients is the largest generator
degree, so a certificate doubles as a regularity computation.

Only monomial ideals are handled: their minimal generating set is unique,
so an exhaustive search over orderings of G(I) settles existence.  Colons
are read off a bitset index of the generators (`GeneratorIndex`), of any
degrees, whose build also refuses a sequence in which one generator
divides another.

A `MonomialIdeal` holds one index of its generators in `revlex_desc`
order (`MonomialIdeal.generator_index`), built on first read.
`search_order`, `greedy_order` and `polymatroid.is_polymatroidal` read
it, and `polymatroid.revlex_certificate` is its `certificate`.
`greedy_order`, the route of `betti`, refuses past INDEX_GUARD for the
r^2 n bit operations of building an index before it reads one.
`check_order` builds an index of its own for the order it is given, and
so does `verify_certificate` through it: a certificate is re-checked from
scratch, not from the state of the search that found it.

Before `search_order` starts its search it fixes which generators must
come before which.  For a generator g_k write w_b = max(g_b - g_k, 0) and
let S_k be the variables x_i equal to some w_b, b != k.  The colon of a
prefix by g_k is generated by variables exactly when every member's w
meets the variables among the members' w.  Those variables lie in S_k for
every prefix, so a g_b whose w_b meets no variable of S_k fails g_k's test
in every prefix that holds it: g_k comes before g_b in every order with
linear quotients.  The search skips a candidate that still waits on such
a predecessor, and a cycle in the relation means no order exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import check
from .ideals import MonomialIdeal, minimalize
from .monomials import (
    degree,
    format_monomial,
    gcd_monomial,
    mono_div,
    parse_monomial,
    var_name,
)

SEARCH_GUARD = 24

# INDEX_GUARD bounds r^2 n, the bit operations of building an index of r
# generators in n variables (a few r-bit ORs per generator and variable).
# `greedy_order` builds two, its own and `check_order`'s.  Its time and
# peak RSS in a fresh process with the guard lifted (2 cores, Python 3.11)
# on the squarefree Veronese ideals I_{m,d} (degree d, m variables):
#   I_{15,7}:   r^2 n = 0.62e9   0.27 s   36 MB
#   I_{16,6}:   r^2 n = 1.03e9   0.29 s   47 MB
#   I_{100,2}:  r^2 n = 2.45e9   0.86 s   98 MB  (refused)
#   I_{26,4}:   r^2 n = 5.81e9   1.40 s  128 MB  (refused)
INDEX_GUARD = 1_500_000_000


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
            colon = ", ".join(var_name(i, self.nvars) for i in vs) or "0"
            lines.append(f"{format_monomial(u)}  :  ({colon})")
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


def revlex_desc(gens):
    """Monomials by degree, then revlex-descending: reversed exponents ascending."""
    return sorted(gens, key=lambda u: (degree(u), u[::-1]))


class GeneratorIndex:
    """Bitset index of monomials g_0, ..., g_{r-1} of any degrees, none
    dividing another.

    Bit k of an int stands for g_k.  `at[i][c]` is the set of g with
    exponent c of x_i and `above[i][c]` the set with a greater one, both
    keyed by the exponents of x_i that occur, so the index holds at most r
    entries per variable whatever the exponents.

    w = max(g_b - g_k, 0) is the variable x_i exactly when g_b exceeds g_k
    by one in x_i and in no other variable: g_b is in ups = at[i][g_k[i] + 1]
    and not in `twice[k]`, the g above g_k in two variables or more.
    `raises[k]` holds the shared sets (i, ups, above[i][g_k[i]]) per x_i
    with ups nonempty; `covered` and `colon` take twice[k] out of the
    prefix.  For gens of one degree these g_b are the moves g_k x_i / x_j.

    The build checks that no g divides another: the g above g_k in no
    variable are its divisors, g_k included.  For the first g_k with
    another divisor it raises ValueError naming the lowest one, so a
    repeated generator is reported too.

    An index is not changed once built, so one index serves every check on
    one order of the generators: `MonomialIdeal.generator_index` holds the
    one in `revlex_desc` order, and `certificate` checks that order.
    """

    def __init__(self, gens):
        gens = tuple(gens)
        self.gens = gens
        self.at = []
        self.above = []
        for column in zip(*gens):  # one pass per variable
            at = {}
            for k, c in enumerate(column):
                at[c] = at.get(c, 0) | 1 << k
            above = {}
            acc = 0
            for c in sorted(at, reverse=True):
                above[c] = acc
                acc |= at[c]
            self.at.append(at)
            self.above.append(above)
        self.raises = []
        self.twice = []
        every = (1 << len(gens)) - 1
        for k, u in enumerate(gens):
            highs = [above[e] for above, e in zip(self.above, u)]
            once = twice = 0  # the g above u in some variable, in two or more
            for high in highs:
                twice |= once & high
                once |= high
            # the g above u in no variable divide u
            divisors = every & ~once ^ 1 << k
            if divisors:
                v = gens[(divisors & -divisors).bit_length() - 1]
                raise ValueError(
                    f"generating sequence is not minimal: {format_monomial(v)} "
                    f"divides {format_monomial(u)}"
                )
            self.twice.append(twice)
            self.raises.append(tuple(
                (i, at[e + 1], high) for i, (at, e, high)
                in enumerate(zip(self.at, u, highs)) if e + 1 in at))

    def covered(self, k, prefix):
        """Bits of the g_b whose w_b = max(g_b - g_k, 0) meets a variable
        that is the w of some member of prefix."""
        prefix &= ~self.twice[k]
        covered = 0
        for _, ups, above in self.raises[k]:
            if ups & prefix:
                covered |= above
        return covered

    def colon(self, k, prefix):
        """Variables generating (g_b : b in prefix) : g_k, or None.

        The colon is generated by the w_b = max(g_b - g_k, 0); the degree-1
        ones are the variables in it, and it is generated by them exactly
        when every w_b of the prefix meets one of them.
        """
        raised = prefix & ~self.twice[k]
        covered = 0
        vars_ = []
        for i, ups, above in self.raises[k]:
            if ups & raised:
                covered |= above
                vars_.append(i + 1)
        return None if prefix & ~covered else tuple(vars_)

    def linear(self, k, prefix):
        """Whether (g_b : b in prefix) : g_k is generated by variables:
        `colon(k, prefix) is not None`, without building the variables."""
        return not prefix & ~self.covered(k, prefix)

    def certificate(self):
        """The `QuotientCertificate` of the order g_0, ..., g_{r-1}, or the
        `QuotientFailure` at its first colon not generated by variables."""
        gens = self.gens
        steps = [()]
        for t in range(1, len(gens)):
            vars_ = self.colon(t, (1 << t) - 1)
            if vars_ is None:
                colon = monomial_colon(gens[:t], gens[t])
                return QuotientFailure(t + 1, next(v for v in colon if degree(v) >= 2))
            steps.append(vars_)
        return QuotientCertificate(len(gens[0]), gens, tuple(steps))


def check_order(nvars, ordered_gens):
    """Certify an explicit generator order, or report the failing step: the
    `certificate` of a fresh `GeneratorIndex`, whose build refuses a
    sequence that is not minimal."""
    gens = [tuple(u) for u in ordered_gens]
    if not gens:
        raise ValueError("empty generating sequence")
    for u in gens:
        if len(u) != nvars:
            raise ValueError(f"ambient mismatch: {len(u)} vs {nvars} variables")
    return GeneratorIndex(gens).certificate()


def verify_certificate(cert):
    """Re-check a (possibly deserialized) certificate from scratch."""
    res = check_order(cert.nvars, cert.order)
    return isinstance(res, QuotientCertificate) and res.colon_vars == cert.colon_vars


def _must_precede(index):
    """need[b]: the bits of the generators that come before g_b in every
    order of index.gens with linear quotients, the g_k whose colon test
    with every other generator as prefix does not pass g_b (see
    `search_order`).
    """
    r = len(index.gens)
    full = (1 << r) - 1
    need = [0] * r
    for k in range(r):
        others = full ^ (1 << k)
        blocked = others & ~index.covered(k, others)
        for b in range(r):
            if blocked >> b & 1:
                need[b] |= 1 << k
    return need


def _has_cycle(need):
    """Whether the must-precede relation `need` has a cycle: peeling off
    the generators with nothing left to wait on stalls before the end."""
    left = (1 << len(need)) - 1
    while left:
        ready = sum(1 << b for b, n in enumerate(need)
                    if left >> b & 1 and not n & left)
        if not ready:
            return True
        left ^= ready
    return False


def search_order(I):
    """Find an order with linear quotients, or prove none exists.

    Depth-first search over orderings of G(I), by degree and then
    revlex-descending; a prefix is extendable by u only when (prefix) : u is
    variable-generated, and whether u extends a prefix depends only on the
    prefix as a set, so the generators left after a dead prefix are
    memoized as one bit set.  The search is exhaustive: None means no order
    exists.

    Before the search starts, `_must_precede` fixes a relation: with
    w_b = max(g_b - g_k, 0) and S_k the variables equal to some w_b,
    b != k, g_k comes before g_b in every order with linear quotients
    when w_b meets no variable of S_k.  Proof: the prefix members that
    g_k's colon test passes are those whose w meets a variable among the
    members' w; that set can only grow with the prefix, so it is largest
    when the prefix is every other generator, where it is the w meeting
    S_k.  A g_b outside it fails the test in every prefix, so it never
    comes before g_k.  A candidate whose predecessors are not all placed
    heads a subtree with no order in it and is skipped before its colon
    test, so the search finds the same first order and None stays
    exhaustive; a cycle in the relation gives None before the search.
    """
    if not isinstance(I, MonomialIdeal):
        raise TypeError("search_order expects a MonomialIdeal")
    if len(I.gens) > SEARCH_GUARD:
        raise ValueError(f"search guard exceeded: {len(I.gens)} > {SEARCH_GUARD}")
    index = I.generator_index
    gens, extends = index.gens, index.linear
    need = _must_precede(index)
    if _has_cycle(need):
        return None
    full = (1 << len(gens)) - 1
    dead = set()
    path = []

    def extend(remaining):
        if not remaining:
            return True
        if remaining in dead:
            return False
        prefix = full ^ remaining
        rest = remaining
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            if need[k] & remaining or prefix and not extends(k, prefix):
                continue
            path.append(k)
            if extend(remaining ^ low):
                return True
            path.pop()
        dead.add(remaining)
        return False

    if not extend(full):
        return None
    cert = check_order(I.nvars, [gens[k] for k in path])
    check(isinstance(cert, QuotientCertificate),
          lambda: f"searched order rejected by check_order: {cert}")
    return cert


def greedy_order(I):
    """A degree-non-decreasing order of G(I) with linear quotients, found
    greedily and certified by `check_order`, or None.

    The generators are taken in `revlex_desc` order, which sorts by degree
    first.  Each step appends the first remaining generator of the lowest
    remaining degree whose colon with the prefix is generated by
    variables.  The pass gives up, with None, when no generator of that
    degree qualifies; it does not backtrack, so None does not mean that
    no order exists (`search_order` settles that).  It refuses past
    INDEX_GUARD for r^2 n before it reads the index."""
    r, n = len(I.gens), I.nvars
    if r * r * n > INDEX_GUARD:
        raise ValueError(f"generator index of {r} generators in {n} variables: "
                         f"r^2 n = {r * r * n} bits, above INDEX_GUARD = {INDEX_GUARD}")
    index = I.generator_index
    gens, extends = index.gens, index.linear
    degs = [degree(u) for u in gens]
    remaining = list(range(len(gens)))
    prefix = 0
    path = []
    while remaining:
        low = degs[remaining[0]]
        for pos, k in enumerate(remaining):
            # u/gcd(u, v) is never a variable when deg u > deg v (v would
            # divide u), so once every generator of degree low is blocked
            # no order extends the prefix
            if degs[k] > low:
                return None
            if extends(k, prefix):
                break
        else:
            return None
        del remaining[pos]
        prefix |= 1 << k
        path.append(k)
    cert = check_order(I.nvars, [gens[k] for k in path])
    check(isinstance(cert, QuotientCertificate),
          lambda: f"greedy order rejected by check_order: {cert}")
    return cert


def regularity_from_certificate(cert):
    """Regularity of an ideal with linear quotients: its top generator degree."""
    return cert.max_degree()
