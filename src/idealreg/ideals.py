"""Monomial ideals: minimal generators, standard monomials and the
Hilbert numerator.

G(I) is the unique minimal monomial generating set; everything here is
purely combinatorial and characteristic-free.  `minimalize` is the one
pruning routine, for `from_gens`, `product` and the colons of the
numerator: it takes the monomials known to be minimal apart, and tests the
others pairwise below a size rule (PAIRWISE_TESTS) and by ANDs of
per-variable exponent bitsets above it.  The Hilbert function of R/I
comes from the numerator K(t) = (1 - t)^n HS(R/I), read off G(I) by the
pivot recursion and bounded by NUMERATOR_GUARD; no standard monomial is
visited.  `standard_divisors_of` lists the standard monomials dividing
a given one, the ground set of the Koszul route of `betti`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add, itemgetter, le

from .monomials import check_ambient, degree, one, support

# `minimalize` tests pairwise while tests x candidates is at most
# PAIRWISE_TESTS and by bitset ANDs above it.  On the first colon of the
# squarefree Veronese ideal I_{m,d} (below), pairwise was faster on I_{8,4}
# (35 tests x 70 candidates) and as fast on I_{9,4} (70 x 126); on random
# monomials, where a divisor turns up early, it stays faster up to about
# 10^5.
PAIRWISE_TESTS = 5000

# NUMERATOR_GUARD bounds the steps of `MonomialIdeal.hilbert_numerator`,
# counted as it goes.  A step is one exponent read: n per generator of a
# memo entry, and n per test that `minimalize` may make on its colon, where
# only the generators with g_i < e are tested.  Within PAIRWISE_TESTS that
# is at most one test per such generator and kept colon generator; above
# it a test is n ANDs of bitsets over the r generators of the entry, each
# weighed as _AND_STEPS + r // 32 steps, about as long as that many
# pairwise reads take.  A slot of a degree list (top + 1 per entry, per
# generator in a coprime base case, per variable for the prefix sums)
# counts _SLOT_STEPS, as it is held to the end: a large top costs memory
# rather than time.  Timings (2 cores, Python 3.11) of
# `hilbert_values` alone, median of 3, and of one `idealreg betti` call
# (two tables) in a fresh process with its peak RSS; I_{m,d} is the
# squarefree Veronese ideal (degree d, m variables), J_2 `chain_ideal`:
#   "ideal(x16)", cap 17:              32 416 steps  0.00 s  0.1 s   17 MB
#   J_2^4 in 7 variables, cap 28:   5 178 034 steps  0.06 s  0.3 s   21 MB
#   I_{15,7}, cap 10:              65 704 955 steps  0.58 s  1.7 s   52 MB
#   I_{16,6}, cap 22:             156 657 288 steps  0.60 s  2.1 s   62 MB
#   "ideal(a^3333330)", its cap:  999 999 601 steps  0.09 s  0.7 s  170 MB
#   I_{100,2}, cap 2:           2 393 505 600 steps  3.11 s  (refused)
NUMERATOR_GUARD = 1_000_000_000
_SLOT_STEPS = 100
_AND_STEPS = 50


def minimalize(monomials, minimal=()):
    """G of the ideal generated by `monomials` and `minimal`, degree-sorted:
    the candidates that no other one divides.  The monomials in `minimal`
    are known to be divided by no other candidate and are kept untested.

    Distinct monomials of one degree never divide each other, so every
    other u is tested only against candidates of strictly lower degree.
    While tests x candidates is at most PAIRWISE_TESTS, u is tested pairwise
    against the kept generators of lower degree.  Above it, u is tested
    against all candidates of lower degree at once: in degree order, bit k
    of les[j][c] stands for the k-th candidate if its exponent of x_j is at
    most c, and u is kept when the AND over j of les[j][u_j] holds no bit
    below `lower`, the number of candidates of lower degree.
    """
    minimal = set(minimal)
    cands = minimal.union(monomials)
    by_degree = {}
    for u in cands:
        by_degree.setdefault(sum(u), []).append(u)
    degrees = sorted(by_degree)
    if len(degrees) <= 1:
        return list(cands)
    out = []
    if (len(cands) - len(minimal)) * len(cands) <= PAIRWISE_TESTS:
        for d in degrees:
            lower = out[:]
            for u in by_degree[d]:
                for v in () if u in minimal else lower:  # minimal: untested
                    if all(map(le, v, u)):
                        break  # v divides u
                else:
                    out.append(u)
        return out
    cands = [u for d in degrees for u in by_degree[d]]
    ground = len(cands) - len(by_degree[degrees[-1]])  # the possible divisors
    les_of = []
    for column in zip(*cands):  # one pass per variable
        at = {}
        for k, c in enumerate(column[:ground]):
            if c:
                at[c] = at.get(c, 0) | 1 << k
        acc = (1 << ground) - 1
        for bits in at.values():
            acc ^= bits  # leaves those with exponent 0
        les = {}
        for c in sorted(set(column)):
            acc |= at.get(c, 0)
            les[c] = acc
        les_of.append(les)
    lower = 0
    for d in degrees:
        mask = (1 << lower) - 1
        for u in by_degree[d]:
            below = 0 if u in minimal else mask
            for les, c in zip(les_of, u):
                if not below:
                    break
                below &= les[c]
            if not below:  # no candidate of lower degree divides u
                out.append(u)
        lower += len(by_degree[d])
    return out


def _sort_key(u):
    return (degree(u), tuple(-e for e in u))


@dataclass(frozen=True)
class MonomialIdeal:
    nvars: int
    gens: tuple  # minimal generators, sorted

    @classmethod
    def from_gens(cls, nvars, monomials):
        monomials = list(monomials)
        if not monomials:
            raise ValueError("empty generating set")
        for u in monomials:
            if len(u) != nvars:
                raise ValueError("generator ambient mismatch")
        gens = tuple(sorted(minimalize(monomials), key=_sort_key))
        return cls(nvars, gens)

    @property
    def is_unit(self):
        return self.gens == (one(self.nvars),)

    @property
    def is_squarefree(self):
        return all(all(e <= 1 for e in g) for g in self.gens)

    @property
    def is_equigenerated(self):
        return degree(self.gens[0]) == degree(self.gens[-1])  # sorted by degree

    @cached_property
    def generator_index(self):
        """The bitset index of G(I) in `revlex_desc` order.  Built on first
        read and held with the ideal; the order checks, the order searches
        and the exchange check read it."""
        from .quotients import GeneratorIndex, revlex_desc  # imports this module

        return GeneratorIndex(revlex_desc(self.gens))

    def max_gen_degree(self):
        return max(degree(g) for g in self.gens)

    def lcm_of_gens(self):
        return tuple(map(max, zip(*self.gens)))

    def padded(self, n):
        """The same ideal in n >= nvars variables (x_{nvars+1}.. unused)."""
        if n == self.nvars:
            return self
        check_ambient(n, len(self.gens))
        return MonomialIdeal.from_gens(
            n, [g + (0,) * (n - self.nvars) for g in self.gens]
        )

    def product(self, other):
        if self.nvars != other.nvars:
            raise ValueError("ambient mismatch")
        prods = {tuple(map(add, u, v)) for u in self.gens for v in other.gens}
        return MonomialIdeal.from_gens(self.nvars, prods)

    def hilbert_values(self, top):
        """[dim_K (R/I)_e for e = 0..top]: the Hilbert numerator up to t^top
        divided by (1 - t)^n, which is n prefix sums."""
        values = self.hilbert_numerator(top)
        for _ in range(self.nvars):
            values = list(accumulate(values))
        return values

    def hilbert_function(self, e):
        """dim_K (R/I)_e = number of degree-e standard monomials."""
        return self.hilbert_values(e)[e] if e >= 0 else 0

    def hilbert_numerator(self, top):
        """Coefficients of t^0..t^top in K(t) = (1 - t)^n HS(R/I), by the
        pivot recursion K(I) = K(I + (x_i^e)) + t^e K(I : x_i^e) (Bayer and
        Stillman, J. Symbolic Comput. 14, 1992; Bigatti, J. Pure Appl.
        Algebra 119, 1997) on G(I) down to pairwise coprime generators,
        where K = prod (1 - t^deg g), dropping the generators of degree >
        top.  x_i is in most generators; e, the median x_i exponent of the
        mixed ones (x_i and another variable), lies below the pure power of
        x_i in G(I), so I + (x_i^e) has fewer mixed generators and I : x_i^e
        less degree.  In I : x_i^e a generator with g_i >= e stays minimal
        once cut to g / x_i^e, as a colon generator dividing it comes from
        a generator dividing g; only the generators with g_i < e lose x_i
        and can become multiples, so `minimalize` tests only those.  A memo
        computes each (generators, top) once."""
        n, memo, spent = self.nvars, {}, [0]

        def charge(steps):
            spent[0] += steps
            if spent[0] > NUMERATOR_GUARD:
                raise ValueError(f"Hilbert numerator of {len(self.gens)} generators "
                                 f"in {n} variables up to degree {top} passes "
                                 f"NUMERATOR_GUARD = {NUMERATOR_GUARD} steps")

        def numerator(gens, top):
            gens = tuple(sorted(g for g in gens if sum(g) <= top))
            if (gens, top) in memo:
                return memo[gens, top]
            counts = [len(gens) - col.count(0) for col in zip(*gens)]
            if max(counts, default=0) <= 1:  # pairwise coprime
                charge(n * len(gens) + _SLOT_STEPS * (len(gens) + 1) * (top + 1))
                K = [1] + [0] * top
                for d in map(sum, gens):
                    K[d:] = [a - b for a, b in zip(K[d:], K)]
            else:
                i = counts.index(max(counts))
                mixed = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
                e = mixed[len(mixed) // 2]
                below = [g for g in gens if g[i] < e]
                colon = minimalize(
                    (g[:i] + (0,) + g[i + 1:] for g in below),
                    [g[:i] + (g[i] - e,) + g[i + 1:] for g in gens if g[i] >= e])
                tests = len(below) * (len(colon) if len(below) * len(gens) <= PAIRWISE_TESTS
                                      else _AND_STEPS + len(gens) // 32)
                charge(n * (len(gens) + tests) + _SLOT_STEPS * (top + 1))
                power = (0,) * i + (e,) + (0,) * (n - i - 1)
                K = list(numerator(below + [power], top))
                for j, c in enumerate(numerator(colon, top - e), e):
                    K[j] += c
            memo[gens, top] = K
            return K

        charge(_SLOT_STEPS * n * (top + 1))  # the prefix sums of `hilbert_values`
        return numerator(self.gens, top)

    def standard_divisors_of(self, cap_monomial, limit=float("inf")):
        """Standard monomials dividing cap_monomial, prefix by prefix of
        x1..x_{n-1}; the walk stops once it holds more than `limit`.  A
        generator that uses no variable after x_pos ends the run of x_pos
        at its exponent; any other joins the live list once its exponent
        of x_pos is reached, and only live generators are tested below."""
        n, out = self.nvars, []
        last = {g: max((i for i, x in enumerate(g) if x), default=-1)
                for g in self.gens}
        prefix = [0] * (n - 1)

        def visit(pos, alive):
            hi, pending = cap_monomial[pos], []
            for g in alive:
                if last[g] > pos:
                    pending.append(g)
                elif g[pos] <= hi:
                    hi = g[pos] - 1
            if pos == n - 1:
                out.extend((*prefix, b) for b in range(hi + 1))
                return len(out) > limit  # True stops the walk
            pending.sort(key=itemgetter(pos))
            live, k = [], 0  # grows with a; each child reads it before it grows
            for a in range(hi + 1):
                while k < len(pending) and pending[k][pos] <= a:
                    live.append(pending[k])
                    k += 1
                prefix[pos] = a
                if visit(pos + 1, live):
                    return True
            return False

        if n:  # the only ideal in no variables is the unit ideal
            visit(0, self.gens)
        return out

    def __str__(self):
        from .monomials import format_monomial

        return "ideal(" + ", ".join(format_monomial(g) for g in self.gens) + ")"


def dimension_monomial(I):
    """Krull dimension of R/I: n minus the least vertex cover of supports."""
    from itertools import combinations

    if I.is_unit:
        raise ValueError("unit ideal has empty quotient")
    supports = [set(support(g)) for g in I.gens]
    n = I.nvars
    for k in range(n + 1):
        for cover in combinations(range(1, n + 1), k):
            cset = set(cover)
            if all(s & cset for s in supports):
                return n - k
    raise AssertionError("unreachable")
