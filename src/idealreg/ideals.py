"""Monomial ideals: minimal generators, standard monomials and the
Hilbert numerator.

G(I) is the unique minimal monomial generating set; everything here is
purely combinatorial and characteristic-free.  The Hilbert function of
R/I comes from the numerator K(t) = (1 - t)^n HS(R/I), read off G(I) by
the pivot recursion and bounded by NUMERATOR_GUARD; no standard monomial
is visited.  `standard_divisors_of` lists the standard monomials dividing
a given one, the ground set of the Koszul route of `betti`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import add, itemgetter, le

from .monomials import check_ambient, degree, one, support

# NUMERATOR_GUARD bounds the steps of `MonomialIdeal.hilbert_numerator`,
# counted as it goes.  A step is one exponent read: n per generator of a
# memo entry and per divisibility test of its colon, at most one test per
# generator and kept colon generator.  A slot of a degree list (top + 1
# per entry, per generator in a coprime base case, per variable for the
# prefix sums) counts _SLOT_STEPS, as it is held to the end: a large top
# costs memory rather than time.  Timings (2 cores, Python 3.11) of
# `hilbert_values` alone, median of 3, and of one `idealreg betti` call
# (two tables) in a fresh process with its peak RSS; I_{m,d} is the
# squarefree Veronese ideal (degree d, m variables), J_2 `chain_ideal`:
#   "ideal(x16)", cap 17:              32 416 steps  0.00 s  0.1 s   18 MB
#   J_2^4 in 7 variables, cap 28:  15 567 931 steps  0.10 s  0.4 s   25 MB
#   I_{15,7}, cap 10:             615 181 880 steps  1.23 s  3.2 s  125 MB
#   I_{16,6}, cap 22:             920 162 232 steps  2.14 s  5.3 s  220 MB
#   "ideal(a^3333330)", its cap:  999 999 601 steps  0.07 s  0.5 s  171 MB
#   I_{100,2}, cap 2:           1 717 049 500 steps  8.29 s  (refused)
NUMERATOR_GUARD = 1_000_000_000
_SLOT_STEPS = 100


def minimalize(monomials):
    """Prune to the minimal generating set (drop multiples), degree-sorted.

    Distinct monomials of one degree never divide each other, so u is tested
    only against the kept generators of lower degree, out[:lower].
    """
    out = []
    lower = 0
    for u in sorted(set(monomials), key=sum):
        if out and sum(out[-1]) < sum(u):
            lower = len(out)
        if not any(all(map(le, v, u)) for v in islice(out, lower)):
            out.append(u)
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
        less degree.  A memo computes each (generators, top) once."""
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
                colon = minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens)
                charge(n * len(gens) * (1 + len(colon)) + _SLOT_STEPS * (top + 1))
                power = (0,) * i + (e,) + (0,) * (n - i - 1)
                K = list(numerator([g for g in gens if g[i] < e] + [power], top))
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
