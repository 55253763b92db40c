"""Monomial ideals: minimal generators, membership, standard monomials.

G(I) is the unique minimal monomial generating set; everything here is
purely combinatorial and characteristic-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import add, itemgetter, le

from .monomials import degree, one, support


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
        return MonomialIdeal.from_gens(
            n, [g + (0,) * (n - self.nvars) for g in self.gens]
        )

    def product(self, other):
        if self.nvars != other.nvars:
            raise ValueError("ambient mismatch")
        prods = {tuple(map(add, u, v)) for u in self.gens for v in other.gens}
        return MonomialIdeal.from_gens(self.nvars, prods)

    def hilbert_values(self, cap):
        """[dim_K (R/I)_e for e = 0..cap], counted in one walk.

        Each standard prefix of x1..x_{n-1} adds the run of degrees of its
        standard completions by x_n (a contiguous range) to a difference
        array; no monomial is built.
        """
        diff = [0] * (cap + 2)

        def leaf(deg, prefix, t):
            diff[deg] += 1
            diff[deg + t + 1] -= 1

        self._walk([cap] * self.nvars, cap, leaf)
        return list(accumulate(diff[:-1]))

    def hilbert_function(self, e):
        """dim_K (R/I)_e = number of degree-e standard monomials."""
        return self.hilbert_values(e)[e] if e >= 0 else 0

    def standard_divisors_of(self, cap_monomial):
        """Standard monomials dividing cap_monomial (any degree)."""
        out = []

        def leaf(deg, prefix, t):
            out.extend((*prefix, b) for b in range(t + 1))

        self._walk(cap_monomial, degree(cap_monomial), leaf)
        return out

    def _walk(self, caps, total, leaf):
        """Visit the monomials outside I with exponents <= caps and degree
        <= total, grouped by their exponents of x1..x_{n-1}.

        For each such prefix (degree deg) it calls leaf(deg, prefix, t): the
        prefix times x_n^b lies outside I, within the caps, exactly for
        0 <= b <= t.  `prefix` is a list reused across calls.

        Pruning: a generator that uses no variable after x_pos divides the
        prefix from its exponent of x_pos on, so that exponent ends the run
        of x_pos; every other generator stays live once its exponent of
        x_pos is reached, and only live generators are tested further down.
        """
        n = self.nvars
        if n == 0:
            return  # the only ideal in no variables is the unit ideal
        last = {g: max((i for i, x in enumerate(g) if x), default=-1)
                for g in self.gens}
        prefix = [0] * (n - 1)

        def visit(pos, deg, alive):
            hi = min(caps[pos], total - deg)
            if pos == n - 1:
                for g in alive:
                    if g[pos] <= hi:
                        hi = g[pos] - 1
                if hi >= 0:
                    leaf(deg, prefix, hi)
                return
            pending = []
            for g in alive:
                if last[g] > pos:
                    pending.append(g)
                elif g[pos] <= hi:
                    hi = g[pos] - 1
            pending.sort(key=itemgetter(pos))
            live = []  # grows with a; each child reads it before it grows
            k = 0
            for a in range(hi + 1):
                while k < len(pending) and pending[k][pos] <= a:
                    live.append(pending[k])
                    k += 1
                prefix[pos] = a
                visit(pos + 1, deg + a, live)

        visit(0, 0, self.gens)

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
