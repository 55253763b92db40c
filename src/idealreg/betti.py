"""Graded Betti numbers of R/I, and regularity, along three routes.

* monomial route: the Koszul strands split into blocks indexed by monomial
  multidegrees.  The block of multidegree a is the complex spanned by the
  squarefree e_S with x^(a - e_S) outside the ideal-free basis; only
  multidegrees dividing the lcm of the minimal generators can carry
  homology, which is what makes certified full tables affordable.

* certificate route, for a non-monomial ideal generated in the single
  degree m: a Bayer-Stillman certificate (`graded.RegularityCertificate`,
  after "A criterion for detecting m-regularity", Invent. Math. 87, 1987)
  shows reg(I) <= m from the pieces of degrees m and m + 1 alone.  The
  certificate lives in `graded`, beside the pieces it reads, because the
  saturation profile and the decomposition check use it too; the degree-m
  piece holds it, so the table reuses a search already made on the same
  view.  Then the resolution is linear, and the certificate's dims give
  the Hilbert function of R/I beyond degree m
  (`graded.certified_hilbert_values`), so the table is read off
  (1 - t)^n HS(R/I) with no strand built.

* strand route, for every other homogeneous ideal: the internal-degree-j
  strand of the Koszul complex on x1..xn tensored with R/I is
  materialized from quotient pieces (R/I)_{j-i}, with signed
  multiplication differentials; the homology dimension comes from two
  ranks and a dimension count, and the composite of consecutive
  differentials is asserted to vanish.  A non-monomial ideal falls back
  to it when it is not equigenerated or when the certificate search finds
  nothing (the search is one-sided: reg(I) > m, or a small field such as
  GF(2) with too few good forms).

Cross-checks.  The monomial and strand tables are compared with the
Hilbert function of R/I in each degree j <= cap through the Euler
characteristic of the strand,
sum_i (-1)^i beta_ij = sum_k (-1)^k C(n, k) dim (R/I)_{j-k}.  For a monomial
ideal all those Hilbert values come from one counting walk over the
standard monomials (`MonomialIdeal.hilbert_values`); otherwise each is
read off the degree piece I_e.  The certificate table is built from the
Hilbert function, so the Euler check would hold by construction; there
it is replaced by four checks: each certificate step is an exact rank
computation, the derived dim (R/I)_{m+1} must equal the one of the piece
I_{m+1} the search built, the coefficients of t^j for 0 < j < m must
vanish, and every derived Betti number must be >= 0 and vanish for i > n.
The strand route stays the oracle of the certificate route in the tests.

Certification: for a monomial ideal all Betti numbers vanish in internal
degrees beyond deg lcm(G(I)) (the Taylor complex bound), so a table with
cap at least that bound is complete and certified.  Polynomial ideals are
never certified; values are reported "within cap".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import linalg
from .graded import (
    GradedIdealView,
    certified_hilbert_values,
    degree_piece,  # noqa: F401 (bench/selftest.py traces betti.degree_piece by name)
    hilbert_value,
    ideal_product,
    multiplication_maps,
    quotient_basis,
    regularity_certificate,
)
from .monomials import degree as mono_degree

MULTIDEGREE_GUARD = 10_000_000


def taylor_degree_cap(I):
    """deg lcm of the minimal generators; Betti degrees never exceed it."""
    if isinstance(I, GradedIdealView):
        I = I.monomial_ideal()
    return mono_degree(I.lcm_of_gens())


def table_cap(I, cap):
    """The cap of `betti_table(I, cap)`: cap when given, else
    max_gen_degree + n, raised to the Taylor cap for a monomial I."""
    if cap is not None:
        return cap
    cap = I.max_gen_degree() + I.nvars
    return max(cap, taylor_degree_cap(I)) if I.is_monomial else cap


@dataclass
class BettiTable:
    nvars: int
    entries: dict  # (i, j) -> beta_ij(R/I), nonzero values only
    cap: int
    certified: bool

    def ideal_entries(self):
        """Ideal-level table: beta_ij(I) = beta_{i+1,j}(R/I)."""
        return {(i - 1, j): v for (i, j), v in self.entries.items() if i >= 1}

    def regularity_pair(self):
        """(reg(R/I), witness (i, j)) over the computed entries."""
        best = max(self.entries, key=lambda ij: (ij[1] - ij[0], ij))
        return best[1] - best[0], best

    def render(self):
        lines = ["(i, j)  beta_ij(R/I)   [ideal level: beta_{i-1,j}(I)]"]
        for (i, j), v in sorted(self.entries.items()):
            lines.append(f"({i}, {j})  {v}")
        lines.append(f"cap = {self.cap}, certified = {self.certified}")
        return "\n".join(lines)


@dataclass
class RegularityResult:
    value: int  # ideal-level regularity, reg(I) = reg(R/I) + 1
    certified: bool
    witness: tuple  # (i, j) at R/I level attaining reg(R/I)
    cap: int


@dataclass
class InequalityReport:
    reg_i: RegularityResult
    reg_j: RegularityResult
    reg_product: RegularityResult
    holds: bool


# ---------------------------------------------------------------- monomial route


def _upper_koszul_faces(a, std_set):
    """Faces S with x^(a - e_S) in I, by cardinality.

    A face is a 0-based tuple of positions in supp(a), not of variables:
    the homology does not depend on the labels, and complexes that differ
    only by a relabelling of the support then compare equal.  Membership
    is answered by the precomputed set of standard divisors of lcm(G(I));
    every queried monomial divides that lcm.  The candidates of
    `_monomial_candidates` lie in I, so the empty face is always there.
    """
    supp = [v for v, e in enumerate(a) if e > 0]
    k = len(supp)
    levels = [[()]]
    layer = [((), a)]  # faces of the last level with their x^(a - e_S)
    while True:
        nxt = []
        for face, b in layer:
            for pos in range(face[-1] + 1 if face else 0, k):
                v = supp[pos]
                c = b[:v] + (b[v] - 1,) + b[v + 1 :]
                if c not in std_set:
                    nxt.append((face + (pos,), c))
        if not nxt:
            return levels
        levels.append([face for face, _ in nxt])
        layer = nxt


def _boundary_rows(domain, codomain_index, p):
    """Simplicial boundary rows with int signs: 1 and -1 (QQ) or p - 1 (GF(p))."""
    signs = (1, p - 1 if p else -1)
    rows = []
    for face in domain:
        row = {}
        for k in range(len(face)):
            row[codomain_index[face[:k] + face[k + 1 :]]] = signs[k % 2]
        rows.append(row)
    return rows


def _homology_of_complex(levels, p):
    """h_c for the complex spanned by the faces, including the empty face.

    The ranks reduce the boundary rows in place, so they are taken after
    the d∘d check.
    """
    index_maps = [{f: k for k, f in enumerate(lv)} for lv in levels]
    boundaries = [None]
    for c in range(1, len(levels)):
        boundaries.append(_boundary_rows(levels[c], index_maps[c - 1], p))
    for c in range(1, len(levels) - 1):
        composite = linalg.matmul(boundaries[c + 1], boundaries[c], p)
        assert all(not row for row in composite), "koszul sign error"
    ranks = [0] * (len(levels) + 1)
    for c in range(1, len(levels)):
        ranks[c] = linalg.rank(boundaries[c], p)
    return [len(levels[c]) - ranks[c] - ranks[c + 1] for c in range(len(levels))]


def _monomial_candidates(std, std_set, lcm, n, cap):
    """Multidegrees that can carry homology: standard divisor of lcm(G)
    times a squarefree monomial, still dividing lcm(G) and lying in I."""
    if len(std) << n > MULTIDEGREE_GUARD:
        raise ValueError("multidegree enumeration guard exceeded")
    seen = set()
    for s in std:
        allowed = [v for v in range(n) if s[v] < lcm[v]]
        for r in range(1, len(allowed) + 1):
            for S in combinations(allowed, r):
                a = list(s)
                for v in S:
                    a[v] += 1
                a = tuple(a)
                if sum(a) <= cap and a not in std_set:
                    seen.add(a)
    return seen


def _monomial_entries(mi, cap, p):
    """Nonzero beta_ij(R/I), j <= cap, summed over the candidate multidegrees.

    Many candidates share one upper Koszul complex once its faces are
    labelled by support position, so its homology is taken once per
    distinct complex, in a memo that lives for this call only.
    """
    lcm = mi.lcm_of_gens()
    std = mi.standard_divisors_of(lcm)
    std_set = set(std)
    entries = {(0, 0): 1}
    homology = {}  # complex, as a tuple of levels -> its h list
    for a in _monomial_candidates(std, std_set, lcm, mi.nvars, cap):
        levels = _upper_koszul_faces(a, std_set)
        key = tuple(map(tuple, levels))
        hs = homology.get(key)
        if hs is None:
            hs = homology[key] = _homology_of_complex(levels, p)
        j = sum(a)
        for c, h in enumerate(hs):
            if h:
                entries[c + 1, j] = entries.get((c + 1, j), 0) + h
    return entries


# ----------------------------------------------------------------- generic route


class StrandEngine:
    """Degree-j strands of K(x1..xn) tensor R/I, one homological index at a time.

    Sign convention: e_S with S = {s1 < ... < si} maps to
    sum_k (-1)^(k+1) x_{s_k} e_{S minus s_k}.  Multiplication by x_{v+1}
    on quotient pieces comes from the column maps of `multiplication_maps`.
    """

    def __init__(self, I):
        self.I = I
        self.p = I.characteristic
        self.n = I.nvars
        self._mult = {}
        self._rank = {}
        self._rows = {}

    def _mult_rows(self, e):
        """Multiplication by x1..xn: (R/I)_e -> (R/I)_{e+1}.

        Entry v holds the rows of x_{v+1}, one per quotient basis element,
        times the common lead D of I_{e+1} (`QuotientBasis`).  One D per
        degree leaves every rank as it is and scales the d∘d composite by
        the nonzero D_e * D_(e+1).
        """
        if e not in self._mult:
            src = quotient_basis(self.I, e)
            dst = quotient_basis(self.I, e + 1)
            self._mult[e] = [
                [dst.reduce({col[j]: 1}, self.p) for j in src.columns]
                for col in multiplication_maps(self.n, e + 1)
            ]
        return self._mult[e]

    def term_dim(self, i, j):
        if i < 0 or i > self.n or j - i < 0:
            return 0
        return comb(self.n, i) * quotient_basis(self.I, j - i).dim

    def _subset_offsets(self, i):
        subs = list(combinations(range(self.n), i))
        return subs, {S: k for k, S in enumerate(subs)}

    def differential_rows(self, i, j):
        """Rows (domain-major) of d_i at internal degree j.

        The row of e_S tensor q is the disjoint union over k of the signed
        blocks x_{s_k} q at the offset of the face S minus s_k: distinct k
        give distinct faces, so no entry is ever summed or cancelled.
        """
        key = (i, j)
        if key in self._rows:
            return self._rows[key]
        if i < 1 or j - i < 0 or i > self.n:
            self._rows[key] = []
            return []
        e = j - i
        qdim_dst = quotient_basis(self.I, e + 1).dim
        subs, _ = self._subset_offsets(i)
        _, index_dst = self._subset_offsets(i - 1)
        qdim_src = quotient_basis(self.I, e).dim
        p = self.p
        mult = self._mult_rows(e)
        rows = []
        for S in subs:
            blocks = [
                (index_dst[S[:k] + S[k + 1 :]] * qdim_dst, k % 2, mult[S[k]])
                for k in range(i)
            ]
            for q in range(qdim_src):
                row = {}
                for off, odd, mrows in blocks:
                    for q2, c in mrows[q].items():
                        row[off + q2] = (p - c if p else -c) if odd else c
                rows.append(row)
        self._rows[key] = rows
        return rows

    def rank(self, i, j):
        """Rank of d_i at degree j, on copies: the cached rows are read again."""
        key = (i, j)
        if key not in self._rank:
            rows = [dict(r) for r in self.differential_rows(i, j)]
            self._rank[key] = linalg.rank(rows, self.p)
        return self._rank[key]

    def betti(self, i, j):
        if i < 0 or i > self.n or j < 0 or j - i < 0:
            return 0
        dim = self.term_dim(i, j)
        if dim == 0:
            return 0
        rows_up = self.differential_rows(i + 1, j)
        rows_dn = self.differential_rows(i, j)
        if rows_up and rows_dn:
            composite = linalg.matmul(rows_up, rows_dn, self.p)
            assert all(not r for r in composite), "koszul composite not zero"
        return dim - self.rank(i, j) - self.rank(i + 1, j)


def _strand_entries(I, cap):
    """Nonzero beta_ij(R/I), j <= cap, strand by strand."""
    engine = StrandEngine(I)
    entries = {}
    for j in range(cap + 1):
        for i in range(min(I.nvars, j) + 1):
            b = engine.betti(i, j)
            if b:
                entries[(i, j)] = b
    return entries


# ------------------------------------------------------------ certificate route


def _koszul_euler(hf, n, j):
    """sum_k (-1)^k C(n, k) hf[j - k]: the coefficient of t^j in
    (1 - t)^n HS(R/I) for the Hilbert values hf of R/I, and the Euler
    characteristic of the degree-j Koszul strand."""
    return sum((-1) ** k * comb(n, k) * hf[j - k] for k in range(min(n, j) + 1))


def _certificate_entries(I, cert, cap):
    """Nonzero beta_ij(R/I), j <= cap, of I generated in the single degree
    m = cert.m, from its certificate.

    reg(I) = m, so beta_{i,i+m-1} = (-1)^i c_{i+m-1} for i >= 1, where c_j
    is the coefficient of t^j in (1 - t)^n HS(R/I).  The Hilbert function
    of R/I up to degree m + n comes from `graded.certified_hilbert_values`:
    I's pieces up to degree m, the certificate's recursion above, and its
    check against the piece I_{m+1}.
    """
    n, m = I.nvars, cert.m
    hf = certified_hilbert_values(I, cert, m + n)
    entries = {(0, 0): 1}
    for j in range(1, m + n + 1):
        c = _koszul_euler(hf, n, j)
        i = j - m + 1
        b = (-1) ** i * c
        if b < 0 or (b and not 1 <= i <= n):
            raise AssertionError(f"certificate table not linear: c_{j} = {c}")
        if b and j <= cap:
            entries[(i, j)] = b
    return entries


# ----------------------------------------------------------------------- tables


def _euler_check(I, entries, cap):
    n = I.nvars
    if I.is_monomial:
        hv = I.monomial_ideal().hilbert_values(cap)
    else:
        hv = [hilbert_value(I, e) for e in range(cap + 1)]
    for j in range(cap + 1):
        lhs = sum((-1) ** i * v for (i, jj), v in entries.items() if jj == j)
        rhs = _koszul_euler(hv, n, j)
        if lhs != rhs:
            raise AssertionError(
                f"Euler characteristic mismatch in degree {j}: {lhs} != {rhs}"
            )


def betti_table(I, cap=None):
    """All beta_ij(R/I) for j <= cap; certified for monomial I at Taylor cap.

    A non-monomial ideal takes the certificate route when it is generated
    in one degree and a certificate is found, the strand route otherwise.
    """
    cap = table_cap(I, cap)
    if cap < I.max_gen_degree():
        raise ValueError("cap below the largest generator degree")
    if I.is_monomial:
        mi = I.monomial_ideal()
        if mi.is_unit:
            raise ValueError("unit ideal")
        entries = _monomial_entries(mi, cap, I.characteristic)
        certified = cap >= taylor_degree_cap(mi)
        _euler_check(I, entries, cap)
        return BettiTable(I.nvars, entries, cap, certified)
    cert = None
    if I.min_gen_degree() == I.max_gen_degree():
        cert = regularity_certificate(I, I.max_gen_degree())
    if cert is None:
        entries = _strand_entries(I, cap)
        _euler_check(I, entries, cap)
    else:
        entries = _certificate_entries(I, cert, cap)
    return BettiTable(I.nvars, entries, cap, False)


def regularity(I, cap=None):
    """reg(I) = reg(R/I) + 1, read off the Betti table."""
    table = betti_table(I, cap)
    r, witness = table.regularity_pair()
    return RegularityResult(r + 1, table.certified, witness, table.cap)


def inequality_report(I, J, cap=None):
    """Empirical check of reg(IJ) <= reg(I) + reg(J) for one pair."""
    if I.nvars != J.nvars:
        raise ValueError("ambient mismatch")
    ri = regularity(I, cap)
    rj = regularity(J, cap)
    rp = regularity(ideal_product(I, J), cap)
    return InequalityReport(ri, rj, rp, rp.value <= ri.value + rj.value)
