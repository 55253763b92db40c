"""Degreewise exact linear algebra on graded ideals.

A graded ideal is presented by homogeneous generators (monomial ideals embed
as single-term generators).  Every operation works one degree at a time: the
degree-e piece of an ideal is spanned by {m*g : g generator, deg m = e - deg g}
and row-reduced over the working field.  No Groebner bases anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import linalg
from .fields import field_of
from .ideals import MonomialIdeal
from .monomials import basis_index, degree as mono_degree, mono_mul, monomial_basis


@dataclass(frozen=True)
class HomPolynomial:
    """Homogeneous polynomial: monomial -> nonzero coefficient."""

    degree: int
    terms: tuple  # sorted tuple of (Monomial, scalar)

    @classmethod
    def make(cls, terms):
        terms = {m: c for m, c in dict(terms).items() if c != 0}
        if not terms:
            raise ValueError("zero polynomial is not homogeneous data")
        degs = {mono_degree(m) for m in terms}
        if len(degs) > 1:
            raise ValueError("non-homogeneous term set")
        return cls(degs.pop(), tuple(sorted(terms.items())))

    @classmethod
    def from_monomial(cls, u, coeff=1):
        return cls(mono_degree(u), ((tuple(u), coeff),))

    @classmethod
    def linear_form(cls, coeffs):
        """Linear form from a coefficient vector over x1..xn."""
        n = len(coeffs)
        terms = [
            (tuple(1 if k == i else 0 for k in range(n)), c)
            for i, c in enumerate(coeffs)
            if c != 0
        ]
        if not terms:
            raise ValueError("zero linear form")
        return cls(1, tuple(terms))

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def nvars(self):
        return len(self.terms[0][0])

    def multiply(self, other, fld):
        acc = {}
        for m, c in self.terms:
            for u, d in other.terms:
                k = mono_mul(m, u)
                acc[k] = acc.get(k, 0) + c * d
        p = fld.characteristic
        if p:
            acc = {k: c % p for k, c in acc.items()}
        return HomPolynomial.make(acc)

    def scale_by_monomial(self, u):
        return HomPolynomial(
            self.degree + mono_degree(u),
            tuple((mono_mul(m, u), c) for m, c in self.terms),
        )

    def vector(self, fld):
        """Int coordinates in R_e: residues mod p, or over QQ the primitive
        integer multiple, which spans the same line."""
        idx = basis_index(self.nvars(), self.degree)
        vec = {idx[m]: fld(c) for m, c in self.terms}
        return vec if fld.characteristic else linalg.primitive(vec)


class GradedIdealView:
    """Graded ideal given by homogeneous generators over K (char 0 or p)."""

    def __init__(self, nvars, generators, characteristic=0):
        generators = tuple(generators)
        if not generators:
            raise ValueError("ideal needs at least one generator")
        for g in generators:
            if g.nvars() != nvars:
                raise ValueError("generator ambient mismatch")
        self.nvars = nvars
        self.generators = generators
        self.characteristic = characteristic
        self.field = field_of(characteristic)
        self._pieces = {}  # e -> DegreePiece, the one cache of the view
        self._monomial = (
            MonomialIdeal.from_gens(nvars, (g.terms[0][0] for g in generators))
            if all(g.is_monomial for g in generators)
            else None
        )

    @classmethod
    def from_monomial_ideal(cls, I, characteristic=0):
        return cls(
            I.nvars,
            [HomPolynomial.from_monomial(g) for g in I.gens],
            characteristic,
        )

    @property
    def is_monomial(self):
        return self._monomial is not None

    def monomial_ideal(self):
        if self._monomial is None:
            raise ValueError("not a monomial ideal")
        return self._monomial

    def max_gen_degree(self):
        return max(g.degree for g in self.generators)

    def min_gen_degree(self):
        return min(g.degree for g in self.generators)

    def __str__(self):
        from .monomials import format_monomial

        def poly(g):
            parts = []
            for m, c in g.terms:
                cs = "" if c == 1 else f"{c}*"
                parts.append(f"{cs}{format_monomial(m)}")
            return " + ".join(parts)

        return "ideal(" + ", ".join(poly(g) for g in self.generators) + ")"


@dataclass
class DegreePiece:
    """A subspace of K^ncols (here R_e) as the canonical int RREF rows of
    `linalg.row_reduce` (primitive, positive lead over QQ) and pivots."""

    rows: list
    pivots: list
    ncols: int

    @property
    def dim(self):
        return len(self.pivots)

    @cached_property
    def quotient(self):
        """The complement basis of this subspace, built on first use."""
        return QuotientBasis(self)

    def contains_vector(self, vec, fld):
        return not self.quotient.reduce(vec, fld)


def ring_dim(n, e):
    """dim_K R_e = C(e+n-1, n-1)."""
    return comb(e + n - 1, n - 1) if e >= 0 else 0


def multiplication_maps(n, e):
    """Column maps of multiplication by each variable, from R_{e-1} into R_e.

    maps[v][j] is the position in `monomial_basis(n, e)` of x_{v+1} times
    the j-th monomial of `monomial_basis(n, e - 1)`, so a row over R_{e-1}
    is multiplied by x_{v+1} by sending each column j to maps[v][j].
    """
    index = basis_index(n, e)
    return [
        [index[m[:v] + (m[v] + 1,) + m[v + 1 :]] for m in monomial_basis(n, e - 1)]
        for v in range(n)
    ]


def degree_piece(I, e):
    """Basis of I_e as a subspace of R_e (cached in the view's `_pieces`).

    Built incrementally: I_e is spanned by R_1 * I_{e-1} together with the
    degree-e generators, so each degree reuses the reduced basis one degree
    below.  Each row of I_{e-1} is multiplied by x1..xn by shifting its
    columns through the maps of `multiplication_maps`, built once per
    degree.  When I_{e-1} = R_{e-1}, I_e = R_e with no reduction.
    """
    if e in I._pieces:
        return I._pieces[e]
    fld = I.field
    n = I.nvars
    ncols = ring_dim(n, e)
    mindeg = I.min_gen_degree()
    below = degree_piece(I, e - 1) if e > mindeg else None
    if e < mindeg:
        rref, pivots = [], []
    elif below is not None and below.dim == ring_dim(n, e - 1):
        rref = [{j: 1} for j in range(ncols)]
        pivots = list(range(ncols))
    else:
        rows = [g.vector(fld) for g in I.generators if g.degree == e]
        if below is not None:
            maps = multiplication_maps(n, e)
            for row in below.rows:
                for col in maps:
                    rows.append({col[j]: c for j, c in row.items()})
        rref, pivots = linalg.row_reduce(rows, fld)
    piece = DegreePiece(rref, pivots, ncols)
    I._pieces[e] = piece
    return piece


class QuotientBasis:
    """Monomial complement basis of (R/I)_e (the non-pivot columns).

    The pivot rows are scaled to one common lead D (1 mod p and for
    monomial pieces), so `reduce` gives D times the residue, on ints.
    """

    def __init__(self, piece):
        self.lead, self.pivot_rows = linalg.common_lead(piece.rows, piece.pivots)
        self.columns = [j for j in range(piece.ncols) if j not in self.pivot_rows]
        self.position = {j: k for k, j in enumerate(self.columns)}

    @property
    def dim(self):
        return len(self.columns)

    def reduce(self, vec, fld):
        """R_e coordinates -> D times the quotient coordinates (dict over
        positions)."""
        res = linalg.reduce_vector(vec, self.pivot_rows, self.lead, fld)
        return {self.position[j]: c for j, c in res.items()}


def quotient_basis(I, e):
    """Monomial basis of (R/I)_e, held by the degree piece I_e."""
    return degree_piece(I, e).quotient


def hilbert_value(I, e):
    """dim_K (R/I)_e."""
    if e < 0:
        return 0
    if I.is_monomial:
        return I.monomial_ideal().hilbert_function(e)
    return ring_dim(I.nvars, e) - degree_piece(I, e).dim


def ideal_product(I, J):
    """Product ideal; minimal generators when both factors are monomial."""
    if I.nvars != J.nvars or I.characteristic != J.characteristic:
        raise ValueError("ambient or field mismatch")
    if I.is_monomial and J.is_monomial:
        P = I.monomial_ideal().product(J.monomial_ideal())
        return GradedIdealView.from_monomial_ideal(P, I.characteristic)
    fld = I.field
    gens = [g.multiply(h, fld) for g in I.generators for h in J.generators]
    return GradedIdealView(I.nvars, gens, I.characteristic)


def colon_piece(I, g, e):
    """Basis of { f in R_e : f*g in I_{e+deg g} }, computed as a kernel."""
    fld = I.field
    n = I.nvars
    target = quotient_basis(I, e + g.degree)
    cols = monomial_basis(n, e)
    sys_rows = {}
    for j, m in enumerate(cols):
        img = target.reduce(g.scale_by_monomial(m).vector(fld), fld)
        for q, c in img.items():
            sys_rows.setdefault(q, {})[j] = c
    ker = linalg.kernel(list(sys_rows.values()), len(cols), fld)
    rref, pivots = linalg.row_reduce(ker, fld)
    return DegreePiece(rref, pivots, len(cols))


@dataclass
class SaturationProfile:
    cap: int
    sat_degree: object  # int, or None when the window was insufficient
    profile: dict  # e -> dim (I^sat / I)_e

    @property
    def exceeds_cap(self):
        return self.sat_degree is None


def _colon_power_dim(I, e, t):
    """dim { f in R_e : f * m^t is contained in I }."""
    fld = I.field
    n = I.nvars
    target = quotient_basis(I, e + t)
    index = basis_index(n, e + t)
    cols = monomial_basis(n, e)
    sys_rows = {}
    for row_base, u in enumerate(monomial_basis(n, t)):
        for j, m in enumerate(cols):
            img = target.reduce({index[mono_mul(m, u)]: 1}, fld)
            for q, c in img.items():
                sys_rows.setdefault((row_base, q), {})[j] = c
    return len(cols) - linalg.rank(list(sys_rows.values()), fld)


def _saturated_piece_dim(I, e, t_limit):
    """dim (I : m^infinity)_e.

    For a monomial ideal the nonzero degrees of I^sat/I are bounded by the
    degree of lcm(G(I)), so a single colon power suffices and the value is
    exact.  Otherwise the colon power is iterated until two consecutive
    dimensions agree; for polynomial ideals this is a window-bounded
    heuristic (ascending chains can plateau before stabilizing).
    """
    if I.is_monomial:
        bound = mono_degree(I.monomial_ideal().lcm_of_gens())
        return _colon_power_dim(I, e, max(1, bound + 1 - e))
    prev = degree_piece(I, e).dim
    for t in range(1, t_limit + 1):
        dim = _colon_power_dim(I, e, t)
        if dim == prev:
            return dim
        prev = dim
    return prev


def saturation_degree(I, cap):
    """Degreewise saturation profile and the saturation degree within cap."""
    if cap < I.max_gen_degree():
        raise ValueError(
            f"cap {cap} below the largest generator degree {I.max_gen_degree()}"
        )
    t_limit = cap + I.nvars + 2
    profile = {}
    for e in range(cap + 1):
        profile[e] = _saturated_piece_dim(I, e, t_limit) - degree_piece(I, e).dim
    last_bad = max((e for e, d in profile.items() if d > 0), default=-1)
    sat = last_bad + 1
    if last_bad == cap:
        sat = None  # still unsaturated at the window edge
    return SaturationProfile(cap, sat, profile)


@dataclass
class AlmostRegularReport:
    cap: int
    injective: dict  # e -> bool, for the maps (R/I)_e -> (R/I)_{e+1}
    window_start: object
    verdict: bool
    saturation: SaturationProfile


def is_almost_regular(x, I, cap):
    """Degreewise injectivity of multiplication by a linear form on R/I.

    The verdict is necessarily cap-bounded: it asserts injectivity on the
    stable window [sat(I), cap] only.
    """
    if x.degree != 1:
        raise ValueError("almost-regular test requires a linear form")
    injective = {}
    for e in range(cap):
        ker_dim = colon_piece(I, x, e).dim - degree_piece(I, e).dim
        injective[e] = ker_dim == 0
    satp = saturation_degree(I, cap)
    lo = satp.sat_degree
    if lo is None:
        verdict = False
    else:
        verdict = all(injective[e] for e in range(lo, cap))
    return AlmostRegularReport(cap, injective, lo, verdict, satp)
