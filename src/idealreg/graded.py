"""Degreewise exact linear algebra on graded ideals.

A graded ideal is presented by homogeneous generators (monomial ideals embed
as single-term generators).  Every operation works one degree at a time: the
degree-e piece of an ideal is spanned by {m*g : g generator, deg m = e - deg g}
and row-reduced over the working field.  No Groebner bases anywhere.

Regularity certificates (Bayer-Stillman, "A criterion for detecting
m-regularity", Invent. Math. 87, 1987) live here, beside the pieces of
degrees m and m + 1 they read: linear forms h_1..h_k that prove
reg(I) <= m.  The degree-m piece holds the result of the search from it,
None included, the way it holds its quotient basis, so each (view, m) is
searched once.  A certificate also fixes the Hilbert function of R/I in
every degree above m (`certified_hilbert_values`).  They serve the Betti
tables of `betti`, the saturation profile below and the product side of
`linforms.verify_decomposition`.  The search is one-sided: finding no
certificate proves nothing.

Saturation is one exact downward recursion for every ideal.  It starts at
a top degree T with (I^sat)_T = I_T, which the degree of lcm(G(I)) gives
for a monomial ideal (or the first degree where R/I vanishes, if lower)
and a certificate at m = T gives for any other (sat(I) <= reg(I) <= m),
and takes one kernel per degree below.  An ideal with no certificate up
to the cap gets no number: "not certified".

Every piece is built by `degree_piece`, which refuses one past
PIECE_GUARD columns before building it, whichever of these asked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from . import check, linalg
from .fields import field_of, scalar
from .ideals import MonomialIdeal
from .monomials import (basis_index, degree as mono_degree, mono_mul,
                        monomial_basis, variable)


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
    def from_monomial(cls, u):
        return cls(mono_degree(u), ((tuple(u), 1),))

    @classmethod
    def linear_form(cls, coeffs):
        """Linear form from a coefficient vector over x1..xn."""
        n = len(coeffs)
        terms = [(variable(i, n), c) for i, c in enumerate(coeffs, 1) if c != 0]
        if not terms:
            raise ValueError("zero linear form")
        return cls(1, tuple(terms))

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def nvars(self):
        return len(self.terms[0][0])

    def multiply(self, other, p):
        acc = {}
        for m, c in self.terms:
            for u, d in other.terms:
                k = mono_mul(m, u)
                acc[k] = acc.get(k, 0) + c * d
        if p:
            acc = {k: c % p for k, c in acc.items()}
        return HomPolynomial.make(acc)

    def scale_by_monomial(self, u):
        return HomPolynomial(
            self.degree + mono_degree(u),
            tuple((mono_mul(m, u), c) for m, c in self.terms),
        )

    def vector(self, p):
        """Int coordinates in R_e: residues mod p, or over QQ the primitive
        integer multiple, which spans the same line."""
        idx = basis_index(self.nvars(), self.degree)
        vec = {idx[m]: scalar(c, p) for m, c in self.terms}
        return vec if p else linalg.primitive(vec)


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
        self.characteristic = field_of(characteristic)
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


_UNSEARCHED = object()


@dataclass
class DegreePiece:
    """A subspace of K^ncols (here R_e) as the canonical int RREF rows of
    `linalg.row_reduce` (primitive, positive lead over QQ) and pivots.

    A piece I_m of a view also holds the regularity certificate searched
    from it (`regularity_certificate`), or None when the search found
    none."""

    rows: list
    pivots: list
    ncols: int
    certificate: object = field(default=_UNSEARCHED, compare=False, repr=False)

    @property
    def dim(self):
        return len(self.pivots)

    @cached_property
    def quotient(self):
        """The complement basis of this subspace, built on first use."""
        return QuotientBasis(self)


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


# PIECE_GUARD is the most columns of a degree piece, dim R_e =
# C(e+n-1, n-1): `degree_piece` refuses a larger one before it builds
# anything, whichever sweep asked for it.  Fresh process, 2 cores, Python
# 3.11, on one-form factors in 6 variables with coefficients
# random.Random(5).randint(-5, 5), at the default cap, time and peak RSS:
#   `linforms reg`, 10 factors, reads R_11:    4368 columns -> 14.4 s  118 MB
#   `linforms sat`, 10 factors, reads R_11:    4368 columns ->  9.9 s  114 MB
#   `linforms reg`, 11 factors, reads R_12:    6188 columns (refused; 29.7 s, 193 MB built)
#   `linforms sat`, 11 factors, reads R_12:    6188 columns (refused; 14.0 s, 187 MB built)
#   `linforms sat --cap 1`, (x1) in 99 variables, reads R_2:
#                                              4950 columns ->  0.18 s  30 MB
# Time grows faster than the column count, and the certificate search
# adds steps the guard does not count: `linforms reg --cap 1` on (x1) in
# 99 variables reads the same R_2 and ran past 150 s.
PIECE_GUARD = 5000


def degree_piece(I, e):
    """Basis of I_e as a subspace of R_e (cached in the view's `_pieces`).

    Built incrementally: I_e is spanned by R_1 * I_{e-1} together with the
    degree-e generators, so each degree reuses the reduced basis one degree
    below.  Each row of I_{e-1} is multiplied by x1..xn by shifting its
    columns through the maps of `multiplication_maps`, built once per
    degree.  When I_{e-1} = R_{e-1}, I_e = R_e with no reduction.  A
    degree whose R_e has more than PIECE_GUARD columns is refused first;
    the pieces below it have no more.
    """
    if e in I._pieces:
        return I._pieces[e]
    p = I.characteristic
    n = I.nvars
    ncols = ring_dim(n, e)
    if ncols > PIECE_GUARD:
        raise ValueError(
            f"degree-{e} piece in {n} variables has {ncols} columns, "
            f"above PIECE_GUARD = {PIECE_GUARD}"
        )
    mindeg = I.min_gen_degree()
    below = degree_piece(I, e - 1) if e > mindeg else None
    if e < mindeg:
        rref, pivots = [], []
    elif below is not None and below.dim == ring_dim(n, e - 1):
        rref = [{j: 1} for j in range(ncols)]
        pivots = list(range(ncols))
    else:
        rows = [g.vector(p) for g in I.generators if g.degree == e]
        if below is not None:
            maps = multiplication_maps(n, e)
            for row in below.rows:
                for col in maps:
                    rows.append({col[j]: c for j, c in row.items()})
        rref, pivots = linalg.row_reduce(rows, p)
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

    def reduce(self, vec, p):
        """R_e coordinates -> D times the quotient coordinates (dict over
        positions)."""
        res = linalg.reduce_vector(vec, self.pivot_rows, self.lead, p)
        return {self.position[j]: c for j, c in res.items()}


def quotient_basis(I, e):
    """Monomial basis of (R/I)_e, held by the degree piece I_e."""
    return degree_piece(I, e).quotient


def hilbert_values(I, top):
    """[dim_K (R/I)_e for e = 0..top], a fresh list: the one choice of route,
    the Hilbert numerator read from the generators of a monomial view
    (`MonomialIdeal.hilbert_values`) and the degree pieces I_e otherwise."""
    if I.is_monomial:
        return I.monomial_ideal().hilbert_values(top)
    return [ring_dim(I.nvars, e) - degree_piece(I, e).dim for e in range(top + 1)]


def hilbert_value(I, e):
    """dim_K (R/I)_e."""
    return hilbert_values(I, e)[e] if e >= 0 else 0


def ideal_product(I, J):
    """Product ideal; minimal generators when both factors are monomial."""
    if I.nvars != J.nvars or I.characteristic != J.characteristic:
        raise ValueError("ambient or field mismatch")
    if I.is_monomial and J.is_monomial:
        P = I.monomial_ideal().product(J.monomial_ideal())
        return GradedIdealView.from_monomial_ideal(P, I.characteristic)
    p = I.characteristic
    gens = [g.multiply(h, p) for g in I.generators for h in J.generators]
    return GradedIdealView(I.nvars, gens, p)


def _preimage(target, maps, ncols, p):
    """{f in K^ncols : every map sends f into the subspace `target`}.

    maps[k][j] is the image of the j-th unit vector under the k-th map, a
    vector over target's ambient, so the condition is one kernel of the
    residues modulo `target`, in its quotient basis.
    """
    quo = target.quotient
    sys_rows = {}
    for k, images in enumerate(maps):
        for j, img in enumerate(images):
            for q, c in quo.reduce(img, p).items():
                sys_rows.setdefault((k, q), {})[j] = c
    ker = linalg.kernel(list(sys_rows.values()), ncols, p)
    rref, pivots = linalg.row_reduce(ker, p)
    return DegreePiece(rref, pivots, ncols)


def colon_piece(I, g, e):
    """Basis of { f in R_e : f*g in I_{e+deg g} }, computed as a kernel."""
    p = I.characteristic
    images = [g.scale_by_monomial(m).vector(p) for m in monomial_basis(I.nvars, e)]
    return _preimage(degree_piece(I, e + g.degree), [images], len(images), p)


# ------------------------------------------------------ regularity certificate

# the certificate search: distinct nonzero forms with coefficients in -9..9
# drawn from one seeded stream per search, at most 8 forms tried per step
CERTIFICATE_SEED = 1987
CERTIFICATE_COEFFS = 9
CERTIFICATE_TRIES = 8


@dataclass(frozen=True)
class RegularityCertificate:
    """Linear forms h_1..h_k proving reg(I) <= m (Bayer-Stillman).

    With J_i = I + (h_1..h_{i-1}), multiplication by h_i is injective from
    (R/J_i)_m to (R/J_i)_{m+1} for each i, and (J_{k+1})_m = R_m; for I
    generated in degrees <= m that makes I m-regular.  `forms` holds each
    h_i as an int coefficient tuple over x1..xn (residues mod p), `dims`
    each a_i = dim (R/J_i)_m.
    """

    m: int
    forms: tuple
    dims: tuple

    def verify(self, I):
        """Re-check every step from I's generators, on pieces of a fresh
        view: the same forms must give the same dims and end on R_m."""
        n = I.nvars
        if I.max_gen_degree() > self.m or any(
            len(h) != n or not all(type(c) is int for c in h) for h in self.forms
        ):
            return False
        fresh = GradedIdealView(n, I.generators, I.characteristic)
        return _bayer_stillman(fresh, self.m, lambda i: self.forms[i : i + 1]) == self


def _times_form(h, into, columns):
    """Rows of h times the monomials at `columns` of the source degree of
    the multiplication maps `into`."""
    support = [(col, c) for col, c in zip(into, h) if c]
    return [{col[j]: c for col, c in support} for j in columns]


def _extend(piece, rows, p):
    """The canonical RREF of piece + span(rows), a new piece; the piece's
    rows are left as they are.  The rows are reduced modulo the piece
    first, so their residues vanish on its pivot columns: the echelon
    pass of `linalg.row_reduce` stores the piece's rows untouched, and
    its back-substitution clears the residues' new pivots from them."""
    quo = piece.quotient
    residues = [linalg.reduce_vector(r, quo.pivot_rows, quo.lead, p) for r in rows]
    rref, pivots = linalg.row_reduce(residues + piece.rows, p)
    return DegreePiece(rref, pivots, piece.ncols)


def _bayer_stillman(I, m, candidates):
    """The certificate of the chain J_1 = I, J_{i+1} = J_i + (h_i), where
    h_i is the first of `candidates(i - 1)` that is injective from
    (R/J_i)_m to (R/J_i)_{m+1}; None when a step has no such candidate.

    Each J_i is held in degrees m and m + 1 only, as local pieces: they
    belong to J_i, not to I.  (R/J_i)_m is spanned by the quotient
    monomials q of (J_i)_m, so the rows h*q span h*R_m modulo (J_i)_{m+1}:
    h is injective exactly when their residues have rank dim (R/J_i)_m,
    and they are all h adds to (J_i)_{m+1}.
    """
    n, p = I.nvars, I.characteristic
    low, high = degree_piece(I, m), degree_piece(I, m + 1)
    into_m, into_next = multiplication_maps(n, m), multiplication_maps(n, m + 1)
    below = range(ring_dim(n, m - 1))
    forms, dims = [], []
    while low.dim < low.ncols:
        quo = low.quotient
        for h in candidates(len(forms)):
            up = _times_form(h, into_next, quo.columns)
            residues = [high.quotient.reduce(r, p) for r in up]
            if linalg.rank(residues, p) == quo.dim:
                break
        else:
            return None
        forms.append(h)
        dims.append(quo.dim)
        low = _extend(low, _times_form(h, into_m, below), p)
        if low.dim < low.ncols:
            high = _extend(high, up, p)
    return RegularityCertificate(m, tuple(forms), tuple(dims))


def regularity_certificate(I, m):
    """A certificate of reg(I) <= m, or None.

    Each step tries at most CERTIFICATE_TRIES distinct nonzero forms, or
    every nonzero form of a field with fewer.  The forms are drawn at
    random, so None proves nothing.  The draws are seeded, so the result
    depends on I and m alone: the degree-m piece of I holds it, None
    included, and a second call on the same view searches nothing.
    """
    piece = degree_piece(I, m)
    if piece.certificate is _UNSEARCHED:
        piece.certificate = _search_certificate(I, m)
    return piece.certificate


def _search_certificate(I, m):
    n = I.nvars
    p = I.characteristic
    rng = random.Random(CERTIFICATE_SEED)
    tries = min(CERTIFICATE_TRIES, p**n - 1) if p else CERTIFICATE_TRIES

    def draws(_):
        seen = set()
        while len(seen) < tries:
            h = tuple(rng.randint(-CERTIFICATE_COEFFS, CERTIFICATE_COEFFS) for _ in range(n))
            h = tuple(c % p for c in h) if p else h
            if any(h) and h not in seen:
                seen.add(h)
                yield h

    return _bayer_stillman(I, m, draws)


# `least_certificate`, `saturation_degree` and
# `linforms.verify_decomposition` sweep degrees up to the cap.  CAP_GUARD
# is the largest cap: `linforms sat` on 200 copies of (x1) in 2 variables
# (cap 200, the guard lifted) took 0.4 s.  The pieces a sweep builds are
# bounded where they are built, by PIECE_GUARD in `degree_piece`.
CAP_GUARD = 32


def check_cap(cap, low):
    """Refuse a sweep up to `cap` past CAP_GUARD, or below `low`, the
    largest generator degree.  The sweep's pieces meet PIECE_GUARD in
    `degree_piece`, and only those it builds: a certificate at m reads
    R_m and R_{m+1}, however far the cap is."""
    if cap > CAP_GUARD:
        raise ValueError(f"cap {cap} exceeds CAP_GUARD = {CAP_GUARD}")
    if cap < low:
        raise ValueError(f"cap {cap} below the largest generator degree {low}")


def least_certificate(I, cap):
    """The certificate at the least m in max_gen_degree()..cap that has
    one, or None."""
    check_cap(cap, I.max_gen_degree())
    for m in range(I.max_gen_degree(), cap + 1):
        cert = regularity_certificate(I, m)
        if cert is not None:
            return cert
    return None


def certified_hilbert_values(I, cert, top):
    """dim (R/I)_e for e = 0..top (top > m = cert.m), `hilbert_values` of
    I up to degree m and derived from the certificate above.

    Each J_i of the certificate is m-regular, so h_i stays injective on
    R/J_i in every degree >= m, and a_i(e) = dim (R/J_i)_e satisfies
    a_i(e) = a_i(e - 1) + a_{i+1}(e), with a_{k+1} = 0 and a_1 the
    Hilbert function of R/I.  The value derived in degree m + 1 must equal
    the one `hilbert_values` gives there, read off the piece I_{m+1} the
    search built (or read off the numerator of a monomial I).
    """
    m = cert.m
    hf = hilbert_values(I, m + 1)
    built = hf.pop()
    a = [*cert.dims, 0]
    for _ in range(m, top):
        for i in reversed(range(len(cert.dims))):
            a[i] += a[i + 1]
        hf.append(a[0])
    check(hf[m + 1] == built,
          lambda: f"certificate Hilbert value {hf[m + 1]} in degree {m + 1} != {built}")
    return hf


@dataclass
class SaturationProfile:
    cap: int
    # int; None when no certificate was found up to the cap (then the
    # profile is empty), or when I^sat/I reaches the cap (monomial I)
    sat_degree: object
    profile: dict  # e -> dim (I^sat / I)_e

    @property
    def exceeds_cap(self):
        return self.sat_degree is None


def saturation_degree(I, cap):
    """Degreewise saturation profile of I up to cap, and its sat degree.

    The walk starts at a top degree T with (I^sat)_T = I_T.  For a
    monomial ideal T is the least degree up to deg lcm(G(I)) + 1 with
    dim (R/I)_T = 0, read from `hilbert_values`, since then I^sat = R and
    no higher piece is needed; with none, T = deg lcm(G(I)) + 1, where
    I_T = (I^sat)_T.  Otherwise T is the least m in max_gen_degree()..cap
    with a regularity certificate, since sat(I) <= reg(I) <= m.  Below T,
    I^sat : m = I^sat gives each degree from the one above,

        (I^sat)_e = {f in R_e : x_v * f in (I^sat)_{e+1} for every v},

    one kernel per degree, and once (I^sat)_e = R_e every lower degree is
    full too.  No piece of I above T + 1 is read.  The certificate search
    is one-sided: when no m up to cap has a certificate, no number is
    given (`sat_degree` None and an empty profile: not certified).
    """
    check_cap(cap, I.max_gen_degree())
    if I.is_monomial:
        hf = hilbert_values(I, mono_degree(I.monomial_ideal().lcm_of_gens()) + 1)
        top = hf.index(0) if 0 in hf else len(hf) - 1
    else:
        cert = least_certificate(I, cap)
        if cert is None:
            return SaturationProfile(cap, None, {})
        top = cert.m
    n, p = I.nvars, I.characteristic
    sat = degree_piece(I, top)
    sat_dims = {}
    for e in reversed(range(top)):
        if sat.dim == sat.ncols:  # I^sat = R: full in every degree below
            break
        units = range(ring_dim(n, e))
        maps = [[{col[j]: 1} for j in units] for col in multiplication_maps(n, e + 1)]
        sat = _preimage(sat, maps, len(units), p)
        sat_dims[e] = sat.dim
    profile = {
        e: sat_dims.get(e, ring_dim(n, e)) - degree_piece(I, e).dim if e < top else 0
        for e in range(cap + 1)
    }
    last_bad = max((e for e, d in profile.items() if d > 0), default=-1)
    sat_degree = last_bad + 1
    if last_bad == cap:
        sat_degree = None  # still unsaturated at the window edge
    return SaturationProfile(cap, sat_degree, profile)
