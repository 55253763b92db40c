"""Products of ideals of linear forms and their primary decomposition.

A family I_1, ..., I_d of ideals generated by linear forms has

    I_1 ... I_d  =  intersection over nonempty A of (I_A)^{|A|},

where I_A = sum_{j in A} I_j.  Every operation here is degreewise exact
linear algebra: products are checked against the intersection dimension by
dimension, and saturation/regularity claims are delegated to the graded
machinery.

The intersection side never builds a power piece.  Under the coefficient
dot product of R_e, which in monomial coordinates is the contraction
pairing of R with its divided-power algebra, the annihilator of (V^k)_e
is spanned by the divided-power monomials l^[b] in a basis of V^perp
completed to R_1, with at least e - k + 1 factors from V^perp (the inverse
system of a power of a linear ideal: Iarrobino-Kanev, Power Sums,
Gorenstein Algebras, and Determinantal Loci, LNM 1721, 1999, App. A;
Emsalem-Iarrobino, J. Algebra 174, 1995).  `power_annihilator` writes
these rows down as integers, and `verify_decomposition` checks the
product's containment by dot products with them.

The product side builds few pieces too.  The product is generated in
degree d and has reg = d, so a Bayer-Stillman certificate at m = d
(`graded.regularity_certificate`) is searched on its pieces of degrees d
and d + 1, and its dims give the product's Hilbert function in every
degree above (`graded.certified_hilbert_values`).  Only a product with no
certificate found at m = d has its pieces built up to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod

from . import check, linalg
from .fields import field_of, scalar
from .graded import (
    DegreePiece,
    GradedIdealView,
    HomPolynomial,
    certified_hilbert_values,
    check_cap,
    colon_piece,
    degree_piece,
    hilbert_values,
    multiplication_maps,
    regularity_certificate,
    ring_dim,
)
from .monomials import monomial_basis

PRIMARY_GUARD = 12
# product_generators builds prod dim V_i generators, one product of basis
# forms per choice.  `linforms sat` at the default cap (product and
# saturation, the guard lifted for the last four) took (2 cores, Python
# 3.11), on d copies of (x1..x5): 625 = 5^4 0.04 s, 3125 = 5^5 0.17 s;
# on d copies of 3 generic forms in 4 variables: 729 = 3^6 0.14 s,
# 2187 = 3^7 0.60 s, 6561 = 3^8 2.4 s; on nine and ten 2-dimensional
# subspaces of R_1 in 4 variables: 512 = 2^9 2.5 s, 1024 = 2^10 6.4 s.
GENERATOR_GUARD = 1000

# `verify_decomposition` writes down the annihilators of the primary
# components' power pieces, one `power_annihilator` call over degrees
# d..cap per distinct non-maximal ideal I_A (maximal components and
# repeated ideals add nothing), and takes the rank of their stack in each
# degree.  SWEEP_GUARD bounds dim R_cap times the number of those ideals;
# it is the one bound on the columns of that side, since
# `graded.check_cap` weighs no piece.  The product side runs first and
# builds its pieces up to degree d + 1, reading the dims above from a
# certificate at m = d; only without one are its pieces built up to the
# cap.  `graded.degree_piece` refuses each of them past
# `graded.PIECE_GUARD` before it is built, so a refused product costs no
# annihilator.  Timings of `linforms verify`, in-process, median of three
# runs (2 cores, Python 3.11), and two rows in a fresh process:
#   (x1 + k x2), k = 0..9, default cap:              14 x 10 =    140 ->  0.03 s
#   (x1 + k x2 + k^2 x3), k = 0..10, default cap:   120 x 66 =  7 920 ->  0.5 s
#   (x1 + k x2 + k^2 x3), k = 0..5, cap 24:         325 x 21 =  6 825 ->  0.8 s
#   (x1), (x2) in 4 variables, cap 24:             2925 x 3  =  8 775 ->  0.12 s
#   (x1 + 2x2 + 3x3 + 5x4), (7x1 - 11x2 + 13x3 + 17x4),
#     cap 20:                                      1771 x 3  =  5 313 ->  2.6 s
#     cap 25:                                      3276 x 3  =  9 828 ->  9.8 s
#   nine 2-dimensional subspaces of R_1 in 4 variables, spanned by
#     (k, 2k+1, -3, 5-k), (7-k, 1, k^2-3, 2), k = 1..9,
#     default cap:                                  455 x 9  =  4 095 -> 11.1 s
#   (x1 + 2x2 + 3x3 + 4x4), cap 32, fresh:         6545 x 1  =  6 545 ->  2.4 s, 434 MB
#   (x1 + 2x2 + 3x3 + 4x4 + 5x5), cap 19, fresh:   8855 x 1  =  8 855 ->  2.4 s, 361 MB
#   (x1), (x2) in 4 variables, cap 29:             4960 x 3  = 14 880 (refused)
#   (x1), ..., (x5) in 5 variables, default cap:    495 x 30 = 14 850 (refused)
# The slowest are bound by QQ row reductions whose coefficients grow with
# the degree: the stacked rank on the two-line family, and on the nine
# subspaces the product side, which this guard does not count: its
# pieces in degrees 9 and 10 (about 5 s, 512 generators) and the
# certificate search on them (about 4.5 s).  GENERATOR_GUARD and
# `graded.PIECE_GUARD` bound those.  The one-form rows hold the
# annihilator rows of every degree d..cap at once, which the guard's
# dim R_cap does not count.
SWEEP_GUARD = 10_000


@dataclass(frozen=True)
class LinearIdeal:
    """Ideal generated by a subspace V of R_1, stored as a canonical RREF.

    Coefficients may be given as ints, Fractions or their strings; the
    stored rows are the int rows of `linalg.row_reduce`.
    """

    nvars: int
    characteristic: int
    rows: tuple  # RREF rows as dense int coefficient tuples
    pivots: tuple

    @classmethod
    def from_rows(cls, nvars, coeff_rows, characteristic=0):
        p = field_of(characteristic)
        sparse = []
        for r in coeff_rows:
            if len(r) != nvars:
                raise ValueError("coefficient row length mismatch")
            sparse.append({j: x for j, c in enumerate(r) if (x := scalar(c, p))})
        rref, pivots = linalg.row_reduce(sparse, p)
        if not rref:
            raise ValueError("zero ideal of linear forms")
        dense = tuple(tuple(row.get(j, 0) for j in range(nvars)) for row in rref)
        return cls(nvars, characteristic, dense, tuple(pivots))

    @property
    def dim(self):
        return len(self.rows)

    def forms(self):
        return [HomPolynomial.linear_form(r) for r in self.rows]


def sum_ideal(family, A):
    """I_A = sum of the subspaces indexed by A (1-based indices)."""
    A = sorted(set(A))
    if not A:
        raise ValueError("empty index set")
    first = family[A[0] - 1]
    rows = [r for i in A for r in family[i - 1].rows]
    return LinearIdeal.from_rows(first.nvars, rows, first.characteristic)


def product_generators(family):
    """The product ideal, generated by all products of one basis form per factor."""
    if not family:
        raise ValueError("empty family")
    count = prod(V.dim for V in family)
    if count > GENERATOR_GUARD:
        raise ValueError(
            f"too many product generators: {count} > {GENERATOR_GUARD}"
        )
    n = family[0].nvars
    p = family[0].characteristic
    gens = [HomPolynomial.from_monomial((0,) * n)]
    for V in family:
        if V.nvars != n or V.characteristic != p:
            raise ValueError("family ambient or field mismatch")
        gens = [g.multiply(f, p) for g in gens for f in V.forms()]
    return GradedIdealView(n, gens, p)


def _adapted_products(rows, pivots, n):
    """Memoized products in coordinates adapted to a subspace of R_1.

    The subspace is given by its RREF: sparse int `rows` with pivot
    columns `pivots`.  Its rows, followed by the unit vectors on the other
    columns, are a basis forms[0..n-1] of R_1.  Returns `product(expo)`,
    the coordinates in R_e of prod forms[i]^expo[i], with e = sum(expo).

    A product is its predecessor (one unit taken off its last nonzero
    exponent) times one form, the predecessor's columns shifted through
    the maps of `multiplication_maps`.  Products and maps are kept for the
    life of the closure, so calls over several degrees share them.  They
    are exact over the integers; `linalg` reduces mod p the rows it stores.
    """
    pivset = set(pivots)
    forms = list(rows) + [{j: 1} for j in range(n) if j not in pivset]
    maps = [None]
    products = {(0,) * n: {0: 1}}

    def product(expo):
        poly = products.get(expo)
        if poly is None:
            i = max(v for v, a in enumerate(expo) if a)
            pred = product(expo[:i] + (expo[i] - 1,) + expo[i + 1 :])
            e = sum(expo)
            if e == len(maps):
                maps.append(multiplication_maps(n, e))
            cols = maps[e]
            acc = {}
            for v, c in forms[i].items():
                col = cols[v]
                for j, a in pred.items():
                    t = col[j]
                    acc[t] = acc.get(t, 0) + a * c
            poly = products[expo] = {t: a for t, a in acc.items() if a}
        return poly

    return product


def power_piece(V, k, degrees):
    """Degree-e pieces of V^k for each e in `degrees`, enumerated in
    coordinates adapted to V; one `DegreePiece` per degree, in order.

    A monomial in the coordinates adapted to V (`_adapted_products`)
    lies in V^k exactly when its V-part degree is at least k.  The
    products are shared by all the degrees of the call; each degree gets
    its own row reduction.

    Only tests and the benchmark's probes call this: it is the oracle that
    `power_annihilator` is checked against, and the benchmark probes its
    name.  It can move to `tests/oracles.py` once a benchmark-only change
    stops probing it.
    """
    if k < 1:
        raise ValueError("exponent must be at least 1")
    n = V.nvars
    p = V.characteristic
    rows = [{j: c for j, c in enumerate(r) if c} for r in V.rows]
    product = _adapted_products(rows, V.pivots, n)
    r = V.dim
    pieces = []
    for e in degrees:
        if e < k:
            pieces.append(DegreePiece([], [], ring_dim(n, e)))
            continue
        rows = [product(expo) for expo in monomial_basis(n, e)
                if sum(expo[:r]) >= k]
        rref, pivots = linalg.row_reduce(rows, p)
        check(len(pivots) == len(rows), "adapted monomials must be independent")
        pieces.append(DegreePiece(rref, pivots, ring_dim(n, e)))
    return pieces


def power_annihilator(V, k, degrees):
    """For each e in `degrees`, int rows that form a basis of the
    annihilator of (V^k)_e in R_e under the coefficient dot product.

    In monomial coordinates the dot product on R_e is the contraction
    pairing of R with its divided-power algebra (Iarrobino-Kanev, LNM
    1721, App. A; Emsalem-Iarrobino, J. Algebra 174, 1995).  Let
    l_1..l_r be the RREF rows of W = V^perp (one small `kernel_basis` of
    V's RREF), completed to a basis l_1..l_n of R_1 by the unit vectors on
    W's non-pivot columns.  The dual basis of R_1 then has its last dim V
    vectors in W^perp = V, so the annihilator of (V^k)_e is spanned by
    the divided-power monomials l^[b] with |b| = e and
    b_1 + ... + b_r >= e - k + 1, and they are independent.  (Any basis
    of W would do; on generic families over QQ the rank of the stacked
    rows took a fifth of the time with W's RREF as with its kernel
    vectors.)

    The coefficient of l^[b] at x^a is a! * coeff_{x^a}(prod_j l_j^b_j) / b!,
    with a! = prod_i a_i! and b! = prod_j b_j!, exact over the integers
    since (sum_i c_i x_i)^[m] = sum_{|a| = m} prod_i c_i^a_i x^[a] and
    x^[a] x^[b] = prod_i C(a_i + b_i, a_i) x^[a+b].  The ordinary products
    come from `_adapted_products` with no reduction, and each row is
    reduced mod p only after the division.  So the rows are right in every
    characteristic, e >= p included, and need no row reduction.
    """
    n = V.nvars
    p = V.characteristic
    rows = [{j: c for j, c in enumerate(r) if c} for r in V.rows]
    w_rows, w_pivots = linalg.row_reduce(
        linalg.kernel_basis(rows, V.pivots, n, p), p
    )
    r = len(w_rows)
    product = _adapted_products(w_rows, w_pivots, n)
    out = []
    for e in degrees:
        basis = monomial_basis(n, e)
        weight = [prod(map(factorial, a)) for a in basis]  # a!
        ann = []
        for b in basis:
            if sum(b[:r]) > e - k:
                scale = prod(map(factorial, b))
                row = {t: c * weight[t] // scale for t, c in product(b).items()}
                if p:
                    row = {t: w for t, c in row.items() if (w := c % p)}
                ann.append(row)
        out.append(ann)
    return out


@dataclass(frozen=True)
class PrimaryComponent:
    subset: tuple  # 1-based factor indices, sorted
    ideal: LinearIdeal
    exponent: int

    @property
    def is_maximal(self):
        return self.ideal.dim == self.ideal.nvars


def primary_components(family):
    """All 2^d - 1 components (I_A)^{|A|} of the product's decomposition."""
    d = len(family)
    if d > PRIMARY_GUARD:
        raise ValueError(f"too many factors: {d} > {PRIMARY_GUARD}")
    out = []
    for size in range(1, d + 1):
        for A in combinations(range(1, d + 1), size):
            out.append(PrimaryComponent(A, sum_ideal(family, A), size))
    return out


@dataclass
class DecompositionReport:
    cap: int
    dims: dict  # e -> (dim product_e, dim intersection_e)
    containment_ok: bool
    equal: bool

    def render(self):
        lines = ["deg  dim(product)  dim(intersection)"]
        for e in sorted(self.dims):
            p, q = self.dims[e]
            lines.append(f"{e:3d}  {p:12d}  {q:17d}")
        lines.append(f"containment verified: {self.containment_ok}")
        lines.append(f"decomposition holds degreewise: {self.equal}")
        return "\n".join(lines)


def nonmaximal_components(family):
    """{I_A: largest |A|} over the components whose ideal is not maximal.

    Components with equal ideals (compared by canonical RREF) keep only
    the largest exponent, since V^a is contained in V^b for a >= b.
    """
    exponents = {}
    for comp in primary_components(family):
        if not comp.is_maximal:
            V = comp.ideal
            exponents[V] = max(exponents.get(V, 0), comp.exponent)
    return exponents


def _annihilates(rows, vectors, p):
    """Every vector has dot product 0 (mod p when p > 0) with every row."""
    for row in rows:
        for v in vectors:
            s = sum(c * row.get(t, 0) for t, c in v.items())
            if s % p if p else s:
                return False
    return True


def verify_decomposition(family, cap):
    """Compare the product with the intersection of components, degree by degree.

    Both sides are computed along independent linear-algebra paths: the
    product from spanning sets of generator multiples, the intersection
    from the annihilators of the components' power pieces under the
    coefficient dot product (dim of the intersection = ncols - rank of the
    stacked annihilators).  Each annihilator is written down directly as
    integer rows by the inverse-system identity of `power_annihilator`
    (Iarrobino-Kanev, LNM 1721, App. A; Emsalem-Iarrobino, J. Algebra 174,
    1995): no power piece is built or row-reduced.  The product lies in
    the intersection in degree d when every degree-d generator has dot
    product 0 (mod p) with every degree-d annihilator row.

    The product side runs first.  It builds its pieces up to degree d + 1
    and searches a regularity certificate at m = d there (Bayer-Stillman,
    Invent. Math. 87, 1987).  With one, dim product_e above d + 1 comes
    from the certificate's recursion (`graded.certified_hilbert_values`,
    which checks the derived value in degree d + 1 against the built
    piece).  Only when none is found, or cap <= d + 1, does
    `graded.hilbert_values` read every degree up to the cap.
    `graded.check_cap` checks the cap first, as in graded's sweeps, and
    `graded.degree_piece` refuses any piece past `graded.PIECE_GUARD`
    before it is built, before any annihilator is written down.

    The intersection side builds only what can change its answer, the
    `nonmaximal_components` of the family, and refuses a sweep of more
    than SWEEP_GUARD for dim R_cap times their number:

    - components are grouped by ideal and only the largest exponent is
      kept;
    - maximal components are skipped: (m^k)_e = R_e for e >= k, and
      k = |A| <= d, so they add no annihilator row and contain every
      degree-d generator;
    - below degree d the intersection is 0, since the component of
      A = {1..d} is (I_A)^d, so no annihilator is built there;
    - each distinct ideal gets one `power_annihilator` call over degrees
      d..cap, which shares its products and column maps across them.
    """
    d = len(family)
    check_cap(cap, d)
    components = nonmaximal_components(family)
    cols, ideals = ring_dim(family[0].nvars, cap), len(components)
    if cols * ideals > SWEEP_GUARD:
        raise ValueError(
            f"{cols} columns times {ideals} non-maximal component ideals "
            f"is {cols * ideals}, above SWEEP_GUARD = {SWEEP_GUARD}"
        )
    p = family[0].characteristic
    product = product_generators(family)
    cert = regularity_certificate(product, d) if cap > d + 1 else None
    if cert is None:
        hf = hilbert_values(product, cap)
    else:
        hf = certified_hilbert_values(product, cert, cap)
    degrees = range(d, cap + 1)
    annihilator = {e: [] for e in degrees}
    for V, k in components.items():
        for e, rows in zip(degrees, power_annihilator(V, k, degrees)):
            annihilator[e].extend(rows)
    gens = [g.vector(p) for g in product.generators]
    containment_ok = _annihilates(annihilator[d], gens, p)
    dims = {}
    for e in range(cap + 1):
        ncols = ring_dim(product.nvars, e)
        inter = ncols - linalg.rank(annihilator.pop(e), p) if e >= d else 0
        dims[e] = (ncols - hf[e], inter)
    equal = containment_ok and all(a == b for a, b in dims.values())
    return DecompositionReport(cap, dims, containment_ok, equal)


def is_linearly_general(family):
    """dim I_A = min(n, sum of factor dims) for every nonempty subset A,
    read off the components I_A of `primary_components` (which refuses
    more than PRIMARY_GUARD factors)."""
    n = family[0].nvars
    return all(
        c.ideal.dim == min(n, sum(family[i - 1].dim for i in c.subset))
        for c in primary_components(family)
    )


def _detect_pinched_family(family):
    """Shape check: n = d + 1 and V_i = span{x_i, x_n} for every i."""
    d = len(family)
    if family[0].nvars != d + 1:
        return False
    expect = pinched_family(d, family[0].characteristic)
    return [V.rows for V in family] == [V.rows for V in expect]


def pinched_family(d, characteristic=0):
    """The family I_i = (x_i, y) in K[x_1..x_d, y], the irredundancy fixture."""
    n = d + 1
    rows = lambda i: [
        [1 if j == i else 0 for j in range(n)],
        [1 if j == n - 1 else 0 for j in range(n)],
    ]
    return [LinearIdeal.from_rows(n, rows(i), characteristic) for i in range(d)]


def associated_prime_check(family, A, cap):
    """Witness that I_A is an associated prime of the product.

    For the family I_i = (x_i, y) the colon of the product by the monomial
    y^{|A|-1} * prod_{i not in A} x_i must equal I_A, checked degreewise up
    to cap.  The family shape is detected, not assumed.
    """
    if not _detect_pinched_family(family):
        raise ValueError("family is not of the (x_i, y) pinched shape")
    d = len(family)
    n = d + 1
    A = sorted(set(A))
    if not A or A[0] < 1 or A[-1] > d:
        raise ValueError("subset out of range")
    expo = [0] * n
    expo[n - 1] = len(A) - 1
    for i in range(1, d + 1):
        if i not in A:
            expo[i - 1] = 1
    witness = tuple(expo)
    product = product_generators(family)
    target = sum_ideal(family, A)
    target_view = GradedIdealView(
        n, target.forms(), family[0].characteristic
    )
    g = HomPolynomial.from_monomial(witness)
    for e in range(1, cap + 1):
        colon = colon_piece(product, g, e)
        expect = degree_piece(target_view, e)
        if colon.dim != expect.dim or colon.pivots != list(expect.pivots):
            return False
        if colon.rows != expect.rows:
            return False
    return True
