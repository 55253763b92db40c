"""Products of ideals of linear forms and their primary decomposition.

A family I_1, ..., I_d of ideals generated by linear forms has

    I_1 ... I_d  =  intersection over nonempty A of (I_A)^{|A|},

where I_A = sum_{j in A} I_j.  Every operation here is degreewise exact
linear algebra: products are checked against the intersection dimension by
dimension, powers of a linear ideal are enumerated in coordinates adapted
to the subspace, and saturation/regularity claims are delegated to the
graded machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from . import linalg
from .fields import field_of
from .graded import (
    DegreePiece,
    GradedIdealView,
    HomPolynomial,
    colon_piece,
    degree_piece,
    multiplication_maps,
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
        fld = field_of(characteristic)
        sparse = []
        for r in coeff_rows:
            if len(r) != nvars:
                raise ValueError("coefficient row length mismatch")
            sparse.append({j: x for j, x in enumerate(map(fld, r)) if x})
        rref, pivots = linalg.row_reduce(sparse, fld)
        if not rref:
            raise ValueError("zero ideal of linear forms")
        dense = tuple(tuple(row.get(j, 0) for j in range(nvars)) for row in rref)
        return cls(nvars, characteristic, dense, tuple(pivots))

    @property
    def dim(self):
        return len(self.rows)

    @property
    def field(self):
        return field_of(self.characteristic)

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
    char = family[0].characteristic
    fld = field_of(char)
    gens = [HomPolynomial.from_monomial((0,) * n)]
    for V in family:
        if V.nvars != n or V.characteristic != char:
            raise ValueError("family ambient or field mismatch")
        gens = [g.multiply(f, fld) for g in gens for f in V.forms()]
    return GradedIdealView(n, gens, char)


def power_piece(V, k, e):
    """Degree-e piece of V^k, enumerated in coordinates adapted to V.

    The basis of V is completed to a basis of R_1 by the unit vectors on
    the non-pivot coordinates; a monomial in the adapted coordinates lies
    in V^k exactly when its V-part degree is at least k.

    The products are built on the int rows of V; over GF(p) each finished
    product is reduced mod p once.  An adapted monomial is its predecessor
    (one unit taken off its last nonzero exponent) times one linear form,
    the predecessor's columns shifted through the maps of
    `multiplication_maps`; products are kept for the rest of the call.
    """
    if k < 1:
        raise ValueError("exponent must be at least 1")
    n = V.nvars
    if e < k:
        return DegreePiece([], [], ring_dim(n, e))
    p = V.characteristic
    forms = [{j: c for j, c in enumerate(r) if c} for r in V.rows]
    pivset = set(V.pivots)
    forms += [{j: 1} for j in range(n) if j not in pivset]
    maps = [None] + [multiplication_maps(n, t) for t in range(1, e + 1)]
    products = {(0,) * n: {0: 1}}

    def product(expo):
        poly = products.get(expo)
        if poly is None:
            i = max(v for v, a in enumerate(expo) if a)
            pred = product(expo[:i] + (expo[i] - 1,) + expo[i + 1 :])
            cols = maps[sum(expo)]
            acc = {}
            for v, c in forms[i].items():
                col = cols[v]
                for j, a in pred.items():
                    t = col[j]
                    acc[t] = acc.get(t, 0) + a * c
            if p:
                poly = {t: w for t, a in acc.items() if (w := a % p)}
            else:
                poly = {t: a for t, a in acc.items() if a}
            products[expo] = poly
        return poly

    r = V.dim
    rows = []
    count = 0
    for expo in monomial_basis(n, e):
        if sum(expo[:r]) < k:
            continue
        count += 1
        rows.append(product(expo))
    rref, pivots = linalg.row_reduce(rows, V.field)
    assert len(pivots) == count, "adapted monomials must be independent"
    return DegreePiece(rref, pivots, ring_dim(n, e))


@dataclass(frozen=True)
class PrimaryComponent:
    subset: tuple  # 1-based factor indices, sorted
    ideal: LinearIdeal
    exponent: int

    @property
    def is_maximal(self):
        return self.ideal.dim == self.ideal.nvars

    def piece(self, e):
        return power_piece(self.ideal, self.exponent, e)


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


def verify_decomposition(family, cap):
    """Compare the product with the intersection of components, degree by degree.

    Both sides are computed along independent linear-algebra paths: the
    product from spanning sets of generator multiples, the intersection of
    the components' power pieces through their orthogonal complements
    (dim of the intersection = ncols - rank of the stacked annihilators).
    """
    d = len(family)
    if cap < d:
        raise ValueError(f"cap {cap} below the product's generation degree {d}")
    fld = field_of(family[0].characteristic)
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
            cp = comp.piece(e)
            pieces.append(cp)
            complement.extend(
                linalg.kernel_basis(cp.rows, cp.pivots, ncols, fld)
            )
        inter_dim = ncols - linalg.rank(complement, fld)
        dims[e] = (pp.dim, inter_dim)
        if e == d:
            for g in product.generators:
                for cp in pieces:
                    if not cp.contains_vector(g.vector(fld), fld):
                        containment_ok = False
    equal = containment_ok and all(p == q for p, q in dims.values())
    return DecompositionReport(cap, dims, containment_ok, equal)


def is_linearly_general(family):
    """dim I_A = min(n, sum of factor dims) for every nonempty subset A."""
    n = family[0].nvars
    d = len(family)
    for size in range(1, d + 1):
        for A in combinations(range(1, d + 1), size):
            total = sum(family[i - 1].dim for i in A)
            if sum_ideal(family, A).dim != min(n, total):
                return False
    return True


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
