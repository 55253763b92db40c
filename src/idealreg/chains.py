"""Gap-chain ideals and their products.

A gap chain is a squarefree monomial x_{i_1} ... x_{i_k} whose indices
increase by at least 2.  J_k denotes the ideal generated by all gap chains
of degree k; these are the initial ideals of the ideals of k-minors of a
generic Hankel matrix.  Every monomial factors canonically into gap
chains (greedily extracting the lex-greatest dividing chain), the degree
sequence of the factors is its shape, and the statistic

    gamma_t(s) = sum_i max(s_i - t + 1, 0)

controls membership in the generating set Omega of a product
J_{t_1} ... J_{t_p}.  The sigma order on Omega (factorwise lex comparison
of canonical decompositions) yields linear quotients, with an explicit
one-variable witness per comparable pair; the certificate pins the
regularity of the product at sum t_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from . import check
from .ideals import MonomialIdeal
from .monomials import (
    check_ambient,
    compare_tau,
    degree,
    format_monomial,
    gcd_monomial,
    mono_div,
    mono_mul,
    monomial_basis,
    support,
    variable,
)
from .quotients import QuotientCertificate, check_order

OMEGA_GUARD = 50_000

# `omega` enumerates the C(d+n-1, n-1) monomials of degree d in n
# variables, and the basis, the decomposition cache and the generator
# index hold about n exponent cells for each.  ENUM_GUARD bounds those
# size * n cells.  `hankel omega` in a fresh process (2 cores, Python
# 3.11), cells -> time, peak RSS:
#   --n 600 --t 1:               360 000 ->  0.26 s   26 MB
#   --n 2000 --t 1:            4 000 000 ->  1.30 s  111 MB
#   --n 12 --t 5,5:            4 232 592 ->  3.93 s  109 MB
#   --n 7 --t 4,4,4,4,4,4:     4 156 425 -> 13.0 s   135 MB
#   --n 5 --t 3 (20 times):    3 176 880 -> 33.1 s   155 MB
#   --n 13 --t 5,5:            8 406 398 (refused; 6.97 s, 156 MB, guard lifted)
#   --n 3000 --t 1:            9 000 000 (refused; 2.87 s, 226 MB, guard lifted)
# The cells do not count the decomposition work, which grows with the
# degree: the rows of high degree are the slowest per cell.
ENUM_GUARD = 5_000_000

# `canonical_decomposition` takes at most d factors from a monomial of
# degree d in n variables, "a^d" exactly d, and each takes one pass over
# the n exponents.  DECOMPOSE_GUARD bounds d * n.  Timings of `hankel
# decompose`, in-process with the guard lifted (2 cores, Python 3.11;
# median of five, or of the runs marked), as d * n -> time:
#   "a^100000":                100 000 ->  0.26 s
#   "a^200000":                200 000 ->  0.52 s
#   "a^50000*b^50000":         200 000 ->  0.31 s
#   "a^2000", --n 100:         200 000 ->  0.03 s
#   "a^1000000":             1 000 000 ->  3.2 s  (three, refused)
#   "a^100000", --n 1000:  100 000 000 -> 11.6 s  (one, refused)
# A factor costs about 2.6 us plus 0.12 us per variable, so at a given
# d * n one variable is the slowest.
DECOMPOSE_GUARD = 200_000


@dataclass(frozen=True)
class ChainProductSpec:
    """Product J_{t_1} ... J_{t_p} in n variables, t weakly decreasing."""

    nvars: int
    sizes: tuple

    def __post_init__(self):
        top = (self.nvars + 1) // 2
        if not self.sizes:
            raise ValueError("at least one factor required")
        if list(self.sizes) != sorted(self.sizes, reverse=True):
            raise ValueError("sizes must be weakly decreasing")
        for t in self.sizes:
            if not 1 <= t <= top:
                raise ValueError(f"size {t} outside 1..{top} for n = {self.nvars}")

    @property
    def total_degree(self):
        return sum(self.sizes)


def chain_generators(n, k):
    """All degree-k gap chains in n variables; there are C(n-k+1, k)."""
    if not 1 <= k <= (n + 1) // 2:
        raise ValueError(f"chain degree {k} outside 1..{(n + 1) // 2}")
    return [_chain_monomial(tuple(p + 2 * j for j, p in enumerate(picks)), n)
            for picks in combinations_with_replacement(range(n - 2 * (k - 1)), k)]


def chain_ideal(n, k):
    return MonomialIdeal.from_gens(n, chain_generators(n, k))


def _greedy_chain(rest):
    """The lex-greatest gap chain dividing `rest`, a list of exponents, as
    0-based indices: the smallest admissible ones."""
    chain = []
    last = -2
    for i, e in enumerate(rest):
        if e and i - last > 1:
            chain.append(i)
            last = i
    return tuple(chain)


@lru_cache(maxsize=None)
def _chain_monomial(chain, n):
    """The gap chain with 0-based indices `chain` in n variables, one tuple
    per chain, so that cached decompositions share their factors."""
    factor = [0] * n
    for i in chain:
        factor[i] = 1
    return tuple(factor)


@dataclass(frozen=True)
class CanonicalDecomposition:
    factors: tuple  # gap chains, degrees weakly decreasing
    shape: tuple = field(init=False, compare=False)  # degrees of the factors

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(map(degree, self.factors)))

    def render(self):
        return "".join(f"({format_monomial(f)})" for f in self.factors)


@lru_cache(maxsize=1 << 16)  # room for the OMEGA_GUARD members of one Omega
def canonical_decomposition(u):
    """Greedy factorization into gap chains; factors are lex-maximal in turn."""
    u = tuple(u)
    left = degree(u)
    if left < 1:
        raise ValueError("the unit monomial has no decomposition")
    if left * len(u) > DECOMPOSE_GUARD:
        raise ValueError(
            f"degree {left} times {len(u)} variables is {left * len(u)}, "
            f"above DECOMPOSE_GUARD = {DECOMPOSE_GUARD}"
        )
    rest = list(u)
    factors = []
    while left:
        chain = _greedy_chain(rest)
        for i in chain:
            rest[i] -= 1
        factors.append(_chain_monomial(chain, len(u)))
        left -= len(chain)
    dec = CanonicalDecomposition(tuple(factors))
    check(dec.shape == tuple(sorted(dec.shape, reverse=True)),
          "canonical shape must be weakly decreasing")
    return dec


def gamma(t, s):
    """gamma_t of an integer sequence such as a shape.  A monomial is read
    as its plain exponent sequence, not via its canonical shape (that is
    `tests/oracles.gamma_of_monomial`)."""
    if t < 1:
        raise ValueError("gamma index must be at least 1")
    if isinstance(s, tuple) and s and not isinstance(s[0], int):
        raise TypeError("sequence of integers expected")
    if s and any(x < 0 for x in s):
        raise ValueError("negative entry in shape")
    return sum(max(x - t + 1, 0) for x in s)


def _in_omega(shape, sizes):
    """Membership in Omega of J_{t_1} ... J_{t_p}, t = sizes, for a monomial
    of degree sum(t) with canonical shape `shape`: gamma_i(shape) >=
    gamma_i(t) for i = 1..t_1."""
    return all(
        gamma(i, shape) >= gamma(i, sizes) for i in range(1, sizes[0] + 1)
    )


@dataclass(frozen=True)
class OmegaSet:
    spec: ChainProductSpec
    members: tuple  # sigma-descending


def sigma_compare(u, v):
    """Compare same-degree monomials by their canonical decompositions.

    The first differing factor decides, by lex comparison; returns -1/0/1.
    """
    if degree(u) != degree(v):
        raise ValueError("sigma comparison requires equal degrees")
    if u == v:
        return 0
    fu = canonical_decomposition(u).factors
    fv = canonical_decomposition(v).factors
    for a, b in zip(fu, fv):
        if a != b:
            return compare_tau(a, b)
    raise AssertionError("distinct monomials with identical decompositions")


def sigma_key(u):
    """Sort key of the sigma order on monomials of one degree: the tuple of
    canonical factors.  compare_tau is lex on exponent tuples, and the
    factor tuples of two distinct monomials of one degree are never a
    prefix of one another, so the key orders as sigma_compare does."""
    return canonical_decomposition(u).factors


def omega(spec):
    """The generating set Omega of J_{t_1} ... J_{t_p}, sigma-descending.

    Membership: degree sum(t) and gamma_i(m) >= gamma_i(t) for all i,
    decided once per canonical shape.  The result is cross-checked against
    the minimal generators of the actual product of chain ideals, computed
    independently.
    """
    n = spec.nvars
    d = spec.total_degree
    size = comb(d + n - 1, n - 1)
    if size * n > ENUM_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: {size} monomials of degree {d} "
            f"in {n} variables weigh {size * n} cells > ENUM_GUARD = {ENUM_GUARD}"
        )
    verdicts = {}  # canonical shape -> membership
    members = []
    for m in monomial_basis(n, d):
        shape = canonical_decomposition(m).shape
        ok = verdicts.get(shape)
        if ok is None:
            ok = verdicts[shape] = _in_omega(shape, spec.sizes)
        if ok:
            members.append(m)
    if len(members) > OMEGA_GUARD:
        raise ValueError(
            f"Omega guard exceeded: {len(members)} > OMEGA_GUARD = {OMEGA_GUARD}"
        )
    product = chain_ideal(n, spec.sizes[0])
    for t in spec.sizes[1:]:
        product = product.product(chain_ideal(n, t))
    check(set(members) == set(product.gens),
          "Omega disagrees with the product's minimal generators")
    members.sort(key=sigma_key, reverse=True)
    return OmegaSet(spec, tuple(members))


def quotient_witness(spec, m, n_mono):
    """The one-variable colon witness for a sigma-comparable pair of Omega.

    For m sigma-greater than n the witness v is in Omega, sigma-greater
    than n, and v/gcd(v, n) is a single variable dividing m/gcd(m, n);
    these facts are asserted, not trusted.
    """
    nv = spec.nvars
    if sigma_compare(m, n_mono) <= 0:
        raise ValueError("witness needs m sigma-greater than n")
    fm = canonical_decomposition(m).factors
    fn = canonical_decomposition(n_mono).factors
    j = next(k for k in range(min(len(fm), len(fn))) if fm[k] != fn[k])
    a = support(fm[j])
    b = support(fn[j])
    z = 0
    while z < min(len(a), len(b)) and a[z] == b[z]:
        z += 1
    if z < len(b) and z < len(a) and a[z] < b[z]:
        v = mono_mul(mono_div(n_mono, variable(b[z], nv)), variable(a[z], nv))
    elif z == len(b) and len(a) >= z + 1:
        # n's j-th factor is exhausted: borrow from the next factor of n
        q = support(fn[j + 1])[0]
        v = mono_mul(mono_div(n_mono, variable(q, nv)), variable(a[z], nv))
    else:
        raise AssertionError("impossible case split for a sigma-greater pair")
    x_az = variable(a[z], nv)
    check(mono_div(v, gcd_monomial(v, n_mono)) == x_az, "witness colon not linear")
    check(all(p <= q for p, q in zip(x_az, mono_div(m, gcd_monomial(m, n_mono)))),
          "witness variable must divide m/gcd(m, n)")
    check(sigma_compare(v, n_mono) > 0, "witness not sigma-greater")
    check(degree(v) == spec.total_degree
          and _in_omega(canonical_decomposition(v).shape, spec.sizes),
          "witness left Omega")
    return v


def certify_product(spec, validate_pairs=True):
    """Linear-quotient certificate for J_{t_1} ... J_{t_p} in sigma order.

    Omega sigma-descending is certified through the generic order checker;
    optionally every sigma-comparable pair is additionally validated by its
    explicit witness.  The certified regularity is sum(t_i).
    """
    om = omega(spec)
    check_ambient(spec.nvars, len(om.members))
    cert = check_order(spec.nvars, om.members)
    check(isinstance(cert, QuotientCertificate),
          "sigma order must give linear quotients")
    if validate_pairs:
        for k, n_mono in enumerate(om.members):
            for m in om.members[:k]:
                quotient_witness(spec, m, n_mono)
    check(cert.max_degree() == spec.total_degree,
          "certified regularity differs from the total degree")
    return cert
