"""Named worked examples, runnable as a suite.

Each fixture re-derives a known exact result from scratch and returns
True/False; tags group them by theme so the CLI can run a slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import betti
from .graded import GradedIdealView, saturation_degree
from .ideals import MonomialIdeal
from .linforms import associated_prime_check, pinched_family, verify_decomposition
from .monomials import parse_monomial
from .polymatroid import is_polymatroidal, revlex_certificate, transversal_ideal
from .quotients import QuotientCertificate, check_order, search_order
from .chains import (
    CanonicalDecomposition,
    ChainProductSpec,
    canonical_decomposition,
    certify_product,
    gamma,
)


def _pm(s, n):
    return parse_monomial(s, n)[0]


def _gens(n, *names):
    return [_pm(s, n) for s in names]


def cubic_square_ideal():
    """The degree-3 ideal whose square loses linear quotients."""
    return MonomialIdeal.from_gens(
        4, _gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )


def projective_plane_ideal():
    """Stanley-Reisner ideal of the 6-vertex minimal triangulation of the
    real projective plane: the ten squarefree cubics that are not facets.
    Its Betti table (and regularity, 3 against 4) differs between
    characteristic 0 and 2."""
    facets = {
        frozenset(f)
        for f in [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
    }
    return MonomialIdeal.from_gens(
        6,
        [
            tuple(1 if i + 1 in t else 0 for i in range(6))
            for t in combinations(range(1, 7), 3)
            if frozenset(t) not in facets
        ],
    )


def hook_ideal():
    """J = (a^2 b, a b c, b c d, c d^2), regularity 3."""
    return MonomialIdeal.from_gens(4, _gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))


def fx_hook_regularity():
    J = GradedIdealView.from_monomial_ideal(hook_ideal())
    t = betti.betti_table(J)
    return (
        t.ideal_entries() == {(0, 3): 4, (1, 4): 3}
        and betti.regularity(J).value == 3
        and t.certified
    )


def fx_hook_product_regularity():
    J = hook_ideal()
    bc = MonomialIdeal.from_gens(4, _gens(4, "b", "c"))
    P = GradedIdealView.from_monomial_ideal(bc.product(J))
    t = betti.betti_table(P)
    expected = {
        (0, 4): 8, (1, 5): 10, (1, 6): 1, (2, 6): 3, (2, 7): 2, (3, 8): 1,
    }
    return t.ideal_entries() == expected and betti.regularity(P).value == 5


def fx_hook_quotients():
    c = check_order(4, _gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    return isinstance(c, QuotientCertificate) and c.colon_vars == (
        (), (1,), (1,), (2,),
    )


def fx_cubic_quotients():
    order = _gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    c = check_order(4, order)
    return isinstance(c, QuotientCertificate) and c.colon_vars == (
        (), (2,), (1,), (1,), (1, 3),
    )


def fx_cubic_square_no_order():
    I = cubic_square_ideal()
    return search_order(I.product(I)) is None


def fx_cubic_square_betti():
    I = cubic_square_ideal()
    t = betti.betti_table(GradedIdealView.from_monomial_ideal(I.product(I)))
    e = t.ideal_entries()
    return e[(0, 6)] == 15 and e[(1, 7)] == 24 and e[(1, 8)] == 1


def fx_pinched_decomposition():
    fam = pinched_family(3)
    return verify_decomposition(fam, 3 + 3).equal


def fx_pinched_saturation():
    from .linforms import product_generators

    fam = pinched_family(3)
    sp = saturation_degree(product_generators(fam), 3)
    return sp.sat_degree is not None and sp.sat_degree <= 3


def fx_pinched_associated_primes():
    fam = pinched_family(3)
    return all(
        associated_prime_check(fam, A, 5)
        for size in (1, 2, 3)
        for A in combinations((1, 2, 3), size)
    )


def fx_exchange_failure():
    w = is_polymatroidal(hook_ideal())
    return (
        w is not True
        and w.u == _pm("a^2*b", 4)
        and w.v == _pm("c*d^2", 4)
        and w.index == 2
    )


def fx_transversal():
    T = transversal_ideal(3, [(1, 2), (2, 3)])
    return set(T.gens) == set(_gens(3, "a*b", "a*c", "b*c")) and (
        revlex_certificate(T) is not None
    )


def fx_chain_decomposition():
    m = _pm("x1^2*x2^3*x3^2*x5^3*x6*x7*x8^3", 8)
    dec = canonical_decomposition(m)
    expected = CanonicalDecomposition(
        tuple(
            _pm(s, 8)
            for s in (
                "x1*x3*x5*x7", "x1*x3*x5*x8", "x2*x5*x8", "x2*x6*x8", "x2",
            )
        )
    )
    gammas = tuple(gamma(i, dec.shape) for i in range(1, 6))
    return dec == expected and dec.shape == (4, 4, 3, 3, 1) and gammas == (
        15, 10, 6, 2, 0,
    )


def fx_chain_certificate():
    cert = certify_product(ChainProductSpec(5, (2, 2)), validate_pairs=True)
    return cert.max_degree() == 4


@dataclass(frozen=True)
class Fixture:
    name: str
    tag: str
    run: object


FIXTURES = (
    Fixture("hook-regularity", "regularity", fx_hook_regularity),
    Fixture("hook-product-regularity", "regularity", fx_hook_product_regularity),
    Fixture("pinched-decomposition", "linforms", fx_pinched_decomposition),
    Fixture("pinched-saturation", "linforms", fx_pinched_saturation),
    Fixture("pinched-associated-primes", "linforms", fx_pinched_associated_primes),
    Fixture("hook-quotients", "quotients", fx_hook_quotients),
    Fixture("cubic-quotients", "quotients", fx_cubic_quotients),
    Fixture("cubic-square-no-order", "quotients", fx_cubic_square_no_order),
    Fixture("cubic-square-betti", "quotients", fx_cubic_square_betti),
    Fixture("exchange-failure", "polymatroid", fx_exchange_failure),
    Fixture("transversal", "polymatroid", fx_transversal),
    Fixture("chain-decomposition", "chains", fx_chain_decomposition),
    Fixture("chain-certificate", "chains", fx_chain_certificate),
)

TAGS = tuple(sorted({f.tag for f in FIXTURES}))


def run_fixtures(only=None):
    """Run (a slice of) the suite; returns list of (name, passed)."""
    if only is not None and only not in TAGS:
        raise ValueError(f"unknown filter {only!r}; known: {', '.join(TAGS)}")
    results = []
    for f in FIXTURES:
        if only is not None and f.tag != only:
            continue
        results.append((f.name, bool(f.run())))
    return results
