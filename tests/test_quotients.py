import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg import betti
from idealreg.graded import GradedIdealView
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import (
    degree,
    divides,
    mono_mul,
    monomial_basis,
    parse_monomial,
)
from idealreg.quotients import (
    GeneratorIndex,
    QuotientCertificate,
    QuotientFailure,
    _linear_colon,
    check_order,
    greedy_order,
    monomial_colon,
    regularity_from_certificate,
    search_order,
    verify_certificate,
)
from idealreg.samplers import random_monomial_ideal, rng_from_seed
from oracles import (
    AboveAtLeast,
    DroppedNeighbour,
    contains_monomial,
    equigenerated_ideals,
    random_equigenerated,
    search_order_oracle,
)


def gens(n, *names):
    return [parse_monomial(s, n)[0] for s in names]


def test_monomial_colon_examples():
    assert monomial_colon(gens(4, "a^2*b"), gens(4, "a*b*c")[0]) == gens(4, "a")
    assert monomial_colon(
        gens(4, "a^2*b", "a*b*c", "b*c*d"), gens(4, "c*d^2")[0]
    ) == gens(4, "b")
    assert monomial_colon([], gens(2, "a")[0]) == []


def test_monomial_colon_brute_force_oracle():
    rng = rng_from_seed(91)
    for _ in range(40):
        mi = random_monomial_ideal(rng, nmax=4, degmax=4, max_gens=4)
        basis = monomial_basis(mi.nvars, rng.randint(1, 4))
        u = basis[rng.randrange(len(basis))]
        colon = MonomialIdeal.from_gens(
            mi.nvars, monomial_colon(list(mi.gens), u) or [(0,) * mi.nvars]
        )
        # brute force: w in (I : u) iff w*u in I, checked degree by degree
        for e in range(7):
            for w in monomial_basis(mi.nvars, e):
                assert contains_monomial(colon, w) == contains_monomial(
                    mi, mono_mul(w, u)
                )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_linear_colon_matches_monomial_colon(seed):
    # every step of a shuffled G(I): prefix and u are minimal generators,
    # so no prefix member divides u
    rng = rng_from_seed(seed)
    mi = random_monomial_ideal(rng, nmax=5, degmax=4, max_gens=8)
    order = list(mi.gens)
    rng.shuffle(order)
    for t in range(1, len(order)):
        colon = monomial_colon(order[:t], order[t])
        if any(degree(w) >= 2 for w in colon):
            expected = None
        else:
            expected = tuple(sorted(w.index(1) + 1 for w in colon))
        assert _linear_colon(order[:t], order[t]) == expected


def test_linear_colon_examples():
    # the w are a^2*b, a*b, b: all meet S = {x2}
    hook = gens(4, "a^2*b", "a*b*c", "b*c*d")
    assert _linear_colon(hook, gens(4, "c*d^2")[0]) == (2,)
    assert _linear_colon(gens(4, "a*b", "b*c"), gens(4, "b^2")[0]) == (1, 3)
    # w = b*d misses S = {x1}; w = b^2 misses S = {x1}
    assert _linear_colon(gens(4, "a^2", "b*d"), gens(4, "a*c")[0]) is None
    assert _linear_colon(gens(3, "a", "b^2*c"), gens(3, "c")[0]) is None


def test_check_order_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient mismatch"):
        check_order(3, [(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="ambient mismatch"):
        check_order(3, [(1, 0, 0), (0, 1)])
    cert = QuotientCertificate(3, ((1, 0, 0), (0, 1)), ((), (1,)))
    with pytest.raises(ValueError, match="ambient mismatch"):
        verify_certificate(cert)


def test_check_order_hook():
    c = check_order(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    assert isinstance(c, QuotientCertificate)
    assert c.colon_vars == ((), (1,), (1,), (2,))
    assert regularity_from_certificate(c) == 3


def test_check_order_cubic():
    c = check_order(4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d"))
    assert isinstance(c, QuotientCertificate)
    assert c.colon_vars == ((), (2,), (1,), (1,), (1, 3))


def test_check_order_failure_reports_step():
    # reversed hook order fails immediately: (c*d^2) : (b*c*d) needs bd... try
    res = check_order(4, gens(4, "c*d^2", "a^2*b", "a*b*c", "b*c*d"))
    if isinstance(res, QuotientFailure):
        assert res.step >= 2 and degree(res.offender) >= 2
    else:
        # if this order happens to work the checker must still be consistent
        assert verify_certificate(res)


def test_check_order_rejects_non_minimal():
    with pytest.raises(ValueError):
        check_order(2, gens(2, "a", "a*b"))


def test_single_generator_trivial():
    c = check_order(3, gens(3, "a^2*b"))
    assert c.colon_vars == ((),)
    assert regularity_from_certificate(c) == 3


def test_search_cubic_square_has_no_order():
    I = MonomialIdeal.from_gens(
        4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )
    assert search_order(I.product(I)) is None


def test_search_hook_product_has_no_order():
    J = MonomialIdeal.from_gens(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    bc = MonomialIdeal.from_gens(4, gens(4, "b", "c"))
    assert search_order(bc.product(J)) is None


def test_search_veronese_finds_order():
    m3 = MonomialIdeal.from_gens(2, monomial_basis(2, 3))
    c = search_order(m3)
    assert c is not None and verify_certificate(c)


def test_search_verdict_order_invariant():
    # permuting the input generators cannot change the verdict
    I = MonomialIdeal.from_gens(3, gens(3, "a^2", "b^2", "a*c", "b*c"))
    base = search_order(I)
    permuted = MonomialIdeal.from_gens(3, list(reversed(I.gens)))
    again = search_order(permuted)
    assert (base is None) == (again is None)
    if base is not None:
        assert base.order == again.order  # determinized by presort


def test_certificate_regularity_matches_betti():
    rng = rng_from_seed(17)
    checked = 0
    while checked < 10:
        mi = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=5)
        if mi.is_unit or len(mi.gens) > 8:
            continue
        cert = search_order(mi)
        if cert is None:
            continue
        I = GradedIdealView.from_monomial_ideal(mi)
        assert regularity_from_certificate(cert) == betti.regularity(I).value
        checked += 1


def test_no_order_implies_no_linear_resolution_check():
    # equigenerated + certified non-linear resolution => search must fail;
    # asserted as the implication on the cubic square fixture
    I = MonomialIdeal.from_gens(
        4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )
    sq = I.product(I)
    r = betti.regularity(GradedIdealView.from_monomial_ideal(sq))
    assert r.certified and sq.is_equigenerated
    if r.value > sq.max_gen_degree():
        assert search_order(sq) is None


def test_serialization_roundtrip():
    c = check_order(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    back = QuotientCertificate.from_dict(json.loads(json.dumps(c.to_dict())))
    assert back == c and verify_certificate(back)


def test_search_guard():
    big = MonomialIdeal.from_gens(3, monomial_basis(3, 6))
    with pytest.raises(ValueError):
        search_order(big)


def colon_disagreements(index, gens):
    """The (k, prefix) where the bitset colon differs from `_linear_colon`:
    every u = g_k against every subset of the other generators, as the
    search visits them."""
    for k, u in enumerate(gens):
        for prefix in range(1 << len(gens)):
            if not prefix >> k & 1:
                members = [v for b, v in enumerate(gens) if prefix >> b & 1]
                if index.colon(k, prefix) != _linear_colon(members, u):
                    yield k, prefix


@settings(max_examples=150, deadline=None)
@given(equigenerated_ideals(), st.integers(0, 10**6))
def test_bitset_colon_matches_linear_colon_on_every_subset(I, seed):
    gens = list(I.gens)
    random.Random(seed).shuffle(gens)  # the index takes any order
    assert list(colon_disagreements(GeneratorIndex(gens), gens)) == []


@pytest.mark.parametrize("mutant", [DroppedNeighbour, AboveAtLeast])
def test_colon_oracle_catches_a_mutant_index(mutant):
    ideals = [list(random_equigenerated(4, 2, 6, seed).gens) for seed in range(20)]
    assert any(next(colon_disagreements(mutant(gens), gens), None)
               for gens in ideals)


def pairwise_check_order(nvars, gens):
    """check_order's answer from `_linear_colon` on each prefix list."""
    steps = [()]
    for t in range(1, len(gens)):
        vars_ = _linear_colon(gens[:t], gens[t])
        if vars_ is None:
            colon = monomial_colon(gens[:t], gens[t])
            return QuotientFailure(t + 1, next(v for v in colon if degree(v) >= 2))
        steps.append(vars_)
    return QuotientCertificate(nvars, tuple(gens), tuple(steps))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=16),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=5, degmax=4, max_gens=8)),
), st.integers(0, 10**6))
def test_check_order_matches_pairwise_colons(I, seed):
    order = list(I.gens)
    random.Random(seed).shuffle(order)
    assert check_order(I.nvars, order) == pairwise_check_order(I.nvars, order)


def test_check_order_names_the_first_repeated_generator():
    # the first generator in the order that occurs twice, not the first repeat
    with pytest.raises(ValueError, match="not minimal: a\\*b divides a\\*b"):
        check_order(3, gens(3, "a*b", "b*c", "b*c", "a*b"))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=9),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=4, degmax=3, max_gens=7)),
))
@example(MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")))  # no order
@example(MonomialIdeal.from_gens(4, gens(4, "b", "c")).product(  # no order
    MonomialIdeal.from_gens(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))))
@example(MonomialIdeal.from_gens(  # an order other than the sorted one
    5, gens(5, "a*b*e", "a*c*e", "b^2*d", "b*d*e", "c*d*e")))
@example(MonomialIdeal.from_gens(2, monomial_basis(2, 3)))
def test_search_order_matches_frozenset_search(I):
    expected = search_order_oracle(I)
    cert = search_order(I)
    if expected is None:
        assert cert is None
    else:
        assert cert is not None and list(cert.order) == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=9),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=4, degmax=3, max_gens=7)),
))
@example(MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")))  # no order
@example(MonomialIdeal.from_gens(2, gens(2, "a^2", "a*b", "b^3")))
def test_greedy_order_is_a_certified_degree_monotone_order_of_the_generators(I):
    cert = greedy_order(I)
    if cert is None:
        return
    assert sorted(cert.order) == sorted(I.gens)
    degs = [degree(u) for u in cert.order]
    assert degs == sorted(degs)
    assert verify_certificate(cert)
    assert search_order(I) is not None


def test_greedy_order_gives_up_where_no_order_exists():
    for mi in (MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")),
               MonomialIdeal.from_gens(3, gens(3, "a^2*b", "b^2*c", "c^2*a"))):
        assert search_order(mi) is None
        assert greedy_order(mi) is None
