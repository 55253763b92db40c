import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg import ideals
from idealreg.ideals import MonomialIdeal, dimension_monomial, minimalize
from idealreg.monomials import (
    divides,
    degree,
    mono_mul,
    monomial_basis,
    parse_monomial,
)
from oracles import colon_by_variable_power, intersect, saturation


def small_ideals(nmax=4, degmax=4, max_gens=5, nmin=2):
    def build(args):
        n, k, seed = args
        rng = random.Random(seed)
        gens = []
        for _ in range(k):
            d = rng.randint(1, degmax)
            basis = monomial_basis(n, d)
            gens.append(basis[rng.randrange(len(basis))])
        return MonomialIdeal.from_gens(n, gens)

    return st.tuples(
        st.integers(nmin, nmax), st.integers(1, max_gens), st.integers(0, 10**6)
    ).map(build)


def unit_ideal(n):
    return MonomialIdeal.from_gens(n, [(0,) * n])


def brute_contains(I, u):
    return any(divides(g, u) for g in I.gens)


def test_minimalize():
    gens = [(2, 0), (1, 0), (1, 1), (0, 3)]
    assert set(minimalize(gens)) == {(1, 0), (0, 3)}


def brute_minimalize(monomials):
    """All-pairs pruning: keep u when no other monomial divides it."""
    gens = sorted(set(monomials), key=degree)
    return [u for u in gens if not any(v != u and divides(v, u) for v in gens)]


monomial_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=14)
)


@settings(max_examples=300, deadline=None)
@given(monomial_lists)
@example([(0, 2, 0), (1, 0, 0), (0, 1, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0)])
def test_minimalize_matches_all_pairs(monomials):
    assert minimalize(monomials) == brute_minimalize(monomials)


@settings(max_examples=300, deadline=None)
@given(monomial_lists, st.sets(st.integers(0, 13)), st.booleans(),
       st.sampled_from([0, ideals.PAIRWISE_TESTS]))
@example([(1, 0), (0, 1), (1, 1), (2, 0)], {0}, False, 0)
@example([(0, 2, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (0, 0, 1)], {0, 2}, True, 0)
def test_minimalize_keeps_the_known_minimal_and_matches_all_pairs(
        monomials, picks, apart, pairwise_tests):
    # pairwise_tests 0 sends every set of two degrees or more to the bitsets
    G = brute_minimalize(monomials)
    minimal = [G[k] for k in picks if k < len(G)]
    if apart:
        monomials = [u for u in monomials if u not in minimal]
    with mock.patch.object(ideals, "PAIRWISE_TESTS", pairwise_tests):
        out = minimalize(monomials, minimal)
    assert sorted(out) == sorted(G)
    assert [degree(u) for u in out] == sorted(map(degree, G))


def test_from_gens_rejects():
    with pytest.raises(ValueError):
        MonomialIdeal.from_gens(2, [])
    with pytest.raises(ValueError):
        MonomialIdeal.from_gens(3, [(1, 0)])


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(small_ideals(nmin=1), st.integers(1, 4).map(unit_ideal)),
    st.integers(0, 7),
)
@example(unit_ideal(1), 3)
@example(unit_ideal(3), 4)
@example(MonomialIdeal.from_gens(1, [(3,)]), 6)
def test_hilbert_values_count_standard_monomials(I, cap):
    values = I.hilbert_values(cap)
    assert len(values) == cap + 1
    for e, v in enumerate(values):
        assert v == sum(
            1 for m in monomial_basis(I.nvars, e) if not brute_contains(I, m)
        )
        assert I.hilbert_function(e) == v


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_standard_divisors_oracle(I):
    cap = I.lcm_of_gens()
    got = set(I.standard_divisors_of(cap))
    expected = set()
    for e in range(degree(cap) + 1):
        for m in monomial_basis(I.nvars, e):
            if divides(m, cap) and not brute_contains(I, m):
                expected.add(m)
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.integers(0, 30))
def test_standard_divisors_stop_past_the_limit(I, limit):
    # the walk stops after the run of x_n that passes the limit
    cap = I.lcm_of_gens()
    full = I.standard_divisors_of(cap)
    cut = I.standard_divisors_of(cap, limit)
    if len(full) <= limit:
        assert cut == full
    else:
        assert limit < len(cut) <= limit + cap[-1] + 1
        assert cut == full[:len(cut)]


# ideals with mixed and pure-power generators, the unit ideal among them
exponent_ideals = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1,
                       max_size=8).map(lambda gens: MonomialIdeal.from_gens(n, gens))
)


@settings(max_examples=300, deadline=None)
@given(exponent_ideals, st.integers(0, 9))
@example(MonomialIdeal.from_gens(2, [(1, 1), (2, 0)]), 2)
@example(MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 2, 1), (3, 0, 1)]), 4)
@example(MonomialIdeal.from_gens(2, [(0, 0)]), 3)
def test_numerator_values_match_standard_divisor_counts(I, top):
    assert I.hilbert_values(top) == counted_standard_divisors(I, top)


def counted_standard_divisors(I, top):
    # every monomial of degree <= top divides (top, ..., top)
    counts = [0] * (top + 1)
    for u in I.standard_divisors_of((top,) * I.nvars):
        if sum(u) <= top:
            counts[sum(u)] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(exponent_ideals, st.integers(0, 9))
@example(MonomialIdeal.from_gens(2, [(2, 1), (1, 2), (0, 3)]), 3)
def test_the_colons_of_the_numerator_are_minimal(I, top):
    # the cut generators go in as known minimal, so a wrong split shows as
    # a colon that keeps a multiple
    real = ideals.minimalize

    def checked(monomials, minimal=()):
        monomials, minimal = list(monomials), list(minimal)
        out = real(monomials, minimal)
        assert sorted(out) == sorted(brute_minimalize(monomials + minimal))
        return out

    with mock.patch.object(ideals, "minimalize", checked):
        assert I.hilbert_values(top) == counted_standard_divisors(I, top)


def many_generator_ideals():
    """Ideals drawn from 150 to 255 monomials of degrees 3 to 5 in 7
    variables, whose first colon has more tests x candidates than
    PAIRWISE_TESTS."""
    def build(seed):
        rng = random.Random(seed)
        gens = (rng.sample(monomial_basis(7, 4), rng.randint(150, 210))
                + rng.sample(monomial_basis(7, 5), rng.randint(0, 40))
                + rng.sample(monomial_basis(7, 3), rng.randint(0, 5)))
        return MonomialIdeal.from_gens(7, gens)

    return st.integers(0, 10**6).map(build)


@settings(max_examples=40, deadline=None)
@given(many_generator_ideals(), st.integers(4, 7))
def test_numerator_values_above_the_size_rule_match_standard_divisor_counts(I, top):
    real, sizes = ideals.minimalize, []

    def sized(monomials, minimal=()):
        monomials, minimal = list(monomials), set(minimal)
        tested = set(monomials) - minimal
        sizes.append(len(tested) * len(tested | minimal))
        return real(monomials, minimal)

    with mock.patch.object(ideals, "minimalize", sized):
        assert I.hilbert_values(top) == counted_standard_divisors(I, top)
    assert max(sizes) > ideals.PAIRWISE_TESTS >= min(sizes)  # both kernels ran


def test_numerator_of_coprime_generators_is_their_product():
    # (a^2, b*c) in 3 variables: K(t) = (1 - t^2)^2
    I = MonomialIdeal.from_gens(3, [(2, 0, 0), (0, 1, 1)])
    assert I.hilbert_numerator(6) == [1, 0, -2, 0, 1, 0, 0]


def test_numerator_guard_refuses_before_it_builds_a_list():
    I = MonomialIdeal.from_gens(1, [(10**8,)])
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="up to degree 100000001 passes NUMERATOR_GUARD"):
        I.hilbert_values(10**8 + 1)
    assert time.perf_counter() - t0 < 1.0


@settings(max_examples=40, deadline=None)
@given(small_ideals(), small_ideals())
def test_intersection_membership(I, J):
    if I.nvars != J.nvars:
        return
    M = intersect(I, J)
    for e in range(5):
        for m in monomial_basis(I.nvars, e):
            assert brute_contains(M, m) == (
                brute_contains(I, m) and brute_contains(J, m)
            )


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_variable_saturation_membership(I):
    # u in (I : x_i^inf) iff u * x_i^big in I
    for i in range(1, I.nvars + 1):
        S = colon_by_variable_power(I, i)
        big = tuple(
            10 if k == i - 1 else 0 for k in range(I.nvars)
        )
        for m in monomial_basis(I.nvars, 3):
            assert brute_contains(S, m) == brute_contains(I, mono_mul(m, big))


def test_dimension_examples():
    I = MonomialIdeal.from_gens(3, [parse_monomial("a*b", 3)[0]])
    assert dimension_monomial(I) == 2
    m = MonomialIdeal.from_gens(3, [parse_monomial(s, 3)[0] for s in ("a", "b", "c")])
    assert dimension_monomial(m) == 0
    P = MonomialIdeal.from_gens(2, [parse_monomial("a", 2)[0]])
    assert dimension_monomial(P) == 1


@settings(max_examples=30, deadline=None)
@given(small_ideals())
def test_saturation_is_saturated(I):
    S = saturation(I)
    assert saturation(S).gens == S.gens
    for g in I.gens:
        assert brute_contains(S, g)
