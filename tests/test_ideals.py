import random

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg.ideals import (
    MonomialIdeal,
    colon_by_variable_power,
    dimension_monomial,
    intersect,
    minimalize,
    saturation,
)
from idealreg.monomials import (
    divides,
    degree,
    mono_mul,
    monomial_basis,
    parse_monomial,
)


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
