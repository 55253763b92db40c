from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealreg import betti, linalg
from idealreg.fields import field_of
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    degree_piece,
    ideal_product,
    saturation_degree,
)
from idealreg.linforms import (
    LinearIdeal,
    associated_prime_check,
    is_linearly_general,
    pinched_family,
    power_piece,
    primary_components,
    product_generators,
    sum_ideal,
    verify_decomposition,
)
from idealreg.samplers import random_linear_family, rng_from_seed


def test_linear_ideal_canonical():
    V = LinearIdeal.from_rows(3, [[2, 4, 0], [1, 2, 0], [0, 0, 3]])
    assert V.dim == 2
    assert V.rows == ((1, 2, 0), (0, 0, 1)) and V.pivots == (0, 2)
    # the rational RREF is (1, 0, -5/6), (0, 1, 5/2)
    W = LinearIdeal.from_rows(3, [[3, 1, 0], [0, 2, 5]])
    assert W.rows == ((6, 0, -5), (0, 2, 5))
    with pytest.raises(ValueError):
        LinearIdeal.from_rows(2, [[0, 0]])


def test_linear_ideal_from_fraction_strings_stores_int_rows():
    # the benchmark pool gives coefficients as strings such as '56/47'
    V = LinearIdeal.from_rows(3, [["1", "0", "56/47"], ["0", "1", "-49/47"]])
    assert V.rows == ((47, 0, 56), (0, 47, -49)) and V.pivots == (0, 1)
    assert all(type(c) is int for row in V.rows for c in row)
    assert V == LinearIdeal.from_rows(3, [[47, 0, 56], [0, 47, -49]])


def test_sum_ideal():
    fam = [
        LinearIdeal.from_rows(3, [[1, 0, 0]]),
        LinearIdeal.from_rows(3, [[0, 1, 0]]),
    ]
    assert sum_ideal(fam, [1, 2]).dim == 2
    assert sum_ideal(fam, [1]).rows == fam[0].rows
    with pytest.raises(ValueError):
        sum_ideal(fam, [])


def test_product_degree_piece():
    # (x,y)(y,z) in 3 vars spans a 4-dimensional space of quadrics
    fam = [
        LinearIdeal.from_rows(3, [[1, 0, 0], [0, 1, 0]]),
        LinearIdeal.from_rows(3, [[0, 1, 0], [0, 0, 1]]),
    ]
    P = product_generators(fam)
    assert len(P.generators) == 4
    assert degree_piece(P, 2).dim == 4


def test_power_piece_examples():
    V = LinearIdeal.from_rows(2, [[1, 0]])
    p = power_piece(V, 2, 2)
    assert p.dim == 1
    full = LinearIdeal.from_rows(2, [[1, 0], [0, 1]])
    assert power_piece(full, 3, 3).dim == 4  # all of R_3 in 2 vars
    W = LinearIdeal.from_rows(3, [[1, 0, 0], [0, 1, -1]])
    assert power_piece(W, 2, 2).dim == 3
    assert power_piece(W, 2, 1).dim == 0


def test_power_piece_matches_spanning_route():
    # independent cross-check: V^k degree piece via the generator route
    rng = rng_from_seed(4)
    fld = field_of(0)
    for _ in range(10):
        fam = random_linear_family(rng, nmax=4, dmax=1)
        V = fam[0]
        k = rng.randint(1, 3)
        gens = [HomPolynomial.linear_form(r) for r in V.rows]
        view = GradedIdealView(V.nvars, gens)
        prod = view
        for _ in range(k - 1):
            prod = ideal_product(prod, view)
        for e in range(k, k + 3):
            assert power_piece(V, k, e).dim == degree_piece(prod, e).dim


@st.composite
def linear_subspaces(draw):
    """A subspace V of R_1 in 1..4 variables over QQ or GF(p).

    Integer rows over QQ mostly have RREFs with non-integer entries."""
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(1, n))
    rows = draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=dim, max_size=dim,
    ))
    try:
        return LinearIdeal.from_rows(n, rows, char)
    except ValueError:  # every row vanishes over the field
        assume(False)


@given(linear_subspaces(), st.integers(1, 3))
@example(LinearIdeal.from_rows(3, [[2, 3, 5]]), 2)  # dim 1, RREF (1, 3/2, 5/2)
@example(LinearIdeal.from_rows(3, [[2, 1, 0], [0, 3, 1], [1, 1, 1]]), 3)
@example(LinearIdeal.from_rows(3, [[1, 2, 0], [0, 1, 2]], 3), 2)  # GF(3)
@example(LinearIdeal.from_rows(2, [[1, 1]], 2), 2)  # (a+b)^2 = a^2 + b^2 in GF(2)
@settings(deadline=None)
def test_power_piece_equals_generator_route_piece(V, k):
    # rows and pivots of V^k in each degree 0..k+2, against the degree
    # pieces of the product of k copies of (V), built from generators
    view = GradedIdealView(V.nvars, V.forms(), V.characteristic)
    prod = view
    for _ in range(k - 1):
        prod = ideal_product(prod, view)
    for e in range(k + 3):
        ours = power_piece(V, k, e)
        theirs = degree_piece(prod, e)
        assert ours.pivots == theirs.pivots
        assert ours.rows == theirs.rows


def test_primary_components_count_and_guard():
    fam = pinched_family(3)
    comps = primary_components(fam)
    assert len(comps) == 7
    # only the full subset reaches the maximal ideal (pairs span 3 of 4 dims)
    assert {c.subset for c in comps if c.is_maximal} == {(1, 2, 3)}
    with pytest.raises(ValueError):
        primary_components([fam[0]] * 13)


def test_pinched_decomposition_d2():
    fam = pinched_family(2)
    comps = primary_components(fam)
    assert [(c.subset, c.exponent) for c in comps] == [
        ((1,), 1), ((2,), 1), ((1, 2), 2),
    ]
    rep = verify_decomposition(fam, 4)
    assert rep.equal


def test_decomposition_random_families():
    rng = rng_from_seed(99)
    for _ in range(8):
        fam = random_linear_family(rng, nmax=4, dmax=3)
        rep = verify_decomposition(fam, len(fam) + 3)
        assert rep.equal


def test_is_linearly_general():
    assert is_linearly_general(pinched_family(2))  # min(3, 4) = 3 holds at d=2
    assert not is_linearly_general(pinched_family(3))  # shared y: 3 < min(4, 4)
    single = [LinearIdeal.from_rows(2, [[1, 1]])]
    assert is_linearly_general(single)


def test_associated_prime_checks():
    for d in (2, 3):
        fam = pinched_family(d)
        for size in range(1, d + 1):
            for A in combinations(range(1, d + 1), size):
                assert associated_prime_check(fam, A, d + 2)
    with pytest.raises(ValueError):
        associated_prime_check(
            [LinearIdeal.from_rows(2, [[1, 0]])], (1,), 3
        )


def test_regularity_and_saturation_of_products():
    rng = rng_from_seed(3)
    for _ in range(5):
        fam = random_linear_family(rng, nmax=4, dmax=3)
        d = len(fam)
        prod = product_generators(fam)
        r = betti.regularity(prod, cap=d + fam[0].nvars)
        assert r.value == d
        sp = saturation_degree(prod, d)
        assert not sp.exceeds_cap and sp.sat_degree <= d


def test_unsaturated_only_with_full_sum():
    # when the subspaces do not sum to all of R_1 the product is saturated
    fam = [
        LinearIdeal.from_rows(3, [[1, 0, 0]]),
        LinearIdeal.from_rows(3, [[0, 1, 0]]),
    ]
    sp = saturation_degree(product_generators(fam), 2)
    assert sp.sat_degree == 0 and all(v == 0 for v in sp.profile.values())
