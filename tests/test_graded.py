import random

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg import linalg
from idealreg.fields import field_of
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    colon_piece,
    degree_piece,
    hilbert_value,
    ideal_product,
    is_almost_regular,
    quotient_basis,
    ring_dim,
    saturation_degree,
)
from idealreg.ideals import MonomialIdeal, saturation
from idealreg.monomials import monomial_basis, parse_monomial
from idealreg.samplers import random_monomial_ideal, rng_from_seed


def view(nvars, *names, char=0):
    return GradedIdealView.from_monomial_ideal(
        MonomialIdeal.from_gens(nvars, [parse_monomial(s, nvars)[0] for s in names]),
        char,
    )


def test_hompolynomial_validation():
    with pytest.raises(ValueError):
        HomPolynomial.make({(1, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        HomPolynomial.make({})
    with pytest.raises(ValueError):
        HomPolynomial.linear_form([0, 0])


def test_multiply_reduces_and_drops_vanishing_coefficients():
    s = HomPolynomial.linear_form([1, 1])
    # (a+b)^2 = a^2 + b^2 over GF(2): the coefficient 2 of a*b vanishes
    assert s.multiply(s, field_of(2)).terms == (((0, 2), 1), ((2, 0), 1))
    assert s.multiply(s, field_of(0)).terms == (
        ((0, 2), 1), ((1, 1), 2), ((2, 0), 1),
    )
    t = HomPolynomial.linear_form([2, 1])
    # (2a+b)^2 = a^2 + a*b + b^2 over GF(3): 4 and 4 taken mod 3
    assert t.multiply(t, field_of(3)).terms == (
        ((0, 2), 1), ((1, 1), 1), ((2, 0), 1),
    )


def test_degree_piece_dims_match_hilbert():
    I = view(3, "a^2", "b*c")
    for e in range(6):
        assert ring_dim(3, e) - degree_piece(I, e).dim == hilbert_value(I, e)
        assert quotient_basis(I, e).dim == hilbert_value(I, e)
        # the piece holds the quotient basis; the view keeps no other cache
        assert quotient_basis(I, e) is degree_piece(I, e).quotient
    assert set(vars(I)) == {
        "nvars", "generators", "characteristic", "field", "_pieces", "_monomial"
    }


def test_monomial_and_generic_hilbert_agree():
    # same ideal through the combinatorial and the linear-algebra path
    gens = ["a^2*b", "b^2*c", "c^3"]
    I = view(3, *gens)
    J = GradedIdealView(
        3,
        [
            HomPolynomial.from_monomial(parse_monomial(s, 3)[0], 1)
            for s in gens
        ],
    )
    J_generic = GradedIdealView(
        3, list(J.generators) + [J.generators[0]], 0
    )  # redundant generator, forces the generic path to do real reduction
    for e in range(7):
        assert hilbert_value(I, e) == ring_dim(3, e) - degree_piece(J_generic, e).dim


def test_ideal_product_monomial():
    I = view(2, "a")
    J = view(2, "b")
    P = ideal_product(I, J)
    assert P.monomial_ideal().gens == (parse_monomial("a*b", 2)[0],)


def test_colon_piece_monomial_oracle():
    rng = rng_from_seed(11)
    for _ in range(25):
        mi = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        I = GradedIdealView.from_monomial_ideal(mi)
        g = monomial_basis(mi.nvars, 1)[rng.randrange(mi.nvars)]
        gp = HomPolynomial.from_monomial(g)
        for e in range(4):
            piece = colon_piece(I, gp, e)
            from idealreg.monomials import mono_mul

            expected = sum(
                1 for m in monomial_basis(mi.nvars, e)
                if mi.contains_monomial(mono_mul(m, g))
            )
            assert piece.dim == expected


def test_saturation_profile_matches_combinatorial_saturation():
    rng = rng_from_seed(23)
    for _ in range(15):
        mi = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        if mi.is_unit:
            continue
        I = GradedIdealView.from_monomial_ideal(mi)
        S = saturation(mi)
        cap = mi.max_gen_degree() + 2
        sp = saturation_degree(I, cap)
        for e in range(cap + 1):
            expected = mi.hilbert_function(e) - S.hilbert_function(e)
            assert sp.profile[e] == expected


def test_almost_regular_on_artinian_quotient():
    # R/(a^2, b^2) in 2 vars: a+b is almost regular (injective from degree 1)
    I = view(2, "a^2", "b^2")
    x = HomPolynomial.linear_form([1, 1])
    rep = is_almost_regular(x, I, cap=4)
    assert rep.verdict
    # a alone is not: a*(ab) = a^2 b = 0 but ab != 0
    rep2 = is_almost_regular(HomPolynomial.linear_form([1, 0]), I, cap=4)
    assert not all(rep2.injective.values())


def test_saturation_exceeds_cap_flag():
    # (a^2) in 2 vars is saturated; (a^2, a*b) saturates to (a)
    I = view(2, "a^2", "a*b")
    sp = saturation_degree(I, 4)
    assert sp.sat_degree == 2 and not sp.exceeds_cap


@st.composite
def homogeneous_ideals(draw):
    """1..3 homogeneous generators of degree 1..3 in 1..3 variables, with
    1..4 terms each, over QQ or GF(p)."""
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    coeffs = st.integers(1, char - 1) if char else st.integers(-9, 9).filter(bool)
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        basis = monomial_basis(n, draw(st.integers(1, 3)))
        terms = draw(st.dictionaries(
            st.sampled_from(basis), coeffs, min_size=1, max_size=4))
        gens.append(HomPolynomial.make(terms))
    return GradedIdealView(n, gens, char)


@given(homogeneous_ideals())
@example(view(2, "a^2", "a*b", "b^2"))
@example(view(2, "a^2", "a*b", "b^2", char=2))
@settings(deadline=None)
def test_degree_piece_equals_rref_of_full_spanning_set(I):
    # every m*g with deg m = e - deg g, reduced in one go, against the
    # incremental route that shifts the rows of I_{e-1}; the examples fill
    # R_2, so degrees 3 and 4 take the I_{e-1} = R_{e-1} shortcut
    fld = I.field
    n = I.nvars
    for e in range(I.max_gen_degree() + 3):
        spanning = [
            g.scale_by_monomial(m).vector(fld)
            for g in I.generators
            if g.degree <= e
            for m in monomial_basis(n, e - g.degree)
        ]
        rows, pivots = linalg.row_reduce(spanning, fld)
        piece = degree_piece(I, e)
        assert piece.pivots == pivots
        assert piece.rows == rows
