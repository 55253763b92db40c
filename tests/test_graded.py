import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealreg import betti, linalg
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    _extend,
    colon_piece,
    degree_piece,
    hilbert_value,
    hilbert_values,
    ideal_product,
    quotient_basis,
    ring_dim,
    saturation_degree,
)
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import basis_index, monomial_basis, parse_monomial
from idealreg.samplers import random_monomial_ideal, rng_from_seed
from oracles import contains_monomial, saturation


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
    assert s.multiply(s, 2).terms == (((0, 2), 1), ((2, 0), 1))
    assert s.multiply(s, 0).terms == (
        ((0, 2), 1), ((1, 1), 2), ((2, 0), 1),
    )
    t = HomPolynomial.linear_form([2, 1])
    # (2a+b)^2 = a^2 + a*b + b^2 over GF(3): 4 and 4 taken mod 3
    assert t.multiply(t, 3).terms == (
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
        "nvars", "generators", "characteristic", "_pieces", "_monomial"
    }


def test_monomial_and_generic_hilbert_agree():
    # same ideal through the combinatorial and the linear-algebra path
    gens = ["a^2*b", "b^2*c", "c^3"]
    I = view(3, *gens)
    J = GradedIdealView(
        3, [HomPolynomial.from_monomial(parse_monomial(s, 3)[0]) for s in gens]
    )
    J_generic = GradedIdealView(
        3, list(J.generators) + [J.generators[0]], 0
    )  # redundant generator, forces the generic path to do real reduction
    for e in range(7):
        assert hilbert_value(I, e) == ring_dim(3, e) - degree_piece(J_generic, e).dim
    # a redundant non-monomial generator, a^2*b + c^3, puts the same ideal
    # on the degree-piece route of `hilbert_values`
    K = GradedIdealView(
        3, list(J.generators) + [HomPolynomial.make({(2, 1, 0): 1, (0, 0, 3): 1})]
    )
    assert I.is_monomial and not K.is_monomial
    assert hilbert_values(I, 6) == hilbert_values(K, 6)
    assert hilbert_values(I, 6) == [hilbert_value(I, e) for e in range(7)]


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
                if contains_monomial(mi, mono_mul(m, g))
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


def test_saturation_exceeds_cap_flag():
    # (a^2) in 2 vars is saturated; (a^2, a*b) saturates to (a)
    I = view(2, "a^2", "a*b")
    sp = saturation_degree(I, 4)
    assert sp.sat_degree == 2 and not sp.exceeds_cap


def test_saturation_of_an_m_primary_binomial_ideal():
    # (x^3 + y^3, x^3 - y^3) = (x^3, y^3): I^sat = R and R/I reaches degree
    # 4, so reg(I) = 5 and no certificate exists below it
    gens = [HomPolynomial.make({(3, 0): 1, (0, 3): 1}),
            HomPolynomial.make({(3, 0): 1, (0, 3): -1})]
    sp = saturation_degree(GradedIdealView(2, gens), 3)
    assert sp.exceeds_cap and sp.profile == {}
    sp = saturation_degree(GradedIdealView(2, gens), 5)
    assert sp.sat_degree == 5
    assert sp.profile == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1, 5: 0}


def test_saturation_without_a_certificate_gives_no_number():
    # ab(a + b) over GF(2) is saturated, but every linear form over GF(2)
    # divides it, so no certificate exists at any m and no number is given
    I = GradedIdealView(2, [HomPolynomial.make({(2, 1): 1, (1, 2): 1})], 2)
    sp = saturation_degree(I, 6)
    assert sp.sat_degree is None and sp.profile == {}


@st.composite
def homogeneous_ideals(draw, chars=(0, 2, 3, 32003)):
    """1..3 homogeneous generators of degree 1..3 in 1..3 variables, with
    1..4 terms each, over QQ or GF(p)."""
    char = draw(st.sampled_from(chars))
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
    p = I.characteristic
    n = I.nvars
    for e in range(I.max_gen_degree() + 3):
        spanning = [
            g.scale_by_monomial(m).vector(p)
            for g in I.generators
            if g.degree <= e
            for m in monomial_basis(n, e - g.degree)
        ]
        rows, pivots = linalg.row_reduce(spanning, p)
        piece = degree_piece(I, e)
        assert piece.pivots == pivots
        assert piece.rows == rows


@given(homogeneous_ideals(), st.data())
@settings(max_examples=80, deadline=None)
def test_extend_is_the_rref_of_the_piece_and_the_rows(I, data):
    # the merge of new rows into a cached piece, through their residues,
    # gives the canonical RREF of the union and leaves the cache as it is
    p = I.characteristic
    e = data.draw(st.integers(0, I.max_gen_degree() + 1))
    piece = degree_piece(I, e)
    cached = [dict(row) for row in piece.rows]
    coeffs = st.integers(1, p - 1) if p else st.integers(-9, 9).filter(bool)
    rows = data.draw(st.lists(
        st.dictionaries(st.integers(0, piece.ncols - 1), coeffs, max_size=4),
        max_size=4))
    merged = _extend(piece, rows, p)
    rref, pivots = linalg.row_reduce(piece.rows + rows, p)
    assert merged.pivots == pivots and merged.rows == rref
    assert merged.ncols == piece.ncols
    assert I._pieces[e] is piece and piece.rows == cached


def _gauss_jordan(rows, ncols, p):
    """(pivots, lead-1 RREF rows) of dense rows: Fractions over QQ, residues
    mod p."""
    norm = (lambda x: x % p) if p else Fraction
    inv = (lambda a: pow(a, -1, p)) if p else (lambda a: 1 / a)
    out = {}
    for row in rows:
        r = [norm(row.get(j, 0)) for j in range(ncols)]
        for q, prow in out.items():
            r = [norm(a - r[q] * b) for a, b in zip(r, prow)]
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        s = inv(r[lead])
        r = [norm(a * s) for a in r]
        for q, prow in out.items():
            out[q] = [norm(a - prow[lead] * b) for a, b in zip(prow, r)]
        out[lead] = r
    pivots = sorted(out)
    return pivots, [out[q] for q in pivots]


@given(homogeneous_ideals(chars=(0, 2, 32003)))
@settings(max_examples=60, deadline=None)
def test_pieces_and_strands_hold_ints(I):
    # below the edge every row is an int row; each piece is the Fraction
    # (or mod p) RREF of its spanning set, row by row up to the lead, and
    # its quotient basis reduces to D times the residue of that RREF
    assume(not I.is_monomial)
    p = I.characteristic
    n = I.nvars
    cap = I.max_gen_degree() + 1
    engine = betti.StrandEngine(I)
    for j in range(cap + 1):
        for i in range(min(n, j) + 1):
            engine.betti(i, j)
    strand_rows = [r for rows in engine._rows.values() for r in rows]
    strand_rows += [r for mult in engine._mult.values() for rows in mult for r in rows]
    for e, piece in I._pieces.items():
        assert all(type(v) is int for row in piece.rows for v in row.values())
        index = basis_index(n, e)
        spanning = [
            {index[t]: c for t, c in g.scale_by_monomial(m).terms}
            for g in I.generators
            if g.degree <= e
            for m in monomial_basis(n, e - g.degree)
        ]
        pivots, oracle = _gauss_jordan(spanning, piece.ncols, p)
        assert piece.pivots == pivots
        for q, row, expect in zip(pivots, piece.rows, oracle):
            scale = pow(row[q], -1, p) if p else Fraction(1, row[q])
            assert [v * scale % p if p else v * scale
                    for v in (row.get(j, 0) for j in range(piece.ncols))] == expect
        qb = piece.quotient
        D = qb.lead
        assert D == lcm(*(row[q] for q, row in zip(piece.pivots, piece.rows)))
        vectors = [{j: 1} for j in range(piece.ncols)]
        vectors.append({j: j + 1 for j in range(piece.ncols)})
        for v in vectors:
            residue = {}
            for j in qb.columns:
                r = v.get(j, 0) - sum(v.get(q, 0) * row[j]
                                      for q, row in zip(pivots, oracle))
                r = r * D % p if p else r * D
                if r:
                    residue[qb.position[j]] = r
            got = qb.reduce(v, p)
            assert got == residue
            assert all(type(c) is int for c in got.values())
    assert all(type(v) is int for row in strand_rows for v in row.values())


def test_fraction_generators_give_the_pieces_and_table_of_their_integer_multiples():
    a_b = {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3)}
    ac_b2 = {(1, 0, 1): Fraction(3, 4), (0, 2, 0): Fraction(5, 6)}
    I = GradedIdealView(3, [HomPolynomial.make(a_b), HomPolynomial.make(ac_b2)])
    J = GradedIdealView(3, [
        HomPolynomial.make({m: int(12 * c) for m, c in a_b.items()}),
        HomPolynomial.make({m: int(12 * c) for m, c in ac_b2.items()}),
    ])
    for e in range(6):
        assert degree_piece(I, e) == degree_piece(J, e)
    assert betti.betti_table(I).entries == betti.betti_table(J).entries
