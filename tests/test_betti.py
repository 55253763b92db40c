import dataclasses
import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealreg import betti, graded, linalg
from idealreg.chains import chain_ideal
from idealreg.fixtures import projective_plane_ideal
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    RegularityCertificate,
    degree_piece,
    ideal_product,
    quotient_basis,
    regularity_certificate,
    saturation_degree,
)
from idealreg.ideals import MonomialIdeal, saturation
from idealreg.linforms import LinearIdeal, product_generators
from idealreg.monomials import (
    basis_index,
    degree,
    mono_mul,
    monomial_basis,
    parse_monomial,
)
from idealreg.polymatroid import polymatroidal_product
from idealreg.quotients import (
    check_order,
    greedy_order,
    regularity_from_certificate,
    search_order,
)
from idealreg.samplers import (
    random_linear_family,
    random_monomial_ideal,
    random_polymatroidal,
    rng_from_seed,
)


def view(nvars, *names, char=0):
    return GradedIdealView.from_monomial_ideal(
        MonomialIdeal.from_gens(nvars, [parse_monomial(s, nvars)[0] for s in names]),
        char,
    )


def test_principal_ideal():
    I = view(2, "a^2*b")
    t = betti.betti_table(I)
    assert t.entries == {(0, 0): 1, (1, 3): 1}
    assert betti.regularity(I).value == 3


def test_koszul_complex_of_variables():
    # R/(x1..xn) is resolved by the Koszul complex: beta_i,i = C(n, i)
    from math import comb

    for n in (2, 3, 4):
        I = view(n, *[f"x{i}" for i in range(1, n + 1)])
        t = betti.betti_table(I)
        assert t.entries == {(i, i): comb(n, i) for i in range(n + 1)}


def test_hook_ideal_table():
    J = view(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2")
    t = betti.betti_table(J)
    assert t.ideal_entries() == {(0, 3): 4, (1, 4): 3}
    assert t.certified
    r = betti.regularity(J)
    assert r.value == 3 and r.certified


def test_hook_product_table():
    J = view(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2")
    I = view(4, "b", "c")
    P = ideal_product(I, J)
    t = betti.betti_table(P)
    assert t.ideal_entries() == {
        (0, 4): 8, (1, 5): 10, (1, 6): 1, (2, 6): 3, (2, 7): 2, (3, 8): 1,
    }
    rep = betti.inequality_report(I, J)
    assert rep.reg_product.value == 5 and not rep.holds


def test_strand_route_matches_monomial_route():
    rng = rng_from_seed(5)
    for _ in range(12):
        mi = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        if mi.is_unit:
            continue
        I = GradedIdealView.from_monomial_ideal(mi)
        t = betti.betti_table(I)
        # fresh view so the generic engine cannot reuse monomial shortcuts
        engine = betti.StrandEngine(GradedIdealView.from_monomial_ideal(mi))
        for (i, j), v in t.entries.items():
            if j <= mi.max_gen_degree() + 2:
                assert engine.betti(i, j) == v
        for j in range(mi.max_gen_degree() + 2):
            for i in range(min(mi.nvars, j) + 1):
                if (i, j) not in t.entries:
                    assert engine.betti(i, j) == 0


@st.composite
def small_monomial_views(draw):
    """A proper monomial ideal in 1..3 variables, exponents <= 3, over QQ or GF(p)."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=4))
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    return GradedIdealView.from_monomial_ideal(MonomialIdeal.from_gens(n, gens), char)


@given(small_monomial_views())
@settings(deadline=None)
def test_strand_engine_matches_monomial_table(I):
    # every strand entry up to the cap, zeros included, against the
    # monomial route; the engine runs on a fresh view with no cached pieces
    cap = I.max_gen_degree() + 1
    table = betti.betti_table(I, cap)
    engine = betti.StrandEngine(
        GradedIdealView(I.nvars, I.generators, I.characteristic)
    )
    for j in range(cap + 1):
        for i in range(min(I.nvars, j) + 1):
            assert engine.betti(i, j) == table.entries.get((i, j), 0)


@st.composite
def sheared_monomial_views(draw):
    """(I, J): a monomial ideal I in 2..3 variables and its image J under
    x1 -> x1 + c*x2, c nonzero in the field; J is not monomial."""
    n = draw(st.integers(2, 3))
    gens = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * n).filter(any), min_size=1, max_size=4))
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    c = draw(st.integers(1, char - 1) if char else st.integers(-3, 3).filter(bool))
    mi = MonomialIdeal.from_gens(n, gens)
    assume(any(g[0] for g in mi.gens))
    shear = HomPolynomial.linear_form([1, c] + [0] * (n - 2))
    images = []
    for g in mi.gens:
        poly = HomPolynomial.from_monomial((0,) + g[1:])
        for _ in range(g[0]):
            poly = poly.multiply(shear, char)
        images.append(poly)
    return (GradedIdealView.from_monomial_ideal(mi, char),
            GradedIdealView(n, images, char))


@given(sheared_monomial_views())
@settings(max_examples=100, deadline=None)
def test_strand_route_matches_monomial_route_after_coordinate_change(pair):
    # a linear change of coordinates keeps the graded Betti numbers, so the
    # monomial route is an oracle for strands whose multiplication rows
    # carry quotient coordinates other than 1
    # and for the strand engine itself, which the equigenerated J with a
    # certificate no longer reach through `betti_table`
    I, J = pair
    assert not J.is_monomial
    table = betti.betti_table(J)
    expected = betti.betti_table(I, table.cap).entries
    assert table.entries == expected
    fresh = GradedIdealView(J.nvars, J.generators, J.characteristic)
    assert betti._strand_entries(fresh, table.cap) == expected


@st.composite
def small_monomial_ideals(draw):
    """A proper monomial ideal in 1..5 variables, exponents <= 2."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * n).filter(any), min_size=1, max_size=6))
    return MonomialIdeal.from_gens(n, gens)


def _faces_by_variable(a, std_set):
    """Upper Koszul complex of a, faces labelled by variable index."""
    supp = [v for v, e in enumerate(a) if e > 0]
    levels = [[()]]
    while True:
        nxt = []
        for face in levels[-1]:
            start = supp.index(face[-1]) + 1 if face else 0
            for v in supp[start:]:
                red = list(a)
                for w in face + (v,):
                    red[w] -= 1
                if tuple(red) not in std_set:
                    nxt.append(face + (v,))
        if not nxt:
            return levels
        levels.append(nxt)


@given(small_monomial_ideals())
@example(projective_plane_ideal())
@settings(deadline=None)
def test_memoized_entries_match_homology_of_every_candidate(mi):
    # oracle: no memo, faces labelled by variable, one homology per candidate
    cap = betti.taylor_degree_cap(mi)
    lcm = mi.lcm_of_gens()
    std = mi.standard_divisors_of(lcm)
    std_set = set(std)
    for char in (0, 2):
        oracle = {(0, 0): 1}
        for a in betti._monomial_candidates(std, std_set, lcm, mi.nvars, cap):
            levels = _faces_by_variable(a, std_set)
            for c, h in enumerate(betti._homology_of_complex(levels, char)):
                if h:
                    oracle[c + 1, sum(a)] = oracle.get((c + 1, sum(a)), 0) + h
        assert betti._monomial_entries(mi, cap, char) == oracle


@given(small_monomial_ideals())
@settings(deadline=None)
def test_linear_quotients_give_top_degree_regularity(mi):
    # linear quotients make I componentwise linear, so reg(I) is the top
    # generator degree, over any field
    cert = search_order(mi)
    assume(cert is not None)
    for char in (0, 2):
        reg = betti.regularity(GradedIdealView.from_monomial_ideal(mi, char))
        assert reg.value == regularity_from_certificate(cert) == mi.max_gen_degree()


@given(small_monomial_ideals())
@example(projective_plane_ideal())
@settings(deadline=None)
def test_betti_numbers_over_gf_p_dominate_qq(mi):
    # beta_ij over GF(p) >= beta_ij over QQ entrywise (universal
    # coefficients in Hochster's formula); strict for the projective
    # plane at p = 2
    qq = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, 0)).entries
    for p in (2, 3):
        gf = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, p)).entries
        assert all(gf.get(k, 0) >= v for k, v in qq.items()), (p, qq, gf)


# The linear-quotient route, with the monomial (Koszul) route as oracle.

PLANE_TABLES = {  # acceptance criterion 8
    0: {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6},
    2: {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6, (3, 6): 1, (4, 6): 1},
}


def _assert_degree_monotone(cert):
    degs = [degree(u) for u in cert.order]
    assert degs == sorted(degs), degs


@given(small_monomial_ideals(), st.sampled_from([0, 2, 32003]),
       st.integers(0, 10**6))
@example(MonomialIdeal.from_gens(2, [(2, 0), (1, 1), (0, 3)]), 0, 2)
@settings(deadline=None)
def test_quotient_route_matches_koszul_route(mi, char, k):
    # caps from the top generator degree up to the Taylor cap
    top, taylor = mi.max_gen_degree(), betti.taylor_degree_cap(mi)
    cap = top + k % (taylor - top + 1)
    cert = greedy_order(mi)
    if cert is not None:
        _assert_degree_monotone(cert)
    table = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, char), cap)
    assert table.entries == betti._monomial_entries(mi, cap, char)


def test_quotient_route_is_taken_on_a_fair_share_of_random_ideals():
    rng = rng_from_seed(19)
    taken = mixed = 0
    total = 300
    for _ in range(total):
        mi = random_monomial_ideal(rng, nmax=5, degmax=3, max_gens=6)
        cert = greedy_order(mi)
        if cert is not None:
            _assert_degree_monotone(cert)
            taken += 1
            mixed += len({degree(g) for g in mi.gens}) > 1
        cap = betti.taylor_degree_cap(mi)
        for char in (0, 2):
            table = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, char))
            assert table.entries == betti._monomial_entries(mi, cap, char)
    # both routes run, and mixed degrees reach the new one
    assert total // 3 <= taken <= total - total // 10, (taken, total)
    assert mixed >= total // 10, (mixed, total)


def _relabelled(mi, rng):
    perm = list(range(mi.nvars))
    rng.shuffle(perm)
    return MonomialIdeal.from_gens(
        mi.nvars, [tuple(g[perm[j]] for j in range(mi.nvars)) for g in mi.gens])


def _chain_product(n, sizes):
    P = chain_ideal(n, sizes[0])
    for t in sizes[1:]:
        P = P.product(chain_ideal(n, t))
    return P


@pytest.mark.parametrize("n,sizes", [
    (3, (2, 1)), (3, (1, 1, 1)), (4, (2, 2)), (4, (2, 1, 1)), (5, (3, 1)),
    (5, (2, 2, 1)), (5, (1, 1, 1, 1)),
])
def test_quotient_route_matches_koszul_route_on_relabelled_chain_products(n, sizes):
    rng = rng_from_seed(n * 100 + sum(sizes))
    for _ in range(3):
        mi = _relabelled(_chain_product(n, sizes), rng)
        assert greedy_order(mi) is not None
        cap = betti.taylor_degree_cap(mi)
        for char in (0, 2):
            table = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, char))
            assert table.certified
            assert table.entries == betti._monomial_entries(mi, cap, char)


def test_quotient_route_matches_koszul_route_on_polymatroidal_products():
    rng = rng_from_seed(23)
    for _ in range(40):
        I = random_polymatroidal(rng, nmax=4)
        J = random_polymatroidal(rng, nmax=4)
        n = max(I.nvars, J.nvars)
        mi = _relabelled(polymatroidal_product(I.padded(n), J.padded(n)), rng)
        assert greedy_order(mi) is not None
        cap = betti.taylor_degree_cap(mi)
        table = betti.betti_table(GradedIdealView.from_monomial_ideal(mi))
        assert table.entries == betti._monomial_entries(mi, cap, 0)


def _with_certificate(monkeypatch, cert):
    monkeypatch.setattr(betti, "greedy_order", lambda mi: cert)


@pytest.mark.parametrize("n,names", [
    (4, ("a^2*b", "a*b*c", "b*c*d", "c*d^2")),
    (3, ("a^2", "a*b", "b^3")),
    (4, ("a", "b*c", "b^2*d", "c^3*d^2")),
])
def test_euler_check_fires_on_one_wrong_colon_size(monkeypatch, n, names):
    I = view(n, *names)
    cert = greedy_order(I.monomial_ideal())
    assert cert is not None
    for k, vs in enumerate(cert.colon_vars):
        extra = next(v for v in range(1, n + 1) if v not in vs)
        wrong = list(cert.colon_vars)
        wrong[k] = tuple(sorted(vs + (extra,)))
        _with_certificate(monkeypatch,
                          dataclasses.replace(cert, colon_vars=tuple(wrong)))
        with pytest.raises(AssertionError, match="Euler characteristic mismatch"):
            betti.betti_table(I)


def test_degree_non_monotone_order_never_reaches_the_table(monkeypatch):
    # a*b, b^3, a^2 has linear quotients in that order, which check_order
    # certifies, but its degrees go 2, 3, 2
    cert = check_order(2, [(1, 1), (0, 3), (2, 0)])
    assert cert.colon_vars == ((), (1,), (2,))
    I = view(2, "a*b", "b^3", "a^2")
    _assert_degree_monotone(greedy_order(I.monomial_ideal()))
    with pytest.raises(AssertionError, match="not degree-monotone"):
        betti._quotient_entries(cert, 5)
    _with_certificate(monkeypatch, cert)
    with pytest.raises(AssertionError, match="not degree-monotone"):
        betti.betti_table(I)


@pytest.mark.parametrize("char", [0, 2])
def test_greedy_pass_that_gives_up_falls_back_to_the_koszul_route(monkeypatch, char):
    # the projective plane has no linear-quotient order
    mi = projective_plane_ideal()
    assert greedy_order(mi) is None
    I = GradedIdealView.from_monomial_ideal(mi, char)
    assert betti.betti_table(I).entries == PLANE_TABLES[char]
    # a chain product whose greedy pass is made to give up: same table
    P = GradedIdealView.from_monomial_ideal(_chain_product(4, (2, 1)), char)
    quotient_table = betti.betti_table(P)
    _with_certificate(monkeypatch, None)
    assert betti.betti_table(P) == quotient_table


def test_field_independence_generic_position():
    # a squarefree ideal whose resolution is characteristic-free
    I0 = view(3, "a*b", "b*c")
    for p in (0, 32003, 65537):
        t = betti.betti_table(view(3, "a*b", "b*c", char=p))
        assert t.entries == betti.betti_table(I0).entries


def test_projective_plane_characteristic_dependence():
    mi = projective_plane_ideal()
    assert len(mi.gens) == 10
    char0 = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, 0))
    char2 = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, 2))
    assert char0.entries == PLANE_TABLES[0]
    assert char2.entries == PLANE_TABLES[2]
    r0 = betti.regularity(GradedIdealView.from_monomial_ideal(mi, 0))
    r2 = betti.regularity(GradedIdealView.from_monomial_ideal(mi, 2))
    assert r0.value == 3 < r2.value == 4
    assert r0.certified and r2.certified


def test_cap_below_generators_rejected():
    I = view(2, "a^3")
    with pytest.raises(ValueError):
        betti.betti_table(I, cap=2)


def test_unit_ideal_rejected():
    I = view(2, "1")
    with pytest.raises(ValueError):
        betti.betti_table(I)


def test_veronese_linear_resolution():
    # m^d has a linear resolution: reg = d
    for n, d in ((2, 3), (3, 2), (4, 2)):
        I = GradedIdealView.from_monomial_ideal(
            MonomialIdeal.from_gens(n, monomial_basis(n, d))
        )
        r = betti.regularity(I)
        assert r.value == d and r.certified


# The d∘d = 0 assertions must be able to fire: flip one sign and expect them to.


def _flip_one_sign(rows):
    row = next(r for r in rows if r)
    k = min(row)
    row[k] = -row[k]


def _flip_boundaries_at(monkeypatch, level):
    """Flip one sign in every boundary matrix out of faces of size `level`."""
    boundary_rows = betti._boundary_rows

    def flipped(domain, codomain_index, p):
        rows = boundary_rows(domain, codomain_index, p)
        if len(domain[0]) == level:
            _flip_one_sign(rows)
        return rows

    monkeypatch.setattr(betti, "_boundary_rows", flipped)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_koszul_sign_check_fires_on_flipped_boundary(monkeypatch, level):
    simplex = [list(combinations(range(3), c)) for c in range(4)]
    assert betti._homology_of_complex(simplex, 0) == [0, 0, 0, 0]
    _flip_boundaries_at(monkeypatch, level)
    with pytest.raises(AssertionError, match="koszul sign error"):
        betti._homology_of_complex(simplex, 0)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("level", [1, 2])
def test_koszul_sign_check_fires_through_the_homology_memo(monkeypatch, level, char):
    # the table takes homology once per distinct complex; the check must
    # still run on each.  (a*b, c*d) has no linear-quotient order, so its
    # table takes the monomial route, and only the complex of a*b*c*d has
    # faces of size 2.  The unflipped table comes first, so a memo kept
    # across tables would answer the flipped one unchecked.
    I = view(4, "a*b", "c*d", char=char)
    assert greedy_order(I.monomial_ideal()) is None
    assert betti.betti_table(I).entries[2, 4] == 1
    _flip_boundaries_at(monkeypatch, level)
    with pytest.raises(AssertionError, match="koszul sign error"):
        betti.betti_table(I)


@pytest.mark.parametrize("i", [1, 2])
def test_strand_composite_check_fires_on_flipped_differential(i):
    # R/(a^4) agrees with R below degree 4, so no flipped sign can cancel
    engine = betti.StrandEngine(view(3, "a^4"))
    assert engine.betti(i, 3) == 0
    _flip_one_sign(engine.differential_rows(i + 1, 3))
    with pytest.raises(AssertionError, match="koszul composite not zero"):
        engine.betti(i, 3)


def _linear_form_engine():
    """Strands of R/(2a + 3b): the common lead D of I_2 is 4, so the
    multiplication rows out of (R/I)_1 carry a scale other than 1."""
    I = GradedIdealView(3, [HomPolynomial.linear_form([2, 3, 0])])
    assert quotient_basis(I, 2).lead == 4
    return betti.StrandEngine(I)


@pytest.mark.parametrize("i", [1, 2])
def test_strand_composite_check_fires_on_a_scaled_piece(i):
    # R/(2a + 3b) is a polynomial ring, so multiplication is injective and
    # no flipped sign can cancel
    assert _linear_form_engine().betti(i, 3) == 0
    engine = _linear_form_engine()
    _flip_one_sign(engine.differential_rows(i + 1, 3))
    with pytest.raises(AssertionError, match="koszul composite not zero"):
        engine.betti(i, 3)


@pytest.mark.parametrize("i", [1, 2])
def test_strand_composite_check_fires_on_one_rescaled_multiplication_row(i):
    # every row of a degree carries the same scale D; one row at 2 D breaks
    # x_u x_v = x_v x_u, and the composite check must see it
    engine = _linear_form_engine()
    row = next(r for rows in engine._mult_rows(1) for r in rows if r)
    for k in row:
        row[k] *= 2
    with pytest.raises(AssertionError, match="koszul composite not zero"):
        engine.betti(i, 3)


# The Euler check must be able to fire on either route to the Hilbert values.


def _euler_mutation_fires(I):
    table = betti.betti_table(I)
    betti._euler_check(I, table.entries, table.cap)
    entries = dict(table.entries)
    key = max(entries)
    entries[key] += 1
    with pytest.raises(AssertionError, match="Euler characteristic mismatch"):
        betti._euler_check(I, entries, table.cap)


def test_euler_check_fires_on_monomial_route():
    I = view(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2")
    assert I.is_monomial
    _euler_mutation_fires(I)


def test_euler_check_fires_on_degree_piece_route():
    a_plus_b = HomPolynomial.linear_form([1, 1, 0])
    c = HomPolynomial.linear_form([0, 0, 1])
    I = GradedIdealView(3, [a_plus_b.multiply(a_plus_b, 0),
                            a_plus_b.multiply(c, 0)])
    assert not I.is_monomial
    _euler_mutation_fires(I)


# The certificate route: Bayer-Stillman certificates, checked against the
# strand route as oracle.

LINFORMS_POOL = Path(__file__).resolve().parent.parent / "bench" / "linforms_pool.json"


@st.composite
def equigenerated_ideals(draw):
    """1..4 generators of one degree 1..3 in 1..3 variables, with 1..4
    terms each, over QQ or GF(p)."""
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    coeffs = st.integers(1, char - 1) if char else st.integers(-9, 9).filter(bool)
    n = draw(st.integers(1, 3))
    basis = monomial_basis(n, draw(st.integers(1, 3)))
    gens = [
        HomPolynomial.make(draw(st.dictionaries(
            st.sampled_from(basis), coeffs, min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return GradedIdealView(n, gens, char)


@given(equigenerated_ideals())
@example(GradedIdealView(2, [HomPolynomial.make({(2, 1): 1, (1, 2): 1})], 2))
@settings(max_examples=150, deadline=None)
def test_certificate_table_matches_strand_table(I):
    # every entry up to m + n, zeros included; a certificate at m bounds
    # the strand regularity by m, and without one the table is the strands'.
    # The example ab(a + b) over GF(2) is 3-regular, but every linear form
    # over GF(2) divides it, so no certificate exists there.
    m, n = I.max_gen_degree(), I.nvars
    cap = m + n
    strands = betti._strand_entries(
        GradedIdealView(n, I.generators, I.characteristic), cap)
    cert = regularity_certificate(I, m)
    if cert is None:
        if not I.is_monomial:
            assert betti.betti_table(I, cap).entries == strands
        return
    assert cert.m == m and cert.verify(I)
    assert all(j - i <= m - 1 for i, j in strands)
    assert betti._certificate_entries(I, cert, cap) == strands
    if not I.is_monomial:
        assert betti.betti_table(I, cap).entries == strands


def _pool_products():
    with open(LINFORMS_POOL) as fh:
        pool = json.load(fh)
    for rec in pool["families"]:
        n = rec["nvars"]
        fam = [LinearIdeal.from_rows(n, V, pool["characteristic"])
               for V in rec["factors"]]
        yield len(fam), product_generators(fam)


def test_certificate_tables_of_the_linforms_pool_match_the_strands():
    # all recorded criterion-3 families over QQ: each product of d ideals
    # of linear forms is certified at m = d, with the strand table
    count = 0
    for d, prod in _pool_products():
        cert = regularity_certificate(prod, d)
        assert cert is not None and cert.m == d
        cap = d + prod.nvars
        fresh = GradedIdealView(prod.nvars, prod.generators, 0)
        assert betti._certificate_entries(prod, cert, cap) == betti._strand_entries(
            fresh, cap)
        count += 1
    assert count == 302


@pytest.mark.parametrize("rows", [
    ([[1, 0, 1, 0], [0, 1, 1, 1]], [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]], [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ([[1, 1, 0, 0]], [[1, 1, 1, 1]]),
])
def test_gf2_pool_products_are_certified_by_distinct_nonzero_forms(rows):
    # pool families 148, 277 and 279 reduced mod 2: eight draws that could
    # be zero or repeat found no certificate; eight distinct nonzero do
    prod = product_generators([LinearIdeal.from_rows(4, V, 2) for V in rows])
    d = len(rows)
    cert = regularity_certificate(prod, d)
    assert cert is not None and cert.verify(prod)
    fresh = GradedIdealView(4, prod.generators, 2)
    assert betti.betti_table(prod, d + 4).entries == betti._strand_entries(fresh, d + 4)


def test_certificate_draws_end_on_a_field_with_few_forms():
    # GF(2) in two variables has three nonzero forms, fewer than
    # CERTIFICATE_TRIES, and each divides ab(a + b): the search tries all
    # three and gives up
    I = GradedIdealView(2, [HomPolynomial.make({(2, 1): 1, (1, 2): 1})], 2)
    assert regularity_certificate(I, 5) is None


# Saturation is exact: checked against the combinatorial saturation of a
# monomial ideal and against the colons (I : m^t)_e.


def _colon_power_dim(I, e, t):
    """dim { f in R_e : f * m^t is contained in I }."""
    p = I.characteristic
    n = I.nvars
    target = quotient_basis(I, e + t)
    index = basis_index(n, e + t)
    cols = monomial_basis(n, e)
    sys_rows = {}
    for row_base, u in enumerate(monomial_basis(n, t)):
        for j, m in enumerate(cols):
            img = target.reduce({index[mono_mul(m, u)]: 1}, p)
            for q, c in img.items():
                sys_rows.setdefault((row_base, q), {})[j] = c
    return len(cols) - linalg.rank(list(sys_rows.values()), p)


@given(sheared_monomial_views())
@settings(max_examples=100, deadline=None)
def test_saturation_profile_survives_a_coordinate_change(pair):
    # the sheared J must have the saturation profile of the monomial I;
    # with no certificate up to the cap it gives no number at all
    I, J = pair
    mi = I.monomial_ideal()
    S = saturation(mi)
    cap = mi.max_gen_degree() + 3
    expected = {e: mi.hilbert_function(e) - S.hilbert_function(e)
                for e in range(cap + 1)}
    sp = saturation_degree(J, cap)
    if sp.sat_degree is None:
        assert sp.profile == {}
        return
    assert sp.profile == expected
    assert saturation_degree(I, cap).profile == expected


def test_saturation_profiles_of_the_linforms_pool_match_the_colons():
    # reg = d for these products, so (I^sat)_e = (I : m^(d - e))_e
    count = 0
    for d, prod in _pool_products():
        sp = saturation_degree(prod, d)
        assert sp.profile == {
            e: _colon_power_dim(prod, e, d - e) - degree_piece(prod, e).dim
            for e in range(d + 1)
        }
        count += 1
    assert count == 302


def _criterion_3_product(seed):
    fam = random_linear_family(rng_from_seed(seed), nmax=5, dmax=4)
    return len(fam), product_generators(fam)


def test_certificate_route_reads_no_piece_above_m_plus_1(monkeypatch):
    def no_strands(*args):
        raise AssertionError("strand engine reached")

    monkeypatch.setattr(betti.StrandEngine, "__init__", no_strands)
    for seed in (0, 3, 9):
        d, prod = _criterion_3_product(seed)
        assert not prod.is_monomial
        reg = betti.regularity(prod, cap=d + prod.nvars)
        assert reg.value == d and not reg.certified
        assert max(prod._pieces) <= d + 1


def test_saturation_reads_no_piece_above_m_plus_1():
    # the first m with a certificate is d; the walk goes down from there
    for seed in (0, 3, 9):
        d, prod = _criterion_3_product(seed)
        assert not prod.is_monomial
        sp = saturation_degree(prod, d + prod.nvars)
        assert sp.sat_degree is not None and sp.sat_degree <= d
        assert max(prod._pieces) <= d + 1


def _count_searches(monkeypatch):
    """The (view, m) of every `graded._bayer_stillman` run from now on."""
    calls = []
    real = graded._bayer_stillman

    def counting(I, m, candidates):
        calls.append((I, m))
        return real(I, m, candidates)

    monkeypatch.setattr(graded, "_bayer_stillman", counting)
    return calls


def test_certificate_is_searched_once_per_view_and_degree(monkeypatch):
    # the degree-m piece holds the search's result, so `betti_table`
    # reuses the one `saturation_degree` made on the same view
    calls = _count_searches(monkeypatch)
    d, prod = _criterion_3_product(9)
    assert saturation_degree(prod, d).sat_degree is not None
    assert betti.regularity(prod, cap=d + prod.nvars).value == d
    assert calls == [(prod, d)]
    assert degree_piece(prod, d).certificate == regularity_certificate(prod, d)
    assert len(calls) == 1
    # a fresh view of the same ideal has pieces of its own, and searches again
    fresh = GradedIdealView(prod.nvars, prod.generators, 0)
    assert regularity_certificate(fresh, d) == regularity_certificate(prod, d)
    assert calls == [(prod, d), (fresh, d)]


def test_no_certificate_is_held_too(monkeypatch):
    # ab(a + b) over GF(2): no certificate at m = 3, and the None found by
    # `saturation_degree` sends `betti_table` to the strands with no search
    calls = _count_searches(monkeypatch)
    I = GradedIdealView(2, [HomPolynomial.make({(2, 1): 1, (1, 2): 1})], 2)
    assert saturation_degree(I, 3).sat_degree is None
    assert betti.betti_table(I, 5).entries == {(0, 0): 1, (1, 3): 1}
    assert regularity_certificate(I, 3) is None
    assert calls == [(I, 3)]


# `verify` must reject a certificate that is wrong in any of its parts.


def test_verify_rejects_a_form_that_is_not_injective():
    # R/(a^2) in degree 2 is spanned by ab and b^2, and a * ab lies in (a^2)
    I = view(2, "a^2")
    assert RegularityCertificate(2, ((0, 1),), (2,)).verify(I)
    assert not RegularityCertificate(2, ((1, 0),), (2,)).verify(I)


def test_verify_rejects_a_truncated_form_list_and_a_wrong_dim():
    d, prod = _criterion_3_product(9)
    cert = regularity_certificate(prod, d)
    assert cert.verify(prod) and len(cert.forms) >= 2
    truncated = RegularityCertificate(d, cert.forms[:-1], cert.dims[:-1])
    assert not truncated.verify(prod)
    for k in range(len(cert.dims)):
        dims = list(cert.dims)
        dims[k] += 1
        assert not RegularityCertificate(d, cert.forms, tuple(dims)).verify(prod)


def test_verify_rejects_forms_of_the_wrong_length_and_m_below_the_generators():
    d, prod = _criterion_3_product(9)
    cert = regularity_certificate(prod, d)
    short = tuple(h[:-1] for h in cert.forms)
    assert not RegularityCertificate(d, short, cert.dims).verify(prod)
    assert not RegularityCertificate(d - 1, cert.forms, cert.dims).verify(prod)


# The checks that replace the Euler check on the certificate route must fire.


def test_certificate_table_check_fires_on_a_wrong_dim():
    # the derived Hilbert value in degree m + 1 is the sum of the dims
    d, prod = _criterion_3_product(9)
    cert = regularity_certificate(prod, d)
    wrong = RegularityCertificate(d, cert.forms, (cert.dims[0] + 1,) + cert.dims[1:])
    with pytest.raises(AssertionError, match="certificate Hilbert value"):
        betti._certificate_entries(prod, wrong, d + prod.nvars)


def test_certificate_table_check_fires_on_a_certificate_above_the_generators():
    # (a^2, ab, ab + b^2) = (a, b)^2 fills R_2, so it is 3-regular as well,
    # but its resolution is not linear from degree 3: c_2 = -3 must be caught
    I = GradedIdealView(2, [HomPolynomial.make(t) for t in (
        {(2, 0): 1}, {(1, 1): 1}, {(1, 1): 1, (0, 2): 1})])
    assert regularity_certificate(I, 2) == RegularityCertificate(2, (), ())
    at_3 = RegularityCertificate(3, (), ())
    assert at_3.verify(I)
    with pytest.raises(AssertionError, match="not linear"):
        betti._certificate_entries(I, at_3, 5)
