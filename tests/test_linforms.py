from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealreg import betti, graded, linalg, linforms
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    RegularityCertificate,
    degree_piece,
    ideal_product,
    least_certificate,
    ring_dim,
    saturation_degree,
)
from idealreg.ideals import MonomialIdeal
from idealreg.linforms import (
    LinearIdeal,
    PrimaryComponent,
    associated_prime_check,
    is_linearly_general,
    nonmaximal_components,
    pinched_family,
    power_annihilator,
    power_piece,
    primary_components,
    product_generators,
    sum_ideal,
    verify_decomposition,
)
from idealreg.samplers import random_linear_family, rng_from_seed

from oracles import verify_decomposition_all_components


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
    (p,) = power_piece(V, 2, [2])
    assert p.dim == 1
    full = LinearIdeal.from_rows(2, [[1, 0], [0, 1]])
    assert power_piece(full, 3, [3])[0].dim == 4  # all of R_3 in 2 vars
    W = LinearIdeal.from_rows(3, [[1, 0, 0], [0, 1, -1]])
    assert [cp.dim for cp in power_piece(W, 2, [2, 1])] == [3, 0]


def test_power_piece_matches_spanning_route():
    # independent cross-check: V^k degree piece via the generator route
    rng = rng_from_seed(4)
    for _ in range(10):
        fam = random_linear_family(rng, nmax=4, dmax=1)
        V = fam[0]
        k = rng.randint(1, 3)
        gens = [HomPolynomial.linear_form(r) for r in V.rows]
        view = GradedIdealView(V.nvars, gens)
        prod = view
        for _ in range(k - 1):
            prod = ideal_product(prod, view)
        degrees = range(k, k + 3)
        for e, cp in zip(degrees, power_piece(V, k, degrees), strict=True):
            assert cp.dim == degree_piece(prod, e).dim


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
    degrees = range(k + 3)
    for e, ours in zip(degrees, power_piece(V, k, degrees), strict=True):
        theirs = degree_piece(prod, e)
        assert ours.pivots == theirs.pivots
        assert ours.rows == theirs.rows


@given(linear_subspaces(), st.integers(1, 3))
@example(LinearIdeal.from_rows(2, [[1, 1]], 2), 2)  # W = span(x + y), e >= 2
@example(LinearIdeal.from_rows(3, [[1, 1, 0], [0, 0, 1]], 3), 3)
@example(LinearIdeal.from_rows(3, [[2, 3, 5]]), 2)
@settings(deadline=None)
def test_power_annihilator_is_the_kernel_of_the_power_piece(V, k):
    # the divided-power rows against the old route: the kernel of the
    # row-reduced power piece, in every degree 0..k+4
    p = V.characteristic
    degrees = range(k + 5)
    ours = power_annihilator(V, k, degrees)
    pieces = power_piece(V, k, degrees)
    for e, rows, cp in zip(degrees, ours, pieces, strict=True):
        assert len(rows) == ring_dim(V.nvars, e) - cp.dim
        theirs = linalg.kernel_basis(cp.rows, cp.pivots, cp.ncols, p)
        assert linalg.row_reduce(rows, p) == linalg.row_reduce(theirs, p)


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


def test_verify_decomposition_refuses_a_sweep_past_the_guard():
    # (x1), ..., (x5) in 5 variables: 495 columns at cap 8 times the 30
    # non-maximal component ideals (every I_A but A = {1..5})
    lines = [LinearIdeal.from_rows(5, [[int(j == i) for j in range(5)]])
             for i in range(5)]
    with pytest.raises(ValueError, match="is 14850, above SWEEP_GUARD = 10000"):
        verify_decomposition(lines, 8)


LIBRARY_SWEEPS = {
    "verify_decomposition": verify_decomposition,
    "saturation_degree":
        lambda fam, cap: saturation_degree(product_generators(fam), cap),
    "least_certificate":
        lambda fam, cap: least_certificate(product_generators(fam), cap),
}


@pytest.mark.parametrize("sweep", LIBRARY_SWEEPS.values(), ids=list(LIBRARY_SWEEPS))
@pytest.mark.parametrize("rows, cap, message", [
    # the cases of the CLI's guard tests, met by library callers too
    ([[[1, 0]]], 33, "cap 33 exceeds CAP_GUARD = 32"),
    ([[[1, 0, 0, 0, 0]], [[0, 1, 0, 0, 0]]], 32,
     "degree-32 piece in 5 variables has 58905 columns, above PIECE_GUARD = 5000"),
], ids=["CAP_GUARD", "PIECE_GUARD"])
def test_library_sweeps_refuse_a_cap_past_the_guards(sweep, rows, cap, message):
    family = [LinearIdeal.from_rows(len(V[0]), V) for V in rows]
    with pytest.raises(ValueError, match=message):
        sweep(family, cap)


@pytest.mark.parametrize("cap", [4, 12])
def test_verify_decomposition_counts_a_monomial_product_in_one_numerator(monkeypatch, cap):
    # (x1)(x2)(x3) in 4 variables: the product view is monomial, so its
    # Hilbert values up to the cap (cap 4, no certificate) or up to d + 1
    # (cap 12, certificate at m = 3) come from one numerator, not one per
    # degree
    family = [LinearIdeal.from_rows(4, [[int(i == j) for j in range(4)]])
              for i in range(3)]
    builds = []
    numerator = MonomialIdeal.hilbert_numerator

    def counted(self, top):
        builds.append(top)
        return numerator(self, top)

    monkeypatch.setattr(MonomialIdeal, "hilbert_numerator", counted)
    assert verify_decomposition(family, cap).equal
    assert len(builds) == 1


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


@st.composite
def linear_families(draw):
    """A random family of 1..3 linear ideals in 2..4 variables over QQ or GF(p)."""
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    return random_linear_family(rng, nmax=4, dmax=3, characteristic=char)


@given(linear_families())
@example(pinched_family(2))
@example(pinched_family(3))
@example(pinched_family(3, 2))
@example(pinched_family(2, 3))
@settings(deadline=None)
def test_verify_decomposition_matches_all_components_oracle(family):
    # the deduplicated, degree-d-onward intersection against every
    # component's power piece in every degree, each built alone
    cap = len(family) + 3
    ours = verify_decomposition(family, cap)
    theirs = verify_decomposition_all_components(family, cap)
    assert ours.dims == theirs.dims
    assert ours.containment_ok == theirs.containment_ok
    assert ours.equal == theirs.equal


# mutations of the intersection side that `verify_decomposition` must
# notice; in REPEATED the ideal (x, z) is the component of {1}, {2} and
# {1, 2}, and only its largest exponent 2 is kept.  SKEWED_MOD_3 is
# REPEATED with x + y for x, over GF(3): its annihilator rows are not
# monomials, so their a!/b! weights matter, and its degrees 3..6 pass p.
REPEATED = [
    LinearIdeal.from_rows(3, [[1, 0, 0], [0, 0, 1]]),
    LinearIdeal.from_rows(3, [[1, 0, 0], [0, 0, 1]]),
    LinearIdeal.from_rows(3, [[0, 1, 0], [0, 0, 1]]),
]
SKEWED_MOD_3 = [
    LinearIdeal.from_rows(3, [[1, 1, 0], [0, 0, 1]], 3),
    LinearIdeal.from_rows(3, [[1, 1, 0], [0, 0, 1]], 3),
    LinearIdeal.from_rows(3, [[0, 1, 0], [0, 0, 1]], 3),
]
MUTATED_FAMILIES = [REPEATED, pinched_family(3), SKEWED_MOD_3]


def test_nonmaximal_components_keep_the_largest_exponent():
    # {1, 3}, {2, 3} and {1, 2, 3} sum to the maximal ideal
    xz, yz = REPEATED[0], REPEATED[2]
    assert nonmaximal_components(REPEATED) == {xz: 2, yz: 1}


def check_under(monkeypatch, family, owner, name, mutant):
    """The report on `family` with `owner.name` replaced by `mutant`."""
    monkeypatch.setattr(owner, name, mutant)
    rep = verify_decomposition(family, len(family) + 3)
    monkeypatch.undo()
    return rep


def essential_row(family, target):
    """(degree, index) of a row of `target`'s annihilator that is outside
    the span of every other annihilator row of its degree, or None.

    Components share annihilator rows (in the pinched family each row of
    (x1, x2, y)^2 but one lies in the annihilators of (x1, y) and
    (x2, y)), so dropping a shared row changes no dimension."""
    d = len(family)
    p = family[0].characteristic
    degrees = range(d, d + 4)
    rows = {V: power_annihilator(V, k, degrees)
            for V, k in nonmaximal_components(family).items()}
    for i, e in enumerate(degrees):
        others = [row for V in rows if V != target for row in rows[V][i]]
        own = rows[target][i]
        full = linalg.rank([dict(r) for r in others + own], p)
        for j in range(len(own)):
            rest = others + own[:j] + own[j + 1:]
            if linalg.rank([dict(r) for r in rest], p) < full:
                return e, j
    return None


@pytest.mark.parametrize("family", MUTATED_FAMILIES)
def test_verify_decomposition_fails_when_an_annihilator_loses_a_row(
    monkeypatch, family
):
    # a dropped row only enlarges the intersection, so the degree-d
    # containment check can still hold; the dimensions must differ
    real = linforms.power_annihilator
    d = len(family)
    for target in nonmaximal_components(family):
        found = essential_row(family, target)
        assert found is not None, target
        e, j = found

        def dropping(V, k, degrees):
            out = real(V, k, degrees)
            if V == target:
                rows = out[e - d]
                out[e - d] = rows[:j] + rows[j + 1:]
            return out

        rep = check_under(
            monkeypatch, family, linforms, "power_annihilator", dropping
        )
        assert not rep.equal, target


@pytest.mark.parametrize("family", MUTATED_FAMILIES)
def test_verify_decomposition_fails_with_an_exponent_one_too_small(
    monkeypatch, family
):
    real = linforms.power_annihilator
    targets = [V for V, k in nonmaximal_components(family).items() if k > 1]
    assert targets
    for target in targets:
        def lowered(V, k, degrees):
            return real(V, k - 1 if V == target else k, degrees)

        rep = check_under(
            monkeypatch, family, linforms, "power_annihilator", lowered
        )
        assert not rep.equal, target


@pytest.mark.parametrize("family", [
    SKEWED_MOD_3,
    [LinearIdeal.from_rows(3, [[1, 1, 1]], 2)] * 3,
    [LinearIdeal.from_rows(3, [[1, 1, 1]])] * 3,
])
def test_verify_decomposition_fails_on_plain_products(monkeypatch, family):
    # with every factorial 1 the rows are the ordinary products l^b, not
    # the divided powers l^[b] = a! * l^b / b! that pair with R_e
    rep = check_under(
        monkeypatch, family, linforms, "factorial", lambda m: 1
    )
    assert not rep.equal


@pytest.mark.parametrize("family", MUTATED_FAMILIES)
def test_verify_decomposition_fails_when_a_component_counts_as_maximal(
    monkeypatch, family
):
    for target in nonmaximal_components(family):
        maximal = property(
            lambda c, t=target: c.ideal == t or c.ideal.dim == c.ideal.nvars
        )
        rep = check_under(
            monkeypatch, family, PrimaryComponent, "is_maximal", maximal
        )
        assert not rep.equal, target


# The product side above degree d + 1 comes from a certificate at m = d.


def spy_pieces(monkeypatch):
    """The (view, degree) of every `degree_piece` call from now on."""
    calls = []
    real = graded.degree_piece

    def spying(I, e):
        calls.append((I, e))
        return real(I, e)

    monkeypatch.setattr(graded, "degree_piece", spying)
    monkeypatch.setattr(linforms, "degree_piece", spying)
    return calls


@pytest.mark.parametrize("family", [
    pinched_family(3),
    REPEATED,
    *(random_linear_family(rng_from_seed(seed), nmax=5, dmax=4)
      for seed in (0, 3, 9)),
])
def test_certified_verify_builds_no_product_piece_above_d_plus_1(
    monkeypatch, family
):
    d = len(family)
    calls = spy_pieces(monkeypatch)
    ours = verify_decomposition(family, d + 3)
    monkeypatch.undo()
    assert calls and max(e for _, e in calls) == d + 1
    (product,) = {I for I, _ in calls}
    assert degree_piece(product, d).certificate is not None
    theirs = verify_decomposition_all_components(family, d + 3)
    assert ours.dims == theirs.dims and ours.equal


@pytest.mark.parametrize("family", [pinched_family(3), REPEATED])
def test_verify_decomposition_fails_on_a_certificate_with_a_wrong_dim(
    monkeypatch, family
):
    # the derived dim (R/I)_{d+1} is the sum of the a_i, so one wrong a_i
    # differs from the built piece in degree d + 1
    real = linforms.regularity_certificate
    d = len(family)
    cert = real(product_generators(family), d)
    for i in range(len(cert.dims)):
        dims = list(cert.dims)
        dims[i] -= 1

        def wrong(I, m, dims=tuple(dims)):
            return RegularityCertificate(m, real(I, m).forms, dims)

        monkeypatch.setattr(linforms, "regularity_certificate", wrong)
        with pytest.raises(AssertionError, match="certificate Hilbert value"):
            verify_decomposition(family, d + 3)
        monkeypatch.undo()


def test_uncertified_verify_builds_every_product_piece(monkeypatch):
    # (x1), (x2), (x1 + x2) over GF(2): every linear form over GF(2)
    # divides the product, so no certificate exists at m = 3 and the
    # product's pieces are built up to the cap
    family = [LinearIdeal.from_rows(2, [r], 2) for r in ([1, 0], [0, 1], [1, 1])]
    calls = spy_pieces(monkeypatch)
    ours = verify_decomposition(family, 6)
    monkeypatch.undo()
    (product,) = {I for I, _ in calls}
    assert degree_piece(product, 3).certificate is None
    assert max(e for _, e in calls) == 6
    theirs = verify_decomposition_all_components(family, 6)
    assert ours.dims == theirs.dims
    assert ours.containment_ok == theirs.containment_ok and ours.equal
