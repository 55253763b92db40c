"""End-to-end acceptance checklist.

Each test covers one release criterion and prints a single summary line, so
`pytest -s tests/test_acceptance.py` reads as a checklist.  Golden values
are frozen; the property suites log their seeds so any failure is
reproducible.
"""

import time
from itertools import combinations

import pytest

from idealreg import betti
from idealreg.chains import (
    ChainProductSpec,
    canonical_decomposition,
    certify_product,
    gamma,
    omega,
)
from idealreg.fixtures import projective_plane_ideal
from idealreg.graded import (
    GradedIdealView,
    HomPolynomial,
    colon_piece,
    hilbert_value,
    ideal_product,
    saturation_degree,
)
from idealreg.ideals import MonomialIdeal, dimension_monomial
from idealreg.linforms import (
    associated_prime_check,
    pinched_family,
    product_generators,
    verify_decomposition,
)
from idealreg.monomials import (
    mono_mul,
    monomial_basis,
    parse_monomial,
)
from idealreg.polymatroid import (
    is_matroidal,
    is_polymatroidal,
    polymatroidal_product,
    revlex_certificate,
    squarefree_product,
)
from idealreg.quotients import (
    check_order,
    regularity_from_certificate,
    search_order,
    verify_certificate,
)
from idealreg.samplers import (
    random_linear_family,
    random_low_dimension_ideal,
    random_monomial_ideal,
    random_polymatroidal,
    rng_from_seed,
)
from oracles import contains_monomial, random_matroidal, saturation


def report(number, label):
    """Print the per-criterion verdict line even when the test fails."""

    def deco(fn):
        def wrapper():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number}] {label}: FAIL")
                raise
            dt = time.perf_counter() - t0
            print(f"[criterion {number}] {label}: PASS ({dt:.1f}s)")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def gens(n, *names):
    return [parse_monomial(s, n)[0] for s in names]


def view(n, *names, char=0):
    return GradedIdealView.from_monomial_ideal(
        MonomialIdeal.from_gens(n, gens(n, *names)), char
    )


@report(1, "hook ideal and its product with (b,c): golden Betti tables")
def test_criterion_1():
    t0 = time.perf_counter()
    J = view(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2")
    tJ = betti.betti_table(J)
    assert tJ.ideal_entries() == {(0, 3): 4, (1, 4): 3} and tJ.certified
    assert betti.regularity(J).value == 3
    I = view(4, "b", "c")
    tP = betti.betti_table(ideal_product(I, J))
    assert tP.ideal_entries() == {
        (0, 4): 8, (1, 5): 10, (1, 6): 1, (2, 6): 3, (2, 7): 2, (3, 8): 1,
    }
    assert tP.certified
    assert betti.regularity(ideal_product(I, J)).value == 5
    assert time.perf_counter() - t0 < 10.0


@report(2, "linear-quotient golden colons, and the square with no order")
def test_criterion_2():
    c1 = check_order(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    assert c1.colon_vars == ((), (1,), (1,), (2,))
    c2 = check_order(4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d"))
    assert c2.colon_vars == ((), (2,), (1,), (1,), (1, 3))
    I = MonomialIdeal.from_gens(
        4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )
    sq = I.product(I)
    assert search_order(sq) is None
    t = betti.betti_table(GradedIdealView.from_monomial_ideal(sq))
    assert t.ideal_entries()[(0, 6)] == 15
    assert t.ideal_entries()[(1, 7)] == 24
    assert t.ideal_entries()[(1, 8)] == 1


@report(3, "100 random linear-form families: decomposition, sat, regularity")
def test_criterion_3():
    t0 = time.perf_counter()
    seeds = list(range(100))
    print(f"\n  seeds: {seeds[0]}..{seeds[-1]} via rng_from_seed")
    for seed in seeds:
        rng = rng_from_seed(seed)
        fam = random_linear_family(rng, nmax=5, dmax=4)
        d, n = len(fam), fam[0].nvars
        assert verify_decomposition(fam, d + 3).equal, seed
        prod = product_generators(fam)
        sp = saturation_degree(prod, d)
        assert not sp.exceeds_cap and sp.sat_degree <= d, seed
        assert betti.regularity(prod, cap=d + n).value == d, seed
    assert time.perf_counter() - t0 < 300.0


@report(4, "pinched families d=2,3,4: every subset is an associated prime")
def test_criterion_4():
    for d in (2, 3, 4):
        fam = pinched_family(d)
        subsets = [
            A
            for size in range(1, d + 1)
            for A in combinations(range(1, d + 1), size)
        ]
        assert len(subsets) == 2**d - 1
        for A in subsets:
            assert associated_prime_check(fam, A, d + 2), (d, A)


@report(5, "worked chain decomposition: factors, shape, gamma values")
def test_criterion_5():
    m = parse_monomial("x1^2*x2^3*x3^2*x5^3*x6*x7*x8^3", 8)[0]
    dec = canonical_decomposition(m)
    assert dec.factors == tuple(
        parse_monomial(s, 8)[0]
        for s in ("x1*x3*x5*x7", "x1*x3*x5*x8", "x2*x5*x8", "x2*x6*x8", "x2")
    )
    assert dec.shape == (4, 4, 3, 3, 1)
    assert [gamma(t, dec.shape) for t in (1, 2, 3, 4, 5)] == [15, 10, 6, 2, 0]


@report(6, "200 random polymatroidal products: closure and revlex quotients")
def test_criterion_6():
    rng = rng_from_seed(2026)
    done = 0
    while done < 200:
        I = random_polymatroidal(rng, nmax=6)
        J = random_polymatroidal(rng, nmax=6)
        n = max(I.nvars, J.nvars)
        P = polymatroidal_product(I.padded(n), J.padded(n))
        assert is_polymatroidal(P) is True
        assert verify_certificate(revlex_certificate(P))
        done += 1
    done = 0
    while done < 50:
        I = random_matroidal(rng, nmax=6)
        J = random_matroidal(rng, nmax=6)
        n = max(I.nvars, J.nvars)
        try:
            P = squarefree_product(I.padded(n), J.padded(n))
        except ValueError:
            continue  # no squarefree product for this pair
        assert is_matroidal(P) is True
        assert verify_certificate(revlex_certificate(P))
        done += 1


def _chain_specs(nmax, degree_budget):
    out = []
    for n in range(2, nmax + 1):
        tmax = (n + 1) // 2

        def rec(prefix, total):
            if prefix:
                out.append((n, tuple(prefix)))
            start = prefix[-1] if prefix else tmax
            for t in range(min(start, degree_budget - total), 0, -1):
                rec(prefix + [t], total + t)

        rec([], 0)
    return out


@report(7, "chain products: omega sweep and certified regularity sweep")
def test_criterion_7():
    for n, sizes in _chain_specs(8, 6):
        omega(ChainProductSpec(n, sizes))  # product cross-check runs inside
    for n, sizes in _chain_specs(7, 5):
        spec = ChainProductSpec(n, sizes)
        cert = certify_product(spec, validate_pairs=False)
        assert regularity_from_certificate(cert) == sum(sizes)
        I = GradedIdealView.from_monomial_ideal(
            MonomialIdeal.from_gens(n, cert.order)
        )
        r = betti.regularity(I)
        assert r.certified and r.value == sum(sizes), (n, sizes)


@report(8, "projective-plane triangulation: characteristic dependence")
def test_criterion_8():
    mi = projective_plane_ideal()
    r0 = betti.regularity(GradedIdealView.from_monomial_ideal(mi, 0))
    r2 = betti.regularity(GradedIdealView.from_monomial_ideal(mi, 2))
    assert r0.certified and r2.certified
    assert r0.value < r2.value  # the qualitative claim
    assert (r0.value, r2.value) == (3, 4)  # frozen regression baseline
    t0 = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, 0))
    assert t0.entries == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    t2 = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, 2))
    assert t2.entries == {
        (0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6, (3, 6): 1, (4, 6): 1,
    }
    # the linear-quotient search is purely combinatorial (colons of
    # monomials), hence field-independent: one run covers every
    # characteristic
    assert search_order(mi) is None


@report(9, "Hilbert values, colons, saturations vs brute-force enumeration")
def test_criterion_9():
    rng = rng_from_seed(9)
    for _ in range(40):
        mi = random_monomial_ideal(rng, nmax=4, degmax=4, max_gens=5)
        if mi.is_unit:
            continue
        n = mi.nvars
        I = GradedIdealView.from_monomial_ideal(mi)
        for e in range(7):
            basis = monomial_basis(n, e)
            standard = [m for m in basis if not contains_monomial(mi, m)]
            # Hilbert values: linear-algebra route vs direct counting
            assert hilbert_value(I, e) == len(standard)
            fresh = GradedIdealView(n, I.generators)
            dim = len(basis) - len(standard)
            from idealreg.graded import degree_piece

            assert degree_piece(fresh, e).dim == dim
        # colons: graded route vs divisibility enumeration
        g = mi.gens[rng.randrange(len(mi.gens))]
        gp = HomPolynomial.from_monomial(g)
        for e in range(5):
            cp = colon_piece(I, gp, e)
            brute = sum(
                1
                for w in monomial_basis(n, e)
                if contains_monomial(mi, mono_mul(w, g))
            )
            # monomial colon of a monomial ideal is monomial: dim = count
            assert cp.dim == brute
        # saturations: combinatorial route vs bounded brute force
        sat = saturation(mi)
        bound = sum(max(g) for g in mi.gens) + 1
        for e in range(5):
            for w in monomial_basis(n, e):
                brute_in = all(
                    contains_monomial(mi, mono_mul(w, u))
                    for u in monomial_basis(n, bound)
                )
                assert contains_monomial(sat, w) == brute_in


@report("*", "product inequality never violated when dim R/I <= 1")
def test_inequality_on_low_dimension_pairs():
    rng = rng_from_seed(25)
    done = 0
    while done < 100:
        I = random_low_dimension_ideal(rng, nmax=3, degmax=3)
        J = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        # padding I with unused variables would raise dim R/I, so J is the
        # side brought up to the common ambient ring
        if J.is_unit or J.nvars > I.nvars:
            continue
        Ip, Jp = I, J.padded(I.nvars)
        assert dimension_monomial(Ip) <= 1
        rep = betti.inequality_report(
            GradedIdealView.from_monomial_ideal(Ip),
            GradedIdealView.from_monomial_ideal(Jp),
        )
        assert rep.holds, (Ip, Jp)
        done += 1
