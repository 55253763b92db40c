import random
from functools import cmp_to_key
from math import comb

import pytest
from hypothesis import given, settings

from idealreg import betti, chains
from idealreg.chains import (
    ChainProductSpec,
    canonical_decomposition,
    certify_product,
    chain_generators,
    chain_ideal,
    gamma,
    omega,
    quotient_witness,
    sigma_compare,
    sigma_key,
)
from idealreg.graded import GradedIdealView
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import (
    compare_tau,
    degree,
    monomial_basis,
    parse_monomial,
)
from idealreg.quotients import verify_certificate
from oracles import (
    OMEGA_MUTANTS,
    all_chain_decompositions,
    equigenerated_ideals,
    gamma_of_monomial,
    is_chain,
    mutant,
    omega_oracle,
)


def pm(s, n):
    return parse_monomial(s, n)[0]


def test_is_chain():
    assert is_chain(pm("x1*x3*x5*x7", 8))
    assert not is_chain(pm("x1*x2", 3))
    assert not is_chain(pm("x1^2", 3))
    with pytest.raises(ValueError):
        is_chain((0, 0, 0))


def test_chain_generators_counts():
    assert set(chain_generators(3, 1)) == {pm("a", 3), pm("b", 3), pm("c", 3)}
    assert chain_generators(3, 2) == [pm("a*c", 3)]
    for n in range(2, 9):
        for k in range(1, (n + 1) // 2 + 1):
            gens = chain_generators(n, k)
            assert len(gens) == comb(n - k + 1, k)
            assert len(set(gens)) == len(gens)
            assert all(is_chain(g) and degree(g) == k for g in gens)
    with pytest.raises(ValueError):
        chain_generators(3, 3)


def test_worked_decomposition():
    m = pm("x1^2*x2^3*x3^2*x5^3*x6*x7*x8^3", 8)
    dec = canonical_decomposition(m)
    assert dec.factors == tuple(
        pm(s, 8)
        for s in ("x1*x3*x5*x7", "x1*x3*x5*x8", "x2*x5*x8", "x2*x6*x8", "x2")
    )
    assert dec.shape == (4, 4, 3, 3, 1)
    assert tuple(gamma(i, dec.shape) for i in (1, 2, 3, 4, 5)) == (15, 10, 6, 2, 0)


def test_decomposition_trivia():
    c = pm("x1*x3", 3)
    assert canonical_decomposition(c).factors == (c,)
    x = pm("x1^3", 2)
    assert canonical_decomposition(x).shape == (1, 1, 1)


def test_decomposition_guard_bounds_degree_times_variables():
    # a^2000 in 100 variables is at DECOMPOSE_GUARD = 200000, and admitted
    assert len(canonical_decomposition((2000,) + (0,) * 99).factors) == 2000
    with pytest.raises(ValueError, match=(
        "degree 100000 times 1000 variables is 100000000, "
        "above DECOMPOSE_GUARD = 200000"
    )):
        canonical_decomposition((100000,) + (0,) * 999)
    with pytest.raises(ValueError, match="degree 1000000 times 1 variables"):
        canonical_decomposition((1000000,))


def test_greedy_factor_is_tau_maximal():
    # oracle: the first factor must be tau-greatest among all dividing chains
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(2, 6)
        d = rng.randint(1, 8)
        basis = monomial_basis(n, d)
        m = basis[rng.randrange(len(basis))]
        first = canonical_decomposition(m).factors[0]
        chains = {
            c for dec in all_chain_decompositions(m) for c in dec
        }
        best = max(chains, key=cmp_to_key(compare_tau))
        assert first == best


def test_canonical_shape_gamma_dominates_all_decompositions():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        d = rng.randint(1, 8)
        basis = monomial_basis(n, d)
        m = basis[rng.randrange(len(basis))]
        canon = canonical_decomposition(m).shape
        for dec in all_chain_decompositions(m):
            s = sorted((degree(c) for c in dec), reverse=True)
            for i in range(1, max(canon) + 1):
                assert gamma(i, canon) >= gamma(i, tuple(s))


def test_gamma_values():
    assert gamma(1, (4, 4, 3, 3, 1)) == 15
    assert gamma(3, (4,)) == 2
    assert gamma_of_monomial(1, pm("x1*x3", 4)) == 2
    with pytest.raises(ValueError):
        gamma(0, (1,))


def test_sigma_order_fixture():
    u, v = pm("x1*x3", 3), pm("x1^2", 3)
    assert sigma_compare(u, v) == 1  # sigma prefers the longer chain
    assert compare_tau(v, u) == 1  # tau says the opposite
    assert sigma_compare(u, u) == 0
    with pytest.raises(ValueError):
        sigma_compare(pm("x1", 2), pm("x1^2", 2))


def test_sigma_is_total_order_on_degree_slices():
    for n, d in ((3, 3), (4, 4), (5, 3)):
        basis = list(monomial_basis(n, d))
        ordered = sorted(basis, key=cmp_to_key(sigma_compare))
        for a, b in zip(ordered, ordered[1:]):
            assert sigma_compare(a, b) == -1
        # transitivity spot check on consecutive triples
        for a, b, c in zip(ordered, ordered[1:], ordered[2:]):
            assert sigma_compare(a, c) == -1


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainProductSpec(4, (3,))  # 3 > floor(5/2)
    with pytest.raises(ValueError):
        ChainProductSpec(5, (1, 2))  # not weakly decreasing
    with pytest.raises(ValueError):
        ChainProductSpec(5, ())


def test_omega_trivia():
    assert len(omega(ChainProductSpec(3, (1,))).members) == 3
    assert omega(ChainProductSpec(3, (2,))).members == (pm("x1*x3", 3),)


def test_omega_matches_products():
    # the cross-check against the product ideal runs inside omega()
    for n in range(2, 9):
        for sizes in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 2)]:
            try:
                spec = ChainProductSpec(n, sizes)
            except ValueError:
                continue
            om = omega(spec)
            assert set(om.members) == set(
                _product_gens(n, sizes)
            )


def partitions(d, top):
    """The partitions of d into parts of size at most top, parts decreasing."""
    if d == 0:
        yield ()
        return
    for k in range(min(d, top), 0, -1):
        for rest in partitions(d - k, k):
            yield (k,) + rest


SMALL_SPECS = [
    ChainProductSpec(n, sizes)
    for n in range(1, 9)
    for d in range(1, 7)
    for sizes in partitions(d, (n + 1) // 2)
]


def test_omega_matches_the_oracle_on_every_small_spec():
    assert len(SMALL_SPECS) == 138
    for spec in SMALL_SPECS:
        assert omega(spec).members == omega_oracle(spec).members, spec


@settings(max_examples=200, deadline=None)
@given(equigenerated_ideals(nmax=8, dmax=6, kmax=40))
def test_factor_key_sort_is_the_sigma_sort(I):
    gens = list(I.gens)
    assert sorted(gens, key=sigma_key) == sorted(gens, key=cmp_to_key(sigma_compare))


def caught(omega_fn, spec):
    """The oracle test fails on omega_fn at spec: omega_fn's own product
    cross-check raises, or its members differ from the oracle's."""
    try:
        return omega_fn(spec).members != omega_oracle(spec).members
    except AssertionError:
        return True


@pytest.mark.parametrize("edits", OMEGA_MUTANTS.values(), ids=list(OMEGA_MUTANTS))
def test_omega_oracle_catches_a_mutant(edits):
    bad_omega = mutant(chains, "omega", edits)
    assert any(caught(bad_omega, spec) for spec in SMALL_SPECS)


def test_the_witness_check_uses_the_membership_of_omega(monkeypatch):
    spec = ChainProductSpec(5, (2, 1))
    m, n_mono = omega(spec).members[:2]
    monkeypatch.setattr(chains, "_in_omega", lambda shape, sizes: False)
    with pytest.raises(AssertionError, match="witness left Omega"):
        quotient_witness(spec, m, n_mono)
    with pytest.raises(AssertionError, match="Omega disagrees"):
        omega(spec)


def _product_gens(n, sizes):
    I = chain_ideal(n, sizes[0])
    for t in sizes[1:]:
        I = I.product(chain_ideal(n, t))
    return I.gens


def test_quotient_witness_all_pairs_small():
    spec = ChainProductSpec(5, (2, 1))
    om = omega(spec)
    for k, n_mono in enumerate(om.members):
        for m in om.members[:k]:
            quotient_witness(spec, m, n_mono)  # asserts internally
    with pytest.raises(ValueError):
        quotient_witness(spec, om.members[1], om.members[0])


def test_certify_products():
    assert certify_product(ChainProductSpec(4, (2,))).max_degree() == 2
    cert = certify_product(ChainProductSpec(5, (2, 2)))
    assert cert.max_degree() == 4 and verify_certificate(cert)


def test_certified_products_have_linear_resolution():
    for n, sizes in ((5, (2, 2)), (6, (3, 1)), (4, (2, 1))):
        spec = ChainProductSpec(n, sizes)
        cert = certify_product(spec, validate_pairs=False)
        I = GradedIdealView.from_monomial_ideal(
            MonomialIdeal.from_gens(n, cert.order)
        )
        assert betti.regularity(I).value == sum(sizes)
