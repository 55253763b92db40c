import random
from functools import cmp_to_key
from math import comb

import pytest

from idealreg import betti
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
from oracles import all_chain_decompositions, gamma_of_monomial, is_chain


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
