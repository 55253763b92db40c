from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg import betti, polymatroid
from idealreg.fixtures import hook_ideal
from idealreg.graded import GradedIdealView
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import (
    mono_div,
    mono_mul,
    monomial_basis,
    parse_monomial,
    variable,
)
from idealreg.polymatroid import (
    ExchangeFailure,
    is_matroidal,
    is_polymatroidal,
    polymatroidal_product,
    revlex_certificate,
    squarefree_product,
    transversal_ideal,
)
from idealreg.quotients import verify_certificate
from idealreg.samplers import random_polymatroidal, rng_from_seed
from oracles import (
    AboveAtLeast,
    DroppedNeighbour,
    compare_revlex,
    equigenerated_ideals,
    random_matroidal,
    random_polymatroidal_product,
)


def gens(n, *names):
    return [parse_monomial(s, n)[0] for s in names]


def ideal(n, *names):
    return MonomialIdeal.from_gens(n, gens(n, *names))


def test_veronese_is_polymatroidal():
    for n, d in ((2, 3), (3, 2), (4, 3)):
        assert is_polymatroidal(
            MonomialIdeal.from_gens(n, monomial_basis(n, d))
        ) is True


def test_variable_subset_is_polymatroidal():
    assert is_polymatroidal(ideal(4, "a", "c", "d")) is True


def test_hook_failure_witness():
    w = is_polymatroidal(ideal(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    assert isinstance(w, ExchangeFailure)
    assert w.u == gens(4, "a^2*b")[0]
    assert w.v == gens(4, "c*d^2")[0]
    assert w.index == 2


def exchange_oracle(I):
    """True or the first failing (u, v, i), straight from the axiom: u, v
    revlex-descending, i and j ascending, x_j * u / x_i looked up in G(I)."""
    gens = set(I.gens)
    ordered = sorted(I.gens, key=cmp_to_key(compare_revlex), reverse=True)
    n = I.nvars
    for u in ordered:
        for v in ordered:
            for i in range(1, n + 1):
                if u == v or u[i - 1] <= v[i - 1]:
                    continue
                if not any(
                    v[j - 1] > u[j - 1]
                    and mono_mul(mono_div(u, variable(i, n)), variable(j, n))
                    in gens
                    for j in range(1, n + 1)
                ):
                    return (u, v, i)
    return True


def without_last(I):
    """G(I) minus its last generator, which can break the exchange axiom."""
    return I if len(I.gens) == 1 else MonomialIdeal.from_gens(I.nvars, I.gens[:-1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=12),
    st.integers(0, 10**6).map(
        lambda seed: random_polymatroidal(rng_from_seed(seed), nmax=6)
    ),
    st.integers(0, 10**6).map(random_polymatroidal_product),
    st.integers(0, 10**6).map(
        lambda seed: without_last(random_polymatroidal_product(seed))
    ),
))
@example(hook_ideal())
def test_exchange_check_matches_oracle(I):
    assert witness(is_polymatroidal(I)) == exchange_oracle(I)


def witness(res):
    """True, or the (u, v, i) of an ExchangeFailure."""
    if res is True:
        return True
    assert isinstance(res, ExchangeFailure)
    return (res.u, res.v, res.index)


@pytest.mark.parametrize("mutant", [DroppedNeighbour, AboveAtLeast])
def test_exchange_oracle_catches_a_mutant_index(mutant, monkeypatch):
    ideals = [random_polymatroidal_product(seed) for seed in range(20)]
    ideals += [without_last(I) for I in ideals]
    monkeypatch.setattr(polymatroid, "GeneratorIndex", mutant)
    assert any(witness(is_polymatroidal(I)) != exchange_oracle(I) for I in ideals)


def test_not_equigenerated():
    w = is_polymatroidal(ideal(2, "a", "b^2"))
    assert isinstance(w, ExchangeFailure) and w.reason == "not equigenerated"


def test_product_example():
    P = polymatroidal_product(ideal(3, "a", "b"), ideal(3, "b", "c"))
    assert set(P.gens) == set(gens(3, "a*b", "a*c", "b^2", "b*c"))


def test_product_rejects_bad_input():
    with pytest.raises(ValueError):
        polymatroidal_product(
            ideal(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"), ideal(4, "a", "b")
        )


def test_revlex_certificate_m2():
    c = revlex_certificate(MonomialIdeal.from_gens(2, monomial_basis(2, 2)))
    assert c.order == ((2, 0), (1, 1), (0, 2))
    assert c.colon_vars == ((), (1,), (1,))


def test_revlex_certificate_variable_subset():
    c = revlex_certificate(ideal(3, "a", "c"))
    assert c.colon_vars == ((), (1,))


def test_squarefree_products():
    P = squarefree_product(ideal(2, "a", "b"), ideal(2, "a", "b"))
    assert P.gens == (gens(2, "a*b")[0],)
    Q = squarefree_product(ideal(4, "a", "b"), ideal(4, "c", "d"))
    assert set(Q.gens) == set(gens(4, "a*c", "a*d", "b*c", "b*d"))


def test_transversal_examples():
    T = transversal_ideal(3, [(1, 2), (2, 3)])
    assert set(T.gens) == set(gens(3, "a*b", "a*c", "b*c"))
    S = transversal_ideal(2, [(1,), (2,)])
    assert S.gens == (gens(2, "a*b")[0],)
    with pytest.raises(ValueError):
        transversal_ideal(2, [(1,), (1,)])


def test_product_closure_property():
    rng = rng_from_seed(2024)
    for _ in range(60):
        I = random_polymatroidal(rng, nmax=5)
        J = random_polymatroidal(rng, nmax=5)
        n = max(I.nvars, J.nvars)
        pad = lambda X: MonomialIdeal.from_gens(
            n, [g + (0,) * (n - X.nvars) for g in X.gens]
        )
        P = polymatroidal_product(pad(I), pad(J))  # asserts the closure inside
        cert = revlex_certificate(P)
        assert verify_certificate(cert)


def test_squarefree_closure_property():
    rng = rng_from_seed(31)
    done = 0
    while done < 30:
        I = random_matroidal(rng, nmax=5)
        J = random_matroidal(rng, nmax=5)
        n = max(I.nvars, J.nvars)
        pad = lambda X: MonomialIdeal.from_gens(
            n, [g + (0,) * (n - X.nvars) for g in X.gens]
        )
        try:
            P = squarefree_product(pad(I), pad(J))
        except ValueError:
            continue  # no squarefree product exists for this pair
        assert is_matroidal(P)
        done += 1


def test_products_have_linear_resolution():
    # equigenerated + linear quotients => reg equals the generator degree
    rng = rng_from_seed(77)
    done = 0
    while done < 8:
        I = random_polymatroidal(rng, nmax=4)
        J = random_polymatroidal(rng, nmax=4)
        if I.nvars != J.nvars:
            continue
        P = polymatroidal_product(I, J)
        if len(P.gens) > 25:
            continue
        d = P.max_gen_degree()
        r = betti.regularity(GradedIdealView.from_monomial_ideal(P))
        assert r.value == d
        done += 1
