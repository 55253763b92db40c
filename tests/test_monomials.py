import pytest
from hypothesis import given, strategies as st

from idealreg.monomials import (
    compare_tau,
    degree,
    divides,
    format_monomial,
    gcd_monomial,
    lcm_monomial,
    mono_div,
    mono_mul,
    monomial_basis,
    parse_monomial,
    support,
    variable,
)
from oracles import compare_revlex

monomials = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.integers(0, 4)] * n)
)


def same_ambient_pairs(nmax=5, emax=4):
    return st.integers(1, nmax).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(0, emax)] * n),
            st.tuples(*[st.integers(0, emax)] * n),
        )
    )


def test_parse_basic():
    assert parse_monomial("a^2*b") == ((2, 1), 2)
    assert parse_monomial("x1^2*x3") == ((2, 0, 1), 3)
    assert parse_monomial("1", 3) == ((0, 0, 0), 0)
    assert parse_monomial("b", 4) == ((0, 1, 0, 0), 2)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_monomial("a^")
    with pytest.raises(ValueError):
        parse_monomial("x0")
    with pytest.raises(ValueError):
        parse_monomial("d", 2)


@given(monomials)
def test_format_parse_roundtrip(u):
    n = len(u)
    text = format_monomial(u)
    assert parse_monomial(text, n)[0] == u


@given(same_ambient_pairs())
def test_gcd_lcm_product(pair):
    u, v = pair
    assert mono_mul(gcd_monomial(u, v), lcm_monomial(u, v)) == mono_mul(u, v)


@given(same_ambient_pairs())
def test_divides_iff_gcd(pair):
    u, v = pair
    assert divides(v, u) == (gcd_monomial(u, v) == v)
    if divides(v, u):
        assert mono_mul(mono_div(u, v), v) == u


@given(same_ambient_pairs())
def test_tau_antisymmetry(pair):
    u, v = pair
    assert compare_tau(u, v) == -compare_tau(v, u)
    assert (compare_tau(u, v) == 0) == (u == v)


def test_revlex_requires_equal_degree():
    with pytest.raises(ValueError):
        compare_revlex((1, 0), (1, 1))


def test_revlex_examples():
    # x1^2 > x1x2 > x2^2 in graded revlex
    assert compare_revlex((2, 0), (1, 1)) == 1
    assert compare_revlex((1, 1), (0, 2)) == 1


@given(st.integers(1, 5), st.integers(0, 6))
def test_basis_size(n, e):
    from math import comb

    assert len(monomial_basis(n, e)) == comb(e + n - 1, n - 1)


def test_basis_is_tau_sorted():
    b = monomial_basis(3, 4)
    assert all(compare_tau(b[i], b[i + 1]) == 1 for i in range(len(b) - 1))
    assert all(degree(m) == 4 for m in b)


def test_support_and_nu():
    u = parse_monomial("a^2*c", 3)[0]
    assert support(u) == (1, 3)
    assert u[0] == 2 and u[1] == 0  # nu(u, i), the exponent of x_i, is u[i - 1]
    assert variable(2, 3) == (0, 1, 0)
