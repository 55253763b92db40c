from fractions import Fraction

import pytest

from idealreg.fields import PRIME_BOUND, _is_prime, field_of, scalar
from idealreg.graded import GradedIdealView, HomPolynomial, degree_piece


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(-3, 10_000))


def test_is_prime_large_and_pseudoprimes():
    assert _is_prime(2**61 - 1)
    assert field_of(2**61 - 1) == 2**61 - 1
    for n in (561, 41041, 2**61 + 1):  # two Carmichael numbers, 3 | 2^61 + 1
        assert not _is_prime(n)


def test_prime_bound_is_the_first_unsafe_input():
    # the least strong pseudoprime to every base 2..37: composite, so any
    # n >= PRIME_BOUND is refused rather than answered
    assert PRIME_BOUND == 399165290221 * 798330580441
    with pytest.raises(ValueError):
        _is_prime(PRIME_BOUND)
    with pytest.raises(ValueError):
        field_of(PRIME_BOUND + 2)


@pytest.mark.parametrize("p", [1, -3, 4])
def test_field_of_rejects_non_primes(p):
    with pytest.raises(ValueError):
        field_of(p)


@pytest.mark.parametrize("p", [3, 32003])
def test_prime_field_inverts_denominators(p):
    assert scalar(Fraction(1, 2), p) == pow(2, -1, p)
    assert scalar(Fraction(-7, 5), p) * 5 % p == -7 % p
    assert scalar("3/4", p) * 4 % p == 3 % p
    assert scalar(-1, p) == p - 1
    with pytest.raises(ValueError):
        scalar(Fraction(1, p), p)


def test_fraction_coefficient_over_gf_p_spans_its_inverse_multiple():
    # a/2 + b over GF(3) is 2a + b, not the truncated b
    half_a_plus_b = HomPolynomial.make({(1, 0): Fraction(1, 2), (0, 1): 1})
    I = GradedIdealView(2, [half_a_plus_b], 3)
    piece = degree_piece(I, 1)
    assert piece.rows == [{0: 1, 1: 2}]
