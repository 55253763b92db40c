"""Seeded random instances for the property suites.

Polymatroidal samples come from classes known to be closed under the
exchange property (variable-subset ideals, full degree-d ideals, uniform
matroids, transversal ideals, and principal multiples of those); sampling
arbitrary polymatroidal ideals uniformly is an open problem, and these
classes are the ones the product-closure checks need exercised.
"""

from __future__ import annotations

import random
from itertools import combinations

from .ideals import MonomialIdeal
from .linforms import LinearIdeal
from .monomials import monomial_basis, one, mono_mul, variable
from .polymatroid import transversal_ideal


def rng_from_seed(seed):
    return random.Random(seed)


def random_linear_family(rng, nmax=5, dmax=4, characteristic=0):
    """A family of 1..dmax nonzero linear-form ideals in 2..nmax variables."""
    n = rng.randint(2, nmax)
    d = rng.randint(1, dmax)
    family = []
    for _ in range(d):
        dim = rng.randint(1, n)
        while True:
            rows = [
                [rng.randint(-9, 9) for _ in range(n)] for _ in range(dim)
            ]
            try:
                family.append(LinearIdeal.from_rows(n, rows, characteristic))
                break
            except ValueError:
                continue
    return family


def random_variable_subset_ideal(rng, n):
    k = rng.randint(1, n)
    subset = rng.sample(range(1, n + 1), k)
    return MonomialIdeal.from_gens(n, [variable(i, n) for i in subset])


def random_veronese_ideal(rng, n, dmax=3):
    d = rng.randint(1, dmax)
    return MonomialIdeal.from_gens(n, monomial_basis(n, d))


def random_uniform_matroid_ideal(rng, n):
    """Basis ideal of the uniform matroid U_{k,n}: all squarefree degree-k."""
    k = rng.randint(1, n)
    gens = []
    for S in combinations(range(1, n + 1), k):
        m = one(n)
        for i in S:
            m = mono_mul(m, variable(i, n))
        gens.append(m)
    return MonomialIdeal.from_gens(n, gens)


def random_transversal_ideal(rng, n, max_factors=3):
    """Transversal ideal of a random subset system admitting a transversal."""
    for _ in range(50):
        p = rng.randint(1, max_factors)
        subsets = [
            rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 1)))
            for _ in range(p)
        ]
        try:
            return transversal_ideal(n, subsets)
        except ValueError:
            continue
    return MonomialIdeal.from_gens(n, [variable(i, n) for i in range(1, n + 1)])


def random_principal_times(rng, n, base):
    """u * base for a random monomial u (principal multiples stay polymatroidal)."""
    u = one(n)
    for _ in range(rng.randint(1, 2)):
        u = mono_mul(u, variable(rng.randint(1, n), n))
    return MonomialIdeal.from_gens(n, [mono_mul(u, g) for g in base.gens])


def random_polymatroidal(rng, nmax=6):
    """One ideal from the closed classes, with its ambient size."""
    n = rng.randint(2, nmax)
    kind = rng.randrange(4)
    if kind == 0:
        I = random_variable_subset_ideal(rng, n)
    elif kind == 1:
        I = random_veronese_ideal(rng, n, dmax=2 if n >= 5 else 3)
    elif kind == 2:
        I = random_uniform_matroid_ideal(rng, n)
    else:
        I = random_transversal_ideal(rng, n)
    if rng.random() < 0.3:
        I = random_principal_times(rng, n, I)
    return I


def random_monomial_ideal(rng, nmax=4, degmax=4, max_gens=6):
    n = rng.randint(2, nmax)
    k = rng.randint(1, max_gens)
    gens = []
    for _ in range(k):
        d = rng.randint(1, degmax)
        basis = monomial_basis(n, d)
        gens.append(basis[rng.randrange(len(basis))])
    return MonomialIdeal.from_gens(n, gens)


def random_low_dimension_ideal(rng, nmax=3, degmax=3, max_tries=200):
    """Monomial ideal with dim R/I <= 1, by rejection."""
    from .ideals import dimension_monomial

    for _ in range(max_tries):
        I = random_monomial_ideal(rng, nmax=nmax, degmax=degmax)
        if not I.is_unit and dimension_monomial(I) <= 1:
            return I
    # fallback: powers of all variables, an artinian ideal
    n = rng.randint(2, nmax)
    d = rng.randint(1, degmax)
    return MonomialIdeal.from_gens(
        n, [tuple(d if k == i else 0 for k in range(n)) for i in range(n)]
    )
