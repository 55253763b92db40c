"""Record the pool of search ideals used by the certificates workload.

Each pool ideal is a random equigenerated degree-3 monomial ideal in 5
variables with 10 to 18 generators.  For each one the exhaustive
`search_order` verdict is recorded, together with the number of colon
steps the search took, which the workload uses to keep every pass to the
same mix of short and long searches.  The verdicts are the known answers
a later run is checked against, so regenerate the pool only from a commit
whose `search_order` is trusted:

    python3 bench/make_search_pool.py
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from idealreg import quotients  # noqa: E402
from idealreg.ideals import MonomialIdeal  # noqa: E402
from idealreg.monomials import format_monomial, monomial_basis  # noqa: E402

POOL_SEED = 20021
POOL_SIZE = 240
NVARS, DEGREE = 5, 3


def main():
    rng = random.Random(POOL_SEED)
    basis = monomial_basis(NVARS, DEGREE)
    steps = [0]
    colon = quotients.monomial_colon

    def counting_colon(gens, u):
        steps[0] += 1
        return colon(gens, u)

    quotients.monomial_colon = counting_colon
    ideals = []
    for _ in range(POOL_SIZE):
        I = MonomialIdeal.from_gens(
            NVARS, rng.sample(basis, rng.randint(10, 18)))
        steps[0] = 0
        cert = quotients.search_order(I)
        ideals.append({"gens": [format_monomial(g) for g in I.gens],
                       "order_exists": cert is not None,
                       "colon_steps": steps[0]})
    quotients.monomial_colon = colon
    with open(os.path.join(BENCH, "search_pool.json"), "w") as fh:
        json.dump({"seed": POOL_SEED, "nvars": NVARS, "degree": DEGREE,
                   "ideals": ideals}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
