#!/usr/bin/env python3
"""Random search for violations of reg(I*J) <= reg(I) + reg(J).

The inequality is known to fail in general (the four-generator cubic fixture
times (b, c) gives 5 > 1 + 3) but holds when dim R/I <= 1.  This experiment
samples monomial pairs in two pools:

  * constrained pool: I with dim R/I <= 1 (the inequality must hold; any
    violation here is a bug and the run exits nonzero),
  * free pool: unconstrained I (violations are expected occasionally and
    are reported as findings, not failures).
"""

import argparse
import sys

from idealreg import betti
from idealreg.graded import GradedIdealView
from idealreg.ideals import dimension_monomial
from idealreg.samplers import (
    random_low_dimension_ideal,
    random_monomial_ideal,
    rng_from_seed,
)


def run_pool(rng, trials, constrained):
    label = "dim<=1" if constrained else "free"
    violations = []
    done = 0
    while done < trials:
        if constrained:
            I = random_low_dimension_ideal(rng, nmax=3, degmax=3)
        else:
            I = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        J = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=4)
        if I.is_unit or J.is_unit:
            continue
        n = max(I.nvars, J.nvars)
        I, J = I.padded(n), J.padded(n)
        rep = betti.inequality_report(
            GradedIdealView.from_monomial_ideal(I),
            GradedIdealView.from_monomial_ideal(J),
        )
        done += 1
        if not rep.holds:
            violations.append((I, J, rep))
            print(
                f"[{label}] VIOLATION: reg(I)={rep.reg_i.value} "
                f"reg(J)={rep.reg_j.value} reg(IJ)={rep.reg_product.value}"
            )
            print(f"    I = {I}")
            print(f"    J = {J}")
    print(f"[{label}] {done} pairs, {len(violations)} violations")
    return violations


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=100)
    args = ap.parse_args()

    rng = rng_from_seed(args.seed)
    bad = run_pool(rng, args.trials, constrained=True)
    if bad:
        print("ERROR: violation in the dim<=1 pool — this should be impossible")
        return 1
    for I, J, rep in run_pool(rng, args.trials, constrained=False):
        d = dimension_monomial(I)
        print(f"  finding confirmed with dim R/I = {d} (> 1 as expected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
