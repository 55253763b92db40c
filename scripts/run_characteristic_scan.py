#!/usr/bin/env python3
"""Characteristic dependence of Betti tables on a topological fixture.

The Stanley-Reisner ideal of the 6-vertex minimal triangulation of the real
projective plane is the classic example of a monomial ideal whose minimal
free resolution depends on the coefficient field: over characteristic 2 the
mod-2 homology of the surface contributes extra syzygies and the regularity
jumps from 3 to 4.  This script prints the full tables over a list of
characteristics and runs the linear-quotient search (which is combinatorial
and therefore field-independent).
"""

import argparse
import sys

from idealreg import betti
from idealreg.fixtures import projective_plane_ideal
from idealreg.graded import GradedIdealView
from idealreg.quotients import search_order


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--chars", default="0,2,3,32003",
        help="comma-separated list of characteristics (0 or prime)",
    )
    args = ap.parse_args()

    mi = projective_plane_ideal()
    print(f"ideal: {len(mi.gens)} squarefree cubic generators in 6 variables")
    regs = {}
    for text in args.chars.split(","):
        p = int(text)
        table = betti.betti_table(GradedIdealView.from_monomial_ideal(mi, p))
        reg = table.regularity_pair()[0] + 1  # reg(I) = reg(R/I) + 1
        regs[p] = reg
        print(f"\ncharacteristic {p}: reg = {reg} "
              f"(certified: {table.certified})")
        print(table.render())

    print("\nlinear-quotient search (field-independent):", end=" ")
    cert = search_order(mi)
    print("order found" if cert else "no order exists")

    if 0 in regs and 2 in regs and regs[2] > regs[0]:
        print(f"\nregularity jump confirmed: {regs[0]} (char 0) "
              f"-> {regs[2]} (char 2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
