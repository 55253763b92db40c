"""Record the pool of linear-form families used by the linforms-qq workload.

The families are draws of the criterion-3 sampler
`random_linear_family(nmax=5, dmax=4)` over QQ, kept by shape (number of
variables and sorted factor dims) until every shape of `LINFORMS_SHAPES`
has POOL_PER_SLOT families for each of its slots in a pass.  Each family
is recorded with the median time of ROUNDS cold runs of the workload's
pipeline on it, taken round by round over the whole pool so that a slow
spell of the host spreads over all families.  The workload splits each
shape's families by this cost into as many groups as the shape has slots
and draws one family per group, so that every seed gets the same mix of
cheap and dear families.  Regenerate the pool only from a commit whose
answers are trusted:

    python3 bench/make_linforms_pool.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from run import load_idealreg  # noqa: E402
from tracing import clear_caches  # noqa: E402
from workloads import LINFORMS_POOL, LINFORMS_SHAPES, WORKLOADS, Item  # noqa: E402

POOL_SEED = 30003
POOL_PER_SLOT = 2
ROUNDS = 3


def main():
    ir = load_idealreg()
    rng = ir.samplers.rng_from_seed(POOL_SEED)
    wanted = {key: POOL_PER_SLOT * k for key, k in LINFORMS_SHAPES.items()}
    families = []
    while any(wanted.values()):
        fam = ir.samplers.random_linear_family(rng, nmax=5, dmax=4)
        key = fam[0].nvars, tuple(sorted(V.dim for V in fam))
        if wanted.get(key, 0) > 0:
            wanted[key] -= 1
            families.append(fam)

    workload = WORKLOADS["linforms-qq"]
    times = [[] for _ in families]
    for _ in range(ROUNDS):
        for fam, record in zip(families, times):
            item = Item(label="", input=None, args=(fam,), expect=len(fam))
            clear_caches(ir)
            t0 = time.perf_counter()
            answer = workload.run(ir, item)
            record.append(time.perf_counter() - t0)
            reason = workload.check(item, answer)
            if reason is not None:
                raise SystemExit(f"pool family fails its check: {reason}")

    pool = [{"nvars": fam[0].nvars,
             "factors": [[[str(c) for c in row] for row in V.rows]
                         for V in fam],
             "cost_ms": round(1000 * statistics.median(record), 3)}
            for fam, record in zip(families, times)]
    with open(LINFORMS_POOL, "w") as fh:
        json.dump({"seed": POOL_SEED, "characteristic": 0, "rounds": ROUNDS,
                   "families": pool}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
