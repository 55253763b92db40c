"""The benchmark's workloads: seeded inputs, one item's call path, and the
known answer every item is checked against.

An item is one ideal or family taken to a checked answer.  `generate`
builds a workload's items from the seed during set-up; `run` takes one
item through the public functions of idealreg and returns a JSON-able
answer; `check` compares that answer with the known value and returns the
reason it is wrong, or None.

Set-up draws inputs from the package's own samplers, or from pools of
their draws recorded with a cost (`make_linforms_pool.py`,
`make_search_pool.py`), and keeps them in fixed strata (family shape and
recorded cost, product size, search effort), so that every seed yields
the same mix of cheap and expensive items and the pass totals repeat from
seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from itertools import combinations

BENCH = os.path.dirname(os.path.abspath(__file__))
SEARCH_POOL = os.path.join(BENCH, "search_pool.json")
LINFORMS_POOL = os.path.join(BENCH, "linforms_pool.json")

# draws of a sampler before set-up gives up filling its strata
MAX_DRAWS = 20_000


@dataclass
class Item:
    label: str  # stratum, for grouping latencies
    input: object  # JSON-able description: hashed, and printed on failure
    args: tuple  # the objects handed to idealreg, built in set-up
    expect: object  # the known answer


def fill_strata(draw, stratum, quotas, draws):
    """The candidates of each stratum, in draw order, keyed by stratum.

    `draw()` returns a candidate and `stratum(candidate)` its key; keys
    outside `quotas` are discarded.  At least `draws` candidates are drawn
    even when the quotas fill sooner, so that set-up does the same work
    for every seed; more are drawn while a stratum holds fewer candidates
    than its quota.
    """
    out = {key: [] for key in quotas}
    for k in range(MAX_DRAWS):
        if k >= draws and all(len(out[key]) >= q for key, q in quotas.items()):
            return out
        cand = draw()
        key = stratum(cand)
        if key in out:
            out[key].append(cand)
    short = {key: q - len(out[key]) for key, q in quotas.items()}
    raise RuntimeError(f"strata not filled after {MAX_DRAWS} draws: {short}")


def pick_spread(rng, candidates, slots, cost):
    """One candidate from each of `slots` equal groups of the candidates
    sorted by cost, so that every seed picks the same spread of costs."""
    ranked = sorted(candidates, key=cost)
    bounds = [k * len(ranked) // slots for k in range(slots + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


# ------------------------------------------------------------ linforms-qq

# the strata of the criterion-3 draw, by (nvars, sorted factor dims), with
# the number of families of each per pass (its slots).  Shapes whose item
# takes under about 0.8 s over QQ have three slots; the four two-factor
# shapes in five variables that take 1-2.5 s, mostly in the strand engine,
# have one.  The other shapes are left out, so that a pass fits in one run:
# three or four factors in five variables take 2-35 s each over QQ, and
# three or four factors in four variables 1-3 s.
LINFORMS_SHAPES = {
    **{(2, dims): 3 for dims in [
        (1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2),
        (1, 1, 1, 1), (1, 1, 2, 2)]},
    **{(3, dims): 3 for dims in [
        (1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (2, 3), (1, 3),
        (1, 1, 1), (1, 2, 2), (2, 2, 3), (1, 1, 2), (1, 2, 3),
        (1, 1, 2, 2), (1, 2, 2, 3)]},
    **{(4, dims): 3 for dims in [
        (1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
        (3, 3), (1, 4), (2, 4), (3, 4), (2, 3, 4)]},
    **{(5, dims): 3 for dims in [
        (1,), (2,), (3,), (4,), (5,), (1, 5), (2, 5), (3, 5), (4, 4),
        (4, 5)]},
    **{(5, dims): 1 for dims in [(1, 4), (2, 4), (3, 3), (3, 4)]},
}


class Linforms:
    """verify_decomposition, saturation_degree and regularity of a product
    of linear-form ideals over QQ, as in acceptance criterion 3.  The
    families come from the recorded pool, spread over each shape's
    recorded costs by `pick_spread`."""

    name = "linforms-qq"

    def generate(self, ir, seed):
        rng = ir.samplers.rng_from_seed(seed)
        with open(LINFORMS_POOL) as fh:
            pool = json.load(fh)
        char = pool["characteristic"]
        by_shape = {}
        for rec in pool["families"]:
            key = rec["nvars"], tuple(sorted(len(V) for V in rec["factors"]))
            by_shape.setdefault(key, []).append(rec)

        items = []
        for (n, dims), slots in LINFORMS_SHAPES.items():
            for rec in pick_spread(rng, by_shape[n, dims], slots,
                                   cost=lambda rec: rec["cost_ms"]):
                fam = [ir.linforms.LinearIdeal.from_rows(n, V, char)
                       for V in rec["factors"]]
                items.append(Item(
                    label=f"n{n} dims{''.join(map(str, dims))}",
                    input={"nvars": n, "characteristic": char,
                           "factors": rec["factors"]},
                    args=(fam,),
                    expect=len(fam),
                ))
        rng.shuffle(items)
        return items

    def run(self, ir, item):
        (fam,) = item.args
        d, n = len(fam), fam[0].nvars
        rep = ir.linforms.verify_decomposition(fam, d + 3)
        prod = ir.linforms.product_generators(fam)
        sp = ir.graded.saturation_degree(prod, d)
        reg = ir.betti.regularity(prod, cap=d + n)
        return {"equal": rep.equal,
                "dims": {str(e): list(v) for e, v in rep.dims.items()},
                "sat": sp.sat_degree, "reg": reg.value,
                "witness": list(reg.witness)}

    def check(self, item, answer):
        d = item.expect
        if not answer["equal"]:
            return "product differs from the intersection of its components"
        if answer["sat"] is None or answer["sat"] > d:
            return f"saturation degree {answer['sat']} exceeds d = {d}"
        if answer["reg"] != d:
            return f"reg = {answer['reg']}, expected d = {d}"
        return None


# --------------------------------------------------------- monomial-betti

# chain products J_t1...J_tp sent through `idealreg betti` (the family of
# acceptance criterion 7): those with n <= 5 and degree at most 5, and those
# with n = 6 whose call takes under about a second
BETTI_CHAIN_SPECS = [
    (n, sizes)
    for n, sizes in [
        (2, (1,)), (2, (1, 1)), (2, (1, 1, 1)), (2, (1, 1, 1, 1)),
        (2, (1, 1, 1, 1, 1)),
        (3, (2,)), (3, (2, 1)), (3, (2, 1, 1)), (3, (2, 1, 1, 1)),
        (3, (2, 2, 1)), (3, (1, 1)), (3, (1, 1, 1)), (3, (1, 1, 1, 1)),
        (3, (1, 1, 1, 1, 1)),
        (4, (2,)), (4, (2, 2)), (4, (2, 2, 1)), (4, (2, 1)), (4, (2, 1, 1)),
        (4, (2, 1, 1, 1)), (4, (1,)), (4, (1, 1)), (4, (1, 1, 1)),
        (4, (1, 1, 1, 1)), (4, (1, 1, 1, 1, 1)),
        (5, (3,)), (5, (3, 2)), (5, (3, 1)), (5, (3, 1, 1)), (5, (2,)),
        (5, (2, 2)), (5, (2, 2, 1)), (5, (2, 1)), (5, (2, 1, 1)),
        (5, (2, 1, 1, 1)), (5, (1,)), (5, (1, 1)), (5, (1, 1, 1)),
        (5, (1, 1, 1, 1)), (5, (1, 1, 1, 1, 1)),
        (6, (3,)), (6, (3, 2)), (6, (3, 1)), (6, (2,)), (6, (2, 2)),
        (6, (2, 1)), (6, (1,)), (6, (1, 1)), (6, (1, 1, 1)),
    ]
]

# the 6-vertex triangulation of the real projective plane
PLANE_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

# golden tables of acceptance criterion 8, beta_ij(R/I) as "i,j" -> value
PLANE_TABLES = {
    0: {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6},
    2: {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6, "3,6": 1, "4,6": 1},
}
PLANE_REG = {0: 3, 2: 4}


def plane_generators():
    facets = {frozenset(f) for f in PLANE_FACETS}
    return [tuple(1 if i in t else 0 for i in range(1, 7))
            for t in combinations(range(1, 7), 3)
            if frozenset(t) not in facets]


def relabel(gens, rng):
    """Rename the variables the generators use to 1..k in a random order."""
    support = sorted({i for g in gens for i, e in enumerate(g) if e})
    rng.shuffle(support)
    k = len(support)
    return [tuple(g[support[j]] for j in range(k)) for g in gens]


class MonomialBetti:
    """One in-process `idealreg betti --format structured` call per ideal."""

    name = "monomial-betti"

    def __init__(self, copies):
        self.copies = copies  # differently relabelled copies of each ideal

    def generate(self, ir, seed):
        rng = ir.samplers.rng_from_seed(seed)
        fmt = ir.monomials.format_monomial

        def argv(gens, char):
            text = "ideal(" + ", ".join(fmt(g) for g in gens) + ")"
            return ["betti", "--ideal", text, "--char", str(char),
                    "--format", "structured"]

        items = []
        for n, sizes in BETTI_CHAIN_SPECS:
            P = ir.chains.chain_ideal(n, sizes[0])
            for t in sizes[1:]:
                P = P.product(ir.chains.chain_ideal(n, t))
            for _ in range(self.copies):
                args = argv(relabel(P.gens, rng), 0)
                items.append(Item(
                    label=f"chain n{n} t{''.join(map(str, sizes))}",
                    input={"argv": args}, args=(args,),
                    expect={"regularity": sum(sizes)}))
        for char in (0, 2):
            for _ in range(self.copies):
                args = argv(relabel(plane_generators(), rng), char)
                items.append(Item(
                    label=f"plane char{char}", input={"argv": args},
                    args=(args,), expect={"regularity": PLANE_REG[char],
                                          "entries": PLANE_TABLES[char]}))
        rng.shuffle(items)
        return items

    def run(self, ir, item):
        (args,) = item.args
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            ir.cli.main.main(args=list(args), standalone_mode=False)
        return out.getvalue()

    def check(self, item, answer):
        payload = json.loads(answer)
        if not payload["certified"]:
            return "table not certified"
        if payload["regularity"] != item.expect["regularity"]:
            return (f"reg = {payload['regularity']}, "
                    f"expected {item.expect['regularity']}")
        if "entries" in item.expect and payload["entries"] != item.expect["entries"]:
            return f"table {payload['entries']} differs from the golden table"
        return None


# ----------------------------------------------------------- certificates

# polymatroidal pairs of the criterion-6 sampler per pass, by the number of
# generators of the product, |G(IJ)|, which sets the cost of its exchange
# and order checks; within a bin they are spread over |G(IJ)|, from at
# least POLY_CHOICE candidates per pair.  Pairs whose product has more
# than 90 generators (about 1 in 100 draws, up to 3 s each) are not drawn.
POLY_BINS = [(1, 5), (6, 14), (15, 20), (21, 27), (28, 35), (36, 44),
             (45, 55), (56, 90)]
POLY_QUOTAS = {0: 9, 1: 12, 2: 12, 3: 15, 4: 18, 5: 18, 6: 18, 7: 12}
POLY_DRAWS = 1400
POLY_CHOICE = 2

# searches per pass, by the colon steps the search took when the pool was
# recorded, spread over the colon steps within a bin; pool ideals whose
# search took more steps are not drawn
SEARCH_BINS = [(0, 499), (500, 999), (1000, 1499), (1500, 2249),
               (2250, 3399), (3400, 4999), (5000, 7499), (7500, 11_249),
               (11_250, 16_999), (17_000, 30_000)]
SEARCH_QUOTAS = {0: 3, 1: 3, 2: 4, 3: 4, 4: 4, 5: 4, 6: 6, 7: 4, 8: 4, 9: 2}

# chain products for omega and certify_product (criterion 7, n <= 8),
# leaving out the few that take 1.5-7 s each
CERT_CHAIN_SPECS = [
    (6, (1, 1, 1, 1)), (6, (2, 1, 1)), (6, (2, 2, 1)), (6, (3, 1, 1)),
    (6, (2, 2, 2)), (6, (3, 3)), (7, (1, 1, 1)), (7, (2, 1, 1)),
    (7, (2, 2)), (7, (2, 2, 1)), (7, (3, 2)), (7, (3, 1, 1)),
    (7, (4, 2)), (8, (1, 1, 1, 1)), (8, (3, 3)), (8, (4, 2)),
]


def _bin(value, bins):
    for k, (lo, hi) in enumerate(bins):
        if lo <= value <= hi:
            return k
    return None


def pad(ir, mi, n):
    return ir.ideals.MonomialIdeal.from_gens(
        n, [g + (0,) * (n - mi.nvars) for g in mi.gens])


class Certificates:
    """Linear-quotient certificates, all purely combinatorial: products of
    polymatroidal ideals, exhaustive order searches, and sigma-order
    certificates of chain products."""

    name = "certificates"

    def generate(self, ir, seed):
        rng = ir.samplers.rng_from_seed(seed)
        fmt = ir.monomials.format_monomial
        items = []

        def draw_pair():
            """(I, J, |G(IJ)|) for a random polymatroidal pair."""
            I = ir.samplers.random_polymatroidal(rng, nmax=6)
            J = ir.samplers.random_polymatroidal(rng, nmax=6)
            # the factors are equigenerated, so G(IJ) is the set of products
            n = max(I.nvars, J.nvars)
            pads = [[g + (0,) * (n - X.nvars) for g in X.gens] for X in (I, J)]
            products = {tuple(a + b for a, b in zip(u, v))
                        for u in pads[0] for v in pads[1]}
            return I, J, len(products)

        strata = fill_strata(
            draw_pair, lambda pair: _bin(pair[2], POLY_BINS),
            {k: POLY_CHOICE * q for k, q in POLY_QUOTAS.items()}, POLY_DRAWS)
        pairs = [(k, I, J) for k, slots in POLY_QUOTAS.items()
                 for I, J, _ in pick_spread(rng, strata[k], slots,
                                            cost=lambda pair: pair[2])]
        for k, I, J in pairs:
            n = max(I.nvars, J.nvars)
            I, J = pad(ir, I, n), pad(ir, J, n)
            items.append(Item(
                label=f"poly bin{k}",
                input={"kind": "poly", "nvars": n,
                       "I": [fmt(g) for g in I.gens],
                       "J": [fmt(g) for g in J.gens]},
                args=(I, J),
                expect=max(map(sum, I.gens)) + max(map(sum, J.gens))))

        with open(SEARCH_POOL) as fh:
            pool = json.load(fh)
        for k, quota in SEARCH_QUOTAS.items():
            lo, hi = SEARCH_BINS[k]
            stratum = [rec for rec in pool["ideals"]
                       if lo <= rec["colon_steps"] <= hi]
            for rec in pick_spread(rng, stratum, quota,
                                   cost=lambda rec: rec["colon_steps"]):
                n = pool["nvars"]
                I = ir.ideals.MonomialIdeal.from_gens(
                    n, [ir.monomials.parse_monomial(g, n)[0] for g in rec["gens"]])
                items.append(Item(
                    label=f"search bin{k}",
                    input={"kind": "search", "nvars": n, "gens": rec["gens"]},
                    args=(I,), expect=rec["order_exists"]))

        for n, sizes in CERT_CHAIN_SPECS:
            spec = ir.chains.ChainProductSpec(n, sizes)
            items.append(Item(
                label=f"chain n{n} t{''.join(map(str, sizes))}",
                input={"kind": "chain", "nvars": n, "sizes": list(sizes)},
                args=(spec,), expect=sum(sizes)))
        rng.shuffle(items)
        return items

    def run(self, ir, item):
        kind = item.input["kind"]
        q = ir.quotients
        if kind == "poly":
            I, J = item.args
            P = ir.polymatroid.polymatroidal_product(I, J)
            cert = ir.polymatroid.revlex_certificate(P)
            return {"gens": len(P.gens),
                    "polymatroidal": ir.polymatroid.is_polymatroidal(P) is True,
                    "verified": q.verify_certificate(cert),
                    "reg": q.regularity_from_certificate(cert)}
        if kind == "search":
            (I,) = item.args
            cert = q.search_order(I)
            if cert is None:
                return {"order_exists": False}
            return {"order_exists": True, "order": [list(u) for u in cert.order],
                    "verified": q.verify_certificate(cert),
                    "reg": q.regularity_from_certificate(cert)}
        (spec,) = item.args
        om = ir.chains.omega(spec)
        cert = ir.chains.certify_product(spec, validate_pairs=False)
        return {"omega": len(om.members),
                "sigma_order": cert.order == om.members,
                "verified": q.verify_certificate(cert),
                "reg": q.regularity_from_certificate(cert)}

    def check(self, item, answer):
        kind = item.input["kind"]
        if kind == "search":
            if answer["order_exists"] != item.expect:
                return (f"order_exists = {answer['order_exists']}, recorded "
                        f"verdict {item.expect}")
            if not answer["order_exists"]:
                return None
            expect_reg = 3
        else:
            expect_reg = item.expect
        if kind == "poly" and not answer["polymatroidal"]:
            return "product is not polymatroidal"
        if kind == "chain" and not answer["sigma_order"]:
            return "certificate order differs from the sigma order of Omega"
        if not answer["verified"]:
            return "certificate does not re-verify"
        if answer["reg"] != expect_reg:
            return f"reg = {answer['reg']}, expected {expect_reg}"
        return None


WORKLOADS = {
    w.name: w
    for w in [
        Linforms(),
        MonomialBetti(copies=3),
        Certificates(),
    ]
}
