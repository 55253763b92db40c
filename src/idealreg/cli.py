"""Command-line interface.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (an
inequality that fails, a non-polymatroidal ideal, a missing order, ...)
and for `linforms reg` finding no certificate up to the cap (which proves
nothing: the search is one-sided), 2 for bad input.  Commands raise
ValueError for bad input (ParseError is one) and for a tripped guard;
`main` is the one place that turns it into exit 2 with a single
``input error: <message>`` line on stderr.  Any other exception, such as
a failed internal check, still propagates.
Structured output is JSON with sorted keys, so a run with the same seed
and characteristic is byte-identical.
"""

from __future__ import annotations

import json
import sys

import click

from . import betti
from .chains import (
    ChainProductSpec,
    canonical_decomposition,
    certify_product,
    gamma,
    omega,
)
from .fixtures import run_fixtures
from .graded import (
    GradedIdealView,
    ideal_product,
    least_certificate,
    ring_dim,
    saturation_degree,
)
from .linforms import (
    is_linearly_general,
    nonmaximal_components,
    primary_components,
    product_generators,
    verify_decomposition,
)
from .monomials import degree, format_monomial, parse_monomial
from .parsing import parse_ideal_gens, parse_ideal_text, parse_linforms_text
from .polymatroid import (
    is_polymatroidal,
    polymatroidal_product,
    revlex_certificate,
    transversal_ideal,
)
from .quotients import QuotientCertificate, check_order, search_order


# `linforms verify`, `sat` and `reg` sweep degrees up to the cap (sat and
# reg look for a certificate in each degree until one is found), and their
# pieces grow like cap^(n-1).  CAP_GUARD is the largest cap, given or
# default; the default grows with the number of factors, and
# `linforms sat` on 200 copies of (x1) in 2 variables (cap 200, the guard
# lifted) took 0.4 s.  PIECE_GUARD is the largest dim R_cap =
# C(cap+n-1, n-1), the column count of the top piece.  On two-factor
# families the sweeps at about 5000 columns took 2-10 s (2 cores, Python
# 3.11), and time grows faster than the column count.
#
# `linforms verify` also writes down the annihilators of the primary
# components' power pieces, one `power_annihilator` call over degrees
# d..cap per distinct non-maximal ideal I_A (maximal components and
# repeated ideals add nothing), and takes the rank of their stack in each
# degree.  SWEEP_GUARD bounds dim R_cap times the number of those ideals.
# The product side builds its pieces up to degree d + 1 and reads the
# dims above from a certificate at m = d; only without one are its pieces
# built up to the cap.  Timings of `linforms verify`, in-process, median
# of three runs (2 cores, Python 3.11):
#   (x1 + k x2), k = 0..9, default cap:              14 x 10 =    140 ->  0.04 s
#   (x1 + k x2 + k^2 x3), k = 0..10, default cap:   120 x 66 =  7 920 ->  0.6 s
#   (x1 + k x2 + k^2 x3), k = 0..5, cap 24:         325 x 21 =  6 825 ->  0.8 s
#   (x1), (x2) in 4 variables, cap 24:             2925 x 3  =  8 775 ->  0.14 s
#   (x1 + 2x2 + 3x3 + 5x4), (7x1 - 11x2 + 13x3 + 17x4),
#     cap 20:                                      1771 x 3  =  5 313 ->  2.6 s
#     cap 25:                                      3276 x 3  =  9 828 -> 10.9 s
#   nine 2-dimensional subspaces of R_1 in 4 variables, spanned by
#     (k, 2k+1, -3, 5-k), (7-k, 1, k^2-3, 2), k = 1..9,
#     default cap:                                  455 x 9  =  4 095 -> 12.8 s
#   (x1), (x2) in 4 variables, cap 29:             4960 x 3  = 14 880 (refused)
#   (x1), ..., (x5) in 5 variables, default cap:    495 x 30 = 14 850 (refused)
# The slowest are bound by QQ row reductions whose coefficients grow with
# the degree: the stacked rank on the two-line family, and on the nine
# subspaces the product side, which this guard does not count: its
# pieces in degrees 9 and 10 (about 5 s, 512 generators) and the
# certificate search on them (about 4.5 s).  GENERATOR_GUARD and
# PIECE_GUARD bound those.
CAP_GUARD = 32
PIECE_GUARD = 5000
SWEEP_GUARD = 10_000

# `betti` and `inequality` check each table against the Hilbert function
# up to the cap, which one walk counts over the monomials of x1..x_{n-1}
# of degree <= cap: dim R_cap = C(cap+n-1, n-1) of them.  The Hilbert
# values and the Euler check then run over the cap + 1 degrees, which is
# the whole work in one variable, where the walk is one monomial.
# WALK_GUARD bounds the walk plus the degrees for the cap each table
# uses, given by --cap or set by the ideal (`betti.table_cap`): one table
# for `betti`, those of I, J and IJ for `inequality`.  Timings of
# `betti`, in-process with the guard lifted (2 cores, Python 3.11; median
# of five, or one run where marked), as monomials + degrees -> time:
#   "ideal(d)", cap 100:          176 851 +       101 ->  0.18 s
#   "ideal(d)", cap 200:        1 373 701 +       201 ->  1.9 s
#   "ideal(d)", cap 228:        2 027 795 +       229 ->  2.0 s (refused)
#   "ideal(d)", cap 400:       10 827 401 +       401 -> 17.7 s (one, refused)
#   "ideal(a^100000)":                  1 +   100 002 ->  0.44 s
#   "ideal(a^1000000)":                 1 + 1 000 002 ->  3.0 s
#   "ideal(a^1999998)":                 1 + 2 000 000 ->  6.7 s (one, refused)
#   "ideal(a, b)", cap 1000000: 1 000 001 + 1 000 001 ->  3.3 s (one, refused)
# The shared host's speed swings these by up to 1.5x.  A degree costs two
# to three walk steps, but the guard counts both alike, so in one variable
# it admits runs of about 7 s.
WALK_GUARD = 2_000_000

# `hankel decompose` builds one gap chain per factor, and a monomial of
# degree d has at most d factors: "a^d" has exactly d.  DECOMPOSE_GUARD
# bounds d.  Timings, in-process with the guard lifted (2 cores, Python
# 3.11), median of three:
#   "a^10000":                  0.02 s
#   "a^100000":                 0.29 s,  32 MB
#   "x1^50000*x2^50000":        0.41 s
#   "a^1000000":                2.8 s,  150 MB (refused)
# Each factor is an n-tuple: "a^100000" took 1.3 s with --n 100.
DECOMPOSE_GUARD = 100_000


def _sweep_cap(cap, default, nvars):
    if cap is None:
        cap = default
    if cap > CAP_GUARD:
        raise ValueError(f"cap {cap} exceeds CAP_GUARD = {CAP_GUARD}")
    cols = ring_dim(nvars, cap)
    if cols > PIECE_GUARD:
        raise ValueError(
            f"degree-{cap} piece in {nvars} variables has {cols} columns, "
            f"above PIECE_GUARD = {PIECE_GUARD}"
        )
    return cap


def _check_walk(I, cap):
    cap = betti.table_cap(I, cap)
    count = ring_dim(I.nvars, cap)
    if count + cap + 1 > WALK_GUARD:
        raise ValueError(
            f"cap {cap} in {I.nvars} variables walks {count} monomials, "
            f"above WALK_GUARD = {WALK_GUARD} with its {cap + 1} degrees"
        )


def _fail_input(msg):
    click.echo(f"input error: {msg}", err=True)
    sys.exit(2)


def _emit(fmt, text_lines, payload):
    if fmt == "structured":
        click.echo(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in text_lines:
            click.echo(line)


def _parse_pair(ideal_i, ideal_j):
    """Two ``ideal(...)`` texts as monomial ideals in a common ambient."""
    I, J = parse_ideal_text(ideal_i), parse_ideal_text(ideal_j)
    n = max(I.nvars, J.nvars)
    return I.padded(n), J.padded(n)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "structured"]), default="text"
)
char_option = click.option("--char", "characteristic", type=int, default=0)


class _Main(click.Group):
    """The CLI's one error boundary: a ValueError from any command is bad
    input, reported by `_fail_input`."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            _fail_input(str(exc))


@click.group(cls=_Main)
def main():
    """Exact regularity and Betti computations for graded ideals."""


@main.command("betti")
@click.option("--ideal", required=True, help="ideal(...) in monomial syntax")
@click.option("--cap", type=int, default=None)
@char_option
@format_option
def betti_cmd(ideal, cap, characteristic, fmt):
    """Betti table and regularity of a monomial ideal."""
    I = GradedIdealView.from_monomial_ideal(parse_ideal_text(ideal), characteristic)
    _check_walk(I, cap)
    table = betti.betti_table(I, cap)
    reg = betti.regularity(I, cap)
    lines = [table.render(), f"reg = {reg.value}"]
    payload = {
        "entries": {f"{i},{j}": v for (i, j), v in table.entries.items()},
        "ideal_entries": {
            f"{i},{j}": v for (i, j), v in table.ideal_entries().items()
        },
        "cap": table.cap,
        "certified": table.certified,
        "characteristic": characteristic,
        "regularity": reg.value,
    }
    _emit(fmt, lines, payload)


@main.command("inequality")
@click.option("--ideal-i", "ideal_i", required=True)
@click.option("--ideal-j", "ideal_j", required=True)
@click.option("--cap", type=int, default=None)
@char_option
@format_option
def inequality_cmd(ideal_i, ideal_j, cap, characteristic, fmt):
    """Check reg(IJ) <= reg(I) + reg(J) for two monomial ideals."""
    mi, mj = _parse_pair(ideal_i, ideal_j)
    I = GradedIdealView.from_monomial_ideal(mi, characteristic)
    J = GradedIdealView.from_monomial_ideal(mj, characteristic)
    for K in (I, J, ideal_product(I, J)):
        _check_walk(K, cap)
    rep = betti.inequality_report(I, J, cap)
    lines = [
        f"reg(I) = {rep.reg_i.value}",
        f"reg(J) = {rep.reg_j.value}",
        f"reg(IJ) = {rep.reg_product.value}",
        f"inequality holds: {rep.holds}",
    ]
    payload = {
        "reg_i": rep.reg_i.value,
        "reg_j": rep.reg_j.value,
        "reg_product": rep.reg_product.value,
        "holds": rep.holds,
        "characteristic": characteristic,
    }
    _emit(fmt, lines, payload)
    sys.exit(0 if rep.holds else 1)


@main.group()
def quotients():
    """Linear-quotient certificates."""


@quotients.command("check")
@click.option("--ideal", required=True, help="generators in the order to check")
@format_option
def quotients_check(ideal, fmt):
    res = check_order(*parse_ideal_gens(ideal))
    if isinstance(res, QuotientCertificate):
        _emit(fmt, [res.render(), f"reg = {res.max_degree()}"],
              {"certificate": res.to_dict(), "reg": res.max_degree()})
        sys.exit(0)
    _emit(fmt, [f"fails at step {res.step}: colon generator "
                f"{format_monomial(res.offender)} has degree >= 2"],
          {"failure": {"step": res.step,
                       "offender": format_monomial(res.offender)}})
    sys.exit(1)


@quotients.command("search")
@click.option("--ideal", required=True)
@format_option
def quotients_search(ideal, fmt):
    cert = search_order(parse_ideal_text(ideal))
    if cert is None:
        _emit(fmt, ["no order exists"], {"order_exists": False})
        sys.exit(1)
    _emit(fmt, [cert.render(), f"reg = {cert.max_degree()}"],
          {"order_exists": True, "certificate": cert.to_dict(),
           "reg": cert.max_degree()})


@main.group()
def polymatroid():
    """Exchange-property checks and products."""


@polymatroid.command("check")
@click.option("--ideal", required=True)
@format_option
def polymatroid_check(ideal, fmt):
    res = is_polymatroidal(parse_ideal_text(ideal))
    if res is True:
        _emit(fmt, ["polymatroidal: true"], {"polymatroidal": True})
        sys.exit(0)
    _emit(fmt, [f"polymatroidal: false ({res.render()})"],
          {"polymatroidal": False,
           "witness": {"u": format_monomial(res.u), "v": format_monomial(res.v),
                       "index": res.index, "reason": res.reason}})
    sys.exit(1)


@polymatroid.command("product")
@click.option("--ideal-i", "ideal_i", required=True)
@click.option("--ideal-j", "ideal_j", required=True)
@format_option
def polymatroid_product(ideal_i, ideal_j, fmt):
    P = polymatroidal_product(*_parse_pair(ideal_i, ideal_j))
    cert = revlex_certificate(P)
    _emit(fmt, [str(P), f"reg = {cert.max_degree()}"],
          {"product": [format_monomial(g) for g in P.gens],
           "reg": cert.max_degree()})


@polymatroid.command("transversal")
@click.option("--n", "nvars", type=int, required=True)
@click.option("--subsets", required=True,
              help="semicolon-separated comma lists, e.g. '1,2;2,3'")
@format_option
def polymatroid_transversal(nvars, subsets, fmt):
    sets = [tuple(int(x) for x in chunk.split(",")) for chunk in subsets.split(";")]
    T = transversal_ideal(nvars, sets)
    _emit(fmt, [str(T)], {"generators": [format_monomial(g) for g in T.gens]})


@main.group()
def linforms():
    """Products of ideals of linear forms."""


@linforms.command("decompose")
@click.option("--family", required=True, help="linforms(...) matrices")
@char_option
@format_option
def linforms_decompose(family, characteristic, fmt):
    fam = parse_linforms_text(family, characteristic)
    comps = primary_components(fam)
    lines = []
    payload = []
    for c in comps:
        tag = " (maximal)" if c.is_maximal else ""
        lines.append(
            f"A = {set(c.subset)}: dim {c.ideal.dim} subspace, "
            f"exponent {c.exponent}{tag}"
        )
        payload.append({"subset": list(c.subset), "dim": c.ideal.dim,
                        "exponent": c.exponent, "maximal": c.is_maximal})
    _emit(fmt, lines, {"components": payload})


@linforms.command("verify")
@click.option("--family", required=True)
@click.option("--cap", type=int, default=None)
@char_option
@format_option
def linforms_verify(family, cap, characteristic, fmt):
    fam = parse_linforms_text(family, characteristic)
    cap = _sweep_cap(cap, len(fam) + 3, fam[0].nvars)
    cols = ring_dim(fam[0].nvars, cap)
    components = nonmaximal_components(fam)
    ideals = len(components)
    if cols * ideals > SWEEP_GUARD:
        raise ValueError(
            f"{cols} columns times {ideals} non-maximal component ideals "
            f"is {cols * ideals}, above SWEEP_GUARD = {SWEEP_GUARD}"
        )
    rep = verify_decomposition(fam, cap, components)
    payload = {
        "cap": rep.cap,
        "dims": {str(e): list(v) for e, v in rep.dims.items()},
        "containment_ok": rep.containment_ok,
        "equal": rep.equal,
    }
    _emit(fmt, [rep.render()], payload)
    sys.exit(0 if rep.equal else 1)


@linforms.command("general")
@click.option("--family", required=True)
@char_option
@format_option
def linforms_general(family, characteristic, fmt):
    fam = parse_linforms_text(family, characteristic)
    verdict = is_linearly_general(fam)
    _emit(fmt, [f"linearly general: {verdict}"], {"linearly_general": verdict})
    sys.exit(0 if verdict else 1)


@linforms.command("sat")
@click.option("--family", required=True)
@click.option("--cap", type=int, default=None)
@char_option
@format_option
def linforms_sat(family, cap, characteristic, fmt):
    fam = parse_linforms_text(family, characteristic)
    cap = _sweep_cap(cap, len(fam), fam[0].nvars)
    sp = saturation_degree(product_generators(fam), cap)
    sat = "not certified within cap" if sp.exceeds_cap else sp.sat_degree
    _emit(fmt, [f"sat = {sat} (cap {sp.cap})",
                f"profile: {sp.profile}"],
          {"sat": None if sp.exceeds_cap else sp.sat_degree, "cap": sp.cap,
           "profile": {str(e): v for e, v in sp.profile.items()}})


@linforms.command("reg")
@click.option("--family", required=True)
@click.option("--cap", type=int, default=None)
@char_option
@format_option
def linforms_reg(family, cap, characteristic, fmt):
    """Bayer-Stillman certificate of reg(I_1...I_d) <= m, least m up to the cap."""
    fam = parse_linforms_text(family, characteristic)
    cap = _sweep_cap(cap, len(fam), fam[0].nvars)
    prod = product_generators(fam)
    cert = least_certificate(prod, cap)
    d = prod.max_gen_degree()
    payload = {"cap": cap, "characteristic": characteristic, "reg_lower": d}
    if cert is None:
        _emit(fmt,
              [f"no certificate for m = {d}..{cap}: reg not certified within cap"],
              {**payload, "certificate": None, "reg_upper": None})
        sys.exit(1)
    if not cert.verify(prod):
        raise AssertionError(f"certificate at m = {cert.m} fails its re-check")
    m = cert.m
    lines = [f"certificate at m = {m} (cap {cap}): {d} <= reg <= {m}"]
    forms = [list(h) for h in cert.forms]
    lines += [f"h_{i} = {h}, dim (R/J_{i})_{m} = {a}"
              for i, (h, a) in enumerate(zip(forms, cert.dims), 1)]
    lines.append("re-checked from the generators: true")
    _emit(fmt, lines, {**payload, "reg_upper": m, "verified": True,
                       "certificate": {"m": m, "forms": forms,
                                       "dims": list(cert.dims)}})


@main.group()
def hankel():
    """Gap-chain ideals (initial ideals of Hankel minors)."""


@hankel.command("omega")
@click.option("--n", "nvars", type=int, required=True)
@click.option("--t", "sizes_text", required=True, help="comma list, e.g. 2,2")
@format_option
def hankel_omega(nvars, sizes_text, fmt):
    sizes = sorted(map(int, sizes_text.split(",")), reverse=True)
    om = omega(ChainProductSpec(nvars, tuple(sizes)))
    _emit(fmt, [f"|Omega| = {len(om.members)}"]
          + [format_monomial(m) for m in om.members],
          {"count": len(om.members),
           "members": [format_monomial(m) for m in om.members]})


@hankel.command("decompose")
@click.option("--monomial", required=True)
@click.option("--n", "nvars", type=int, default=None)
@format_option
def hankel_decompose(monomial, nvars, fmt):
    u = parse_monomial(monomial, nvars)[0]
    if degree(u) > DECOMPOSE_GUARD:
        raise ValueError(
            f"degree {degree(u)} is above DECOMPOSE_GUARD = {DECOMPOSE_GUARD}")
    dec = canonical_decomposition(u)
    gammas = {i: gamma(i, dec.shape) for i in range(1, dec.shape[0] + 1)}
    _emit(fmt, [dec.render(), f"shape = {dec.shape}", f"gamma = {gammas}"],
          {"factors": [format_monomial(f) for f in dec.factors],
           "shape": list(dec.shape),
           "gamma": {str(i): g for i, g in gammas.items()}})


@hankel.command("certify")
@click.option("--n", "nvars", type=int, required=True)
@click.option("--t", "sizes_text", required=True)
@format_option
def hankel_certify(nvars, sizes_text, fmt):
    sizes = sorted(map(int, sizes_text.split(",")), reverse=True)
    cert = certify_product(ChainProductSpec(nvars, tuple(sizes)), validate_pairs=False)
    _emit(fmt, [f"linear quotients certified for {len(cert.order)} generators",
                f"reg = {cert.max_degree()}"],
          {"generators": len(cert.order), "reg": cert.max_degree(),
           "certificate": cert.to_dict()})


@main.command("fixtures")
@click.option("--only", default=None, help="tag filter (regularity, linforms, quotients, polymatroid, chains)")
@format_option
def fixtures_cmd(only, fmt):
    """Run the worked-example suite."""
    results = run_fixtures(only)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in results]
    n_fail = sum(1 for _, ok in results if not ok)
    lines.append(f"{len(results) - n_fail}/{len(results)} passed")
    _emit(fmt, lines, {"results": {name: ok for name, ok in results},
                       "failed": n_fail})
    sys.exit(0 if n_fail == 0 else 1)


if __name__ == "__main__":
    main()
