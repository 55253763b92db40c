"""Command-line interface: parsing, output and the one error boundary.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (an
inequality that fails, a non-polymatroidal ideal, a missing order, ...)
and for `linforms reg` finding no certificate up to the cap (which proves
nothing: the search is one-sided), 2 for bad input.  Commands raise
ValueError for bad input (ParseError is one) and for a tripped guard;
`main` is the one place that turns it into exit 2 with a single
``input error: <message>`` line on stderr.  Any other exception, such as
a failed internal check, still propagates.
The library modules hold every guard, so a library caller meets the
same refusals; the commands here supply only the default caps.
Structured output is JSON with sorted keys, so a run with the same seed
and characteristic is byte-identical.
"""

from __future__ import annotations

import json
import sys

import click

from . import betti, check
from .chains import (
    ChainProductSpec,
    canonical_decomposition,
    certify_product,
    gamma,
    omega,
)
from .fixtures import run_fixtures
from .graded import GradedIdealView, least_certificate, saturation_degree
from .linforms import (
    is_linearly_general,
    primary_components,
    product_generators,
    verify_decomposition,
)
from .monomials import format_monomial, parse_monomial
from .parsing import parse_ideal_gens, parse_ideal_text, parse_linforms_text
from .polymatroid import (
    is_polymatroidal,
    polymatroidal_product,
    revlex_certificate,
    transversal_ideal,
)
from .quotients import QuotientCertificate, check_order, search_order


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
    input, reported as one ``input error:`` line and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)


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
    rep = verify_decomposition(fam, len(fam) + 3 if cap is None else cap)
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
    sp = saturation_degree(product_generators(fam), len(fam) if cap is None else cap)
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
    cap = len(fam) if cap is None else cap
    prod = product_generators(fam)
    cert = least_certificate(prod, cap)
    d = prod.max_gen_degree()
    payload = {"cap": cap, "characteristic": characteristic, "reg_lower": d}
    if cert is None:
        _emit(fmt,
              [f"no certificate for m = {d}..{cap}: reg not certified within cap"],
              {**payload, "certificate": None, "reg_upper": None})
        sys.exit(1)
    check(cert.verify(prod), lambda: f"certificate at m = {cert.m} fails its re-check")
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
    dec = canonical_decomposition(parse_monomial(monomial, nvars)[0])
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
