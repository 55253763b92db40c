import json
import time
from itertools import combinations

import pytest
from click.testing import CliRunner

from idealreg import betti, linforms, quotients
from idealreg.cli import main
from idealreg.fields import PRIME_BOUND
from idealreg.graded import RegularityCertificate
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import format_monomial, monomial_basis
from idealreg.parsing import (
    ParseError,
    parse_ideal_text,
    parse_linforms_text,
)


def run(*args):
    return CliRunner().invoke(main, args)


HOOK = "ideal(a^2*b, a*b*c, b*c*d, c*d^2)"


def test_parse_ideal():
    I = parse_ideal_text(HOOK)
    assert I.nvars == 4 and len(I.gens) == 4
    assert parse_ideal_text(str(I)).gens == I.gens  # print/parse roundtrip


def test_parse_linforms():
    fam = parse_linforms_text("linforms([[1,0,0],[0,1,0]], [[0,1,0],[0,0,1]])")
    assert len(fam) == 2 and all(V.dim == 2 for V in fam)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ideal_text("ideal()")
    with pytest.raises(ParseError):
        parse_linforms_text("linforms([[1,0],[1]])")


def test_betti_command():
    r = run("betti", "--ideal", HOOK)
    assert r.exit_code == 0
    assert "reg = 3" in r.output and "certified = True" in r.output


def test_betti_structured_deterministic():
    a = run("betti", "--ideal", HOOK, "--format", "structured").output
    b = run("betti", "--ideal", HOOK, "--format", "structured").output
    assert a == b
    doc = json.loads(a)
    assert doc["regularity"] == 3 and doc["ideal_entries"] == {
        "0,3": 4, "1,4": 3,
    }


def test_inequality_exit_codes():
    r = run("inequality", "--ideal-i", "ideal(b, c)", "--ideal-j", HOOK)
    assert r.exit_code == 1 and "holds: False" in r.output
    r2 = run("inequality", "--ideal-i", "ideal(a, b, c, d)", "--ideal-j", HOOK)
    assert r2.exit_code == 0


def test_quotients_commands():
    r = run("quotients", "check", "--ideal", HOOK)
    assert r.exit_code == 0 and "reg = 3" in r.output
    r2 = run("quotients", "search", "--ideal", "ideal(a^2, a*b, b^3)")
    assert r2.exit_code == 0
    r3 = run("quotients", "search", "--ideal", "ideal(a^2*b, b^2*c, c^2*a)")
    assert r3.exit_code in (0, 1)


def test_cubic_square_no_order_via_cli():
    from idealreg.ideals import MonomialIdeal
    from idealreg.monomials import format_monomial, parse_monomial

    I = MonomialIdeal.from_gens(
        4,
        [
            parse_monomial(s, 4)[0]
            for s in ("a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
        ],
    )
    sq = I.product(I)
    text = "ideal(" + ", ".join(format_monomial(g) for g in sq.gens) + ")"
    r = run("quotients", "search", "--ideal", text)
    assert r.exit_code == 1 and "no order exists" in r.output


def test_polymatroid_commands():
    r = run("polymatroid", "check", "--ideal", HOOK)
    assert r.exit_code == 1 and "false" in r.output
    r2 = run("polymatroid", "check", "--ideal", "ideal(a, b)")
    assert r2.exit_code == 0
    r3 = run(
        "polymatroid", "product",
        "--ideal-i", "ideal(a, b)", "--ideal-j", "ideal(b, c)",
    )
    assert r3.exit_code == 0 and "reg = 2" in r3.output
    r4 = run("polymatroid", "transversal", "--n", "3", "--subsets", "1,2;2,3")
    assert r4.exit_code == 0 and "a*b" in r4.output


def test_linforms_commands():
    fam = "linforms([[1,0,0],[0,0,1]], [[0,1,0],[0,0,1]])"
    r = run("linforms", "verify", "--family", fam)
    assert r.exit_code == 0 and "degreewise: True" in r.output
    r2 = run("linforms", "decompose", "--family", fam)
    assert r2.exit_code == 0 and "exponent 2" in r2.output
    r3 = run("linforms", "general", "--family", fam)
    assert r3.exit_code == 0
    r4 = run("linforms", "sat", "--family", fam)
    assert r4.exit_code == 0 and "sat =" in r4.output


def test_linforms_sat_profile_of_a_cube_times_a_line():
    # I = (x, y)^3 (x - 3y) has I^sat = (x - 3y), one dimension short of it
    # in each degree 1..3
    r = run("linforms", "sat", "--family",
            "linforms([[1,0],[0,1]],[[1,0],[0,1]],[[1,0],[0,1]],[[1,-3]])",
            "--format", "structured")
    assert r.exit_code == 0
    assert json.loads(r.output) == {
        "sat": 4, "cap": 4, "profile": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 0}}


def test_linforms_sat_without_a_certificate_gives_no_number():
    # ab(a + b) over GF(2): every linear form over GF(2) divides it
    args = ("linforms", "sat", "--char", "2", "--family",
            "linforms([[1,0]],[[0,1]],[[1,1]])")
    r = run(*args)
    assert r.exit_code == 0
    assert "sat = not certified within cap (cap 3)" in r.output
    r = run(*args, "--format", "structured")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"sat": None, "cap": 3, "profile": {}}


def test_hankel_commands():
    r = run("hankel", "certify", "--n", "5", "--t", "2,2")
    assert r.exit_code == 0 and "reg = 4" in r.output
    r2 = run("hankel", "omega", "--n", "3", "--t", "2")
    assert r2.exit_code == 0 and "|Omega| = 1" in r2.output
    r3 = run(
        "hankel", "decompose", "--monomial", "x1^2*x2^3*x3^2*x5^3*x6*x7*x8^3"
    )
    assert r3.exit_code == 0 and "(4, 4, 3, 3, 1)" in r3.output


def test_fixtures_command():
    r = run("fixtures", "--only", "chains")
    assert r.exit_code == 0 and "2/2 passed" in r.output
    r2 = run("fixtures", "--only", "bogus")
    assert r2.exit_code == 2


def test_input_errors_exit_2():
    assert run("betti", "--ideal", "ideal()").exit_code == 2
    assert run("betti", "--ideal", "garbage").exit_code == 2
    assert run("linforms", "verify", "--family", "linforms()").exit_code == 2


def _assert_input_error(r):
    assert r.exit_code == 2 and r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


@pytest.mark.parametrize("char", ["1", "-3", "4", str(PRIME_BOUND + 2)])
def test_betti_bad_characteristic_exits_2(char):
    r = run("betti", "--ideal", HOOK, "--char", char)
    _assert_input_error(r)
    if int(char) >= PRIME_BOUND:
        reason = f"characteristic {char} is above the supported bound"
    else:
        reason = f"{char} is not prime"
    assert r.stderr == f"input error: {reason}\n"


def test_betti_cap_below_generator_degree_exits_2():
    _assert_input_error(
        run("betti", "--ideal", "ideal(a^2, a*b)", "--cap", "1")
    )


def test_inequality_bad_characteristic_and_cap_exit_2():
    _assert_input_error(
        run("inequality", "--ideal-i", "ideal(b)", "--ideal-j", HOOK,
            "--char", "4")
    )
    _assert_input_error(
        run("inequality", "--ideal-i", "ideal(b)", "--ideal-j", HOOK,
            "--cap", "2")
    )


TWO_LINES = "linforms([[1,0]],[[0,1]])"


@pytest.mark.parametrize("command", ["decompose", "verify", "sat", "general", "reg"])
def test_linforms_bad_characteristic_exits_2(command):
    r = run("linforms", command, "--family", TWO_LINES, "--char", "4")
    _assert_input_error(r)
    assert r.stderr == "input error: 4 is not prime\n"


@pytest.mark.parametrize("command", ["verify", "sat", "reg"])
def test_linforms_cap_below_product_degree_exits_2(command):
    r = run("linforms", command, "--family", TWO_LINES, "--cap", "0")
    _assert_input_error(r)
    assert "cap 0 below" in r.stderr and "degree 2" in r.stderr


def test_quotients_check_non_minimal_exits_2():
    r = run("quotients", "check", "--ideal", "ideal(a,a*b)")
    _assert_input_error(r)
    assert "not minimal: a divides a*b" in r.stderr


@pytest.mark.parametrize("command", ["omega", "certify"])
def test_hankel_enumeration_guard_exits_2(command):
    r = run("hankel", command, "--n", "30", "--t", "8,8,8")
    _assert_input_error(r)
    assert "ENUM_GUARD = 10000000" in r.stderr


@pytest.mark.parametrize("argv, product", [
    (("--monomial", "a^1000000"), "degree 1000000 times 1 variables is 1000000"),
    # each of the 100000 factors takes a pass over 1000 exponents
    (("--monomial", "a^100000", "--n", "1000"),
     "degree 100000 times 1000 variables is 100000000"),
])
def test_hankel_decompose_guard_exits_2(argv, product):
    r = run("hankel", "decompose", *argv)
    _assert_input_error(r)
    assert f"{product}, above DECOMPOSE_GUARD = 200000" in r.stderr


@pytest.mark.parametrize("command", [
    ("quotients", "check"), ("quotients", "search"), ("polymatroid", "check"),
])
def test_huge_exponents_get_a_verdict(command):
    # the generator index holds one entry per exponent that occurs, not one
    # per exponent up to the largest
    r = run(*command, "--ideal", "ideal(a^1000000000, b^1000000000)")
    assert r.exit_code == 1 and not r.stderr


def test_quotients_search_guard_exits_2():
    # the 28 quadrics in 7 variables are past SEARCH_GUARD = 24
    quadrics = ", ".join(format_monomial(m) for m in monomial_basis(7, 2))
    r = run("quotients", "search", "--ideal", f"ideal({quadrics})")
    _assert_input_error(r)
    assert "search guard exceeded: 28 > 24" in r.stderr


def test_linforms_decompose_primary_guard_exits_2():
    # 13 factors are past PRIMARY_GUARD = 12
    r = run("linforms", "decompose", "--family",
            "linforms(" + ", ".join(["[[1,0]]"] * 13) + ")")
    _assert_input_error(r)
    assert "too many factors: 13 > 12" in r.stderr


def test_linforms_general_primary_guard_exits_2():
    # `general` reads the same 2^d - 1 component ideals as `decompose`
    r = run("linforms", "general", "--family",
            "linforms(" + ", ".join(f"[[1,{k}]]" for k in range(13)) + ")")
    _assert_input_error(r)
    assert "too many factors: 13 > 12" in r.stderr


def test_polymatroid_transversal_guard_exits_2():
    # 7 copies of {1..14}: the product by the 7th subset brings the
    # exchange steps to 17767400, past TRANSVERSAL_GUARD = 10000000
    subsets = ";".join([",".join(map(str, range(1, 15)))] * 7)
    r = run("polymatroid", "transversal", "--n", "14", "--subsets", subsets)
    _assert_input_error(r)
    assert ("the products up to subset 7 take 17767400 exchange steps, "
            "above TRANSVERSAL_GUARD = 10000000") in r.stderr


@pytest.mark.parametrize("command", ["verify", "sat", "reg"])
def test_linforms_cap_guard_exits_2(command):
    # a cap past CAP_GUARD = 32 is refused before any degree is swept
    r = run("linforms", command, "--family", "linforms([[1,0]])",
            "--cap", "100000000000")
    _assert_input_error(r)
    assert "cap 100000000000 exceeds CAP_GUARD = 32" in r.stderr


@pytest.mark.parametrize("command", ["verify", "sat", "reg"])
def test_linforms_piece_guard_exits_2(command):
    # cap 32 passes CAP_GUARD, but R_32 in 5 variables has 58905 columns
    r = run("linforms", command, "--family",
            "linforms([[1,0,0,0,0]],[[0,1,0,0,0]])", "--cap", "32")
    _assert_input_error(r)
    assert "has 58905 columns, above PIECE_GUARD = 5000" in r.stderr


def test_linforms_piece_guard_checks_default_cap():
    # 8 factors in 10 variables: the default verify cap 11 gives 167960 columns
    family = "linforms(" + ", ".join(
        "[[" + ",".join("1" if j == i else "0" for j in range(10)) + "]]"
        for i in range(8)
    ) + ")"
    r = run("linforms", "verify", "--family", family)
    _assert_input_error(r)
    assert "degree-11 piece in 10 variables has 167960 columns" in r.stderr


def test_linforms_verify_sweep_guard_exits_2():
    # (x1), ..., (x5) in 5 variables: 495 columns at the default cap 8
    # times the 30 non-maximal component ideals (every I_A but A = {1..5})
    # is past SWEEP_GUARD = 10000
    family = "linforms(" + ", ".join(
        "[[" + ",".join("1" if j == i else "0" for j in range(5)) + "]]"
        for i in range(5)
    ) + ")"
    r = run("linforms", "verify", "--family", family)
    _assert_input_error(r)
    assert "is 14850, above SWEEP_GUARD = 10000" in r.stderr


def test_linforms_verify_sweep_guard_counts_distinct_nonmaximal_ideals():
    # ten lines in 2 variables: every I_A with |A| >= 2 is maximal, so 14
    # columns at the default cap 13 times 10 ideals is far inside the guard
    family = "linforms(" + ", ".join(f"[[1,{k}]]" for k in range(10)) + ")"
    r = run("linforms", "verify", "--family", family, "--format", "structured")
    assert r.exit_code == 0, r.output
    assert json.loads(r.stdout)["equal"] is True


@pytest.mark.parametrize("command", ["verify", "sat", "reg"])
def test_linforms_generator_guard_exits_2(command):
    # 7 copies of (x1, x2, x3) have 3^7 = 2187 product generators
    m = "[[1,0,0],[0,1,0],[0,0,1]]"
    r = run("linforms", command, "--family",
            "linforms(" + ", ".join([m] * 7) + ")", "--cap", "7")
    _assert_input_error(r)
    assert "too many product generators: 2187 > 1000" in r.stderr


def test_linforms_verify_computes_the_components_once(monkeypatch):
    # the SWEEP_GUARD count and the intersection side share one sweep of
    # the 2^d - 1 component sums
    calls = []
    real = linforms.primary_components

    def counting(family):
        calls.append(len(family))
        return real(family)

    monkeypatch.setattr(linforms, "primary_components", counting)
    r = run("linforms", "verify", "--family", LINES8)
    assert r.exit_code == 0, r.output
    assert calls == [8]


def test_linforms_sat_default_cap_guard_exits_2():
    # the default sat cap is the number of factors, here past CAP_GUARD
    r = run("linforms", "sat", "--family",
            "linforms(" + ", ".join(["[[1,0]]"] * 33) + ")")
    _assert_input_error(r)
    assert "cap 33 exceeds CAP_GUARD = 32" in r.stderr


# The three `test_walk_guard_*` tests keep the names of the CLI walk guard
# they were written for.  The Euler check's Hilbert values come from the
# Hilbert numerator, which NUMERATOR_GUARD in `ideals` bounds on its own
# counted steps, for CLI and library callers alike.
@pytest.mark.parametrize("argv", [
    ("betti", "--ideal", "ideal(a*b, c*d)"),
    ("inequality", "--ideal-i", "ideal(a*b)", "--ideal-j", "ideal(c*d)"),
])
def test_walk_guard_exits_2(argv):
    # the prefix sums of the Hilbert values in 4 variables up to degree
    # 10^7 alone count 4 * (10^7 + 1) slots of 100 steps each
    t0 = time.perf_counter()
    r = run(*argv, "--cap", "10000000")
    assert time.perf_counter() - t0 < 1.0
    _assert_input_error(r)
    assert ("in 4 variables up to degree 10000000 passes NUMERATOR_GUARD = 1000000000"
            in r.stderr)


@pytest.mark.parametrize("argv", [
    ("betti", "--ideal", "ideal(a^100000000)"),
    ("inequality", "--ideal-i", "ideal(a^100000000)", "--ideal-j", "ideal(a)"),
])
def test_walk_guard_counts_the_degrees_of_the_cap(argv):
    # one generator, but the default cap 100000001 has 100000002 degrees
    t0 = time.perf_counter()
    r = run(*argv)
    assert time.perf_counter() - t0 < 1.0
    _assert_input_error(r)
    assert ("Hilbert numerator of 1 generators in 1 variables up to degree "
            "100000001 passes NUMERATOR_GUARD" in r.stderr)


@pytest.mark.parametrize("argv", [
    ("betti", "--ideal", "ideal(x16)"),
    ("inequality", "--ideal-i", "ideal(x16)", "--ideal-j", "ideal(x1)"),
])
def test_walk_guard_checks_default_cap(argv):
    # the default cap 1 + 16 in 16 variables, where the numerator of one
    # linear generator is 1 - t
    t0 = time.perf_counter()
    r = run(*argv)
    assert time.perf_counter() - t0 < 1.0
    assert r.exit_code == 0, r.output
    assert r.stderr == ""


def test_betti_takes_the_lcm_once_per_table(monkeypatch):
    # the Taylor cap, `certified` and the Koszul route share one lcm
    calls = {"lcm": 0, "table": 0}
    lcm, table = MonomialIdeal.lcm_of_gens, betti.betti_table

    def counted_lcm(self):
        calls["lcm"] += 1
        return lcm(self)

    def counted_table(*args):
        calls["table"] += 1
        return table(*args)

    monkeypatch.setattr(MonomialIdeal, "lcm_of_gens", counted_lcm)
    monkeypatch.setattr(betti, "betti_table", counted_table)
    r = run("betti", "--ideal", "ideal(a^2*b, b*c^2, c*d)")
    assert r.exit_code == 0, r.output
    assert calls["table"] >= 1 and calls["lcm"] == calls["table"]


def test_koszul_fallback_stops_listing_divisors_at_the_guard(monkeypatch):
    # four coprime blocks a^4*b^4, c^4*d^4, ... in 8 variables have no
    # linear quotients, and 24^4 = 331776 standard divisors of their lcm,
    # past MULTIDEGREE_GUARD >> 8 = 39062: the listing stops one run of
    # the last variable past that
    listed = []
    divisors = MonomialIdeal.standard_divisors_of

    def counted(self, *args):
        out = divisors(self, *args)
        listed.append(len(out))
        return out

    monkeypatch.setattr(MonomialIdeal, "standard_divisors_of", counted)
    r = run("betti", "--ideal", "ideal(a^4*b^4, c^4*d^4, e^4*f^4, g^4*h^4)",
            "--cap", "8")
    _assert_input_error(r)
    assert "multidegree enumeration guard exceeded" in r.stderr
    assert listed and max(listed) <= (betti.MULTIDEGREE_GUARD >> 8) + 5


def test_betti_refuses_a_large_generator_index_before_building_it(monkeypatch):
    # the 4950 products x_i*x_j of 100 variables: r^2 n = 2450250000 bits,
    # past INDEX_GUARD; the refusal comes before any index is built
    builds = []
    index = quotients.GeneratorIndex.__init__

    def counted(self, gens):
        builds.append(len(gens))
        index(self, gens)

    monkeypatch.setattr(quotients.GeneratorIndex, "__init__", counted)
    text = "ideal(" + ", ".join(f"x{i}*x{j}" for i, j in combinations(range(1, 101), 2)) + ")"
    t0 = time.perf_counter()
    r = run("betti", "--ideal", text, "--cap", "2")
    assert time.perf_counter() - t0 < 1.0
    _assert_input_error(r)
    assert ("generator index of 4950 generators in 100 variables: r^2 n = 2450250000 "
            "bits, above INDEX_GUARD" in r.stderr)
    assert builds == []


@pytest.mark.parametrize("argv", [
    ("betti", "--ideal", "ideal(x30000000)"),
    ("betti", "--ideal", "ideal(x3000000)"),
    ("inequality", "--ideal-i", "ideal(a)", "--ideal-j", "ideal(x3000000)"),
    ("quotients", "search", "--ideal", "ideal(x3000000)"),
    ("quotients", "check", "--ideal", "ideal(x3000000)"),
    ("polymatroid", "transversal", "--n", "30000000", "--subsets", "1"),
    ("hankel", "decompose", "--monomial", "a", "--n", "30000000"),
    # each text is admitted, but not the 3160 quadrics padded to 58823 variables
    ("inequality", "--ideal-i", "ideal(x58823)", "--ideal-j", "ideal(" + ", ".join(
        f"x{i}*x{j}" for i, j in combinations(range(1, 81), 2)) + ")"),
], ids=["betti-30M", "betti-3M", "inequality", "quotients-search",
        "quotients-check", "polymatroid-transversal", "hankel-decompose",
        "inequality-padded"])
def test_a_large_ambient_is_refused_before_any_tuple_is_built(argv):
    # every layer holds n-long tuples and per-variable sets: the ambient is
    # weighed where it enters, the text or --n
    t0 = time.perf_counter()
    r = run(*argv)
    assert time.perf_counter() - t0 < 1.0
    _assert_input_error(r)
    assert "cells, above AMBIENT_GUARD = 1000000" in r.stderr


@pytest.mark.parametrize("body", ["x", "{[1]}", "[[1,0]],,"])
def test_bad_linforms_body_stderr_is_deterministic(body):
    family = f"linforms({body})"
    first = run("linforms", "sat", "--family", family)
    second = run("linforms", "sat", "--family", family)
    _assert_input_error(first)
    assert first.stderr == second.stderr
    assert "0x" not in first.stderr and "bad matrix list" in first.stderr


def test_failed_check_is_not_reported_as_input_error(monkeypatch):
    # only ValueError means bad input; a failed internal check propagates
    def broken(I, cap=None):
        raise AssertionError("koszul composite not zero")

    monkeypatch.setattr(betti, "betti_table", broken)
    r = run("betti", "--ideal", HOOK)
    assert r.exit_code != 2 and isinstance(r.exception, AssertionError)
    assert "input error" not in r.stderr


# `linforms verify --format structured` stdout and exit code on three
# families, as the all-components intersection gives them; a shortcut on
# the intersection side must keep them byte for byte.
PINCHED3 = "linforms([[1,0,0,0],[0,0,0,1]],[[0,1,0,0],[0,0,0,1]],[[0,0,1,0],[0,0,0,1]])"
LINES8 = "linforms(" + ", ".join(f"[[1,{k}]]" for k in range(8)) + ")"
CHAR2 = "linforms([[1,1,0],[0,1,1]],[[1,0,1]],[[1,1,1]],[[0,1,0]])"
VERIFY_GOLDEN = [
    (("--family", PINCHED3), 0,
     '{"cap": 6, "containment_ok": true, "dims": {"0": [0, 0], "1": [0, 0], "2": [0, 0], "3": [8, 8], "4": [20, 20], "5": [38, 38], "6": [63, 63]}, "equal": true}\n'),
    (("--family", LINES8, "--cap", "32"), 0,
     '{"cap": 32, "containment_ok": true, "dims": {"0": [0, 0], "1": [0, 0], "10": [3, 3], "11": [4, 4], "12": [5, 5], "13": [6, 6], "14": [7, 7], "15": [8, 8], "16": [9, 9], "17": [10, 10], "18": [11, 11], "19": [12, 12], "2": [0, 0], "20": [13, 13], "21": [14, 14], "22": [15, 15], "23": [16, 16], "24": [17, 17], "25": [18, 18], "26": [19, 19], "27": [20, 20], "28": [21, 21], "29": [22, 22], "3": [0, 0], "30": [23, 23], "31": [24, 24], "32": [25, 25], "4": [0, 0], "5": [0, 0], "6": [0, 0], "7": [0, 0], "8": [1, 1], "9": [2, 2]}, "equal": true}\n'),
    (("--family", CHAR2, "--char", "2"), 0,
     '{"cap": 7, "containment_ok": true, "dims": {"0": [0, 0], "1": [0, 0], "2": [0, 0], "3": [0, 0], "4": [2, 2], "5": [5, 5], "6": [9, 9], "7": [14, 14]}, "equal": true}\n'),
]


@pytest.mark.parametrize("args,code,stdout", VERIFY_GOLDEN)
def test_linforms_verify_structured_golden(args, code, stdout):
    r = run("linforms", "verify", "--format", "structured", *args)
    assert r.exit_code == code
    assert r.stdout == stdout


# `--format structured` stdout, stderr and exit code of the certificate
# commands, as the pairwise colon and exchange scans gave them: a failing
# exchange (the hook), failing orders, a mixed-degree order and a
# same-degree sequence with a repeated generator.  The bitset route for
# equigenerated inputs must keep them byte for byte, and so must the
# must-precede pruning of the order search: the searches include ideals of
# several degrees and 24 generators, at SEARCH_GUARD.
CERT_GOLDEN = [
    (('quotients', 'check', '--ideal', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)'),
     0, '{"certificate": {"colon_vars": [[], [1], [1], [2]], "nvars": 4, "order": ["a^2*b", "a*b*c", "b*c*d", "c*d^2"]}, "reg": 3}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(a^2*b, a^2*c, a*c^2, b*c^2, a*c*d)'),
     0, '{"certificate": {"colon_vars": [[], [2], [1], [1], [1, 3]], "nvars": 4, "order": ["a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d"]}, "reg": 3}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(c*d^2, a^2*b, a*b*c, b*c*d)'),
     1, '{"failure": {"offender": "c*d^2", "step": 2}}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(a*b, c*d)'),
     1, '{"failure": {"offender": "a*b", "step": 2}}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(a^2, a*b, b^3)'),
     0, '{"certificate": {"colon_vars": [[], [1], [1]], "nvars": 2, "order": ["a^2", "a*b", "b^3"]}, "reg": 3}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(b^3, a^2, a*c)'),
     1, '{"failure": {"offender": "b^3", "step": 2}}\n',
     ''),
    (('quotients', 'check', '--ideal', 'ideal(a*b, b*c, a*b)'),
     2, '',
     'input error: generating sequence is not minimal: a*b divides a*b\n'),
    (('quotients', 'check', '--ideal', 'ideal(a*b, b*c, c*d, a*d)'),
     0, '{"certificate": {"colon_vars": [[], [1], [2], [2, 3]], "nvars": 4, "order": ["a*b", "b*c", "c*d", "a*d"]}, "reg": 2}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)'),
     0, '{"certificate": {"colon_vars": [[], [1], [1], [2]], "nvars": 4, "order": ["a^2*b", "a*b*c", "b*c*d", "c*d^2"]}, "order_exists": true, "reg": 3}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a^2, a*b, b^3)'),
     0, '{"certificate": {"colon_vars": [[], [1], [1]], "nvars": 2, "order": ["a^2", "a*b", "b^3"]}, "order_exists": true, "reg": 3}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a^2*b, b^2*c, c^2*a)'),
     1, '{"order_exists": false}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a*b, c*d)'),
     1, '{"order_exists": false}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a*b, c*d, a*c^2)'),
     1, '{"order_exists": false}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(b*c, a*d, a*b, c*d)'),
     0, '{"certificate": {"colon_vars": [[], [1], [2], [1, 2]], "nvars": 4, "order": ["a*b", "b*c", "a*d", "c*d"]}, "order_exists": true, "reg": 2}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a^3, a^2*b, a*b^2, b^3)'),
     0, '{"certificate": {"colon_vars": [[], [1], [1], [1]], "nvars": 2, "order": ["a^3", "a^2*b", "a*b^2", "b^3"]}, "order_exists": true, "reg": 3}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(d, c*e, a^2*b, a^2*c, b^3*c)'),
     1, '{"order_exists": false}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(c, a^2, a*b, b^2)'),
     0, '{"certificate": {"colon_vars": [[], [3], [1, 3], [1, 3]], "nvars": 3, "order": ["c", "a^2", "a*b", "b^2"]}, "order_exists": true, "reg": 2}\n',
     ''),
    (('quotients', 'search', '--ideal', 'ideal(a^3, a^2*b, a^2*c, a*b^2, a*b*c, a*b*e, a*c*d, a*c*e, a*d^2, a*e^2, b^2*c, b^2*d, b*c^2, b*c*d, b*c*e, b*d^2, b*d*e, b*e^2, c^2*d, c^2*e, c*d*e, c*e^2, d^2*e, d*e^2)'),
     1, '{"order_exists": false}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)'),
     1, '{"polymatroidal": false, "witness": {"index": 2, "reason": "no exchange index", "u": "a^2*b", "v": "c*d^2"}}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a, b)'),
     0, '{"polymatroidal": true}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a^2, a*b, a*c, b^2, b*c, c^2)'),
     0, '{"polymatroidal": true}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a*b, c*d)'),
     1, '{"polymatroidal": false, "witness": {"index": 1, "reason": "no exchange index", "u": "a*b", "v": "c*d"}}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a, b^2)'),
     1, '{"polymatroidal": false, "witness": {"index": 0, "reason": "not equigenerated", "u": "a", "v": "b^2"}}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a^2, a*b, a*c, b^2, c^2)'),
     1, '{"polymatroidal": false, "witness": {"index": 1, "reason": "no exchange index", "u": "a*b", "v": "c^2"}}\n',
     ''),
    (('polymatroid', 'check', '--ideal', 'ideal(a*b*c, a*b*d, a*c*d, b*c*e)'),
     1, '{"polymatroidal": false, "witness": {"index": 1, "reason": "no exchange index", "u": "a*b*d", "v": "b*c*e"}}\n',
     ''),
    (('polymatroid', 'product', '--ideal-i', 'ideal(a, b)', '--ideal-j', 'ideal(b, c)'),
     0, '{"product": ["a*b", "a*c", "b^2", "b*c"], "reg": 2}\n',
     ''),
    (('polymatroid', 'product', '--ideal-i', 'ideal(a*b, a*c, b*c)', '--ideal-j', 'ideal(a^2, a*b, b^2)'),
     0, '{"product": ["a^3*b", "a^3*c", "a^2*b^2", "a^2*b*c", "a*b^3", "a*b^2*c", "b^3*c"], "reg": 4}\n',
     ''),
    (('polymatroid', 'product', '--ideal-i', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)', '--ideal-j', 'ideal(a, b)'),
     2, '',
     'input error: factor not polymatroidal: exchange fails for u = a^2*b, v = c*d^2, i = x2: no exchange index\n'),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", CERT_GOLDEN,
                         ids=[" ".join(g[0]) for g in CERT_GOLDEN])
def test_certificate_commands_structured_golden(argv, code, stdout, stderr):
    r = run(*argv, "--format", "structured")
    assert r.exit_code == code
    assert r.stdout == stdout
    assert r.stderr == stderr


# `betti` and `inequality` on relabelled chain products, mixed-degree
# ideals with and without linear quotients, the projective plane in
# characteristics 0 and 2, and caps below the Taylor cap, recorded before
# tables were read off linear-quotient orders.  Both routes must keep them
# byte for byte.
BETTI_GOLDEN = [
    (('betti', '--ideal', 'ideal(c*d^2, b*d^2, a*c*d, a*b*d, c^2*d, b*c*d, b^2*d, a^2*b, a*b*c, a*b^2)'),
     0, '{"cap": 8, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,3": 10, "2,4": 18, "3,5": 12, "4,6": 3}, "ideal_entries": {"0,3": 10, "1,4": 18, "2,5": 12, "3,6": 3}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^2*b^2, a^2*b*c, a^2*b*e, a^2*c^2, a^2*c*e, a^2*e^2, a*b*c*d, a*b*d*e, a*c^2*d, a*c*d*e, a*d*e^2, a*b^2*e, a*b*c*e, a*b*e^2, c^2*d^2, c*d^2*e, d^2*e^2, b*c*d*e, b*d*e^2, b^2*e^2)'),
     0, '{"cap": 10, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,4": 20, "2,5": 40, "3,6": 28, "4,7": 8, "5,8": 1}, "ideal_entries": {"0,4": 20, "1,5": 40, "2,6": 28, "3,7": 8, "4,8": 1}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^4, a^3*b, a^3*c, a^2*b^2, a^2*b*c, a^2*c^2, a*b^3, a*b^2*c, a*b*c^2, a*c^3, b^4, b^3*c, b^2*c^2, b*c^3, c^4)', '--char', '2'),
     0, '{"cap": 12, "certified": true, "characteristic": 2, "entries": {"0,0": 1, "1,4": 15, "2,5": 24, "3,6": 10}, "ideal_entries": {"0,4": 15, "1,5": 24, "2,6": 10}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(c^2*d*f, b*c^2*d, a*b*c^2, c*d*e*f, b*c*d*e, a*b*c*e, c*d^2*f, b*c*d^2, a*c*d*f, a*b*c*d, c*d*f^2, b*c*d*f, b^2*c*d, a^2*b*c, a*b*c*f, a*b^2*c, a*b*e^2, a*b*d*e, a^2*b*e, a*b*e*f, a*b^2*e)'),
     0, '{"cap": 12, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,4": 21, "2,5": 60, "3,6": 80, "4,7": 60, "5,8": 24, "6,9": 4}, "ideal_entries": {"0,4": 21, "1,5": 60, "2,6": 80, "3,7": 60, "4,8": 24, "5,9": 4}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^2, a*b, b^3)'),
     0, '{"cap": 5, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,2": 2, "1,3": 1, "2,3": 1, "2,4": 1}, "ideal_entries": {"0,2": 2, "0,3": 1, "1,3": 1, "1,4": 1}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a, b^2, b*c, c^3)', '--char', '32003'),
     0, '{"cap": 6, "certified": true, "characteristic": 32003, "entries": {"0,0": 1, "1,1": 1, "1,2": 2, "1,3": 1, "2,3": 3, "2,4": 2, "3,4": 1, "3,5": 1}, "ideal_entries": {"0,1": 1, "0,2": 2, "0,3": 1, "1,3": 3, "1,4": 2, "2,4": 1, "2,5": 1}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b, b*c, a^2*c, c^3*d)'),
     0, '{"cap": 8, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,2": 2, "1,3": 1, "1,4": 1, "2,3": 1, "2,4": 1, "2,5": 1, "2,6": 1, "3,7": 1}, "ideal_entries": {"0,2": 2, "0,3": 1, "0,4": 1, "1,3": 1, "1,4": 1, "1,5": 1, "1,6": 1, "2,7": 1}, "regularity": 5}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b, b*c, a^2*c, b^3*d)'),
     0, '{"cap": 8, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,2": 2, "1,3": 1, "1,4": 1, "2,3": 1, "2,4": 1, "2,5": 2, "3,6": 1}, "ideal_entries": {"0,2": 2, "0,3": 1, "0,4": 1, "1,3": 1, "1,4": 1, "1,5": 2, "2,6": 1}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a, b*c, b^2*d, c^3*d^2)', '--char', '2'),
     0, '{"cap": 9, "certified": true, "characteristic": 2, "entries": {"0,0": 1, "1,1": 1, "1,2": 1, "1,3": 1, "1,5": 1, "2,3": 1, "2,4": 2, "2,6": 2, "3,5": 1, "3,7": 1}, "ideal_entries": {"0,1": 1, "0,2": 1, "0,3": 1, "0,5": 1, "1,3": 1, "1,4": 2, "1,6": 2, "2,5": 1, "2,7": 1}, "regularity": 5}\n',
     ''),
    (('betti', '--ideal', 'ideal(a, b*c, b^2*d, c^3*d^2)', '--cap', '6'),
     0, '{"cap": 6, "certified": false, "characteristic": 0, "entries": {"0,0": 1, "1,1": 1, "1,2": 1, "1,3": 1, "1,5": 1, "2,3": 1, "2,4": 2, "2,6": 2, "3,5": 1}, "ideal_entries": {"0,1": 1, "0,2": 1, "0,3": 1, "0,5": 1, "1,3": 1, "1,4": 2, "1,6": 2, "2,5": 1}, "regularity": 5}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)'),
     0, '{"cap": 7, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,3": 4, "2,4": 3}, "ideal_entries": {"0,3": 4, "1,4": 3}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b*d, a*b*e, a*c*e, a*c*f, a*d*f, b*c*d, b*c*f, b*e*f, c*d*e, d*e*f)'),
     0, '{"cap": 9, "certified": true, "characteristic": 0, "entries": {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6}, "ideal_entries": {"0,3": 10, "1,4": 15, "2,5": 6}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b*d, a*b*e, a*c*e, a*c*f, a*d*f, b*c*d, b*c*f, b*e*f, c*d*e, d*e*f)', '--char', '2'),
     0, '{"cap": 9, "certified": true, "characteristic": 2, "entries": {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6, "3,6": 1, "4,6": 1}, "ideal_entries": {"0,3": 10, "1,4": 15, "2,5": 6, "2,6": 1, "3,6": 1}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b*d, a*b*e, a*c*e, a*c*f, a*d*f, b*c*d, b*c*f, b*e*f, c*d*e, d*e*f)', '--char', '2', '--cap', '5'),
     0, '{"cap": 5, "certified": false, "characteristic": 2, "entries": {"0,0": 1, "1,3": 10, "2,4": 15, "3,5": 6}, "ideal_entries": {"0,3": 10, "1,4": 15, "2,5": 6}, "regularity": 3}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^2*b^2, a^2*b*c, a^2*b*e, a^2*c^2, a^2*c*e, a^2*e^2, a*b*c*d, a*b*d*e, a*c^2*d, a*c*d*e, a*d*e^2, a*b^2*e, a*b*c*e, a*b*e^2, c^2*d^2, c*d^2*e, d^2*e^2, b*c*d*e, b*d*e^2, b^2*e^2)', '--cap', '5'),
     0, '{"cap": 5, "certified": false, "characteristic": 0, "entries": {"0,0": 1, "1,4": 20, "2,5": 40}, "ideal_entries": {"0,4": 20, "1,5": 40}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a*b, b*c, a^2*c, c^3*d)', '--cap', '4'),
     0, '{"cap": 4, "certified": false, "characteristic": 0, "entries": {"0,0": 1, "1,2": 2, "1,3": 1, "1,4": 1, "2,3": 1, "2,4": 1}, "ideal_entries": {"0,2": 2, "0,3": 1, "0,4": 1, "1,3": 1, "1,4": 1}, "regularity": 4}\n',
     ''),
    (('betti', '--ideal', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)', '--cap', '2'),
     2, '',
     'input error: cap below the largest generator degree\n'),
    (('inequality', '--ideal-i', 'ideal(a^2*b, a*b*c, b*c*d, c*d^2)', '--ideal-j', 'ideal(b, c)'),
     1, '{"characteristic": 0, "holds": false, "reg_i": 3, "reg_j": 1, "reg_product": 5}\n',
     ''),
    (('inequality', '--ideal-i', 'ideal(a*b, a*d, c*d)', '--ideal-j', 'ideal(d, c, b, a)'),
     0, '{"characteristic": 0, "holds": true, "reg_i": 2, "reg_j": 1, "reg_product": 3}\n',
     ''),
    (('inequality', '--ideal-i', 'ideal(a^2, a*b, b^3)', '--ideal-j', 'ideal(a, b^2, b*c, c^3)'),
     0, '{"characteristic": 0, "holds": true, "reg_i": 3, "reg_j": 3, "reg_product": 6}\n',
     ''),
    (('inequality', '--ideal-i', 'ideal(a*b, b*c, a^2*c, b^3*d)', '--ideal-j', 'ideal(a, b*c, b^2*d, c^3*d^2)'),
     0, '{"characteristic": 0, "holds": true, "reg_i": 4, "reg_j": 5, "reg_product": 8}\n',
     ''),
    (('inequality', '--ideal-i', 'ideal(a*b*d, a*b*e, a*c*e, a*c*f, a*d*f, b*c*d, b*c*f, b*e*f, c*d*e, d*e*f)', '--ideal-j', 'ideal(a, b)', '--char', '2'),
     0, '{"characteristic": 2, "holds": true, "reg_i": 4, "reg_j": 1, "reg_product": 4}\n',
     ''),
    (('inequality', '--ideal-i', 'ideal(a*b, b*c, a^2*c, c^3*d)', '--ideal-j', 'ideal(a, c)', '--cap', '7'),
     0, '{"characteristic": 0, "holds": true, "reg_i": 5, "reg_j": 1, "reg_product": 5}\n',
     ''),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", BETTI_GOLDEN,
                         ids=[" ".join(g[0])[:60] for g in BETTI_GOLDEN])
def test_betti_commands_structured_golden(argv, code, stdout, stderr):
    r = run(*argv, "--format", "structured")
    assert r.exit_code == code
    assert r.stdout == stdout
    assert r.stderr == stderr


# `hankel omega`, `certify` and `decompose` on small chain products,
# unsorted sizes, a size out of range, the unit monomial and a degree
# past the enumeration guard, recorded while Omega was sorted by `sigma_compare` and its
# membership tested monomial by monomial.  The sort by factor tuples and
# the membership decided once per shape must keep them byte for byte.
HANKEL_GOLDEN = [
    (('hankel', 'omega', '--n', '3', '--t', '2'),
     0, '{"count": 1, "members": ["a*c"]}\n',
     ''),
    (('hankel', 'omega', '--n', '3', '--t', '1'),
     0, '{"count": 3, "members": ["a", "b", "c"]}\n',
     ''),
    (('hankel', 'omega', '--n', '4', '--t', '1,1'),
     0, '{"count": 10, "members": ["a*c", "a*d", "a^2", "a*b", "b*d", "b^2", "b*c", "c^2", "c*d", "d^2"]}\n',
     ''),
    (('hankel', 'omega', '--n', '5', '--t', '1,2'),
     0, '{"count": 22, "members": ["a*c*e", "a^2*c", "a*b*c", "a*c^2", "a*c*d", "a^2*d", "a*b*d", "a*d^2", "a*d*e", "a^2*e", "a*b*e", "a*e^2", "b^2*d", "b*c*d", "b*d^2", "b*d*e", "b^2*e", "b*c*e", "b*e^2", "c^2*e", "c*d*e", "c*e^2"]}\n',
     ''),
    (('hankel', 'omega', '--n', '6', '--t', '2,2'),
     0, '{"count": 49, "members": ["a^2*c*e", "a*b*c*e", "a*c^2*e", "a*c*d*e", "a*c*e^2", "a*c*e*f", "a^2*c*f", "a*b*c*f", "a*c^2*f", "a*c*d*f", "a*c*f^2", "a^2*c^2", "a^2*c*d", "a*b*c*d", "a^2*d*f", "a*b*d*f", "a*d^2*f", "a*d*e*f", "a*d*f^2", "a^2*d^2", "a^2*d*e", "a*b*d^2", "a*b*d*e", "a^2*e^2", "a^2*e*f", "a*b*e^2", "a*b*e*f", "a^2*f^2", "a*b*f^2", "b^2*d*f", "b*c*d*f", "b*d^2*f", "b*d*e*f", "b*d*f^2", "b^2*d^2", "b^2*d*e", "b*c*d*e", "b^2*e^2", "b^2*e*f", "b*c*e^2", "b*c*e*f", "b^2*f^2", "b*c*f^2", "c^2*e^2", "c^2*e*f", "c*d*e*f", "c^2*f^2", "c*d*f^2", "d^2*f^2"]}\n',
     ''),
    (('hankel', 'omega', '--n', '7', '--t', '3,1'),
     0, '{"count": 55, "members": ["a*c*e*g", "a^2*c*e", "a*b*c*e", "a*c^2*e", "a*c*d*e", "a*c*e^2", "a*c*e*f", "a^2*c*f", "a*b*c*f", "a*c^2*f", "a*c*d*f", "a*c*f^2", "a*c*f*g", "a^2*c*g", "a*b*c*g", "a*c^2*g", "a*c*d*g", "a*c*g^2", "a^2*d*f", "a*b*d*f", "a*d^2*f", "a*d*e*f", "a*d*f^2", "a*d*f*g", "a^2*d*g", "a*b*d*g", "a*d^2*g", "a*d*e*g", "a*d*g^2", "a^2*e*g", "a*b*e*g", "a*e^2*g", "a*e*f*g", "a*e*g^2", "b^2*d*f", "b*c*d*f", "b*d^2*f", "b*d*e*f", "b*d*f^2", "b*d*f*g", "b^2*d*g", "b*c*d*g", "b*d^2*g", "b*d*e*g", "b*d*g^2", "b^2*e*g", "b*c*e*g", "b*e^2*g", "b*e*f*g", "b*e*g^2", "c^2*e*g", "c*d*e*g", "c*e^2*g", "c*e*f*g", "c*e*g^2"]}\n',
     ''),
    (('hankel', 'omega', '--n', '4', '--t', '3'),
     2, '',
     'input error: size 3 outside 1..2 for n = 4\n'),
    (('hankel', 'omega', '--n', '30', '--t', '8,8,8'),
     2, '',
     'input error: enumeration guard exceeded: 779255311989700 monomials of degree 24 > ENUM_GUARD = 10000000\n'),
    (('hankel', 'certify', '--n', '4', '--t', '2'),
     0, '{"certificate": {"colon_vars": [[], [3], [1]], "nvars": 4, "order": ["a*c", "a*d", "b*d"]}, "generators": 3, "reg": 2}\n',
     ''),
    (('hankel', 'certify', '--n', '5', '--t', '2,2'),
     0, '{"certificate": {"colon_vars": [[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [5], [3, 5], [1, 5], [3], [3, 4], [1, 3], [1, 3, 4], [3, 4], [1, 3, 4], [1], [1, 4], [1, 2], [1, 4], [1, 2, 4], [1, 2]], "nvars": 5, "order": ["a^2*c*e", "a*b*c*e", "a*c^2*e", "a*c*d*e", "a*c*e^2", "a^2*c^2", "a^2*c*d", "a*b*c*d", "a^2*d^2", "a^2*d*e", "a*b*d^2", "a*b*d*e", "a^2*e^2", "a*b*e^2", "b^2*d^2", "b^2*d*e", "b*c*d*e", "b^2*e^2", "b*c*e^2", "c^2*e^2"]}, "generators": 20, "reg": 4}\n',
     ''),
    (('hankel', 'certify', '--n', '5', '--t', '2,1,1'),
     0, '{"certificate": {"colon_vars": [[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [5], [3, 5], [3, 4, 5], [1, 3, 4, 5], [1, 5], [1, 4, 5], [1, 2, 4, 5], [1, 2, 5], [1, 2, 3, 5], [1, 2, 3, 5], [3], [3, 4], [3, 4, 5], [1, 3, 4, 5], [1, 3], [1, 3, 4], [1, 3, 4, 5], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4], [3, 4], [3, 4, 5], [1, 3, 4, 5], [1, 3, 4], [1, 3, 4, 5], [1, 2, 3, 4], [1], [1, 4], [1, 4, 5], [1, 2, 4, 5], [1, 2], [1, 2, 5], [1, 2, 3, 5], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4], [1, 4], [1, 4, 5], [1, 2, 4, 5], [1, 2, 4], [1, 2, 4, 5], [1, 2, 3, 4], [1, 2], [1, 2, 5], [1, 2, 3, 5], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4]], "nvars": 5, "order": ["a^2*c*e", "a*b*c*e", "a*c^2*e", "a*c*d*e", "a*c*e^2", "a^2*c^2", "a^2*c*d", "a^3*c", "a^2*b*c", "a*b*c*d", "a*b^2*c", "a*b*c^2", "a*c^3", "a*c^2*d", "a*c*d^2", "a^2*d^2", "a^2*d*e", "a^3*d", "a^2*b*d", "a*b*d^2", "a*b*d*e", "a*b^2*d", "a*d^3", "a*d^2*e", "a*d*e^2", "a^2*e^2", "a^3*e", "a^2*b*e", "a*b*e^2", "a*b^2*e", "a*e^3", "b^2*d^2", "b^2*d*e", "b^3*d", "b^2*c*d", "b*c*d*e", "b*c^2*d", "b*c*d^2", "b*d^3", "b*d^2*e", "b*d*e^2", "b^2*e^2", "b^3*e", "b^2*c*e", "b*c*e^2", "b*c^2*e", "b*e^3", "c^2*e^2", "c^3*e", "c^2*d*e", "c*d^2*e", "c*d*e^2", "c*e^3"]}, "generators": 53, "reg": 4}\n',
     ''),
    (('hankel', 'certify', '--n', '6', '--t', '1,3'),
     0, '{"certificate": {"colon_vars": [[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5], [5], [1, 5], [1, 2, 5], [1, 2, 3, 5], [1, 2, 3, 4, 5], [3], [1, 3], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5]], "nvars": 6, "order": ["a^2*c*e", "a*b*c*e", "a*c^2*e", "a*c*d*e", "a*c*e^2", "a*c*e*f", "a^2*c*f", "a*b*c*f", "a*c^2*f", "a*c*d*f", "a*c*f^2", "a^2*d*f", "a*b*d*f", "a*d^2*f", "a*d*e*f", "a*d*f^2", "b^2*d*f", "b*c*d*f", "b*d^2*f", "b*d*e*f", "b*d*f^2"]}, "generators": 21, "reg": 4}\n',
     ''),
    (('hankel', 'certify', '--n', '30', '--t', '8,8,8'),
     2, '',
     'input error: enumeration guard exceeded: 779255311989700 monomials of degree 24 > ENUM_GUARD = 10000000\n'),
    (('hankel', 'decompose', '--monomial', 'x1^2*x2^3*x3^2*x5^3*x6*x7*x8^3'),
     0, '{"factors": ["a*c*e*g", "a*c*e*h", "b*e*h", "b*f*h", "b"], "gamma": {"1": 15, "2": 10, "3": 6, "4": 2}, "shape": [4, 4, 3, 3, 1]}\n',
     ''),
    (('hankel', 'decompose', '--monomial', 'a^3', '--n', '2'),
     0, '{"factors": ["a", "a", "a"], "gamma": {"1": 3}, "shape": [1, 1, 1]}\n',
     ''),
    (('hankel', 'decompose', '--monomial', 'a*b*c*d*e'),
     0, '{"factors": ["a*c*e", "b*d"], "gamma": {"1": 5, "2": 3, "3": 1}, "shape": [3, 2]}\n',
     ''),
    (('hankel', 'decompose', '--monomial', '1', '--n', '3'),
     2, '',
     'input error: the unit monomial has no decomposition\n'),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", HANKEL_GOLDEN,
                         ids=[" ".join(g[0]) for g in HANKEL_GOLDEN])
def test_hankel_commands_structured_golden(argv, code, stdout, stderr):
    r = run(*argv, "--format", "structured")
    assert r.exit_code == code
    assert r.stdout == stdout
    assert r.stderr == stderr


# `linforms reg`: the least m up to the cap with a Bayer-Stillman
# certificate of the product, its forms and dims, re-checked on a fresh
# view; exit 1 when the search finds none up to the cap.
REG_GOLDEN = [
    (("--family", PINCHED3), 0,
     '{"cap": 3, "certificate": {"dims": [12, 3], "forms": [[6, -5, -1, 9], [9, 5, -8, -7]], "m": 3}, "characteristic": 0, "reg_lower": 3, "reg_upper": 3, "verified": true}\n'),
    (("--family", TWO_LINES), 0,
     '{"cap": 2, "certificate": {"dims": [2], "forms": [[6, -5]], "m": 2}, "characteristic": 0, "reg_lower": 2, "reg_upper": 2, "verified": true}\n'),
    (("--family", "linforms([[1,2,3]],[[3,1,2]])", "--char", "3", "--cap", "4"), 0,
     '{"cap": 4, "certificate": {"dims": [5, 2], "forms": [[0, 0, 2], [2, 2, 0]], "m": 2}, "characteristic": 3, "reg_lower": 2, "reg_upper": 2, "verified": true}\n'),
    (("--family", "linforms([[1,2,3]],[[3,1,2]])", "--char", "32003"), 0,
     '{"cap": 2, "certificate": {"dims": [5, 2], "forms": [[6, 31998, 32002], [9, 9, 5]], "m": 2}, "characteristic": 32003, "reg_lower": 2, "reg_upper": 2, "verified": true}\n'),
    (("--family", CHAR2, "--char", "2"), 1,
     '{"cap": 4, "certificate": null, "characteristic": 2, "reg_lower": 4, "reg_upper": null}\n'),
    (("--family", "linforms([[1,0]],[[0,1]],[[1,1]])", "--char", "2", "--cap", "5"), 1,
     '{"cap": 5, "certificate": null, "characteristic": 2, "reg_lower": 3, "reg_upper": null}\n'),
]


@pytest.mark.parametrize("args,code,stdout", REG_GOLDEN)
def test_linforms_reg_structured_golden(args, code, stdout):
    r = run("linforms", "reg", "--format", "structured", *args)
    assert r.exit_code == code
    assert r.stdout == stdout and r.stderr == ""


def test_linforms_reg_text_golden():
    r = run("linforms", "reg", "--family", PINCHED3)
    assert r.exit_code == 0
    assert r.stdout == (
        "certificate at m = 3 (cap 3): 3 <= reg <= 3\n"
        "h_1 = [6, -5, -1, 9], dim (R/J_1)_3 = 12\n"
        "h_2 = [9, 5, -8, -7], dim (R/J_2)_3 = 3\n"
        "re-checked from the generators: true\n"
    )
    r = run("linforms", "reg", "--char", "2", "--cap", "5", "--family",
            "linforms([[1,0]],[[0,1]],[[1,1]])")
    assert r.exit_code == 1
    assert r.stdout == "no certificate for m = 3..5: reg not certified within cap\n"


def test_linforms_reg_failed_recheck_is_not_reported_as_input_error(monkeypatch):
    # a certificate that fails `RegularityCertificate.verify` is a failed
    # internal check, not bad input
    monkeypatch.setattr(RegularityCertificate, "verify", lambda self, I: False)
    r = run("linforms", "reg", "--family", PINCHED3)
    assert r.exit_code != 2 and isinstance(r.exception, AssertionError)
    assert "fails its re-check" in str(r.exception)
