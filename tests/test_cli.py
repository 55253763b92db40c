import json

import pytest
from click.testing import CliRunner

from idealreg import betti
from idealreg.cli import main
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


@pytest.mark.parametrize("char", ["1", "-3", "4"])
def test_betti_bad_characteristic_exits_2(char):
    _assert_input_error(run("betti", "--ideal", HOOK, "--char", char))


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


@pytest.mark.parametrize("command", ["verify", "sat"])
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


@pytest.mark.parametrize("command", ["verify", "sat"])
def test_linforms_cap_guard_exits_2(command):
    # a cap past CAP_GUARD = 32 is refused before any degree is swept
    r = run("linforms", command, "--family", "linforms([[1,0]])",
            "--cap", "100000000000")
    _assert_input_error(r)
    assert "cap 100000000000 exceeds CAP_GUARD = 32" in r.stderr


@pytest.mark.parametrize("command", ["verify", "sat"])
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
    # 12 factors in 2 variables: 16 columns at the default cap 15 times
    # 4095 primary components is past SWEEP_GUARD = 10000
    family = "linforms(" + ", ".join(f"[[1,{k}]]" for k in range(12)) + ")"
    r = run("linforms", "verify", "--family", family)
    _assert_input_error(r)
    assert "is 65520, above SWEEP_GUARD = 10000" in r.stderr


@pytest.mark.parametrize("command", ["verify", "sat"])
def test_linforms_generator_guard_exits_2(command):
    # 7 copies of (x1, x2, x3) have 3^7 = 2187 product generators
    m = "[[1,0,0],[0,1,0],[0,0,1]]"
    r = run("linforms", command, "--family",
            "linforms(" + ", ".join([m] * 7) + ")", "--cap", "7")
    _assert_input_error(r)
    assert "too many product generators: 2187 > 1000" in r.stderr


def test_linforms_sat_default_cap_guard_exits_2():
    # the default sat cap is the number of factors, here past CAP_GUARD
    r = run("linforms", "sat", "--family",
            "linforms(" + ", ".join(["[[1,0]]"] * 33) + ")")
    _assert_input_error(r)
    assert "cap 33 exceeds CAP_GUARD = 32" in r.stderr


@pytest.mark.parametrize("argv", [
    ("betti", "--ideal", "ideal(a*b, c*d)"),
    ("inequality", "--ideal-i", "ideal(a*b)", "--ideal-j", "ideal(c*d)"),
])
def test_walk_guard_exits_2(argv):
    # the Euler check would walk C(16003, 3) monomials of x1..x3
    r = run(*argv, "--cap", "16000")
    _assert_input_error(r)
    assert "walks 682922696001 monomials, above WALK_GUARD" in r.stderr


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
