"""Textual input formats.

Two forms are accepted: ``ideal(<mono>, <mono>, ...)`` with monomials as
products of ``name[^exp]`` factors (names ``a``..``z`` or ``x1``, ``x2``,
...), and ``linforms([[...],[...]], [[...]], ...)`` where each matrix lists
integer coefficient rows of the basis linear forms of one factor.
"""

from __future__ import annotations

import ast
import re

from .ideals import MonomialIdeal
from .linforms import LinearIdeal
from .monomials import parse_monomial

_IDEAL_RE = re.compile(r"^ideal\((.*)\)$", re.S)
_LINFORMS_RE = re.compile(r"^linforms\((.*)\)$", re.S)


class ParseError(ValueError):
    pass


def parse_ideal_gens(text):
    """``ideal(...)`` -> (ambient, generator exponents in input order).

    The ambient is inferred from the largest variable index.
    """
    m = _IDEAL_RE.match(text.strip())
    if m is None:
        raise ParseError("expected ideal(<monomial>, ...)")
    body = m.group(1).strip()
    if not body:
        raise ParseError("empty ideal")
    parsed = []
    for p in body.split(","):
        p = p.strip()
        try:
            parsed.append(parse_monomial(p))
        except ValueError as exc:
            raise ParseError(f"bad monomial {p!r}: {exc}") from exc
    top = max(used for _, used in parsed)
    if top < 1:
        raise ParseError("could not infer any variable")
    return top, [u + (0,) * (top - len(u)) for u, _ in parsed]


def parse_ideal_text(text):
    """``ideal(...)`` -> MonomialIdeal (ambient inferred)."""
    return MonomialIdeal.from_gens(*parse_ideal_gens(text))


def parse_linforms_text(text, characteristic=0):
    """``linforms(...)`` -> list of LinearIdeal."""
    m = _LINFORMS_RE.match(text.strip())
    if m is None:
        raise ParseError("expected linforms([[...]], ...)")
    try:
        matrices = ast.literal_eval("[" + m.group(1) + "]")
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ParseError(
            "bad matrix list: expected comma-separated lists of integer rows"
        ) from exc
    if not matrices:
        raise ParseError("empty family")
    family = []
    n = None
    for mat in matrices:
        if not isinstance(mat, list) or not mat or not all(
            isinstance(r, list) and all(isinstance(c, int) for c in r) for r in mat
        ):
            raise ParseError("each factor must be a nonempty list of integer rows")
        if n is None:
            n = len(mat[0])
        if any(len(r) != n for r in mat):
            raise ParseError("inconsistent row lengths")
        try:
            family.append(LinearIdeal.from_rows(n, mat, characteristic))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return family

