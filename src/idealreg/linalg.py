"""Sparse exact row reduction.

Rows are dicts {column index: nonzero scalar}.  Pivoting prefers short rows
to limit fill-in; `row_reduce` returns the reduced row-echelon form, so
pivot columns appear in exactly one row with coefficient 1.

There is one kernel per field kind, both on plain Python ints:

* GF(p): entries are ints in 0..p-1; products are accumulated unreduced and
  taken mod p once per row update.
* QQ: each input row is scaled to a primitive integer vector (clear the
  denominators, divide out the gcd), which spans the same line.
  Elimination is fraction-free: a row is cross-multiplied by a gcd-reduced
  factor of the pivot (Bareiss, Math. Comp. 22, 1968) and its content is
  divided out again.  Fractions are made only for the final RREF, when each
  pivot row is divided by its lead entry, so the result is the same
  canonical RREF entry for entry.

Rows whose entries are already ints (integers over QQ, residues mod p) can
skip the scaling: `int_rank` and `int_matmul` hand them to the kernels as
they are, and `int_rank` reduces them in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def row_reduce(rows, field):
    """Reduce sparse rows; returns (rref_rows, pivot_columns).

    rref_rows are sorted by pivot column and normalized: each pivot column
    occurs only in its own row, with coefficient one.
    """
    p = field.characteristic
    pending = sorted((r for r in rows if r), key=len)
    if p:
        piv = _rref_mod(pending, p)
    else:
        piv = {
            c: {j: Fraction(v, row[c]) for j, v in row.items()}
            for c, row in _rref_int(map(primitive, pending)).items()
        }
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


def rank(rows, field):
    """Rank by echelon elimination: no back-substitution, no normalization.

    The rows are left as they are: the kernel reduces copies of them,
    scaled to primitive integer rows over QQ.
    """
    copy = dict if field.characteristic else primitive
    return int_rank([copy(r) for r in rows if r], field)


def int_rank(rows, field):
    """Rank of rows whose entries are ints: integers over QQ, residues mod p.

    The rows go to the kernel as they are and are reduced in place, so pass
    only rows that nothing reads afterwards.
    """
    p = field.characteristic
    pending = sorted((r for r in rows if r), key=len)
    if p:
        return _echelon_rank_mod(pending, p)
    return _echelon_rank_int(pending)


def _axpy(row, f, src, skip):
    """row -= f * src in place, skipping column `skip`; zeros are dropped."""
    for j, v in src.items():
        if j != skip:
            w = row.get(j, 0) - f * v
            if w:
                row[j] = w
            else:
                del row[j]


def _eliminate(row, piv):
    """Subtract from row the multiples of the lead-1 pivot rows that clear
    its pivot columns (unreduced mod p)."""
    for c in row.keys() & piv.keys():
        _axpy(row, row.pop(c), piv[c], c)
    return row


# ------------------------------------------------------------------ QQ kernel


def primitive(row):
    """Integer row with coprime entries spanning the same line as a rational row."""
    out = {}
    den = 1
    for j, v in row.items():
        out[j] = v.numerator
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den != 1:
        out = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
    return _divide_content(out)


def _divide_content(row):
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g
    return row


def _rref_int(rows):
    """Pivot column -> primitive integer row, reduced against every other pivot."""
    piv = {}
    for row in rows:
        hits = [(c, row.pop(c)) for c in row.keys() & piv.keys()]
        if hits:
            # one common multiplier m makes every quotient m*b/a integral
            m = lcm(*(piv[c][c] // gcd(piv[c][c], b) for c, b in hits))
            if m != 1:
                for j in row:
                    row[j] *= m
            for c, b in hits:
                prow = piv[c]
                _axpy(row, m * b // prow[c], prow, c)
            if not row:
                continue
            _divide_content(row)
        lead = min(row)
        a = row[lead]
        for prow in piv.values():
            b = prow.pop(lead, None)
            if b is None:
                continue
            g = gcd(a, b)
            s, f = a // g, b // g
            if s < 0:
                s, f = -s, -f
            if s != 1:
                for j in prow:
                    prow[j] *= s
            _axpy(prow, f, row, lead)
            _divide_content(prow)
        piv[lead] = row
    return piv


def _echelon_rank_int(rows):
    """Each row is reduced at its leftmost entry until that column is new."""
    piv = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                piv[lead] = row
                break
            a, b = prow[lead], row.pop(lead)
            g = gcd(a, b)
            s, f = a // g, b // g
            if s < 0:
                s, f = -s, -f
            if s != 1:
                for j in row:
                    row[j] *= s
            _axpy(row, f, prow, lead)
            if s != 1 and row:
                _divide_content(row)
    return len(piv)


# --------------------------------------------------------------- GF(p) kernel


def _rref_mod(rows, p):
    """Pivot column -> row with lead 1, reduced against every other pivot."""
    piv = {}
    for row in rows:
        row = _mod(_eliminate(dict(row), piv), p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        row = {j: v * inv % p for j, v in row.items()}
        for c, prow in piv.items():
            b = prow.pop(lead, None)
            if b is not None:
                _axpy(prow, b, row, lead)
                piv[c] = _mod(prow, p)
        piv[lead] = row
    return piv


def _echelon_rank_mod(rows, p):
    """Each row is reduced at its leftmost entry until that column is new."""
    piv = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, p)
                piv[lead] = {j: v * inv % p for j, v in row.items()}
                break
            _axpy(row, row.pop(lead), prow, lead)
            row = _mod(row, p)
    return len(piv)


def _mod(row, p):
    """Entries reduced mod p, zeros dropped."""
    return {j: w for j, v in row.items() if (w := v % p)}


# ---------------------------------------------------------------- on an RREF


def reduce_vector(vec, piv, field):
    """Residue of vec modulo the row space of an RREF given as
    {pivot column: row} (pivot coordinates eliminated)."""
    row = _eliminate(dict(vec), piv)
    p = field.characteristic
    return _mod(row, p) if p else row


def in_rowspace(vec, rref_rows, pivots, field):
    return not reduce_vector(vec, dict(zip(pivots, rref_rows)), field)


def kernel_basis(rref_rows, pivots, ncols, field):
    """Right null space basis from an RREF; one vector per free column."""
    p = field.characteristic
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {f: 1}
        for q, row in zip(pivots, rref_rows):
            c = row.get(f)
            if c is not None:
                v[q] = p - c if p else -c
        out.append(v)
    return out


def kernel(rows, ncols, field):
    rref, pivots = row_reduce(rows, field)
    return kernel_basis(rref, pivots, ncols, field)


def matmul(rows_a, rows_b, field):
    """Row-convention composite: row i of result = (row i of A) applied to B.

    A's columns index B's rows.  Over QQ both factors are scaled to integer
    matrices by their common denominators, which are divided back out of the
    exact integer product.
    """
    if field.characteristic:
        return int_matmul(rows_a, rows_b, field)
    da, a = _clear_denominators(rows_a)
    db, b = _clear_denominators(rows_b)
    den = da * db
    return [
        {k: Fraction(v, den) for k, v in acc.items()}
        for acc in int_matmul(a, b, field)
    ]


def int_matmul(rows_a, rows_b, field):
    """`matmul` of matrices whose entries are ints (integers over QQ,
    residues mod p), taken as they are; the product has nonzero int entries."""
    p = field.characteristic
    out = []
    for row in rows_a:
        acc = {}
        for j, c in row.items():
            for k, v in rows_b[j].items():
                acc[k] = acc.get(k, 0) + c * v
        out.append(_mod(acc, p) if p else {k: v for k, v in acc.items() if v})
    return out


def _clear_denominators(rows):
    """(d, integer rows) with d the lcm of all denominators and rows scaled by d."""
    den = lcm(*{v.denominator for row in rows for v in row.values()})
    if den == 1:
        return 1, [{j: v.numerator for j, v in row.items()} for row in rows]
    return den, [
        {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        for row in rows
    ]


def intersect_rowspaces(space_a, space_b, field):
    """Intersection of two row spaces given as (rref_rows, pivots) pairs.

    Returns (rref_rows, pivots) of the intersection.
    """
    rows_a, _ = space_a
    rows_b, _ = space_b
    ra, rb = len(rows_a), len(rows_b)
    if ra == 0 or rb == 0:
        return [], []
    # solve alpha·A = beta·B: kernel of the (ra+rb)-column system A^T | -B^T
    sys_rows = {}
    for i, row in enumerate(rows_a):
        for j, v in row.items():
            sys_rows.setdefault(j, {})[i] = v
    p = field.characteristic
    for i, row in enumerate(rows_b):
        for j, v in row.items():
            sys_rows.setdefault(j, {})[ra + i] = p - v if p else -v
    ker = kernel(list(sys_rows.values()), ra + rb, field)
    alphas = [{i: c for i, c in k.items() if i < ra} for k in ker]
    return row_reduce(matmul(alphas, rows_a, field), field)
