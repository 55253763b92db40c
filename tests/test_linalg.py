from fractions import Fraction
from math import gcd

import sympy
from hypothesis import given, settings, strategies as st

from idealreg import linalg
from idealreg.fields import scalar


def _matrices(entries, max_rows, max_cols):
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c),
            min_size=1,
            max_size=max_rows,
        )
    )


def sparse_matrices(max_rows=6, max_cols=6, lo=-5, hi=5):
    return _matrices(st.integers(lo, hi), max_rows, max_cols)


# zero is drawn often, so the rational matrices are sparse and often singular
RATIONALS = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=6))


def _with_combinations(dense, coeffs):
    combos = [[sum(c * x for c, x in zip(cs, col)) for col in zip(*dense)] for cs in coeffs]
    return dense + combos


def rational_matrices(max_rows=6, max_cols=6):
    """Rational matrices, often followed by rows that are rational combinations
    of the drawn ones, so that rank deficiency over QQ is common."""
    return _matrices(RATIONALS, max_rows, max_cols).flatmap(
        lambda dense: st.lists(
            st.lists(RATIONALS, min_size=len(dense), max_size=len(dense)), max_size=2
        ).map(lambda coeffs: _with_combinations(dense, coeffs))
    )


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def _from_sympy(M):
    return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


def _clean_sparse(dense, p):
    """Sparse rows with entries converted by `scalar`: Fractions over QQ."""
    out = []
    for row in dense:
        r = {}
        for j, v in enumerate(row):
            x = scalar(v, p)
            if x != 0:
                r[j] = x
        out.append(r)
    return out


def _int_rows(dense):
    """Sparse rows of an integer matrix, as the int kernels take them."""
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def _assert_canonical(rref, pivots):
    """Primitive int rows with a positive lead, alone in its pivot column."""
    assert pivots == sorted(pivots)
    for p, row in zip(pivots, rref):
        assert all(type(v) is int and v for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        for q, other in zip(pivots, rref):
            if q != p:
                assert p not in other


@settings(max_examples=150)
@given(sparse_matrices())
def test_rank_matches_sympy(dense):
    assert linalg.rank(_int_rows(dense), 0) == sympy.Matrix(dense).rank()


@settings(max_examples=100)
@given(sparse_matrices())
def test_rank_mod_p_matches_sympy(dense):
    p = 7
    rows = _clean_sparse(dense, p)
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix.from_Matrix(sympy.Matrix(dense)).convert_to(sympy.GF(p))
    assert linalg.rank(rows, p) == dm.rank()


@settings(max_examples=100)
@given(sparse_matrices())
def test_rref_mod_p_matches_sympy(dense):
    p = 7
    rows = _clean_sparse(dense, p)
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix.from_Matrix(sympy.Matrix(dense)).convert_to(sympy.GF(p))
    R, sym_pivots = dm.rref()
    expected = [[int(x) % p for x in row] for row in R.to_list()[: len(sym_pivots)]]
    rref, pivots = linalg.row_reduce(rows, p)
    assert pivots == list(sym_pivots)
    assert _dense(rref, len(dense[0])) == expected
    assert all(0 < v < p for row in rref for v in row.values())
    assert rows == _clean_sparse(dense, p)  # the input rows are not modified


@settings(max_examples=100)
@given(sparse_matrices())
def test_rref_shape(dense):
    rows = _int_rows(dense)
    rref, pivots = linalg.row_reduce(rows, 0)
    _assert_canonical(rref, pivots)
    assert rows == _int_rows(dense)  # the input rows are not modified


@settings(max_examples=100)
@given(sparse_matrices())
def test_kernel_annihilates(dense):
    rows = _int_rows(dense)
    ncols = len(dense[0])
    ker = linalg.kernel(rows, ncols, 0)
    assert len(ker) == ncols - linalg.rank(_int_rows(dense), 0)
    for v in ker:
        assert all(type(c) is int and c for c in v.values())
        for row in rows:
            assert sum(row[j] * v[j] for j in set(row) & set(v)) == 0


@settings(max_examples=60)
@given(sparse_matrices(max_rows=4, max_cols=4), sparse_matrices(max_rows=4, max_cols=4))
def test_intersect_rowspaces_dim(da, db):
    # pad to common width
    w = max(len(da[0]), len(db[0]))
    da = [r + [0] * (w - len(r)) for r in da]
    db = [r + [0] * (w - len(r)) for r in db]
    A = linalg.row_reduce(_int_rows(da), 0)
    B = linalg.row_reduce(_int_rows(db), 0)
    inter, piv = linalg.intersect_rowspaces(A, B, 0)
    _assert_canonical(inter, piv)
    ra, rb = len(A[1]), len(B[1])
    rsum = linalg.rank(_int_rows(da + db), 0)
    assert len(piv) == ra + rb - rsum  # dim(U cap W) = dim U + dim W - dim(U+W)
    for row in inter:
        assert linalg.in_rowspace(row, A[0], A[1], 0)
        assert linalg.in_rowspace(row, B[0], B[1], 0)


def test_matmul_convention():
    A = [{0: 1, 1: 2}]  # 1x2
    B = [{0: 3}, {0: 5}]  # 2x1
    assert linalg.matmul(A, B, 0) == [{0: 13}]
    assert linalg.matmul(A, [{0: 2}, {0: -1}], 0) == [{}]  # zeros not stored
    # 3*5 + 4*2 = 23 = 2 mod 7
    assert linalg.matmul([{0: 3, 1: 4}], [{0: 5}, {0: 2}], 7) == [{0: 2}]


@settings(max_examples=150)
@given(rational_matrices())
def test_rref_matches_sympy(dense):
    # Fraction input is the edge: the RREF holds ints, and each row divided
    # by its lead is sympy's row
    rows = _clean_sparse(dense, 0)
    ncols = len(dense[0])
    R, sym_pivots = sympy.Matrix(dense).rref()
    expected = _from_sympy(R)[: len(sym_pivots)]
    rref, pivots = linalg.row_reduce(rows, 0)
    assert pivots == list(sym_pivots)
    _assert_canonical(rref, pivots)
    by_lead = [{j: Fraction(v, row[p]) for j, v in row.items()}
               for p, row in zip(pivots, rref)]
    assert _dense(by_lead, ncols) == expected
    assert rows == _clean_sparse(dense, 0)  # the input rows are not modified


@settings(max_examples=150)
@given(rational_matrices())
def test_rank_rational_matches_sympy(dense):
    rows = [linalg.primitive(r) for r in _clean_sparse(dense, 0)]
    assert linalg.rank(rows, 0) == sympy.Matrix(dense).rank()


@settings(max_examples=100)
@given(sparse_matrices(), st.data())
def test_matmul_matches_sympy(da, data):
    inner = len(da[0])
    cols = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(-5, 5), min_size=cols, max_size=cols)
    db = data.draw(st.lists(row, min_size=inner, max_size=inner))
    C = linalg.matmul(_int_rows(da), _int_rows(db), 0)
    assert _dense(C, cols) == (sympy.Matrix(da) * sympy.Matrix(db)).tolist()
    assert all(v for row in C for v in row.values())  # zeros are not stored
