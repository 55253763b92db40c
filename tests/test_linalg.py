from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from idealreg import linalg
from idealreg.fields import field_of


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


def _clean_sparse(dense, fld):
    out = []
    for row in dense:
        r = {}
        for j, v in enumerate(row):
            x = fld(v)
            if x != 0:
                r[j] = x
        out.append(r)
    return out


@settings(max_examples=150)
@given(sparse_matrices())
def test_rank_matches_sympy(dense):
    fld = field_of(0)
    rows = _clean_sparse(dense, fld)
    assert linalg.rank(rows, fld) == sympy.Matrix(dense).rank()


@settings(max_examples=100)
@given(sparse_matrices())
def test_rank_mod_p_matches_sympy(dense):
    p = 7
    fld = field_of(p)
    rows = _clean_sparse(dense, fld)
    from sympy.polys.matrices import DomainMatrix

    dm = DomainMatrix.from_Matrix(sympy.Matrix(dense)).convert_to(sympy.GF(p))
    assert linalg.rank(rows, fld) == dm.rank()


@settings(max_examples=100)
@given(sparse_matrices())
def test_rref_shape(dense):
    fld = field_of(0)
    rows = _clean_sparse(dense, fld)
    rref, pivots = linalg.row_reduce(rows, fld)
    assert pivots == sorted(pivots)
    for p, row in zip(pivots, rref):
        assert row[p] == 1
        for q, other in zip(pivots, rref):
            if q != p:
                assert p not in other


@settings(max_examples=100)
@given(sparse_matrices())
def test_kernel_annihilates(dense):
    fld = field_of(0)
    rows = _clean_sparse(dense, fld)
    ncols = len(dense[0])
    ker = linalg.kernel(rows, ncols, fld)
    assert len(ker) == ncols - linalg.rank(rows, fld)
    for v in ker:
        for row in rows:
            s = sum((row[j] * v[j] for j in set(row) & set(v)), 0)
            assert s == 0


@settings(max_examples=60)
@given(sparse_matrices(max_rows=4, max_cols=4), sparse_matrices(max_rows=4, max_cols=4))
def test_intersect_rowspaces_dim(da, db):
    # pad to common width
    w = max(len(da[0]), len(db[0]))
    da = [r + [0] * (w - len(r)) for r in da]
    db = [r + [0] * (w - len(r)) for r in db]
    fld = field_of(0)
    A = linalg.row_reduce(_clean_sparse(da, fld), fld)
    B = linalg.row_reduce(_clean_sparse(db, fld), fld)
    inter, piv = linalg.intersect_rowspaces(A, B, fld)
    ra, rb = len(A[1]), len(B[1])
    rsum = linalg.rank(_clean_sparse(da + db, fld), fld)
    assert len(piv) == ra + rb - rsum  # dim(U cap W) = dim U + dim W - dim(U+W)
    for row in inter:
        assert linalg.in_rowspace(row, A[0], A[1], fld)
        assert linalg.in_rowspace(row, B[0], B[1], fld)


def test_matmul_convention():
    fld = field_of(0)
    A = [{0: fld(1), 1: fld(2)}]  # 1x2
    B = [{0: fld(3)}, {0: fld(5)}]  # 2x1
    C = linalg.matmul(A, B, fld)
    assert C == [{0: fld(13)}]
    A = [{0: Fraction(1, 2), 1: Fraction(2, 3)}]
    B = [{0: Fraction(3, 5)}, {0: Fraction(-9, 4)}]
    assert linalg.matmul(A, B, fld) == [{0: Fraction(-6, 5)}]


@settings(max_examples=150)
@given(rational_matrices())
def test_rref_matches_sympy(dense):
    fld = field_of(0)
    rows = _clean_sparse(dense, fld)
    ncols = len(dense[0])
    R, sym_pivots = sympy.Matrix(dense).rref()
    expected = _from_sympy(R)[: len(sym_pivots)]
    rref, pivots = linalg.row_reduce(rows, fld)
    assert pivots == list(sym_pivots)
    assert _dense(rref, ncols) == expected
    assert all(type(v) is Fraction and v for row in rref for v in row.values())
    assert rows == _clean_sparse(dense, fld)  # the input rows are not modified


@settings(max_examples=150)
@given(rational_matrices())
def test_rank_rational_matches_sympy(dense):
    fld = field_of(0)
    assert linalg.rank(_clean_sparse(dense, fld), fld) == sympy.Matrix(dense).rank()


@settings(max_examples=100)
@given(rational_matrices(), st.data())
def test_matmul_rational_matches_sympy(da, data):
    inner = len(da[0])
    cols = data.draw(st.integers(1, 6))
    row = st.lists(RATIONALS, min_size=cols, max_size=cols)
    db = data.draw(st.lists(row, min_size=inner, max_size=inner))
    fld = field_of(0)
    C = linalg.matmul(_clean_sparse(da, fld), _clean_sparse(db, fld), fld)
    assert _dense(C, cols) == _from_sympy(sympy.Matrix(da) * sympy.Matrix(db))
    assert all(v for row in C for v in row.values())  # zeros are not stored
