"""`linalg.Matrix` against the dense Fraction matrix of `dense_matrix.py`,
as a `hypothesis` property over shapes 0-4, mixed denominators and zero
matrices: the entries and their reads, lowest terms, the linear structure,
products, powers, transposes, application to a vector, linear
combinations, equality and hashing, the integer view, rank, kernel, solve,
inverse and repr.

`test_linalg.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/matrix_property.py`.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.linalg import LinAlgError, Matrix, MultiMap, linear_combination
from tests.dense_matrix import DenseMatrix, dense_linear_combination
from tests.test_scaled_laws import VALUES

# a third zeros, the rest with denominators 1, 2, 3 and 6
_entries = st.sampled_from(VALUES)


def _pair(draw, rows, cols):
    """A Matrix and the DenseMatrix of the same drawn entries, all zero one
    time in five."""
    if draw(st.integers(0, 4)) == 0:
        values = [0] * (rows * cols)
    else:
        values = draw(st.lists(_entries, min_size=rows * cols,
                               max_size=rows * cols))
    return Matrix(rows, cols, values), DenseMatrix(rows, cols, values)


def _same(m, ref):
    """m is a Matrix, the arity-1 MultiMap, in lowest terms with the shape
    and entries of ref."""
    assert isinstance(m, MultiMap) and type(m) is Matrix and m.arity == 1
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert m.den > 0 and all(type(x) is int for x in m.ints)
    assert math.gcd(m.den, *m.ints) == 1
    assert m.data == ref.data and all(type(x) is Fraction for x in m.data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrices_equal_the_dense_matrix(rows, cols, inner, data):
    draw = data.draw
    m, ref = _pair(draw, rows, cols)
    g, ref_g = _pair(draw, rows, cols)
    h, ref_h = _pair(draw, cols, inner)
    sq, ref_sq = _pair(draw, rows, rows)
    k = draw(_entries)
    v = tuple(draw(_entries) for _ in range(cols))
    b = tuple(draw(_entries) for _ in range(rows))

    _same(m, ref)
    for i in range(rows):
        assert m.row(i) == ref.row(i)
        for j in range(cols):
            assert m[i, j] == ref[i, j] and type(m[i, j]) is Fraction
    for j in range(cols):
        assert m.col(j) == ref.col(j)
    assert m.is_zero() == ref.is_zero() == (not any(m.ints))
    assert m.den == 1 or not m.is_zero()

    for got, want in ((m + g, ref + ref_g), (m - g, ref - ref_g),
                      (-m, -ref), (m.scale(k), ref.scale(k)),
                      (m.scale(str(Fraction(k))), ref.scale(k)),
                      (m @ h, ref @ ref_h), (m.transpose(), ref.transpose())):
        _same(got, want)
    for p in range(4):
        _same(sq.power(p), ref_sq.power(p))
    got = m.apply(v)
    assert got == ref.apply(v) and all(type(x) is Fraction for x in got)

    terms = [_pair(draw, rows, cols) for _ in range(draw(st.integers(1, 3)))]
    coeffs = [draw(_entries) for _ in terms]
    _same(linear_combination(coeffs, [t for t, _ in terms]),
          dense_linear_combination(coeffs, [r for _, r in terms]))

    # equality and hashing follow the values, however the ints were scaled
    assert (m == g) == (ref == ref_g) == (g == m)
    if m == g:
        assert hash(m) == hash(g)
    factor = draw(st.integers(1, 6))
    for same in (Matrix.from_rows([ref.row(i) for i in range(rows)], cols),
                 Matrix.from_cols([ref.col(j) for j in range(cols)], rows),
                 Matrix._of_ints(1, cols, rows,
                                 {key: factor * x
                                  for key, x in m.entries.items()},
                                 factor * m.den)):
        assert same == m and hash(same) == hash(m)
        _same(same, ref)

    assert m.int_view() == ref.int_view()
    assert m.rank() == ref.rank()
    assert m.kernel_basis() == ref.kernel_basis()
    assert m.solve(b) == ref.solve(b)
    inv, ref_inv = sq.inverse(), ref_sq.inverse()
    assert (inv is None) == (ref_inv is None)
    if inv is not None:
        _same(inv, ref_inv)
    assert repr(m) == repr(ref)

    # shape mismatches are refused alike
    if cols != rows:
        for a, c in ((m, g), (ref, ref_g)):
            with pytest.raises(LinAlgError):
                a @ c
    if (cols, inner) != (rows, cols):
        for a, c in ((m, h), (ref, ref_h)):
            with pytest.raises(LinAlgError):
                a + c
