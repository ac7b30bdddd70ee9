"""The sparse fraction-free rank against the dense pivot count, as a
`hypothesis` property over small matrices of mixed-sign integers up to
10**6, with integer combinations of drawn columns appended as dependent
columns and some matrices scaled by a fraction.

`test_linalg.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/sparse_rank_property.py`.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.linalg import Matrix, int_cols_rank
from tests.dense_matrix import DenseMatrix

_entries = st.one_of(st.just(0), st.integers(-3, 3),
                     st.sampled_from((10 ** 6, -10 ** 6, 999_983, -999_979)))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    columns = [draw(st.lists(_entries, min_size=rows, max_size=rows))
               for _ in range(cols)]
    for _ in range(draw(st.integers(0, 3)) if columns else 0):
        picks = draw(st.lists(st.sampled_from(columns), min_size=1,
                              max_size=3))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(picks),
                               max_size=len(picks)))
        columns.append([sum(c * col[i] for c, col in zip(coeffs, picks))
                        for i in range(rows)])
    return Matrix.from_cols(columns, rows=rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices(), st.sampled_from((1, -1, Fraction(2, 3))))
def test_sparse_rank_equals_dense_rank(m, scale):
    m = m.scale(scale)
    dense = DenseMatrix(m.rows, m.cols, m.data).rank()
    assert int_cols_rank(m.int_view()[0]) == m.rank() == dense
    assert m.transpose().rank() == dense
