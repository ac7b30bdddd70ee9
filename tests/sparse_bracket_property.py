"""The sparse bracket against the dense oracle of `dense_bracket.py`, as a
`hypothesis` property over maps of arity 0-3 on spaces of dim 1-3 with
fractional entries, and over restrictions of such maps to cochain blocks.

`test_sparse_bracket.py` runs this file in a child interpreter; run it alone
with `python -m pytest tests/sparse_bracket_property.py`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.glie import (HARD_ARITY_CAP, SparseMap, compose_bar,
                           graded_bracket, restrict_blocks)
from antiflex.linalg import MultiMap
from tests import dense_bracket as dense
from tests.test_scaled_laws import VALUES

_entries = st.sampled_from(VALUES)


@st.composite
def _maps(draw):
    dim = draw(st.integers(1, 3))
    arities = draw(st.tuples(st.integers(0, 3), st.integers(0, 3))
                   .filter(lambda a: sum(a) >= 1 and (dim < 3 or sum(a) <= 4)))
    return [MultiMap(a, dim, draw(st.lists(_entries, min_size=dim ** (a + 1),
                                           max_size=dim ** (a + 1))))
            for a in arities]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_maps(), st.data())
def test_brackets_equal_the_dense_oracle(maps, data):
    f, g = maps
    for sparse_fn, dense_fn in ((compose_bar, dense.compose_bar),
                                (graded_bracket, dense.graded_bracket)):
        got = sparse_fn(f, g, HARD_ARITY_CAP)
        want = dense_fn(f, g, HARD_ARITY_CAP)
        assert got.dense().data == want.data
        assert got == want and want == got
    # restrict f to a block of the first in_dim and the last out_dim indices
    in_dim = data.draw(st.integers(0, f.dim))
    out_dim = data.draw(st.integers(0, f.dim))
    got = restrict_blocks(SparseMap.of(f), 0, in_dim, f.dim - out_dim, out_dim)
    want = dense.restrict_blocks(f, 0, in_dim, f.dim - out_dim, out_dim)
    assert got == want
