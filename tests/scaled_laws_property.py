"""The integer-scaled law checks against the dense routes, as a `hypothesis`
property over dim 0-3 algebras, actions and operators with mixed
denominators, half of the algebras with their (scaled) regular actions.

`test_scaled_laws.py` runs this file in a child interpreter; run it alone
with `python -m pytest tests/scaled_laws_property.py`.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.algebra import Algebra
from antiflex.bimodule import Bimodule
from antiflex.linalg import Matrix, MultiMap
from tests.test_scaled_laws import VALUES, _scaled_regular, assert_laws_agree

_entries = st.sampled_from(VALUES)


@st.composite
def _cases(draw):
    dim = draw(st.integers(0, 3))
    mdim = draw(st.integers(1, 3)) if dim else 0

    def matrix(rows, cols):
        return Matrix(rows, cols, draw(st.lists(_entries, min_size=rows * cols,
                                                max_size=rows * cols)))

    alg = Algebra(MultiMap(2, dim, draw(st.lists(_entries, min_size=dim ** 3,
                                                 max_size=dim ** 3))))
    if draw(st.booleans()):
        scaled, mod = _scaled_regular(alg, draw(_entries.filter(bool)))
        return scaled, mod, matrix(dim, dim), matrix(dim, dim)
    mod = Bimodule(alg, [matrix(mdim, mdim) for _ in range(dim)],
                   [matrix(mdim, mdim) for _ in range(dim)], check=False)
    return alg, mod, matrix(dim, mdim), matrix(dim, dim)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cases(), st.sampled_from((1, 0, Fraction(-1, 2), Fraction(3, 4))))
def test_reports_equal_the_dense_routes(case, op_scale):
    alg, mod, op, endo = case
    assert_laws_agree(alg, mod, op.scale(op_scale), endo.scale(op_scale))
