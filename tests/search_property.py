"""The backtracking `search_operators` against the brute-force sweep of
`slow_routes.search_operators_each`, as a `hypothesis` property over dim
0-3 algebras with no bimodule, their (regular) actions, other actions or
actions over an algebra of another dimension; every shape and an unknown
one; grids with fractions, repeats or no values; every predicate, its
`not-` form and an unknown name; limits from -1 up; and a small progress
interval and candidate ceiling, which both sweeps read at call time.  The
hits (shape, entries and their type, order), the refusal (type and text)
and the progress lines on stderr must be the same.

`test_search.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/search_property.py`.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import antiflex.search as search
from antiflex.algebra import Algebra
from antiflex.bimodule import Bimodule
from antiflex.linalg import Matrix, MultiMap
from tests.slow_routes import search_operators_each

NAMES = ("rota-baxter", "nijenhuis", "nonzero", "scalar", "invertible")
PREDICATES = (NAMES + tuple("not-" + name for name in NAMES)) * 3 + ("bogus",)
SHAPES = ("module-to-algebra", "algebra-endo", "module-endo")
GRID = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
CONSTANTS = (0, 0, 0, 1, -1, 2, Fraction(1, 2))


def _algebra(draw, dim):
    return Algebra(MultiMap(2, dim, draw(st.lists(
        st.sampled_from(CONSTANTS), min_size=dim ** 3, max_size=dim ** 3))))


@st.composite
def _searches(draw):
    dim = draw(st.integers(0, 3))
    alg = _algebra(draw, dim)
    kind = draw(st.sampled_from(("regular", "other", "regular", "other",
                                 "rebased", "none")))
    mod = None
    if kind == "regular":
        mod = Bimodule(alg, [alg.left_matrix(i) for i in range(dim)],
                       [alg.right_matrix(i) for i in range(dim)],
                       check=False, mdim=dim)
    elif kind != "none":
        base = alg if kind == "other" else _algebra(draw, (dim + 1) % 3)
        mdim = draw(st.integers(0, 2)) if base.dim else draw(st.integers(0, 3))

        def actions():
            return [Matrix(mdim, mdim, draw(st.lists(
                st.sampled_from(CONSTANTS), min_size=mdim * mdim,
                max_size=mdim * mdim))) for _ in range(base.dim)]

        mod = Bimodule(base, actions(), actions(), check=False, mdim=mdim)
    shape = draw(st.sampled_from(SHAPES * 4 + ("bogus",)))
    coeffs = draw(st.lists(st.sampled_from(GRID), max_size=4))
    predicates = draw(st.lists(st.sampled_from(PREDICATES), max_size=3))
    limit = draw(st.one_of(st.none(), st.integers(-1, 5)))
    return alg, mod, coeffs, predicates, shape, limit


def _outcome(sweep, case, progress):
    alg, mod, coeffs, predicates, shape, limit = case
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            hits = sweep(alg, mod, coeffs, predicates, shape=shape,
                         limit=limit, progress=progress)
        except ValueError as exc:
            return (type(exc), str(exc)), err.getvalue()
    assert all(type(x) is Fraction for op in hits for x in op.data)
    return [(op.rows, op.cols, op.data) for op in hits], err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_searches(), st.sampled_from((True, False)), st.integers(1, 7),
       st.sampled_from((400, 80, 12, 0, 400)))
def test_pruned_search_equals_the_brute_force_sweep(case, progress, every,
                                                    ceiling):
    saved = search.PROGRESS_EVERY, search.CANDIDATE_CEILING
    search.PROGRESS_EVERY, search.CANDIDATE_CEILING = every, ceiling
    try:
        got = _outcome(search.search_operators, case, progress)
        want = _outcome(search_operators_each, case, progress)
    finally:
        search.PROGRESS_EVERY, search.CANDIDATE_CEILING = saved
    assert got == want
