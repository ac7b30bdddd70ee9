"""Exact linear algebra: the rank/kernel/solve contracts and the rational
serialization round-trip."""

import random
from fractions import Fraction

import pytest

from antiflex.linalg import (LinAlgError, Matrix, MultiMap, int_cols_rank,
                             integer_scaled, linear_combination,
                             parse_rational, render_rational, vec_is_zero)
from tests.dense_matrix import DenseMatrix
from tests.test_cohomology import _unimodular
from tests.test_scaled_laws import run_in_child


def test_parse_render_roundtrip_canonical():
    for value in [0, 5, -3, "1/2", "-3/2", "7/3", "10/4"]:
        q = parse_rational(value)
        assert parse_rational(render_rational(q)) == q
    assert render_rational(Fraction(5)) == 5
    assert render_rational(Fraction(-3, 2)) == "-3/2"
    # canonical form: reduction happens on parse
    assert render_rational(parse_rational("10/4")) == "5/2"


def test_parse_rational_rejects_garbage():
    for bad in ["1/0", "x", None, 1.5, True, "1e3", "1.5", "1_000"]:
        with pytest.raises(LinAlgError):
            parse_rational(bad)


def test_vec_is_zero_on_ints_fractions_and_the_empty_tuple():
    assert vec_is_zero(())
    assert vec_is_zero((0, 0, 0))
    assert not vec_is_zero((0, 0, -3))
    assert vec_is_zero((Fraction(0), Fraction(0, 7)))
    assert not vec_is_zero((Fraction(0), Fraction(1, 10 ** 9)))


def test_rank_examples():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zeros(2, 2).rank() == 0
    # row reduction by hand: second row is twice the first
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Matrix.identity(2).kernel_basis() == []
    assert len(Matrix.zeros(2, 3).kernel_basis()) == 3
    basis = Matrix.from_rows([[1, 2], [2, 4]]).kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    # spans (-2, 1)
    assert v[0] * 1 == -2 * v[1]


def test_solve_examples():
    assert Matrix.identity(2).solve((Fraction(1), Fraction(2))) == (1, 2)
    assert Matrix.zeros(2, 2).solve((Fraction(1), Fraction(0))) is None
    x = Matrix.from_rows([[1, 2], [2, 4]]).solve((Fraction(1), Fraction(2)))
    assert x is not None and x[0] + 2 * x[1] == 1


def test_rank_nullity_and_exact_kernel_on_randoms():
    rng = random.Random(1001)
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = Matrix(rows, cols, [Fraction(rng.randint(-3, 3))
                                for _ in range(rows * cols)])
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert vec_is_zero(m.apply(v))


def _random_sparse_int_columns(rng, rows, cols):
    """Seeded sparse int columns as (row, x) pairs: mixed signs, entries up
    to 10**6, some columns empty and some integer combinations of earlier
    columns."""
    out = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.15 or not rows:
            col = {}
        elif kind < 0.45 and out:
            col = {}
            for earlier in rng.sample(out, min(len(out), rng.randint(1, 3))):
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                for i, x in earlier:
                    col[i] = col.get(i, 0) + c * x
        else:
            col = {i: rng.choice((-1, 1)) * rng.choice(
                       (1, 2, 7, 999_983, 10 ** 6, rng.randint(1, 10 ** 6)))
                   for i in rng.sample(range(rows), rng.randint(1, min(rows, 4)))}
        out.append(sorted((i, x) for i, x in col.items() if x))
    return out


def test_sparse_rank_equals_dense_pivot_count_on_random_sparse_ints():
    """`int_cols_rank` against the pivot count of `DenseMatrix` on
    seeded sparse int matrices, their transposes and fractional scalings,
    and on every empty shape; its input is left as it was."""
    rng = random.Random(1002)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 6), (6, 1)]
    shapes += [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(60)]
    seen = set()
    for rows, cols in shapes:
        columns = _random_sparse_int_columns(rng, rows, cols)
        before = [list(col) for col in columns]
        m = Matrix._of_view(1, cols, rows, columns, 1)
        dense = DenseMatrix(m.rows, m.cols, m.data).rank()
        assert int_cols_rank(columns) == dense, (rows, cols)
        assert columns == before
        assert m.rank() == m.transpose().rank() == dense
        assert m.scale(Fraction(3, 7)).rank() == dense
        seen.add((dense == min(rows, cols), dense == 0))
    assert seen >= {(True, True), (True, False), (False, False)}
    assert int_cols_rank([]) == int_cols_rank([[], []]) == 0


def test_solve_equals_the_dense_solution_on_random_sparse_ints():
    """`solve` against `DenseMatrix.solve` on seeded sparse shapes up to
    30 x 30 over denominators 1 and 6: b = A x0 (consistent), the same b
    over another denominator, and a seeded b (inconsistent wherever A's
    columns miss it)."""
    rng = random.Random(1013)
    seen = set()
    for _ in range(40):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        m = Matrix._of_view(
            1, cols, rows, _random_sparse_int_columns(rng, rows, cols),
            rng.choice((1, 6)))
        ref = DenseMatrix(rows, cols, m.data)
        b = m.apply([Fraction(rng.randint(-3, 3), rng.choice((1, 5)))
                     for _ in range(cols)])
        for rhs in (b, tuple(x * Fraction(5, 7) for x in b),
                    tuple(Fraction(rng.randint(-9, 9), 7)
                          for _ in range(rows))):
            x = m.solve(rhs)
            assert x == ref.solve(rhs), (rows, cols)
            if x is not None:
                assert m.apply(x) == rhs
            seen.add(x is None)
    assert seen == {True, False}


def test_inverse_equals_the_dense_inverse_on_unimodular_and_singular_squares():
    """`inverse` against `DenseMatrix.inverse` on seeded unimodular squares
    up to 8 x 8, scaled over denominators, and on singular squares made
    from them by replacing one column with a combination of the others."""
    rng = random.Random(1014)
    seen = set()
    for n in range(1, 9):
        for _ in range(3):
            u = _unimodular(rng, n).scale(rng.choice((1, -1, Fraction(2, 3))))
            cols = [u.col(j) for j in range(n)]
            picks = rng.sample(range(n), min(n, 2))
            cols[picks[0]] = tuple(sum((rng.randint(-2, 2) * cols[k][i]
                                        for k in picks[1:]), Fraction(0))
                                   for i in range(n))
            for m in (u, Matrix.from_cols(cols, rows=n)):
                inv, ref = m.inverse(), DenseMatrix(n, n, m.data).inverse()
                assert (inv is None) == (ref is None), n
                if inv is not None:
                    assert inv == Matrix(n, n, ref.data)
                    assert m @ inv == inv @ m == Matrix.identity(n)
                seen.add(inv is None)
    assert seen == {True, False}
    assert Matrix(0, 0, ()).inverse() == Matrix(0, 0, ())


def test_property_multimaps_equal_the_dense_map():
    """The `hypothesis` property of `multimap_property.py`, run in a child
    interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("multimap_property.py")


def test_property_matrices_equal_the_dense_matrix():
    """The `hypothesis` property of `matrix_property.py`, run in a child
    interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("matrix_property.py")


def test_property_sparse_rank_equals_dense_rank():
    """The `hypothesis` property of `sparse_rank_property.py`, run in a
    child interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("sparse_rank_property.py")


def test_solve_consistency_on_randoms():
    rng = random.Random(1003)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(rows, cols, [Fraction(rng.randint(-2, 2))
                                for _ in range(rows * cols)])
        x0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
        b = m.apply(x0)
        x = m.solve(b)
        assert x is not None
        assert m.apply(x) == b


def test_inverse():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv is not None
    assert m @ inv == Matrix.identity(2)
    assert Matrix.from_rows([[1, 2], [2, 4]]).inverse() is None
    assert Matrix.from_rows([[1, 2, 3]]).inverse() is None


def test_matrix_shape_errors():
    with pytest.raises(LinAlgError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(LinAlgError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(LinAlgError):
        Matrix.identity(2).apply((Fraction(1),))


def test_multimap_value_evaluate_agree():
    rng = random.Random(1004)
    mm = MultiMap(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(8)])
    from antiflex.linalg import basis_vector
    for i in range(2):
        for j in range(2):
            assert mm.evaluate(basis_vector(i, 2), basis_vector(j, 2)) \
                == mm.value((i, j))


def test_multimap_permute_inputs_reversal():
    rng = random.Random(1005)
    mm = MultiMap(3, 2, [Fraction(rng.randint(-2, 2)) for _ in range(16)])
    rev = mm.permute_inputs((2, 1, 0))
    for idx in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]:
        assert rev.value(idx) == mm.value(idx[::-1])


def test_multimap_arity_zero_is_a_vector():
    c = MultiMap.constant((Fraction(1), Fraction(-2)))
    assert c.arity == 0
    assert c.value(()) == (1, -2)


def test_multimap_shape_mismatch_raises():
    square = MultiMap.zero(2, 2)
    for other in (MultiMap.zero(1, 2), MultiMap.zero(2, 3)):
        with pytest.raises(LinAlgError):
            square + other
        with pytest.raises(LinAlgError):
            square - other


def test_matrix_and_multimap_share_the_linear_structure():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    mm = MultiMap.from_matrix(m)
    assert (m + m) == m.scale(2) and (mm + mm) == mm.scale(2)
    assert (m - m).is_zero() and (mm - mm).is_zero()
    assert -m == m.scale(-1) and -mm == mm.scale(-1)
    assert isinstance(-mm, MultiMap) and isinstance(m + m, Matrix)
    # same entries, different layouts: never equal across the two types
    assert m != mm and mm.as_matrix() == m
    assert len({m, m.scale(1), mm, mm.scale(1)}) == 2


def test_square_from_matrix_as_matrix_roundtrip():
    m = Matrix.from_rows([[1, "1/2"], [0, -3]])
    mm = MultiMap.from_matrix(m)
    assert mm.dim == 2 and mm.as_matrix() == m
    assert mm.evaluate((Fraction(1), Fraction(0))) == m.col(0)
    with pytest.raises(LinAlgError):
        MultiMap.from_matrix(Matrix.zeros(2, 3))


def test_linear_combination_matches_repeated_scale_and_add(
        m_a1, m_a2, m_a0_2, m_a2_plus_a1, m_zero_on_a2):
    rng = random.Random(1006)
    for mod in (m_a1, m_a2, m_a0_2, m_a2_plus_a1, m_zero_on_a2):
        d = mod.base.dim
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(d))
            for mats in (mod.left, mod.right):
                acc = Matrix.zeros(mod.mdim, mod.mdim)
                for i, c in enumerate(v):
                    if c:
                        acc = acc + mats[i].scale(c)
                assert linear_combination(v, mats) == acc


def test_linear_combination_rejects_bad_input():
    with pytest.raises(LinAlgError):
        linear_combination((1,), (Matrix.identity(2), Matrix.identity(2)))
    with pytest.raises(LinAlgError):
        linear_combination((1, 1), (Matrix.identity(2), Matrix.identity(3)))
    with pytest.raises(LinAlgError):
        linear_combination((), ())


def test_integer_scaled_writes_a_group_over_its_least_common_denominator():
    parts = ([Fraction(1, 2), Fraction(-2, 3), 0], (Fraction(5, 4),), [3])
    ints, den = integer_scaled(*parts)
    assert den == 12
    assert ints == [[6, -8, 0], [15], [36]]
    for part, scaled in zip(parts, ints):
        assert [Fraction(x, den) for x in scaled] == list(part)
        assert all(type(x) is int for x in scaled)
    assert integer_scaled([Fraction(4), -7]) == ([[4, -7]], 1)
    assert integer_scaled() == ([], 1)
    assert integer_scaled([], []) == ([[], []], 1)
    # iterators are read once
    ints, den = integer_scaled(iter([Fraction(1, 3)]), (x for x in [1]))
    assert (ints, den) == ([[1], [3]], 3)
