"""Exact linear algebra: the rank/kernel/solve contracts and the rational
serialization round-trip."""

import random
from fractions import Fraction

import pytest

from antiflex.linalg import (LinAlgError, Matrix, MultiMap, linear_combination,
                             parse_rational, render_rational, vec_is_zero)

rng = random.Random(1001)


def test_parse_render_roundtrip_canonical():
    for value in [0, 5, -3, "1/2", "-3/2", "7/3", "10/4"]:
        q = parse_rational(value)
        assert parse_rational(render_rational(q)) == q
    assert render_rational(Fraction(5)) == 5
    assert render_rational(Fraction(-3, 2)) == "-3/2"
    # canonical form: reduction happens on parse
    assert render_rational(parse_rational("10/4")) == "5/2"


def test_parse_rational_rejects_garbage():
    for bad in ["1/0", "x", None, 1.5, True]:
        with pytest.raises(LinAlgError):
            parse_rational(bad)


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
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = Matrix(rows, cols, [Fraction(rng.randint(-3, 3))
                                for _ in range(rows * cols)])
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert vec_is_zero(m.apply(v))


def test_solve_consistency_on_randoms():
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
    mm = MultiMap(2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(8)])
    from antiflex.linalg import basis_vector
    for i in range(2):
        for j in range(2):
            assert mm.evaluate(basis_vector(i, 2), basis_vector(j, 2)) \
                == mm.value((i, j))


def test_multimap_permute_inputs_reversal():
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
            assert mod.left_of(v) == linear_combination(v, mod.left)
            assert mod.right_of(v) == linear_combination(v, mod.right)


def test_linear_combination_rejects_bad_input():
    with pytest.raises(LinAlgError):
        linear_combination((1,), (Matrix.identity(2), Matrix.identity(2)))
    with pytest.raises(LinAlgError):
        linear_combination((1, 1), (Matrix.identity(2), Matrix.identity(3)))
    with pytest.raises(LinAlgError):
        linear_combination((), ())
