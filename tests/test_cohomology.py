"""The Rota-Baxter cochain complex: differentials, dimensions, the degree-0
kernel description, and the skew-symmetrization comparison."""

import random
from fractions import Fraction

import pytest

from antiflex.bimodule import lie_representation
from antiflex.cohomology import (ComplexError, RBComplex, ce_differential,
                                 check_sign_relation, h0_description_check,
                                 hochschild_module_differential,
                                 hochschild_to_ce_morphism_check,
                                 is_alternating, one_cocycle_check,
                                 skew_symmetrize)
from antiflex.glie import (HARD_ARITY_CAP, Cochain, DegreeCapError,
                          embed_blocks, graded_bracket, restrict_blocks)
from antiflex.linalg import Matrix, basis_vector

rng = random.Random(1006)


def random_cochain(cx, degree, lo=-3, hi=3):
    size = cx.dim_cochains(degree)
    return cx.cochain(degree, [Fraction(rng.randint(lo, hi))
                               for _ in range(size)])


def test_degree_zero_differential_matches_display(a2, m_a2, t_inv, t_nil):
    for op in (t_inv, t_nil):
        cx = RBComplex(a2, m_a2, op)
        for a_idx in range(2):
            img = cx.differential(Cochain.from_constant(basis_vector(a_idx, 2), 2))
            for m_idx in range(2):
                a = basis_vector(a_idx, 2)
                tm = op.col(m_idx)
                # T(m).a - T(r(a)m) - a.T(m) + T(l(a)m)
                t1 = a2.multiply(tm, a)
                t2 = op.apply(m_a2.right_of(a).col(m_idx))
                t3 = a2.multiply(a, tm)
                t4 = op.apply(m_a2.left_of(a).col(m_idx))
                expected = tuple(t1[k] - t2[k] - t3[k] + t4[k]
                                 for k in range(2))
                assert img.value((m_idx,)) == expected


def test_degree_zero_vanishes_for_degenerate_fixtures(a0_1, a1, m_a1):
    from antiflex.bimodule import zero_bimodule
    cx = RBComplex(a0_1, zero_bimodule(a0_1, 1), Matrix.identity(1))
    assert cx.differential_matrix(0).is_zero()
    cx1 = RBComplex(a1, m_a1, Matrix.zeros(1, 1))
    assert cx1.differential_matrix(0).is_zero()


def test_sign_relation_across_degrees(cohomology_corpus):
    for name, alg, mod, op, _ in cohomology_corpus:
        cx = RBComplex(alg, mod, op)
        degrees = (0, 1) if alg.dim + mod.mdim > 4 else (0, 1, 2)
        for degree in degrees:
            for _ in range(3):
                f = random_cochain(cx, degree)
                assert check_sign_relation(alg, mod, op, f, cx), (name, degree)


def test_sign_relation_on_noncommutative_fixture(noncommutative_rb):
    alg, mod, op = noncommutative_rb
    cx = RBComplex(alg, mod, op)
    for degree in (0, 1, 2):
        for _ in range(3):
            assert check_sign_relation(alg, mod, op,
                                       random_cochain(cx, degree), cx)


def test_dims_regression_anchors(cohomology_corpus):
    for name, alg, mod, op, anchors in cohomology_corpus:
        cx = RBComplex(alg, mod, op)
        max_degree = anchors[-1][0]
        report = cx.dims(max_degree)
        assert report.degrees == anchors, name


def _bracket_route_columns(cx, degree, positions=None):
    """Columns of d_degree by the defining route: [star + l_T + r_T, f] on
    the swapped sum space for each basis cochain f (all of them, or those
    at `positions`), restricted back to the cochain block, with the closure
    verdict of that restriction."""
    k, total = cx.mdim, cx.mdim + cx.adim
    size = cx.dim_cochains(degree)
    sign = -1 if degree % 2 else 1
    for pos in range(size) if positions is None else positions:
        f = cx.cochain(degree, [1 if i == pos else 0 for i in range(size)])
        br = graded_bracket(cx.pi_swapped, embed_blocks(f, 0, k, total),
                            HARD_ARITY_CAP)
        col, report = restrict_blocks(br, 0, k, k, cx.adim)
        yield pos, col.scale(sign).data, report


def test_pointwise_matrix_equals_bracket_route(cohomology_corpus,
                                               noncommutative_rb, defect_rb):
    cases = [(name, alg, mod, op, 3 if max(alg.dim, mod.mdim) <= 2 else 2)
             for name, alg, mod, op, _ in cohomology_corpus]
    # the reversal sign (-1)^{n(n+1)/2} agrees with (-1)^{n+1} at n = 2, 3
    # and differs at n = 4, 5, where on noncommutative_rb the reversal term
    # moves all but one column; a d_5 column costs about 1.5 s by brackets,
    # so only every eighth is compared
    cases += [("noncommutative_rb", *noncommutative_rb, 5),
              ("defect_rb", *defect_rb, 2)]
    for name, alg, mod, op, top in cases:
        cx = RBComplex(alg, mod, op)
        for degree in range(top + 1):
            dmat = cx.differential_matrix(degree)
            assert (dmat.rows, dmat.cols) == (cx.dim_cochains(degree + 1),
                                              cx.dim_cochains(degree))
            positions = range(0, dmat.cols, 8) if degree == 5 else None
            for pos, col, report in _bracket_route_columns(cx, degree,
                                                           positions):
                assert report.ok, (name, degree, pos, report.describe())
                assert dmat.col(pos) == col, (name, degree, pos)


def test_dims_a2a1_degree_three(a2_plus_a1, m_a2_plus_a1):
    # d_3 (243 x 81) was compared once with the bracket route column by
    # column before this row was pinned; that comparison takes about 30 s
    op = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    report = RBComplex(a2_plus_a1, m_a2_plus_a1, op).dims(3)
    assert report.degrees[3] == (3, 81, 47, 7, 40)


def test_degree_bounds_refused_before_assembly(a1, m_a1):
    cx = RBComplex(a1, m_a1, Matrix.zeros(1, 1))
    for call in (cx.dims, cx.differential_matrix):
        with pytest.raises(ValueError, match="negative degree"):
            call(-1)
        with pytest.raises(DegreeCapError):
            call(HARD_ARITY_CAP)
    assert cx._matrices == {}
    # the ceiling sits where the bracket route put it: degree 6 still runs
    assert cx.dims(HARD_ARITY_CAP - 1).degrees[-1] == (6, 1, 1, 0, 1)


def test_dims_rank_nullity_consistency(cohomology_corpus):
    for name, alg, mod, op, anchors in cohomology_corpus:
        for (n, c, z, b, h) in anchors:
            assert c == mod.mdim ** n * alg.dim
            assert 0 <= b <= z <= c
            assert h == z - b


def test_dims_refuses_non_complex(defect_rb):
    alg, mod, op = defect_rb
    cx = RBComplex(alg, mod, op)
    with pytest.raises(ComplexError):
        cx.dims(2)


def test_h0_two_routes(cohomology_corpus):
    for name, alg, mod, op, anchors in cohomology_corpus:
        cx = RBComplex(alg, mod, op)
        basis, report = h0_description_check(alg, mod, op, cx)
        assert report.ok, name
        assert len(basis) == anchors[0][2]  # dim Z^0


def test_h0_whole_space_cases(a0_2, m_a0_2, a2, m_a2):
    basis, report = h0_description_check(a0_2, m_a0_2,
                                         Matrix.from_rows([[1, 2], [3, 4]]))
    assert report.ok and len(basis) == 2
    basis, report = h0_description_check(a2, m_a2, Matrix.zeros(2, 2))
    assert report.ok and len(basis) == 2


def test_h0_on_noncommutative_fixture(noncommutative_rb):
    alg, mod, op = noncommutative_rb
    basis, report = h0_description_check(alg, mod, op)
    assert report.ok


def test_one_cocycle_agrees_with_differential(a2, m_a2, t_inv, t_nil,
                                              noncommutative_rb):
    cases = [(a2, m_a2, t_inv), (a2, m_a2, t_nil), noncommutative_rb]
    for alg, mod, op in cases:
        cx = RBComplex(alg, mod, op)
        zero = Cochain.zero(1, mod.mdim, alg.dim)
        assert one_cocycle_check(alg, mod, op, zero, cx) == (True, True)
        t_as_cochain = cx.space.operator_cochain(op)
        direct, vanish = one_cocycle_check(alg, mod, op, t_as_cochain, cx)
        assert direct == vanish
        for _ in range(6):
            f = random_cochain(cx, 1)
            direct, vanish = one_cocycle_check(alg, mod, op, f, cx)
            assert direct == vanish


def test_skew_symmetrize_degree_one_is_identity():
    f = Cochain(1, 2, 3, [Fraction(rng.randint(-3, 3)) for _ in range(6)])
    assert skew_symmetrize(f) == f


def test_skew_symmetrize_kills_symmetric_maps():
    # symmetric bilinear map: f(ei, ej) = f(ej, ei)
    data = [0] * 12
    sym = Cochain(2, 2, 3, data)
    values = {}
    for i in range(2):
        for j in range(2):
            key = tuple(sorted((i, j)))
            if key not in values:
                values[key] = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    flat = []
    for i in range(2):
        for j in range(2):
            flat.extend(values[tuple(sorted((i, j)))])
    sym = Cochain(2, 2, 3, flat)
    assert skew_symmetrize(sym).is_zero()


def test_skew_symmetrize_two_term_example():
    # f(e_i, e_j) = delta_{i1} delta_{j2} m
    flat = [0] * 8
    flat[(0 * 2 + 1) * 2 + 0] = 1
    f = Cochain(2, 2, 2, flat)
    s = skew_symmetrize(f)
    assert s.value((0, 1)) == (1, 0)
    assert s.value((1, 0)) == (-1, 0)
    assert is_alternating(s)


def test_skew_symmetrize_output_always_alternating():
    for _ in range(4):
        f = Cochain(2, 3, 2, [Fraction(rng.randint(-2, 2)) for _ in range(18)])
        assert is_alternating(skew_symmetrize(f))
    f3 = Cochain(3, 2, 2, [Fraction(rng.randint(-2, 2)) for _ in range(16)])
    assert is_alternating(skew_symmetrize(f3))


def test_module_hochschild_degree_zero_gives_action_difference(a2, m_a2):
    m_vec = (Fraction(1), Fraction(-2))
    f = Cochain(0, a2.dim, m_a2.mdim, m_vec)
    img = hochschild_module_differential(a2, m_a2, f)
    rep = lie_representation(a2, m_a2)
    for i in range(2):
        assert img.value((i,)) == rep.rho[i].apply(m_vec)


def test_ce_square_commutes(a2, m_a2, noncommutative_rb):
    alg_nc, mod_nc, _ = noncommutative_rb
    for alg, mod in [(a2, m_a2), (alg_nc, mod_nc)]:
        for degree in (0, 1, 2):
            for _ in range(6):
                size = alg.dim ** degree * mod.mdim
                f = Cochain(degree, alg.dim, mod.mdim,
                            [Fraction(rng.randint(-3, 3)) for _ in range(size)])
                assert hochschild_to_ce_morphism_check(alg, mod, f)


def test_ce_differential_squares_to_zero_on_alternating(noncommutative_rb):
    alg, mod, _ = noncommutative_rb
    rep = lie_representation(alg, mod)
    for _ in range(4):
        size = alg.dim * mod.mdim
        g = Cochain(1, alg.dim, mod.mdim,
                    [Fraction(rng.randint(-2, 2)) for _ in range(size)])
        assert ce_differential(rep.lie, rep, ce_differential(rep.lie, rep, g)) \
            .is_zero()


def test_complex_refuses_induced_actions_on_non_anti_flexible_base():
    """The induced actions on A form a bimodule only for an anti-flexible A.

    Here e.f = f is the only product, so (e, e, e) = 0 but the first
    bimodule law on the induced actions leaves -L_e^2 - R_e^2 != 0."""
    from antiflex.algebra import Algebra, classify
    from antiflex.bimodule import zero_bimodule
    from antiflex.operators import is_rota_baxter
    alg = Algebra.from_products(2, {(0, 1): {1: 1}})
    mod = zero_bimodule(alg, 1)
    op = Matrix.from_rows([[1], [0]])
    assert not classify(alg).anti_flexible
    assert is_rota_baxter(alg, mod, op).ok
    with pytest.raises(ValueError, match="^not a bimodule: bimodule: FAIL"):
        RBComplex(alg, mod, op)
