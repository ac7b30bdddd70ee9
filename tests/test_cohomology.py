"""The Rota-Baxter cochain complex: differentials, dimensions, the degree-0
kernel description, and the skew-symmetrization comparison."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from antiflex.algebra import Algebra, classify
from antiflex.bimodule import lie_representation, regular_bimodule
from antiflex.cohomology import (ComplexError, RBComplex, ce_differential,
                                 check_sign_relation, h0_description_check,
                                 hochschild_module_differential,
                                 hochschild_to_ce_morphism_check,
                                 is_alternating, one_cocycle_check,
                                 skew_symmetrize)
from antiflex.glie import (HARD_ARITY_CAP, Cochain, DegreeCapError,
                          embed_blocks, graded_bracket, restrict_blocks)
from antiflex.linalg import (Matrix, basis_vector, int_cols_rank,
                             linear_combination)
from tests.dense_matrix import DenseMatrix
from tests.slow_routes import dims_rank_each_degree
from tests.test_cli import PACKAGE, _count_calls
from tests.test_int_views import (_algebra_key, _bimodule_key, _record_calls,
                                   census_triples,
                                   ref_induced_bimodule_on_base, transport)

T_BLK = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])


def random_cochain(rng, cx, degree, lo=-3, hi=3):
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
                t2 = op.apply(linear_combination(a, m_a2.right).col(m_idx))
                t3 = a2.multiply(a, tm)
                t4 = op.apply(linear_combination(a, m_a2.left).col(m_idx))
                expected = tuple(t1[k] - t2[k] - t3[k] + t4[k]
                                 for k in range(2))
                assert img.value((m_idx,)) == expected


def test_degree_zero_vanishes_for_degenerate_fixtures(a0_1, a1, m_a1):
    from antiflex.bimodule import zero_bimodule
    cx = RBComplex(a0_1, zero_bimodule(a0_1, 1), Matrix.identity(1))
    assert cx.differential_matrix(0).is_zero()
    cx1 = RBComplex(a1, m_a1, Matrix.zeros(1, 1))
    assert cx1.differential_matrix(0).is_zero()


def test_complex_on_a_zero_dimensional_module(a2):
    """M = 0: the induced algebra on M has no basis element, and its
    actions still act on the whole of A; only C^0 = A is nonzero."""
    from antiflex.bimodule import zero_bimodule
    cx = RBComplex(a2, zero_bimodule(a2, 0), Matrix.zeros(2, 0))
    assert cx.star.dim == 0 and cx.induced.mdim == 2
    assert cx.pi_swapped.dim == 2
    assert cx.dims(3).degrees == [(0, 2, 2, 0, 2), (1, 0, 0, 0, 0),
                                  (2, 0, 0, 0, 0), (3, 0, 0, 0, 0)]


def test_sign_relation_across_degrees(cohomology_corpus):
    rng = random.Random(100601)
    for name, alg, mod, op, _ in cohomology_corpus:
        cx = RBComplex(alg, mod, op)
        degrees = (0, 1) if alg.dim + mod.mdim > 4 else (0, 1, 2)
        for degree in degrees:
            for _ in range(3):
                f = random_cochain(rng, cx, degree)
                assert check_sign_relation(alg, mod, op, f, cx), (name, degree)


def test_sign_relation_on_noncommutative_fixture(noncommutative_rb):
    rng = random.Random(100602)
    alg, mod, op = noncommutative_rb
    cx = RBComplex(alg, mod, op)
    for degree in (0, 1, 2):
        for _ in range(3):
            assert check_sign_relation(alg, mod, op,
                                       random_cochain(rng, cx, degree), cx)


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


def test_dims_a2a1_degrees_four_and_five(a2_plus_a1, m_a2_plus_a1):
    # before these rows were pinned, d_4 (729 x 243) was compared once with
    # the bracket route on all 243 columns, and d_5 (2187 x 729) on every
    # 27th column (27 columns); the two runs shared two cores and took
    # about 2.1 s and 18 s a column, 8.5 and 8 min in all
    report = RBComplex(a2_plus_a1, m_a2_plus_a1, T_BLK).dims(5)
    assert report.degrees[4:] == [(4, 243, 163, 34, 129),
                                  (5, 729, 509, 80, 429)]


def _unimodular(rng, n):
    """A seeded integer matrix of determinant +-1: a signed permutation
    followed by n column additions with multiplier +-1."""
    perm = rng.sample(range(n), n)
    cols = [[rng.choice((-1, 1)) if i == perm[j] else 0 for i in range(n)]
            for j in range(n)]
    for _ in range(n if n > 1 else 0):
        src, dst = rng.sample(range(n), 2)
        mult = rng.choice((-1, 1))
        cols[dst] = [x + mult * y for x, y in zip(cols[dst], cols[src])]
    return Matrix.from_cols(cols, rows=n)


def _dense_basis_copy(rng, alg, mod, op):
    """The triple in seeded dense unimodular bases of A and M."""
    return transport(alg, mod, op, _unimodular(rng, alg.dim),
                     _unimodular(rng, mod.mdim))


def test_dims_a2a1_degree_six_is_basis_invariant(a2_plus_a1, m_a2_plus_a1):
    """Degree 6 is not pinned (no bracket comparison backs it), but its
    rows must not depend on the basis."""
    # the copies of seeds 8000-8011 give d_6 with 11,018 to 148,092
    # nonzeros (the given basis: 11,018) and rank it in 0.06 to 19 s; this
    # one has three times the given nonzeros and takes about 0.2 s
    given = RBComplex(a2_plus_a1, m_a2_plus_a1, T_BLK)
    moved = RBComplex(*_dense_basis_copy(random.Random(8001), a2_plus_a1,
                                         m_a2_plus_a1, T_BLK))
    rows = given.dims(6).degrees
    assert moved.dims(6).degrees == rows
    assert sum(map(len, moved._int_columns(6))) \
        > 2 * sum(map(len, given._int_columns(6)))


def test_sparse_ranks_equal_dense_ranks(cohomology_corpus, noncommutative_rb):
    """Every d_n up to degree 4, in the given bases and in seeded dense
    unimodular bases: the rank `dims` takes from the sparse int columns is
    the pivot count of dense elimination on `differential_matrix`."""
    rng = random.Random(8004)
    triples = [(name, alg, mod, op)
               for name, alg, mod, op, _ in cohomology_corpus]
    triples.append(("noncommutative_rb", *noncommutative_rb))
    for name, alg, mod, op in triples:
        for basis, triple in (("given", (alg, mod, op)),
                              ("dense", _dense_basis_copy(rng, alg, mod, op))):
            cx = RBComplex(*triple)
            for n in range(5):
                dmat = cx.differential_matrix(n)
                assert int_cols_rank(cx._int_columns(n)) \
                    == DenseMatrix(dmat.rows, dmat.cols, dmat.data).rank(), \
                    (name, basis, n)


def test_sparse_kernels_equal_dense_kernels(cohomology_corpus,
                                            noncommutative_rb):
    """`kernel_basis` of every d_n up to degree 3, in the given bases and in
    seeded dense unimodular bases, is the reduced-echelon basis of dense
    Gauss-Jordan elimination on `differential_matrix`, vector for vector."""
    rng = random.Random(8006)
    triples = [(name, alg, mod, op)
               for name, alg, mod, op, _ in cohomology_corpus]
    triples.append(("noncommutative_rb", *noncommutative_rb))
    proper = set()
    for name, alg, mod, op in triples:
        for basis, triple in (("given", (alg, mod, op)),
                              ("dense", _dense_basis_copy(rng, alg, mod, op))):
            cx = RBComplex(*triple)
            for n in range(4):
                dmat = cx.differential_matrix(n)
                kernel = dmat.kernel_basis()
                assert kernel == DenseMatrix(
                    dmat.rows, dmat.cols, dmat.data).kernel_basis(), \
                    (name, basis, n)
                assert all(type(x) is Fraction for v in kernel for x in v)
                proper.add(len(kernel) < dmat.cols)
    assert proper == {True, False}


def test_dims_builds_no_dense_differential(cohomology_corpus, defect_rb,
                                           monkeypatch):
    """`dims` ranks and checks the sparse columns: no dense d_n is built,
    on a complex or on one that fails the complex check."""
    calls = []
    from_int_cols = Matrix._from_int_cols
    differential_matrix = RBComplex.differential_matrix
    complexes = [(RBComplex(alg, mod, op), anchors)
                 for _, alg, mod, op, anchors in cohomology_corpus]
    defect = RBComplex(*defect_rb)
    monkeypatch.setattr(Matrix, "_from_int_cols", staticmethod(
        lambda *args: calls.append("_from_int_cols") or from_int_cols(*args)))
    monkeypatch.setattr(RBComplex, "differential_matrix", lambda self, n: (
        calls.append("differential_matrix") or differential_matrix(self, n)))
    for cx, anchors in complexes:
        assert cx.dims(3).degrees[:len(anchors)] == anchors
    with pytest.raises(ComplexError):
        defect.dims(2)
    assert calls == []
    # the dense view of cached columns still goes through both
    complexes[0][0].differential_matrix(3)
    assert calls == ["differential_matrix", "_from_int_cols"]


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


def _composition_vanishes(prev_cols, cols):
    """Whether d_n o d_{n-1} = 0, given the sparse int columns of both."""
    for img in prev_cols:
        acc = collections.Counter()
        for i, x in img:
            for r, y in cols[i]:
                acc[r] += x * y
        if any(acc.values()):
            return False
    return True


def test_complex_property_census_on_the_dim2_grid():
    """Which d_n o d_{n-1}, n = 1..5, vanish on every anti-flexible dim-2
    algebra over {-1, 0, 1} with its regular bimodule and every nonzero
    Rota-Baxter operator over {-1, 0, 1}: 616 pairs, counted by
    (commutative, associative, vanishing pattern).  The module docstring
    of `antiflex.cohomology` and the README cite these counts."""
    census = collections.Counter()
    for alg, mod, op in census_triples():
        flags = (alg.is_commutative(), classify(alg).associative)
        cols = [RBComplex(alg, mod, op)._int_columns(n) for n in range(6)]
        census[flags + (tuple(_composition_vanishes(cols[n - 1], cols[n])
                              for n in range(1, 6)),)] += 1
    assert census == {
        (True, True, (True,) * 5): 360,
        (False, True, (True, True, False, False, False)): 128,
        (False, False, (True, True, False, False, False)): 32,
        (False, False, (False, True, False, False, False)): 96,
    }


def _dims_outcome(dims, cx, max_degree):
    try:
        return dims(cx, max_degree).degrees
    except ComplexError as exc:
        return str(exc)


def test_checking_every_degree_first_equals_ranking_each_degree(
        cohomology_corpus, noncommutative_rb, defect_rb):
    """`dims` checks every d_n o d_{n-1} before it takes any rank; its rows
    and its ComplexError text equal those of the loop that ranks each d_n
    before the next check, on the census grid at dims(5) and on the
    fixture corpus."""
    cases = [(entry[1:4], entry[4][-1][0]) for entry in cohomology_corpus]
    cases += [(noncommutative_rb, 5), (defect_rb, 5)]
    cases += [(triple, 5) for triple in census_triples()]
    outcomes = collections.Counter()
    for triple, max_degree in cases:
        cx = RBComplex(*triple)
        got = _dims_outcome(RBComplex.dims, cx, max_degree)
        assert got == _dims_outcome(dims_rank_each_degree, cx, max_degree)
        outcomes[got if isinstance(got, str) else "rows"] += 1
    assert outcomes == {
        "rows": 366,
        "image of d_0 not contained in kernel of d_1 (generator 0)": 65,
        "image of d_0 not contained in kernel of d_1 (generator 1)": 32,
        "image of d_2 not contained in kernel of d_3 (generator 0)": 112,
        "image of d_2 not contained in kernel of d_3 (generator 1)": 24,
        "image of d_2 not contained in kernel of d_3 (generator 6)": 25,
    }


def test_a_failing_triple_builds_no_objects_and_takes_no_rank(defect_rb,
                                                              monkeypatch):
    """On a triple with d_1 o d_0 != 0, constructing the complex and
    `dims(3)` build no induced algebra, no Matrix (every construction fills
    its slots with `Matrix._fill`) and take no rank; the induced objects,
    read later, equal the reference route's."""
    alg, mod, op = defect_rb
    calls = []
    fill, init = Matrix._fill, Algebra.__init__
    monkeypatch.setattr(Matrix, "_fill", lambda self, *args: (
        calls.append("Matrix._fill") or fill(self, *args)))
    monkeypatch.setattr(Algebra, "__init__", lambda self, *args: (
        calls.append("Algebra.__init__") or init(self, *args)))
    ranks = _record_calls(monkeypatch, "int_cols_rank")
    cx = RBComplex(alg, mod, op)
    with pytest.raises(ComplexError, match="^image of d_0 not contained in"
                                           " kernel of d_1 "):
        cx.dims(3)
    assert calls == [] and ranks == []
    monkeypatch.undo()
    ref = ref_induced_bimodule_on_base(alg, mod, op)
    assert _bimodule_key(cx.induced) == _bimodule_key(ref)
    assert _algebra_key(cx.star) == _algebra_key(ref.base)
    assert cx.star is cx.induced.base


def test_the_complex_classifies_nothing_and_contracts_each_star_pair_once(
        cohomology_corpus, noncommutative_rb, defect_rb, monkeypatch):
    """Constructing `RBComplex` makes no `classify` call, and its one
    Rota-Baxter sweep contracts each pair (i, j) of module basis vectors
    into e_i star e_j once, in product order, whose vectors the view
    keeps."""
    classified = _count_calls(monkeypatch, "classify",
                              ["antiflex.algebra", *PACKAGE])
    stars = _count_calls(monkeypatch, "_star", ["antiflex.operators"])
    triples = [(alg, mod, op) for _, alg, mod, op, _ in cohomology_corpus]
    for alg, mod, op in triples + [noncommutative_rb, defect_rb]:
        stars.clear()
        RBComplex(alg, mod, op)
        assert [args[3:5] for args in stars] == list(
            itertools.product(range(mod.mdim), repeat=2))
    assert classified == []


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
    rng = random.Random(100603)
    cases = [(a2, m_a2, t_inv), (a2, m_a2, t_nil), noncommutative_rb]
    for alg, mod, op in cases:
        cx = RBComplex(alg, mod, op)
        zero = Cochain.zero(1, mod.mdim, alg.dim)
        assert one_cocycle_check(alg, mod, op, zero, cx) == (True, True)
        t_as_cochain = cx.space.operator_cochain(op)
        direct, vanish = one_cocycle_check(alg, mod, op, t_as_cochain, cx)
        assert direct == vanish
        for _ in range(6):
            f = random_cochain(rng, cx, 1)
            direct, vanish = one_cocycle_check(alg, mod, op, f, cx)
            assert direct == vanish


def test_one_cocycle_check_on_coboundaries(a2, m_a2, t_inv, noncommutative_rb):
    """On d_0 of each basis element the displayed condition agrees with
    d_1 f = 0.  On the noncommutative pairs l != r.  The last pair is no
    complex: d_1 d_0(e_2) != 0, while d_0(e_1) is a cocycle by both routes,
    which reading r(T(v))u as l(T(v))u would break."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import regular_bimodule
    alg = Algebra.from_products(2, {(0, 0): {0: -1}, (0, 1): {0: -1},
                                    (1, 0): {1: -1}, (1, 1): {0: -1}})
    cases = [(a2, m_a2, t_inv), noncommutative_rb,
             (alg, regular_bimodule(alg), Matrix.from_rows([[0, -1], [0, 0]]))]
    got = []
    for alg, mod, op in cases:
        cx = RBComplex(alg, mod, op)
        got += [one_cocycle_check(alg, mod, op, cx.differential(
            Cochain.from_constant(basis_vector(i, alg.dim), mod.mdim)), cx)
            for i in range(alg.dim)]
    assert got == [(True, True)] * 5 + [(False, False)]


def test_skew_symmetrize_degree_one_is_identity():
    rng = random.Random(100604)
    f = Cochain(1, 2, 3, [Fraction(rng.randint(-3, 3)) for _ in range(6)])
    assert skew_symmetrize(f) == f


def test_skew_symmetrize_kills_symmetric_maps():
    # symmetric bilinear map: f(ei, ej) = f(ej, ei)
    rng = random.Random(100605)
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
    rng = random.Random(100606)
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
    rng = random.Random(100607)
    alg_nc, mod_nc, _ = noncommutative_rb
    for alg, mod in [(a2, m_a2), (alg_nc, mod_nc)]:
        for degree in (0, 1, 2):
            for _ in range(6):
                size = alg.dim ** degree * mod.mdim
                f = Cochain(degree, alg.dim, mod.mdim,
                            [Fraction(rng.randint(-3, 3)) for _ in range(size)])
                assert hochschild_to_ce_morphism_check(alg, mod, f)


def test_ce_differential_squares_to_zero_on_alternating(noncommutative_rb):
    rng = random.Random(100608)
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
