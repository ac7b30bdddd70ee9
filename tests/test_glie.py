"""The bracket composition, its pinned low-degree values, the Maurer-Cartan
characterizations, and the derived bracket on cochains.

The general-degree composition is a reconstruction pinned by validation
properties rather than transcription; the tests below mark out exactly where
the graded Lie identities hold (and record the one place they provably
cannot: triples of degree >= 1 maps with no structure element involved)."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from antiflex.algebra import classify
from antiflex.bimodule import is_bimodule
from antiflex.glie import (Cochain, CochainSpace, DegreeCapError,
                           HARD_ARITY_CAP, compose_bar, derived_bracket,
                           graded_bracket, mc_check_algebra_bimodule,
                           rb_differential, rb_mc_equivalence, reversal,
                           structure_element, twisted_mc_check)
from antiflex.linalg import (LinAlgError, Matrix, MultiMap, basis_vector,
                             linear_combination, vec_add, vec_sub)
from tests.conftest import random_matrix


def random_multimap(rng, arity, dim, lo=-2, hi=2):
    return MultiMap(arity, dim, [Fraction(rng.randint(lo, hi))
                                 for _ in range(dim ** (arity + 1))])


def random_cochain(rng, space, degree, lo=-2, hi=2):
    size = space.mdim ** degree * space.adim
    return Cochain(degree, space.mdim, space.adim,
                   [Fraction(rng.randint(lo, hi)) for _ in range(size)])


def sgn(e):
    return -1 if e % 2 else 1


# -- composition conventions -------------------------------------------------

def test_degree_zero_composition_is_plain():
    rng = random.Random(100501)
    f = random_multimap(rng, 1, 3)
    g = random_multimap(rng, 1, 3)
    fg = compose_bar(f, g)
    assert fg.as_matrix() == f.as_matrix() @ g.as_matrix()


def test_four_term_pattern_at_degree_one():
    rng = random.Random(100502)
    f = random_multimap(rng, 2, 2)
    g = random_multimap(rng, 2, 2)
    fg = compose_bar(f, g)
    for idx in itertools.product(range(2), repeat=3):
        x1, x2, x3 = (basis_vector(i, 2) for i in idx)
        expected = vec_sub(
            vec_sub(f.evaluate(g.evaluate(x1, x2), x3),
                    f.evaluate(x1, g.evaluate(x2, x3))),
            vec_sub(f.evaluate(g.evaluate(x3, x2), x1),
                    f.evaluate(x3, g.evaluate(x2, x1))))
        assert fg.value(idx) == expected


def test_self_composition_hand_values(a2, na2):
    assert compose_bar(a2.mul, a2.mul).value((0, 0, 0)) == (0, 0)
    # witnesses non-anti-flexibility: (e1e1)e2 - e1(e1e2) - (e2e1)e1 + e2(e1e1)
    assert compose_bar(na2.mul, na2.mul).value((0, 0, 1)) == (0, -1)


def test_bracket_vanishes_iff_anti_flexible(a1, a2, na2, a0_2, af_nonassoc):
    for alg in (a1, a2, na2, a0_2, af_nonassoc):
        assert graded_bracket(alg.mul, alg.mul).is_zero() \
            == classify(alg).anti_flexible


def test_bracket_of_even_degree_with_itself_vanishes():
    rng = random.Random(100503)
    f = random_multimap(rng, 1, 2)
    assert graded_bracket(f, f).is_zero()


def test_graded_antisymmetry_identically():
    rng = random.Random(100504)
    for m, n in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]:
        f = random_multimap(rng, m + 1, 2)
        g = random_multimap(rng, n + 1, 2)
        lhs = graded_bracket(f, g, HARD_ARITY_CAP)
        rhs = graded_bracket(g, f, HARD_ARITY_CAP).scale(-sgn(m * n))
        assert lhs == rhs


def test_reversal_is_an_involutive_automorphism():
    rng = random.Random(100505)
    f = random_multimap(rng, 2, 2)
    g = random_multimap(rng, 3, 2)
    assert reversal(reversal(f)) == f
    plain_fg = compose_bar(f, g, HARD_ARITY_CAP)
    # R(f o g) = R(f) o R(g) holds for the plain insertion sum; here we check
    # it through the symmetrized composition being R-invariant
    assert reversal(plain_fg) == plain_fg


def jacobi_sum(f, g, h):
    m, n, k = f.arity - 1, g.arity - 1, h.arity - 1
    t1 = graded_bracket(graded_bracket(f, g, HARD_ARITY_CAP), h,
                        HARD_ARITY_CAP).scale(sgn(m * k))
    t2 = graded_bracket(graded_bracket(g, h, HARD_ARITY_CAP), f,
                        HARD_ARITY_CAP).scale(sgn(n * m))
    t3 = graded_bracket(graded_bracket(h, f, HARD_ARITY_CAP), g,
                        HARD_ARITY_CAP).scale(sgn(k * n))
    return t1 + t2 + t3


def test_jacobi_with_a_degree_zero_factor():
    rng = random.Random(100506)
    for degs in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (0, 2, 2)]:
        for _ in range(4):
            maps = [random_multimap(rng, d + 1, 2) for d in degs]
            assert jacobi_sum(*maps).is_zero(), degs


def test_jacobi_on_structure_element_instances(a2, m_a2, noncommutative_rb):
    rng = random.Random(100507)
    alg_nc, mod_nc, _ = noncommutative_rb
    for alg, mod in [(a2, m_a2), (alg_nc, mod_nc)]:
        space = CochainSpace(alg, mod)
        for degs in [(1, 1), (1, 2), (2, 1)]:
            for _ in range(3):
                p = space.embed(random_cochain(rng, space, degs[0]))
                q = space.embed(random_cochain(rng, space, degs[1]))
                assert jacobi_sum(space.pi, p, q).is_zero(), degs


def test_structure_element_refuses_mis_shaped_actions(a2, m_a2):
    """Action matrices must be mdim x mdim: 2x3 actions with mdim 2 would
    lose their third column, and 3x3 ones do not match mdim 2."""
    wide = [Matrix.zeros(2, 3), Matrix.zeros(2, 3)]
    square3 = [Matrix.identity(3), Matrix.identity(3)]
    for left, right in [(wide, wide), (m_a2.left, wide), (square3, square3),
                        (m_a2.left, m_a2.left[:1])]:
        with pytest.raises(LinAlgError):
            structure_element(a2.mul, left, right, 2)
    assert structure_element(a2.mul, m_a2.left, m_a2.right, 2) \
        == CochainSpace(a2, m_a2).pi


def test_jacobi_fails_on_generic_degree_one_triples():
    """The four-term composition forced at bidegree (1,1) admits no graded
    Lie extension to all multilinear maps; this pins the reconstruction
    boundary by exhibiting the obstruction."""
    rng = random.Random(100508)
    failures = 0
    for _ in range(8):
        f, g, h = (random_multimap(rng, 2, 2) for _ in range(3))
        if not jacobi_sum(f, g, h).is_zero():
            failures += 1
    assert failures > 0


def test_jacobi_follows_the_reversal_eigenspaces_of_its_factors():
    """Split seeded maps into V+ (reversal(f) = f) and V- (reversal(f) =
    -f), as f + reversal(f) and f - reversal(f): graded Jacobi holds on
    every triple with zero, one or three nonzero factors in V-, and fails
    on some triple with exactly two.  Maps of arity 1 to 3 at dim 2, and
    at dim 3 with total arity at most 5; arity-1 maps lie in V+."""
    rng = random.Random(2801)
    held, failed = collections.Counter(), collections.Counter()
    for dim, top in ((2, 9), (3, 5)):
        for arities in itertools.combinations_with_replacement((1, 2, 3), 3):
            if sum(arities) > top:
                continue
            for _ in range(8):
                parts = [(f + reversal(f), f - reversal(f))
                         for f in (random_multimap(rng, a, dim)
                                   for a in arities)]
                for pattern in itertools.product((0, 1), repeat=3):
                    factors = [p[s] for p, s in zip(parts, pattern)]
                    if any(f.is_zero() for f in factors):
                        continue
                    if jacobi_sum(*factors).is_zero():
                        held[sum(pattern)] += 1
                    else:
                        failed[sum(pattern)] += 1
    assert set(failed) == {2}
    assert min(held[0], held[1], held[3]) > 0


def test_degree_cap_enforced():
    rng = random.Random(100509)
    f = random_multimap(rng, 3, 2)
    g = random_multimap(rng, 4, 2)
    with pytest.raises(DegreeCapError):
        compose_bar(f, g)  # result arity 6 exceeds the default cap 5
    with pytest.raises(DegreeCapError):
        compose_bar(f, f, cap=HARD_ARITY_CAP + 1)


# -- Maurer-Cartan characterizations ------------------------------------------

def test_mc_check_matches_axioms(a2, na2, a0_2, af_nonassoc):
    for alg in (a2, na2, a0_2, af_nonassoc):
        left = [alg.left_matrix(i) for i in range(alg.dim)]
        right = [alg.right_matrix(i) for i in range(alg.dim)]
        axioms = classify(alg).anti_flexible \
            and is_bimodule(alg, left, right).ok
        assert mc_check_algebra_bimodule(alg, left, right) == axioms


def test_mc_check_zero_actions(a0_2):
    z = Matrix.zeros(3, 3)
    assert mc_check_algebra_bimodule(a0_2, [z, z], [z, z])


def test_mc_check_negative_bimodule_case(a2):
    # valid algebra, corrupted actions
    z = Matrix.zeros(2, 2)
    left = [Matrix.from_rows([[1, 0], [0, 0]]), z]
    assert not is_bimodule(a2, left, [z, z]).ok
    assert not mc_check_algebra_bimodule(a2, left, [z, z])


# -- derived bracket -----------------------------------------------------------

def test_derived_bracket_zero_and_self(a2, m_a2, t_inv, t_nil):
    space = CochainSpace(a2, m_a2)
    t = space.operator_cochain(t_inv)
    zero = Cochain.zero(1, 2, 2)
    assert derived_bracket(space, t, zero).is_zero()
    for op in (t_inv, t_nil):
        tc = space.operator_cochain(op)
        assert derived_bracket(space, tc, tc).is_zero()


def test_derived_self_bracket_value_matches_displayed_formula(a2, m_a2):
    """[[T,T]](u,v) = 2(Tu.Tv - T(l(Tu)v) - T(r(Tv)u)) for arbitrary T."""
    rng = random.Random(100510)
    space = CochainSpace(a2, m_a2)
    for _ in range(10):
        op = random_matrix(rng, 2, 2)
        tt = derived_bracket(space, space.operator_cochain(op),
                             space.operator_cochain(op))
        for i, j in itertools.product(range(2), repeat=2):
            tu, tv = op.col(i), op.col(j)
            val = vec_sub(a2.multiply(tu, tv),
                          op.apply(vec_add(
                              linear_combination(tu, m_a2.left).col(j),
                              linear_combination(tv, m_a2.right).col(i))))
            assert tt.value((i, j)) == tuple(2 * x for x in val)


def test_rb_mc_equivalence_randomized(rb_pairs):
    rng = random.Random(100511)
    for alg, mod in rb_pairs:
        for _ in range(10):
            op = random_matrix(rng, alg.dim, mod.mdim)
            mc_zero, rb = rb_mc_equivalence(CochainSpace(alg, mod), op)
            assert mc_zero == rb


def test_derived_bracket_closure_on_randoms(a2, m_a2, noncommutative_rb):
    rng = random.Random(100512)
    alg_nc, mod_nc, _ = noncommutative_rb
    for alg, mod in [(a2, m_a2), (alg_nc, mod_nc)]:
        space = CochainSpace(alg, mod)
        for degs in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (1, 0)]:
            p = random_cochain(rng, space, degs[0])
            q = random_cochain(rng, space, degs[1])
            out = derived_bracket(space, p, q, HARD_ARITY_CAP)
            assert out.degree == degs[0] + degs[1]


def test_derived_bracket_jacobi_and_antisymmetry_low_degree(a2, m_a2,
                                                            noncommutative_rb):
    rng = random.Random(100513)
    alg_nc, mod_nc, _ = noncommutative_rb
    for alg, mod in [(a2, m_a2), (alg_nc, mod_nc)]:
        space = CochainSpace(alg, mod)
        for _ in range(4):
            p, q, r = (random_cochain(rng, space, 1) for _ in range(3))
            s1 = derived_bracket(space, derived_bracket(space, p, q), r,
                                 HARD_ARITY_CAP)
            s2 = derived_bracket(space, derived_bracket(space, q, r), p,
                                 HARD_ARITY_CAP)
            s3 = derived_bracket(space, derived_bracket(space, r, p), q,
                                 HARD_ARITY_CAP)
            assert (s1 + s2 + s3).is_zero()
        for degs in [(1, 1), (1, 2)]:
            p = random_cochain(rng, space, degs[0])
            q = random_cochain(rng, space, degs[1])
            pq = derived_bracket(space, p, q, HARD_ARITY_CAP)
            qp = derived_bracket(space, q, p, HARD_ARITY_CAP)
            assert pq == qp.scale(-sgn(degs[0] * degs[1]))


def test_rb_differential_squares_to_zero_on_corpus(cohomology_corpus):
    rng = random.Random(100514)
    for name, alg, mod, op, _ in cohomology_corpus:
        space = CochainSpace(alg, mod)
        if alg.dim + mod.mdim > 4:
            degrees = (0, 1)
        else:
            degrees = (0, 1, 2)
        for degree in degrees:
            for _ in range(3):
                p = random_cochain(rng, space, degree)
                once = rb_differential(space, op, p, HARD_ARITY_CAP)
                twice = rb_differential(space, op, once, HARD_ARITY_CAP)
                assert twice.is_zero(), (name, degree)


def test_rb_differential_degree_one_is_always_a_differential(noncommutative_rb):
    """d_T d_T = 0 on degree-1 cochains holds for every Rota-Baxter operator,
    including noncommutative fixtures (reversal-cancellation argument)."""
    rng = random.Random(100515)
    alg, mod, op = noncommutative_rb
    space = CochainSpace(alg, mod)
    for _ in range(6):
        p = random_cochain(rng, space, 1)
        once = rb_differential(space, op, p, HARD_ARITY_CAP)
        assert rb_differential(space, op, once, HARD_ARITY_CAP).is_zero()


def test_rb_differential_not_square_zero_beyond_degree_one(defect_rb):
    """On noncommutative anti-flexible data the differential can fail to
    square to zero away from degree 1; this records that boundary rather
    than asserting the unprovable."""
    rng = random.Random(100516)
    alg, mod, op = defect_rb
    space = CochainSpace(alg, mod)
    failed = False
    for pos in range(space.adim):
        data = [0] * space.adim
        data[pos] = 1
        p = Cochain(0, space.mdim, space.adim, data)
        once = rb_differential(space, op, p, HARD_ARITY_CAP)
        if not rb_differential(space, op, once, HARD_ARITY_CAP).is_zero():
            failed = True
    assert failed
    # degree 1 still is a differential even here
    for _ in range(4):
        p = random_cochain(rng, space, 1)
        once = rb_differential(space, op, p, HARD_ARITY_CAP)
        assert rb_differential(space, op, once, HARD_ARITY_CAP).is_zero()


def test_twisted_mc_equivalence(a2, m_a2, t_inv, t_nil, rb_pairs):
    rng = random.Random(100517)
    space = CochainSpace(a2, m_a2)
    # T' = 0 and T' = T are the anchored cases
    assert twisted_mc_check(space, t_inv, Matrix.zeros(2, 2)) == (True, True)
    assert twisted_mc_check(space, t_inv, t_inv) == (True, True)
    for op in (t_inv, t_nil):
        for _ in range(10):
            other = random_matrix(rng, 2, 2)
            sum_rb, twisted = twisted_mc_check(space, op, other)
            assert sum_rb == twisted


def test_twisted_mc_requires_rb_base(a1, m_a1):
    space = CochainSpace(a1, m_a1)
    with pytest.raises(ValueError):
        twisted_mc_check(space, Matrix.identity(1), Matrix.zeros(1, 1))


# -- cochains are multilinear maps ---------------------------------------------

def test_cochain_is_a_non_square_multimap():
    c = Cochain(2, 3, 2, range(18))
    assert isinstance(c, MultiMap)
    assert (c.degree, c.mdim, c.adim) == (c.arity, c.in_dim, c.out_dim) == (2, 3, 2)
    for result in (c + c, c - c, -c, c.scale(3), c.permute_inputs((1, 0))):
        assert type(result) is Cochain and result.mdim == 3 and result.adim == 2
    assert Cochain.zero(2, 3, 2) == c - c
    with pytest.raises(LinAlgError):
        c.dim


def test_cochain_shape_mismatch_raises():
    c = Cochain.zero(1, 2, 3)
    for other in (Cochain.zero(2, 2, 3), Cochain.zero(1, 3, 3),
                  Cochain.zero(1, 2, 2)):
        with pytest.raises(LinAlgError):
            c + other
        with pytest.raises(LinAlgError):
            c - other


def test_cochain_hash_and_equality_follow_data_and_shape():
    rng = random.Random(100518)
    data = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
    a = Cochain(1, 2, 3, data)
    b = Cochain(1, 2, 3, list(data))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same six entries under the other shapes are different cochains
    assert a != Cochain(1, 3, 2, data)
    assert a != Cochain(0, 5, 6, data)
    assert a != Cochain(1, 2, 3, [x + 1 for x in data])


def test_cochain_evaluate_is_the_weighted_sum_of_values():
    rng = random.Random(100519)
    for degree, mdim, adim in ((1, 3, 2), (2, 2, 3), (2, 3, 1), (0, 2, 2)):
        f = Cochain(degree, mdim, adim, [Fraction(rng.randint(-2, 2))
                                         for _ in range(mdim ** degree * adim)])
        args = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(mdim)) for _ in range(degree)]
        expected = [Fraction(0)] * adim
        for idx in itertools.product(range(mdim), repeat=degree):
            weight = Fraction(1)
            for arg, i in zip(args, idx):
                weight *= arg[i]
            expected = [e + weight * v for e, v in zip(expected, f.value(idx))]
        assert f.evaluate(*args) == tuple(expected)


def test_non_square_operator_matrix_roundtrip(a2, m_a2):
    rng = random.Random(100520)
    for rows, cols in ((2, 3), (3, 2), (1, 2)):
        op = random_matrix(rng, rows, cols)
        c = Cochain.from_matrix(op)
        assert type(c) is Cochain
        assert (c.degree, c.mdim, c.adim) == (1, cols, rows)
        assert c.as_matrix() == op
        for j in range(cols):
            assert c.value((j,)) == op.col(j)
    space = CochainSpace(a2, m_a2)
    op = random_matrix(rng, 2, 2)
    assert space.operator_cochain(op).as_matrix() == op
