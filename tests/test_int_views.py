"""The per-object integer views, and the contractions built on them, against
the dense routes they replaced.

`induced_bimodule_on_base`, `operators._star_product` and
`induced_pre_anti_flexible` contract the integer views of the bimodule and
of the operator.  The references below are the earlier routes
(`alg.multiply`, `op.apply` and `linear_combination` of the action matrices
on basis vectors), kept as oracles: every output must agree entry by entry,
down to the type of each entry, and every error must carry the same text.
A view filled in by a construction must stand for exactly the entries of
the object, and no view may be built twice.
"""

import random
import sys
from fractions import Fraction

import pytest

from antiflex import linalg
from antiflex.algebra import Algebra
from antiflex.bimodule import Bimodule, induced_bimodule_on_base, zero_bimodule
from antiflex.cohomology import ComplexError, RBComplex
from antiflex.linalg import (Matrix, MultiMap, basis_vector,
                             linear_combination, vec_add, vec_sub)
from antiflex.operators import (PreAntiFlexible, _star_product,
                                induced_pre_anti_flexible, star_algebra)
from antiflex.search import search_operators
from tests.test_scaled_laws import (VALUES, _exact, ref_classify,
                                    ref_is_bimodule, ref_is_rota_baxter)

# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------


def ref_star_product(mod, op):
    md = mod.mdim

    def fn(idx):
        i, j = idx
        return vec_add(linear_combination(op.col(j), mod.right).col(i),
                       linear_combination(op.col(i), mod.left).col(j))

    labels = tuple(f"m{i + 1}" for i in range(md))
    return Algebra(MultiMap.from_function(2, md, fn), labels)


def ref_star_algebra(alg, mod, op):
    ref_is_rota_baxter(alg, mod, op).require("operator is not Rota-Baxter")
    return ref_star_product(mod, op)


def ref_induced_bimodule_on_base(alg, mod, op):
    ref_is_rota_baxter(alg, mod, op).require("operator is not Rota-Baxter")
    star = ref_star_product(mod, op)
    d, md = alg.dim, mod.mdim
    left = []
    right = []
    for i in range(md):
        ti = op.col(i)
        lcols = []
        rcols = []
        for j in range(d):
            ej = basis_vector(j, d)
            lcols.append(vec_sub(alg.multiply(ti, ej), op.apply(mod.right[j].col(i))))
            rcols.append(vec_sub(alg.multiply(ej, ti), op.apply(mod.left[j].col(i))))
        left.append(Matrix.from_cols(lcols, rows=d))
        right.append(Matrix.from_cols(rcols, rows=d))
    if not ref_classify(alg).anti_flexible:
        ref_is_bimodule(star, left, right).require("not a bimodule")
    return Bimodule(star, left, right, check=False)


def ref_induced_pre_anti_flexible(alg, mod, op):
    ref_is_rota_baxter(alg, mod, op).require("operator is not Rota-Baxter")
    md = mod.mdim

    def succ_fn(idx):
        i, j = idx
        return linear_combination(op.col(i), mod.left).col(j)

    def prec_fn(idx):
        i, j = idx
        return linear_combination(op.col(j), mod.right).col(i)

    return PreAntiFlexible(MultiMap.from_function(2, md, prec_fn),
                           MultiMap.from_function(2, md, succ_fn))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _entries(data):
    return tuple((type(x), x) for x in data)


def _algebra_key(alg):
    return ("Algebra", alg.labels, _entries(alg.mul.data))


def _bimodule_key(mod):
    return ("Bimodule", _algebra_key(mod.base), mod.mdim,
            [_exact(m) for m in mod.left], [_exact(m) for m in mod.right])


def _pre_key(pre):
    return ("PreAntiFlexible", _entries(pre.prec.data), _entries(pre.succ.data))


def _outcome(fn, key, *args):
    try:
        return key(fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc))


def _dense(cols, rows):
    """The row-major entries that sparse columns over a denominator stand
    for, given as (cols, den); every listed entry must be nonzero."""
    cols, den = cols
    data = [Fraction(0)] * (rows * len(cols))
    for j, col in enumerate(cols):
        for i, x in col:
            assert type(x) is int and x != 0
            data[i * len(cols) + j] = Fraction(x, den)
    return tuple(data)


def assert_views_match(obj):
    """The view of an Algebra, Bimodule or Matrix stands for exactly its
    entries, whether built from them or filled in by a construction."""
    if isinstance(obj, Matrix):
        assert _dense(obj.int_view(), obj.rows) == obj.data
    elif isinstance(obj, Algebra):
        prod, den = obj.int_view()
        d = obj.dim
        # the products as the columns of a d x d^2 matrix, e_i.e_j at i*d + j
        cols = _dense((prod, den), d)
        assert tuple(cols[k * d * d + p] for p in range(d * d)
                     for k in range(d)) == obj.mul.data
    else:
        prod, left, right, den = obj.int_view()
        assert_views_match(obj.base)
        assert (_dense((prod, den), obj.base.dim)
                == _dense(obj.base.int_view(), obj.base.dim))
        for cols, m in zip(left + right, obj.left + obj.right):
            assert _dense((cols, den), obj.mdim) == m.data


def assert_contractions_agree(alg, mod, op):
    """Every contraction on (alg, mod, op) equals its reference route, and
    the views the induced bimodule carries match its entries.  Returns
    whether op is Rota-Baxter."""
    want = _outcome(ref_induced_bimodule_on_base, _bimodule_key, alg, mod, op)
    assert _outcome(induced_bimodule_on_base, _bimodule_key,
                    alg, mod, op) == want
    assert _outcome(star_algebra, _algebra_key, alg, mod, op) == \
        _outcome(ref_star_algebra, _algebra_key, alg, mod, op)
    assert _outcome(induced_pre_anti_flexible, _pre_key, alg, mod, op) == \
        _outcome(ref_induced_pre_anti_flexible, _pre_key, alg, mod, op)
    assert _algebra_key(_star_product(mod, op)) == \
        _algebra_key(ref_star_product(mod, op))
    if want[0] != "Bimodule":
        return False
    induced = induced_bimodule_on_base(alg, mod, op)
    assert_views_match(induced)
    for m in induced.left + induced.right:
        assert_views_match(m)
    return True


# ---------------------------------------------------------------------------
# the fixture corpus
# ---------------------------------------------------------------------------


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [rng.choice(VALUES) for _ in range(rows * cols)])


def _corpus_triples(cohomology_corpus, noncommutative_rb, defect_rb):
    triples = [(alg, mod, op) for _, alg, mod, op, _ in cohomology_corpus]
    return triples + [noncommutative_rb, defect_rb]


def test_corpus_contractions_equal_the_dense_routes(cohomology_corpus,
                                                    noncommutative_rb,
                                                    defect_rb, rb_pairs):
    rng = random.Random(6101)
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        assert assert_contractions_agree(alg, mod, op)
        # a non-Rota-Baxter perturbation raises the same ValueError text
        if op.rows and op.cols:
            bent = op + _random_matrix(rng, op.rows, op.cols)
            assert_contractions_agree(alg, mod, bent)
    outcomes = set()
    for alg, mod in rb_pairs:
        grid = (0, 1, Fraction(-1, 2)) if alg.dim * mod.mdim <= 4 else ()
        hits = search_operators(alg, mod, grid, ("rota-baxter",)) if grid else []
        ops = hits + [Matrix.zeros(alg.dim, mod.mdim)]
        ops += [_random_matrix(rng, alg.dim, mod.mdim) for _ in range(6)]
        for op in ops:
            outcomes.add(assert_contractions_agree(alg, mod, op))
    assert outcomes == {True, False}


def test_complex_matrices_carry_matching_views(cohomology_corpus,
                                               noncommutative_rb, defect_rb):
    """d_n is built from the induced view over its scale; its own view, read
    by the complex check, stands for exactly its entries."""
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        cx = RBComplex(alg, mod, op)
        assert_views_match(cx.induced)
        for n in range(3 if alg.dim < 3 else 2):
            assert_views_match(cx.differential_matrix(n))
    with pytest.raises(ComplexError):
        RBComplex(*defect_rb).dims(2)


def test_non_anti_flexible_base_is_still_validated():
    """e.f = f is the only product: (e, e, e) = 0 but the base is not
    anti-flexible, so the induced actions are validated, and with T(m) = e
    they fail with the reference route's text; with T = 0 they pass."""
    alg = Algebra.from_products(2, {(0, 1): {1: 1}})
    mod = zero_bimodule(alg, 1)
    op = Matrix.from_rows([[1], [0]])
    assert not ref_classify(alg).anti_flexible
    with pytest.raises(ValueError, match="^not a bimodule: bimodule: FAIL"):
        induced_bimodule_on_base(alg, mod, op)
    assert not assert_contractions_agree(alg, mod, op)
    assert assert_contractions_agree(alg, mod, Matrix.zeros(2, 1))


def test_actions_over_another_base_use_the_given_algebra(a2, m_a2, t_inv):
    """The algebra passed in, not the bimodule's own base, supplies the
    constants, as on the dense route."""
    other = Algebra(a2.mul.scale(2), a2.labels)
    for alg in (a2, other):
        for op in (t_inv, t_inv.scale(Fraction(1, 3)), Matrix.zeros(2, 2)):
            assert_contractions_agree(alg, m_a2, op)


# ---------------------------------------------------------------------------
# seeded random Rota-Baxter triples with non-integer data
# ---------------------------------------------------------------------------


def _random_invertible(rng, n):
    while True:
        m = _random_matrix(rng, n, n)
        if m.inverse() is not None:
            return m


def transport(alg, mod, op, p, q, lam=1, mu=1):
    """An isomorphic copy of a triple in the bases of A and M given by the
    columns of the invertible p and q, with the constants and actions
    scaled by lam and T by mu.  The Rota-Baxter identity and the bimodule
    laws are homogeneous, so the copy is again a Rota-Baxter triple."""
    d = alg.dim
    pinv, qinv = p.inverse(), q.inverse()
    constants = []
    for i in range(d):
        for j in range(d):
            constants.extend(pinv.apply(alg.multiply(p.col(i), p.col(j))))
    moved = Algebra(MultiMap(2, d, constants).scale(lam))
    left = [(qinv @ linear_combination(p.col(i), mod.left) @ q).scale(lam)
            for i in range(d)]
    right = [(qinv @ linear_combination(p.col(i), mod.right) @ q).scale(lam)
             for i in range(d)]
    return (moved, Bimodule(moved, left, right, check=False),
            (pinv @ op @ q).scale(mu))


def _transported(rng, alg, mod, op):
    """The triple in seeded random bases, with the constants and actions
    scaled by one fraction and T by another (see `transport`)."""
    p = _random_invertible(rng, alg.dim)
    q = _random_invertible(rng, mod.mdim)
    lam, mu = rng.choice(VALUES[4:]), rng.choice(VALUES[4:])
    return transport(alg, mod, op, p, q, lam, mu)


def test_random_rb_triples_equal_the_dense_routes(cohomology_corpus,
                                                  noncommutative_rb,
                                                  defect_rb):
    """Every corpus triple in seeded random fractional bases: the
    contractions agree with the references, the scale D_alg * D_T is not 1,
    and the cohomology anchors (basis- and scale-invariant) are unchanged."""
    rng = random.Random(6102)
    anchors = [rows for _, _, _, _, rows in cohomology_corpus] + [None, None]
    fractional = 0
    for (alg, mod, op), rows in zip(
            _corpus_triples(cohomology_corpus, noncommutative_rb, defect_rb),
            anchors):
        for _ in range(3):
            moved, moved_mod, moved_op = _transported(rng, alg, mod, op)
            assert ref_is_rota_baxter(moved, moved_mod, moved_op).ok
            assert ref_is_bimodule(moved, moved_mod.left, moved_mod.right).ok
            assert assert_contractions_agree(moved, moved_mod, moved_op)
            den = moved_mod.int_view()[3] * moved_op.int_view()[1]
            fractional += den != 1
            if rows is not None:
                got = RBComplex(moved, moved_mod, moved_op).dims(len(rows) - 1)
                assert got.degrees == rows
    assert fractional >= 20
    with pytest.raises(ComplexError):
        RBComplex(*_transported(rng, *defect_rb)).dims(2)


# ---------------------------------------------------------------------------
# each view is built at most once per object
# ---------------------------------------------------------------------------


def _record_scalings(monkeypatch):
    """The parts of every `integer_scaled` call any package module makes."""
    original = linalg.integer_scaled
    calls = []

    def recording(*parts):
        parts = [tuple(p) for p in parts]
        calls.append(parts)
        return original(*parts)

    for name, module in list(sys.modules.items()):
        if (name.startswith("antiflex")
                and getattr(module, "integer_scaled", None) is original):
            monkeypatch.setattr(module, "integer_scaled", recording)
    return calls


def _fresh(alg, mod):
    """Copies of an algebra and bimodule with no views built yet."""
    base = Algebra(alg.mul, alg.labels)
    return base, Bimodule(base, mod.left, mod.right, check=False)


def test_a_sweep_scales_the_algebra_and_bimodule_once(a2, m_a2, monkeypatch):
    alg, mod = _fresh(a2, m_a2)
    calls = _record_scalings(monkeypatch)
    hits = search_operators(alg, mod, (-1, 0, 1), ("rota-baxter",))
    assert hits
    # the algebra's view is read off the ints of its product map, with no
    # scaling; the bimodule's actions are scaled once, over a multiple of
    # the algebra's denominator, and the grid values once; no candidate of
    # the 3^4 grid is scaled
    assert len(calls) == 2
    assert calls[0] == [(Fraction(1, alg.mul.den),)] + [
        m.data for m in mod.left + mod.right]
    assert calls[-1] == [(-1, 0, 1)]


def test_a_complex_builds_each_view_once(a2_plus_a1, m_a2_plus_a1,
                                         monkeypatch):
    alg, mod = _fresh(a2_plus_a1, m_a2_plus_a1)
    op = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    calls = _record_scalings(monkeypatch)
    RBComplex(alg, mod, op).dims(3)
    # one scaling each for the bimodule and the operator (is_rota_baxter);
    # the algebra's view is read off its product map's ints, and the
    # induced structures and every d_n get theirs from the contraction that
    # built them
    assert sorted(len(parts) for parts in calls) == [1, 1 + 2 * alg.dim]
    calls.clear()
    RBComplex(alg, mod, op).dims(3)
    assert calls == []
