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

import collections
import functools
import random
import sys
from fractions import Fraction

import pytest

from antiflex import linalg
from antiflex.algebra import Algebra
from antiflex.bimodule import (Bimodule, _induced_view,
                               induced_bimodule_on_base, regular_bimodule,
                               zero_bimodule)
from antiflex.cohomology import ComplexError, RBComplex
from antiflex.linalg import (Matrix, MultiMap, _rescaled, basis_vector,
                             linear_combination, vec_add, vec_sub)
from antiflex.operators import (PreAntiFlexible, _star_product,
                                induced_pre_anti_flexible,
                                rb_morphism_graph_check, star_algebra)
from antiflex.search import search_algebras, search_operators
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
    return Bimodule(star, left, right, check=False, mdim=d)


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
    """The view of an Algebra, Bimodule, Matrix or arity-2 MultiMap stands
    for exactly its entries, whether built from them or filled in by a
    construction."""
    if isinstance(obj, Matrix):
        assert _dense(obj.int_view(), obj.rows) == obj.data
    elif isinstance(obj, MultiMap):
        groups, den = obj.int_view()
        n, out = obj.in_dim, obj.out_dim
        assert obj.arity == 2 and len(groups) == n * n
        # the images as the columns of an out x n^2 matrix, (i, j) at i*n + j
        cols = _dense((groups, den), out)
        assert tuple(cols[k * n * n + p] for p in range(n * n)
                     for k in range(out)) == obj.data
    elif isinstance(obj, Algebra):
        assert obj.int_view() is obj.mul.int_view()
        assert_views_match(obj.mul)
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
        assert_views_match(cx.pi_swapped)
        for n in range(3 if alg.dim < 3 else 2):
            assert_views_match(cx.differential_matrix(n))
    with pytest.raises(ComplexError):
        RBComplex(*defect_rb).dims(2)


def test_star_algebra_equals_the_complex_star(cohomology_corpus,
                                              noncommutative_rb, defect_rb):
    """`star_algebra` and `RBComplex.star` lay out (M, star) from the same
    sparse groups: the same algebra, labels and integer view, which stands
    for its entries, also for the operator scaled by 1/2 and 3 (the law is
    homogeneous)."""
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        for scaled in (op, op.scale(Fraction(1, 2)), op.scale(3)):
            star = star_algebra(alg, mod, scaled)
            want = RBComplex(alg, mod, scaled).star
            assert star == want and star.labels == want.labels
            assert star.int_view() == want.int_view()
            assert_views_match(star)


def test_a_bimodule_rescales_each_view_by_its_own_denominator(
        a2_plus_a1, m_a2_plus_a1):
    """A view filled in by `_of_view` need not be in lowest terms.  On
    A2+A1 with its regular bimodule, most nonzero Rota-Baxter operators
    over {-1/2, 0, 1/2, 1} induce actions whose views are over 2 while
    their entries are over 1.  A bimodule built anew over those actions
    rescales each view from the view's own denominator, so its view stands
    for its entries, and the graph route to the morphism property compares
    the induced bimodule with a copy whose views are read off its entries
    over the denominators of the two views."""
    grid = (Fraction(-1, 2), 0, Fraction(1, 2), 1)
    ops = search_operators(a2_plus_a1, m_a2_plus_a1, grid,
                           ("rota-baxter", "nonzero"))
    assert len(ops) == 79
    d, md = a2_plus_a1.dim, m_a2_plus_a1.mdim
    zero, phi, psi = (Matrix.zeros(md, d), Matrix.identity(md),
                      Matrix.identity(d))
    unreduced = 0
    for op in ops:
        induced = RBComplex(a2_plus_a1, m_a2_plus_a1, op).induced
        acts = induced.left + induced.right
        unreduced += any(m.int_view()[1] != m.den for m in acts)
        assert_views_match(Bimodule(induced.base, induced.left,
                                    induced.right, check=False))
        star, copy = _fresh(induced.base, induced)
        assert rb_morphism_graph_check(induced.base, induced, zero,
                                       star, copy, zero, phi, psi)
    assert unreduced == 72


def test_search_hits_carry_the_views_of_their_entries():
    """A searched algebra is built with its integer view.  On every hit that
    view stands for its entries, and it equals the view `int_view` reads off
    the entries of a copy, written over the grid's denominator.  On the grid
    {-1, 1/2, 2} a hit whose constants are all integers has its entries put
    over 1, while its view keeps the grid's 2."""
    reduced = 0
    half = Fraction(1, 2)
    for dim, coeffs, den in ((1, (-1, 0, 1), 1), (2, (-1, 0, 1), 1),
                             (2, (-7, 0, 7), 1), (1, (-1, half, 2, 0), 2),
                             (2, (-1, half, 2), 2)):
        hits = search_algebras(dim, coeffs, ["anti-flexible"])
        assert hits
        for alg in hits:
            groups, view_den = alg.int_view()
            copy = MultiMap._of_ints(2, dim, dim, dict(alg.mul.entries),
                                     alg.mul.den)
            fresh, fresh_den = copy.int_view()
            assert view_den == den and den % fresh_den == 0
            assert groups == _rescaled(fresh, fresh_den, den)
            assert_views_match(alg)
            reduced += fresh_den < den
    assert reduced > 0


@functools.lru_cache(maxsize=None)
def census_triples():
    """Every anti-flexible dim-2 algebra over {-1, 0, 1} with its regular
    bimodule and every nonzero Rota-Baxter operator over {-1, 0, 1}: the
    616 triples of the complex-property census in test_cohomology."""
    triples = []
    for alg in search_algebras(2, (-1, 0, 1), ["anti-flexible"]):
        mod = regular_bimodule(alg)
        triples += [(alg, mod, op) for op in search_operators(
            alg, mod, (-1, 0, 1), ["rota-baxter", "nonzero"])]
    return tuple(triples)


def _view_values(view, adim):
    """An induced view (prod, left, right, scale) as exact values: the
    star constants in the order of `MultiMap.data` and each action in that
    of `Matrix.data`."""
    prod, left, right, scale = view
    md = len(left)
    star = [Fraction(0)] * md ** 3
    for p, img in enumerate(prod):
        for k, x in img:
            assert type(x) is int and x != 0
            star[p * md + k] = Fraction(x, scale)
    return (tuple(star), [_dense((cols, scale), adim) for cols in left],
            [_dense((cols, scale), adim) for cols in right])


def test_the_induced_view_equals_the_objects_and_the_reference(
        cohomology_corpus, noncommutative_rb, defect_rb):
    """The view `RBComplex` reads, formed without the induced objects, is
    the view of `induced_bimodule_on_base` and stands for the entries of
    the reference route's star product and actions, entry by entry."""
    triples = (_corpus_triples(cohomology_corpus, noncommutative_rb,
                               defect_rb) + list(census_triples()))
    assert len(triples) == 8 + 616
    for alg, mod, op in triples:
        view = _induced_view(alg, mod, op)
        assert view == induced_bimodule_on_base(alg, mod, op).int_view()
        assert view == RBComplex(alg, mod, op)._view
        ref = ref_induced_bimodule_on_base(alg, mod, op)
        assert _view_values(view, alg.dim) == (
            ref.base.mul.data, [m.data for m in ref.left],
            [m.data for m in ref.right])


def _refusal(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_the_induced_view_keeps_the_refusals(cohomology_corpus,
                                             noncommutative_rb, defect_rb):
    """A non-Rota-Baxter operator, and a non-anti-flexible base whose
    induced actions fail the bimodule laws, are refused by the view, the
    induced objects and the complex with the reference route's text."""
    rng = random.Random(6103)
    cases = []
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        cases += [(alg, mod, op + _random_matrix(rng, op.rows, op.cols))
                  for _ in range(3)]
    alg = Algebra.from_products(2, {(0, 1): {1: 1}})
    cases.append((alg, zero_bimodule(alg, 1), Matrix.from_rows([[1], [0]])))
    texts = collections.Counter()
    for case in cases:
        want = _refusal(ref_induced_bimodule_on_base, *case)
        for fn in (_induced_view, induced_bimodule_on_base, RBComplex):
            assert _refusal(fn, *case) == want
        texts[want and want[1].split(":")[0]] += 1
    assert texts["operator is not Rota-Baxter"] >= 12
    assert texts["not a bimodule"] == 1


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


def _record_calls(monkeypatch, name):
    """The arguments of every call any package module makes to the linalg
    helper `name`, each sequence argument as a tuple."""
    original = getattr(linalg, name)
    calls = []

    def recording(*args):
        args = [tuple(a) if isinstance(a, (list, tuple)) else a for a in args]
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("antiflex")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, recording)
    return calls


def _record_scalings(monkeypatch):
    """The parts of every `integer_scaled` call any package module makes."""
    return _record_calls(monkeypatch, "integer_scaled")


def _map_key(m):
    """A map as the view records of `_record_views` name it."""
    return [type(m).__name__, m.arity, m.in_dim, m.out_dim, m.data]


def _record_views(monkeypatch):
    """Every integer view a package module builds: the `_map_key` of each
    map whose `MultiMap.int_view` reads its view off its entries (the one
    path that builds a view; a construction that fills one builds none),
    and the (cells, rows, cols) of each full-rank test of a search, with
    `_nonzero_cols`."""
    views = _record_calls(monkeypatch, "_nonzero_cols")
    int_view = MultiMap.int_view

    def recording(m):
        if m._view is None:
            views.append(_map_key(m))
        return int_view(m)

    monkeypatch.setattr(MultiMap, "int_view", recording)
    return views


def _fresh(alg, mod):
    """Copies of an algebra and bimodule, down to the product map and the
    action matrices, with no views built yet."""
    base = Algebra(alg.mul._recast(MultiMap), alg.labels)
    return base, Bimodule(base, [m._recast(Matrix) for m in mod.left],
                          [m._recast(Matrix) for m in mod.right], check=False)


def test_a_sweep_scales_the_algebra_and_bimodule_once(a2, m_a2, monkeypatch):
    alg, mod = _fresh(a2, m_a2)
    calls = _record_scalings(monkeypatch)
    views = _record_views(monkeypatch)
    hits = search_operators(alg, mod, (-1, 0, 1), ("rota-baxter",))
    assert hits
    # the algebra's view is read off the ints of its product map and the
    # bimodule's off the ints of its actions, with no scaling; the grid
    # values are scaled once, and no candidate of the 3^4 grid is scaled
    assert calls == [[(-1, 0, 1)]]
    # the bimodule's view is built once, from one view of the product map
    # and one per action
    assert views == [_map_key(m) for m in (alg.mul,) + mod.left + mod.right]


def test_a_complex_builds_each_view_once(a2_plus_a1, m_a2_plus_a1,
                                         monkeypatch):
    alg, mod = _fresh(a2_plus_a1, m_a2_plus_a1)
    op = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    calls = _record_scalings(monkeypatch)
    views = _record_views(monkeypatch)
    RBComplex(alg, mod, op).dims(3)
    # nothing is scaled: the algebra's, the bimodule's and the operator's
    # views are read off their ints, and the induced structures and every
    # d_n get theirs from the contraction that built them
    assert calls == []
    # one view for the product map and one per action (the bimodule's
    # view), then one for the operator (the Rota-Baxter sweep)
    assert views == [_map_key(m) for m in
                     (alg.mul, *mod.left, *mod.right, op)]
    views.clear()
    RBComplex(alg, mod, op).dims(3)
    assert calls == views == []


def test_a_rebased_bimodule_builds_its_view_once(a2, m_a2, monkeypatch):
    """Over an algebra that is not the bimodule's base, the Rota-Baxter law
    reads the view of the actions rebased onto that algebra.  A
    `rota-baxter` search, `star_algebra` and `RBComplex` each build that
    view once, and their results are those over the rebased bimodule
    itself."""
    other = Algebra(a2.mul.scale(2), a2.labels)
    rebased = Bimodule(other, m_a2.left, m_a2.right, check=False)
    want = search_operators(other, rebased, (-1, 0, 1),
                            ("rota-baxter", "nonzero"))
    op = want[0]
    want_star = _algebra_key(star_algebra(other, rebased, op))
    want_view = RBComplex(other, rebased, op)._view
    built = []
    int_view = Bimodule.int_view

    def recording(mod):
        if mod._view is None:
            built.append(mod)
        return int_view(mod)

    monkeypatch.setattr(Bimodule, "int_view", recording)
    counts = []
    for run in (lambda: search_operators(other, m_a2, (-1, 0, 1),
                                         ("rota-baxter", "nonzero")) == want,
                lambda: _algebra_key(star_algebra(other, m_a2, op))
                == want_star,
                lambda: RBComplex(other, m_a2, op)._view == want_view):
        built.clear()
        assert run()
        counts.append(len(built))
        assert all(mod.base is other for mod in built)
    assert counts == [1, 1, 1]
