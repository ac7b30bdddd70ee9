"""The sparse bracket of `glie` against the dense route it replaced.

`tests/dense_bracket.py` keeps the dense `_insertion_sum` /
`DenseMap.from_function` bracket as the oracle.  The two must agree on the
whole fixture corpus (structure elements, self-brackets, derived brackets,
the differential on the swapped blocks, the deformation verdicts), on
seeded random maps of arity 0-4 with fractional entries, and, in a child
interpreter, on a `hypothesis` property (`sparse_bracket_property.py`).
Equality between a `MultiMap` and a dense map is tested in both orders,
since the tests compare the results of the two routes either way round.
"""

import importlib.util
import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from antiflex import deformation, glie
from antiflex.algebra import Algebra
from antiflex.cohomology import ComplexError, RBComplex, _bracket_on_blocks
from antiflex.deformation import (InfinitesimalDeformation,
                                  are_equivalent_deformations,
                                  block_operator,
                                  deformation_difference_is_exact,
                                  is_nijenhuis_structure,
                                  is_trivial_deformation,
                                  trivial_deformation_from)
from antiflex.glie import (HARD_ARITY_CAP, Cochain, CochainSpace, compose_bar, derived_bracket, embed_blocks,
                           graded_bracket, mc_check_algebra_bimodule,
                           restrict_blocks, reversal)
from antiflex.linalg import LinAlgError, Matrix, MultiMap
from antiflex.operators import nijenhuis_power_suite
from antiflex.search import search_operators
from tests import dense_bracket as dense
from tests.dense_multimap import DenseMap
from tests.test_scaled_laws import VALUES, run_in_child


def random_map(rng, arity, dim, values=VALUES):
    return MultiMap(arity, dim, [rng.choice(values)
                                 for _ in range(dim ** (arity + 1))])


def dense_of(m):
    """The dense oracle's copy of a map, from its slots."""
    return DenseMap(m.arity, m.in_dim, m.out_dim, m.data)


def random_cochain(rng, degree, mdim, adim):
    return Cochain(degree, mdim, adim, [rng.choice(VALUES)
                                        for _ in range(mdim ** degree * adim)])


def nonzeros(m):
    return sum(1 for x in m.data if x)


def _corpus(cohomology_corpus, noncommutative_rb, defect_rb):
    return ([(name, alg, mod, op) for name, alg, mod, op, _ in cohomology_corpus]
            + [("noncommutative_rb", *noncommutative_rb),
               ("defect_rb", *defect_rb)])


# -- the representation --------------------------------------------------------

def test_sparse_and_dense_maps_compare_in_both_orders():
    rng = random.Random(1101)
    s = random_map(rng, 2, 2)
    d = dense_of(s)
    other = s + MultiMap(2, 2, [Fraction(1, 3)] + [0] * 7)
    for a, b in ((s, d), (d, s)):
        assert a == b and not a != b
    for a, b in ((s, other), (other, s), (d, other), (other, d)):
        assert a != b and not a == b
    # a square cochain with the same entries is the same map
    c = Cochain(2, 2, 2, s.data)
    assert c == s and s == c and c == d and hash(c) == hash(s)
    # other shapes and other types are different
    for foreign in (Cochain(1, 2, 4, s.data), Matrix(2, 4, s.data),
                    MultiMap(1, 2, s.data[:4]), s.data, None, 0):
        for m in (s, d):
            assert m != foreign and foreign != m
            assert not m == foreign and not foreign == m
    assert MultiMap._of_ints(2, 2, 2, {}) == MultiMap.zero(2, 2)
    assert MultiMap.zero(2, 2) == DenseMap.zero(2, 2)
    assert DenseMap.zero(2, 2) == MultiMap.zero(2, 2)


def test_sparse_maps_are_kept_in_lowest_terms():
    m = MultiMap._of_ints(1, 2, 2, {(0, 0): 4, (1, 0): -6, (1, 1): 0}, 8)
    assert (m.entries, m.den) == ({(0, 0): 2, (1, 0): -3}, 4)
    # the dense constructor writes its slots over their least common
    # denominator, which is in lowest terms with them
    assert m == MultiMap(1, 2, [Fraction(1, 2), 0, Fraction(-3, 4), 0])
    assert m.value((1,)) == (Fraction(-3, 4), Fraction(0))
    assert (m - m).entries == {} and (m - m).den == 1
    assert m.scale(Fraction(2, 3)) == MultiMap._of_ints(
        1, 2, 2, {(0, 0): 2, (1, 0): -3}, 6)
    assert m.scale(0) == MultiMap.zero(1, 2) and m.scale(0).den == 1
    assert -m == m.scale(-1) and (m + m) == m.scale(2)
    assert m != m.scale(2) and m.scale(2) != m
    with pytest.raises(LinAlgError):
        m + MultiMap.zero(2, 2)
    with pytest.raises(IndexError):
        m.value((2,))
    assert m.as_matrix() == Matrix.from_rows([[Fraction(1, 2), Fraction(-3, 4)],
                                              [0, 0]])


# -- against the dense oracle ---------------------------------------------------

def test_random_maps_equal_the_dense_oracle():
    """compose_bar, graded_bracket and reversal on seeded random maps of
    arity 0-4, dim 1-3, fractional entries and about a third zeros."""
    rng = random.Random(1102)
    cases = both_zero = 0
    for fa, ga in itertools.product(range(5), repeat=2):
        if fa + ga == 0:
            with pytest.raises(LinAlgError):
                compose_bar(random_map(rng, 0, 2), random_map(rng, 0, 2))
            continue
        out = fa + ga - 1
        for dim in (1, 2, 3) if max(out, fa, ga) <= 3 else (1, 2):
            f, g = random_map(rng, fa, dim), random_map(rng, ga, dim)
            for sparse_fn, dense_fn in ((compose_bar, dense.compose_bar),
                                        (graded_bracket, dense.graded_bracket)):
                got = sparse_fn(f, g, HARD_ARITY_CAP)
                want = dense_fn(dense_of(f), dense_of(g), HARD_ARITY_CAP)
                assert type(got) is MultiMap
                assert got.data == want.data, (fa, ga, dim)
                assert len(got.entries) == nonzeros(want)
                both_zero += want.is_zero()
            assert reversal(f).data == dense.reversal(dense_of(f)).data
            cases += 1
    assert cases == 60 and 0 < both_zero < 2 * cases


def test_random_embeddings_and_restrictions_equal_the_dense_oracle():
    """Both block layouts; restriction of embedded cochains and of random
    maps, with the closure report compared in full."""
    rng = random.Random(1103)
    failed = {"component outside the output block": 0,
              "nonzero value outside the input block": 0}
    for _ in range(40):
        degree, mdim, adim = rng.randint(0, 3), rng.randint(1, 2), rng.randint(1, 2)
        total = mdim + adim
        c = random_cochain(rng, degree, mdim, adim)
        for in_offset, out_offset in ((adim, 0), (0, mdim)):
            emb = embed_blocks(c, in_offset, out_offset, total)
            assert emb == dense.embed_blocks(c, in_offset, out_offset, total)
            back, report = restrict_blocks(emb, in_offset, mdim, out_offset, adim)
            assert report.ok and back == c and type(back) is Cochain
            stray = random_map(rng, degree, total,
                                 values=(0,) * 6 + VALUES)
            want = dense.restrict_blocks(dense_of(stray), in_offset, mdim,
                                         out_offset, adim)
            got = restrict_blocks(stray, in_offset, mdim, out_offset, adim)
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert repr(got[1].violations) == repr(want[1].violations)
            if not want[1].ok:
                failed[want[1].first().law] += 1
    assert all(failed.values()), failed


def test_corpus_brackets_equal_the_dense_oracle(cohomology_corpus,
                                                noncommutative_rb, defect_rb):
    rng = random.Random(1104)
    for name, alg, mod, op in _corpus(cohomology_corpus, noncommutative_rb,
                                      defect_rb):
        space = CochainSpace(alg, mod)
        pi = dense.space_pi(alg, mod)
        assert space.pi == pi and len(space.pi.entries) == nonzeros(pi), name
        assert compose_bar(space.pi, space.pi, HARD_ARITY_CAP).data \
            == dense.compose_bar(pi, pi, HARD_ARITY_CAP).data, name
        assert mc_check_algebra_bimodule(alg, mod.left, mod.right) \
            == dense.mc_check(alg, mod.left, mod.right) is True, name
        t = space.operator_cochain(op)
        pairs = [(t, t)] + [
            (random_cochain(rng, p, mod.mdim, alg.dim),
             random_cochain(rng, q, mod.mdim, alg.dim))
            for p, q in ((0, 1), (1, 0), (1, 1), (1, 2))]
        for p, q in pairs:
            assert derived_bracket(space, p, q, HARD_ARITY_CAP) \
                == dense.derived_bracket(alg, mod, p, q, HARD_ARITY_CAP), name
        # the differential on the swapped blocks, column by column
        cx = RBComplex(alg, mod, op)
        swapped = dense.structure_element(cx.star.mul, cx.induced.left,
                                          cx.induced.right, cx.adim)
        assert cx.pi_swapped == swapped, name
        for degree in range(3 if cx.mdim + cx.adim <= 4 else 2):
            size = cx.dim_cochains(degree)
            for pos in range(size):
                f = cx.cochain(degree, [int(i == pos) for i in range(size)])
                col, report = dense.bracket_on_blocks(swapped, f)
                assert report.ok
                assert _bracket_on_blocks(cx.pi_swapped, f) == col, (name, pos)
    with pytest.raises(ComplexError):
        RBComplex(*defect_rb).dims(2)


def test_blocks_left_raise_the_dense_oracles_complex_error(noncommutative_rb):
    """A degree-1 map that is no structure element takes [pi, f] out of the
    cochain block; both routes name the same first violation."""
    rng = random.Random(1105)
    alg, mod, op = noncommutative_rb
    cx = RBComplex(alg, mod, op)
    k, total = cx.mdim, cx.mdim + cx.adim
    seen = set()
    # (A, A) -> A alone leaks through inputs outside the block; a random
    # bilinear map leaks through outputs outside it
    for pi in [MultiMap(2, total, [int(i == total ** 3 - 1)
                                   for i in range(total ** 3)])] \
            + [random_map(rng, 2, total) for _ in range(4)]:
        for degree in (0, 1, 2):
            f = Cochain(degree, k, cx.adim, [rng.choice(VALUES[3:])
                                             for _ in range(cx.dim_cochains(degree))])
            col, report = dense.bracket_on_blocks(dense_of(pi), f)
            if report.ok:  # a constant cancels against (A, A) -> A
                assert _bracket_on_blocks(pi, f) == col
                continue
            seen.add(report.first().law)
            with pytest.raises(ComplexError) as exc:
                _bracket_on_blocks(pi, f)
            assert str(exc.value) == ("differential left the cochain space: "
                                      + report.describe())
    assert len(seen) == 2


def _deformation_cases(cohomology_corpus, noncommutative_rb, defect_rb):
    """(alg, mod, (N, S)) for Nijenhuis structures of the corpus pairs:
    scalar pairs and seeded random pairs that pass the check."""
    rng = random.Random(1106)
    pairs = {}
    for _, alg, mod, _ in _corpus(cohomology_corpus, noncommutative_rb,
                                  defect_rb):
        pairs.setdefault((id(alg), id(mod)), (alg, mod))
    for alg, mod in pairs.values():
        if alg.dim + mod.mdim > 4:
            continue
        found = [(Matrix.identity(alg.dim).scale(c),
                  Matrix.identity(mod.mdim).scale(c))
                 for c in (1, Fraction(-1, 2))]
        for _ in range(60):
            n = Matrix(alg.dim, alg.dim, [rng.choice((0, 0, 1, -1, 2))
                                          for _ in range(alg.dim ** 2)])
            s = Matrix(mod.mdim, mod.mdim, [rng.choice((0, 0, 1, -1, 2))
                                            for _ in range(mod.mdim ** 2)])
            if is_nijenhuis_structure(alg, mod, n, s).ok:
                found.append((n, s))
        yield alg, mod, found[:6]


def test_deformation_verdicts_equal_the_dense_oracle(cohomology_corpus,
                                                    noncommutative_rb,
                                                    defect_rb):
    rng = random.Random(1107)
    outcomes = {"equivalent": set(), "trivial": set(), "exact": set(),
                "valid": set()}
    for alg, mod, structures in _deformation_cases(
            cohomology_corpus, noncommutative_rb, defect_rb):
        zero = InfinitesimalDeformation.zero(alg.dim, mod.mdim)
        defos = [trivial_deformation_from(alg, mod, n, s)
                 for n, s in structures]
        bump = MultiMap(2, alg.dim, [Fraction(1, 2)] + [0] * (alg.dim ** 3 - 1))
        defos += [InfinitesimalDeformation(d.omega + bump, d.phi, d.psi)
                  for d in defos[:2]]
        for defo in defos:
            got = deformation.is_valid_deformation(alg, mod, defo)
            assert got == dense.is_valid_deformation(alg, mod, defo)
            outcomes["valid"].add(got)
            got = deformation_difference_is_exact(alg, mod, defo, zero)
            assert got == dense.deformation_difference_is_exact(alg, mod, defo,
                                                                zero)
            outcomes["exact"].add(got)
            for n, s in structures + [(Matrix.zeros(alg.dim, alg.dim),
                                       Matrix.zeros(mod.mdim, mod.mdim))]:
                got = is_trivial_deformation(alg, mod, defo, n, s)
                assert got == dense.are_equivalent_deformations(
                    alg, mod, defo, zero, n, s)
                outcomes["trivial"].add(got)
                other = defos[rng.randrange(len(defos))]
                got = are_equivalent_deformations(alg, mod, defo, other, n, s)
                assert got == dense.are_equivalent_deformations(
                    alg, mod, defo, other, n, s)
                outcomes["equivalent"].add(got)
    assert all(v == {True, False} for v in outcomes.values()), outcomes


def _deformation_of(mm, d, md):
    """(omega, phi, psi) of a map on A + M (A first) of the structure
    element's shape."""
    return InfinitesimalDeformation(
        MultiMap(2, d, [x for i, j in itertools.product(range(d), repeat=2)
                        for x in mm.value((i, j))[:d]]),
        [Matrix.from_cols([mm.value((i, d + j))[d:] for j in range(md)],
                          rows=md) for i in range(d)],
        [Matrix.from_cols([mm.value((d + j, i))[d:] for j in range(md)],
                          rows=md) for i in range(d)])


def test_equivalence_reads_conditions_ii_and_iii_apart(a2, m_a2):
    """Pairs with delta - delta' = [pi, N + S], so that (i) holds, built
    to fail only (ii) or only (iii); both verdicts are False on both
    routes.  The first delta' was found by solving (iii) linearly."""
    pi = dense.space_pi(a2, m_a2)
    z = Matrix.zeros(2, 2)
    cases = [  # (N, S, delta', the conditions)
        (Matrix.from_rows([[1, 0], [0, 0]]), z,
         InfinitesimalDeformation(MultiMap(2, 2, [0, Fraction(-1, 2)] + [0] * 6),
                                  [z, z], [z, z]),
         (True, False, True)),
        (Matrix.from_rows([[1, 1], [0, 2]]), Matrix.from_rows([[0, 1], [1, 0]]),
         InfinitesimalDeformation.zero(2, 2), (True, True, False))]
    for n, s, other, conditions in cases:
        lam = DenseMap.from_matrix(block_operator(n, s))
        defo = _deformation_of(
            dense.structure_element(other.omega, other.phi, other.psi, 2)
            + dense.graded_bracket(pi, lam, HARD_ARITY_CAP), 2, 2)
        assert dense.equivalence_conditions(a2, m_a2, defo, other, n, s) \
            == conditions
        assert not dense.are_equivalent_deformations(a2, m_a2, defo, other, n, s)
        assert not are_equivalent_deformations(a2, m_a2, defo, other, n, s)


def test_nijenhuis_power_suite_defects_equal_the_dense_oracle(a2, af_nonassoc,
                                                            noncommutative_rb):
    from antiflex.algebra import deformed_product

    for alg in (a2, af_nonassoc, noncommutative_rb[0]):
        ops = search_operators(alg, None, (-1, 0, 1), ("nijenhuis",),
                               shape="algebra-endo")[::7]
        assert ops
        for op, (k, l) in zip(ops, itertools.cycle([(1, 1), (0, 2), (2, 1)])):
            pk = deformed_product(alg, op.power(k)).mul
            pl = deformed_product(alg, op.power(l)).mul
            want = (dense.compose_bar(pk, pk).is_zero()
                    and dense.compose_bar(pl, pl).is_zero()
                    and (dense.compose_bar(pk, pl)
                         + dense.compose_bar(pl, pk)).is_zero())
            got = nijenhuis_power_suite(alg, op, k, l)["linear_combinations"]
            assert got == want


def test_property_brackets_equal_the_dense_oracle():
    """The `hypothesis` property of `sparse_bracket_property.py`, run in a
    child interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("sparse_bracket_property.py")


# -- what the benchmark's tracer reads ------------------------------------------

def perfbench_module(name):
    """perfbench/<name>.py, loaded from its file under a name of its own."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}_for_tests",
        os.path.join(root, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bracket_counters_follow_the_tracer_contract(na2, a2, m_a2, e21):
    """perfbench's tracer counts one bracket per top-level `compose_bar` or
    `graded_bracket` call and adds `len(result.data)` of each: the number
    of slots of the map's dense layout, which `MultiMap.data` spells out,
    counted here on the dense oracle."""
    spans = perfbench_module("spans")
    rng = random.Random(1108)
    left = [na2.left_matrix(i) for i in range(na2.dim)]
    right = [na2.right_matrix(i) for i in range(na2.dim)]
    p, q = (random_cochain(rng, 1, 2, 2) for _ in range(2))
    defo = trivial_deformation_from(a2, m_a2, e21, e21)

    pi_na2 = dense.structure_element(na2.mul, left, right, 2)
    pi_a2 = dense.space_pi(a2, m_a2)
    inner = dense.graded_bracket(pi_a2, dense.embed_blocks(p, 2, 0, 4))
    delta = dense.structure_element(defo.omega, defo.phi, defo.psi, 2)
    expected = [dense.compose_bar(pi_na2, pi_na2, HARD_ARITY_CAP), inner,
                dense.graded_bracket(inner, dense.embed_blocks(q, 2, 0, 4)),
                dense.graded_bracket(pi_a2, delta), dense.compose_bar(delta, delta)]
    assert expected[3].is_zero() and not expected[0].is_zero()

    recorder = spans.Recorder()
    restore = recorder.instrument()
    try:
        assert not glie.mc_check_algebra_bimodule(na2, left, right)
        glie.derived_bracket(glie.CochainSpace(a2, m_a2), p, q)
        assert deformation.is_valid_deformation(a2, m_a2, defo)
    finally:
        restore()
    metrics = spans.layer_metrics(recorder.spans, recorder.inner,
                                  recorder.counters, 1.0, 1.0, set())
    assert metrics["glie.bracket_calls"] == len(expected) > 0
    assert metrics["glie.entries_out"] == sum(len(m.data) for m in expected) > 0


# -- no dense tensor on the sum space --------------------------------------------

def test_mc_check_at_the_dim_bound_builds_no_dense_sum_tensor(monkeypatch):
    """A dim-64 algebra with zero product and zero actions on a 1-dim module
    (the document bound): no MultiMap of arity >= 2 on the 65-dim sum space
    is built; the dense route filled 65^4 slots here."""
    alg = Algebra.zero(64)
    zero = Matrix.zeros(1, 1)
    built = []
    setup = MultiMap._setup

    def counting(self, arity, in_dim, out_dim, data):
        if arity >= 2 and in_dim == out_dim == 65:
            built.append(arity)
        setup(self, arity, in_dim, out_dim, data)

    monkeypatch.setattr(MultiMap, "_setup", counting)
    start = time.perf_counter()
    assert mc_check_algebra_bimodule(alg, [zero] * 64, [zero] * 64)
    # about 0.1 s; the dense route took minutes
    assert time.perf_counter() - start < 10
    assert built == []
