"""The direct routes of `MultiMap.evaluate`, `rb_morphism_graph_check`, the
S^2-variant note, the Nijenhuis-structure powers and the trivial-deformation
ledger against their slow forms in `tests/slow_routes.py`, on the fixture
corpus and on seeded random inputs; each verdict and note takes both values
somewhere."""

import random
from fractions import Fraction

import pytest

from antiflex.algebra import _semidirect_product
from antiflex.bimodule import _twisted_actions, regular_bimodule
from antiflex.deformation import (InfinitesimalDeformation,
                                  _structure_power, _trivial_deformation,
                                  _variant_s_squared, is_nijenhuis_structure,
                                  trivial_deformation_ledger)
from antiflex.glie import Cochain
from antiflex.linalg import LinAlgError, Matrix, MultiMap
from antiflex.operators import rb_morphism_graph_check
from antiflex.search import search_algebras, search_operators
from tests.conftest import random_matrix
from tests.slow_routes import (evaluate_all_tuples, graph_check_direct_sum,
                               ledger_rederived, structure_power_oracle,
                               variant_s_squared_displayed)

VALUES = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4))


def _entries(rng, n, kind):
    """n coefficients: all zero, about one in four nonzero, or all nonzero."""
    if kind == "zero":
        return [Fraction(0)] * n
    if kind == "sparse":
        return [rng.choice(VALUES) if rng.random() < 0.25 else Fraction(0)
                for _ in range(n)]
    return [Fraction(rng.choice(VALUES)) for _ in range(n)]


def _same(got, want):
    assert got == want
    assert all(type(x) is Fraction for x in got)


@pytest.fixture(scope="module")
def swept_structures():
    """(alg, mod, N, S): a seeded sample of operator pairs from the
    Nijenhuis operators of every 7th dim-2 anti-flexible algebra over
    {-1, 0, 1} with its regular bimodule."""
    rng = random.Random(1207)
    out = []
    for alg in search_algebras(2, [-1, 0, 1], ["anti-flexible"])[::7]:
        mod = regular_bimodule(alg)
        ops = search_operators(alg, None, [-1, 0, 1], ["nijenhuis"],
                               shape="algebra-endo")
        out += [(alg, mod, rng.choice(ops), rng.choice(ops))
                for _ in range(4)]
    return out


@pytest.fixture(scope="module")
def pair_sample(rb_pairs, swept_structures):
    """Random operator pairs on the fixture pairs, then the swept sample."""
    rng = random.Random(1208)
    out = []
    for alg, mod in rb_pairs:
        out.append((alg, mod, Matrix.identity(alg.dim),
                    Matrix.identity(mod.mdim)))
        out += [(alg, mod, random_matrix(rng, alg.dim, alg.dim, -1, 1),
                 random_matrix(rng, mod.mdim, mod.mdim, -1, 1))
                for _ in range(6)]
    return out + swept_structures


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_evaluate_equals_all_tuples_on_random_maps(arity):
    rng = random.Random(1209 + arity)
    for in_dim, out_dim in ((0, 2), (1, 1), (2, 2), (3, 3), (2, 3), (3, 1)):
        for map_kind in ("zero", "sparse", "dense"):
            data = _entries(rng, in_dim ** arity * out_dim, map_kind)
            mm = (MultiMap(arity, in_dim, data) if in_dim == out_dim
                  else Cochain(arity, in_dim, out_dim, data))
            for _ in range(6):
                args = [_entries(rng, in_dim, rng.choice(
                    ("zero", "sparse", "dense"))) for _ in range(arity)]
                _same(mm.evaluate(*args), evaluate_all_tuples(mm, *args))
                # int coefficients, as callers pass basis vectors
                ints = [tuple(int(x) for x in a) for a in args]
                _same(mm.evaluate(*ints), evaluate_all_tuples(mm, *ints))


def test_evaluate_refuses_as_the_all_tuples_form():
    mm = MultiMap(2, 2, range(8))
    for args in ([(1, 0)], [(1, 0), (1, 0), (1, 0)], [(1, 0), (1, 0, 0)]):
        for fn in (mm.evaluate, lambda *a: evaluate_all_tuples(mm, *a)):
            with pytest.raises(LinAlgError):
                fn(*args)


def test_evaluate_equals_all_tuples_on_the_corpus(rb_pairs, cohomology_corpus):
    rng = random.Random(1210)
    algebras = [alg for alg, _ in rb_pairs]
    algebras += [_semidirect_product(alg, mod) for alg, mod in rb_pairs]
    algebras += [entry[1] for entry in cohomology_corpus]
    for alg in algebras:
        for _ in range(8):
            x = _entries(rng, alg.dim, rng.choice(("zero", "sparse", "dense")))
            y = _entries(rng, alg.dim, rng.choice(("zero", "sparse", "dense")))
            _same(alg.multiply(x, y), evaluate_all_tuples(alg.mul, x, y))


def test_graph_route_equals_the_direct_sum_route(cohomology_corpus,
                                                 noncommutative_rb, a2,
                                                 m_a2, a2_plus_a1,
                                                 m_a2_plus_a1):
    rng = random.Random(1211)
    cases = []
    triples = [entry[1:4] for entry in cohomology_corpus]
    for alg, mod, op in [noncommutative_rb] + triples:
        d, md = alg.dim, mod.mdim
        ident_a, ident_m = Matrix.identity(d), Matrix.identity(md)
        bumped = op + Matrix(d, md, [1] + [0] * (d * md - 1))
        cases += [
            (alg, mod, op, alg, mod, op, ident_a, ident_m),
            # closed graph, but T' psi != phi T
            (alg, mod, op, alg, mod, bumped, ident_a, ident_m),
            (alg, mod, op, alg, mod, op, Matrix.zeros(d, d),
             Matrix.zeros(md, md)),
        ]
        cases += [(alg, mod, op, alg, mod, op,
                   random_matrix(rng, d, d, -1, 1),
                   random_matrix(rng, md, md, -1, 1)) for _ in range(4)]
    # into a larger target: the inclusion of A2 into A2 + A1
    incl = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    t_blk = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]])
    t_inv = Matrix.from_rows([[2, 0], [0, 1]])
    cases += [(a2, m_a2, t_inv, a2_plus_a1, m_a2_plus_a1, t_blk, incl, incl),
              (a2, m_a2, t_inv, a2_plus_a1, m_a2_plus_a1, t_blk,
               random_matrix(rng, 3, 2, -1, 1), incl)]
    seen = []
    for case in cases:
        got = rb_morphism_graph_check(*case)
        assert got == graph_check_direct_sum(*case)
        seen.append(got)
    assert seen[1] is False and seen[0] is True
    assert True in seen[3:] and False in seen[3:]


def test_s_squared_note_equals_the_displayed_form(pair_sample):
    seen = {True: set(), False: set()}
    for alg, mod, n, s in pair_sample:
        phi, psi = _twisted_actions(mod, n, s, 1)
        report = is_nijenhuis_structure(alg, mod, n, s)
        for side, twist, use_left in (("left", phi, True),
                                      ("right", psi, False)):
            want = variant_s_squared_displayed(mod, n, s, use_left)
            assert _variant_s_squared(mod, n, s, twist, use_left) is want
            assert report.notes[f"variant_s_squared_{side}"] is want
            seen[want].add((side, report.ok))
    # both values on both sides, on structures and on other pairs
    for value in (True, False):
        assert seen[value] == {("left", True), ("left", False),
                               ("right", True), ("right", False)}


def test_structure_powers_equal_the_dual_route_verdict(pair_sample):
    seen = set()
    for alg, mod, n, s in pair_sample:
        for power in (1, 2, 3):
            want = structure_power_oracle(alg, mod, n, s, power)
            assert _structure_power(alg, mod, n, s, power) is want
            seen.add((power, want))
    assert seen == {(p, v) for p in (1, 2, 3) for v in (True, False)}


def test_ledger_equals_the_rederived_ledger(pair_sample):
    rng = random.Random(1212)
    seen = {}
    structures = [(alg, mod, n, s) for alg, mod, n, s in pair_sample
                  if is_nijenhuis_structure(alg, mod, n, s)]
    assert len(structures) >= 40
    for alg, mod, n, s in structures:
        trivial = _trivial_deformation(alg, mod, n, s)
        d, md = alg.dim, mod.mdim
        bump = Matrix(md, md, [1] + [0] * (md * md - 1))
        defos = [
            trivial,
            InfinitesimalDeformation(
                MultiMap(2, d, [x + (1 if i == 0 else 0)
                                for i, x in enumerate(trivial.omega.data)]),
                trivial.phi, trivial.psi),
            InfinitesimalDeformation(trivial.omega,
                                     (trivial.phi[0] + bump,) + trivial.phi[1:],
                                     trivial.psi),
            InfinitesimalDeformation(trivial.omega, trivial.phi,
                                     trivial.psi[:-1] + (trivial.psi[-1] + bump,)),
            InfinitesimalDeformation(
                MultiMap(2, d, [rng.randint(-1, 1) for _ in range(d ** 3)]),
                [random_matrix(rng, md, md, -1, 1) for _ in range(d)],
                [random_matrix(rng, md, md, -1, 1) for _ in range(d)]),
        ]
        for defo in defos:
            got = trivial_deformation_ledger(alg, mod, n, s, defo)
            assert got == ledger_rederived(alg, mod, n, s, defo)
            for name, value in got.items():
                seen.setdefault(name, set()).add(value)
    assert len(seen) == 6
    assert all(values == {True, False} for values in seen.values()), seen
