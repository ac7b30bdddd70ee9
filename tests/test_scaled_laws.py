"""The law checks on integer-scaled structure constants against the dense
routes they replaced.

`classify`, `anti_flexible_report`, `is_rota_baxter`, `is_nijenhuis` and
`is_bimodule` contract integer-scaled data; `Algebra.basis_associator` and
`deformed_product` contract the Fraction constants.  The references below
are the earlier routes (`MultiMap.evaluate`, which `multimap_property.py`
checks against the dense map, `linear_combination` and `Matrix @` on basis
vectors), kept here as oracles.  Every report must agree
in full: name, verdict, law, basis tuple and the exact residual, down to its
type and repr.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from antiflex.algebra import (Algebra, ClassifyFlags, anti_flexible_report,
                              classify, deformed_product)
from antiflex.bimodule import Bimodule, is_bimodule
from antiflex.linalg import (Matrix, MultiMap, basis_vector,
                             linear_combination, vec_add, vec_is_zero, vec_sub)
from antiflex.operators import is_nijenhuis, is_rota_baxter
from antiflex.reports import CheckReport

# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------


def ref_basis_associator(alg, i, j, k):
    d = alg.dim
    return vec_sub(alg.multiply(alg.basis_product(i, j), basis_vector(k, d)),
                   alg.multiply(basis_vector(i, d), alg.basis_product(j, k)))


def ref_classify(alg):
    """The flexible flag is (x, y, x) = 0 by the dense `Algebra.associator`
    on x in {e_i, e_i + e_k} and y a basis vector: (x, y, x) is quadratic
    in x, so these x decide it."""
    d = alg.dim
    anti_flexible = associative = True
    assoc = {t: ref_basis_associator(alg, *t)
             for t in itertools.product(range(d), repeat=3)}
    for i, j, k in itertools.product(range(d), repeat=3):
        t = assoc[(i, j, k)]
        if associative and not vec_is_zero(t):
            associative = False
        if anti_flexible and not vec_is_zero(vec_sub(t, assoc[(k, j, i)])):
            anti_flexible = False
    xs = [vec_add(basis_vector(i, d), basis_vector(k, d)) if k > i
          else basis_vector(i, d)
          for i in range(d) for k in range(i, d)]
    flexible = all(vec_is_zero(alg.associator(x, basis_vector(j, d), x))
                   for x in xs for j in range(d))
    return ClassifyFlags(anti_flexible=anti_flexible, flexible=flexible,
                         associative=associative)


def ref_anti_flexible_report(alg):
    return CheckReport("anti_flexible").sweep(
        "(a,b,c) = (c,b,a)", itertools.product(range(alg.dim), repeat=3),
        lambda i, j, k: vec_sub(ref_basis_associator(alg, i, j, k),
                                ref_basis_associator(alg, k, j, i)))


def ref_is_rota_baxter(alg, mod, op):
    def residual(i, j):
        tm, tn = op.col(i), op.col(j)
        inner = vec_add(linear_combination(tm, mod.left).col(j),
                        linear_combination(tn, mod.right).col(i))
        return vec_sub(alg.multiply(tm, tn), op.apply(inner))

    return CheckReport("rota_baxter").sweep(
        "T(m).T(n) = T(l(Tm)n + r(Tn)m)",
        itertools.product(range(mod.mdim), repeat=2), residual)


def ref_is_nijenhuis(alg, op):
    d = alg.dim

    def residual(i, j):
        na, nb = op.col(i), op.col(j)
        inner = vec_sub(vec_add(alg.multiply(na, basis_vector(j, d)),
                                alg.multiply(basis_vector(i, d), nb)),
                        op.apply(alg.basis_product(i, j)))
        return vec_sub(alg.multiply(na, nb), op.apply(inner))

    return CheckReport("nijenhuis").sweep(
        "N(a)N(b) = N(Na.b + a.Nb - N(ab))",
        itertools.product(range(d), repeat=2), residual)


def ref_is_bimodule(alg, left, right):
    d = alg.dim

    def product_law(i, j):
        lhs = linear_combination(alg.basis_product(i, j), left) - left[i] @ left[j]
        rhs = right[i] @ right[j] - linear_combination(alg.basis_product(j, i), right)
        return lhs - rhs

    def commutation_law(i, j):
        lhs = left[i] @ right[j] - right[j] @ left[i]
        rhs = left[j] @ right[i] - right[i] @ left[j]
        return lhs - rhs

    return (CheckReport("bimodule")
            .sweep("l(ab)-l(a)l(b) = r(a)r(b)-r(ba)",
                   itertools.product(range(d), repeat=2), product_law)
            .sweep("l(a)r(b)-r(b)l(a) = l(b)r(a)-r(a)l(b)",
                   itertools.product(range(d), repeat=2), commutation_law))


def ref_deformed_product(alg, op):
    def fn(idx):
        i, j = idx
        ni, nj = op.col(i), op.col(j)
        t1 = alg.multiply(ni, basis_vector(j, alg.dim))
        t2 = alg.multiply(basis_vector(i, alg.dim), nj)
        t3 = op.apply(alg.basis_product(i, j))
        return [t1[k] + t2[k] - t3[k] for k in range(alg.dim)]

    return Algebra(MultiMap.from_function(2, alg.dim, fn), alg.labels)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _exact(value):
    """A value with its type and the types of its entries, so that an int
    where a Fraction was, or a tuple where a Matrix was, compares unequal."""
    if isinstance(value, tuple):
        return ("tuple", tuple((type(x), x) for x in value))
    if isinstance(value, Matrix):
        return ("Matrix", value.rows, value.cols,
                tuple((type(x), x) for x in value.data))
    return (type(value), value)


def _key(report):
    return (report.name, report.ok, report.notes,
            [(v.law, v.where, _exact(v.residual), repr(v.residual))
             for v in report.violations])


def assert_laws_agree(alg, mod=None, op=None, endo=None):
    """Every rewritten check on the given data equals its reference route;
    returns the verdicts (classify flags, then ok of the other checks) and,
    under "reports", every report made."""
    flags = classify(alg)
    assert flags == ref_classify(alg)
    reports = [anti_flexible_report(alg)]
    assert _key(reports[0]) == _key(ref_anti_flexible_report(alg))
    for t in itertools.product(range(alg.dim), repeat=3):
        assert _exact(alg.basis_associator(*t)) == _exact(ref_basis_associator(alg, *t))
    verdicts = {"classify": flags, "reports": reports}
    if mod is not None:
        got = is_bimodule(alg, mod.left, mod.right)
        assert _key(got) == _key(ref_is_bimodule(alg, mod.left, mod.right))
        verdicts["bimodule"] = got.ok
        reports.append(got)
    if op is not None:
        got = is_rota_baxter(alg, mod, op)
        assert _key(got) == _key(ref_is_rota_baxter(alg, mod, op))
        verdicts["rb"] = got.ok
        reports.append(got)
    if endo is not None:
        got = is_nijenhuis(alg, endo)
        assert _key(got) == _key(ref_is_nijenhuis(alg, endo))
        verdicts["nijenhuis"] = got.ok
        reports.append(got)
        assert deformed_product(alg, endo).mul.data == \
            ref_deformed_product(alg, endo).mul.data
    return verdicts


# ---------------------------------------------------------------------------
# the fixture corpus
# ---------------------------------------------------------------------------

VALUES = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
          Fraction(-5, 6))


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols, [rng.choice(VALUES) for _ in range(rows * cols)])


def _corpus_triples(cohomology_corpus, noncommutative_rb, defect_rb):
    triples = [(alg, mod, op) for _, alg, mod, op, _ in cohomology_corpus]
    return triples + [noncommutative_rb, defect_rb]


def _fractional_witnesses(reports):
    """The failed reports among `reports` whose residual has an entry that
    is not an integer."""
    def entries(res):
        return res.data if isinstance(res, Matrix) else res
    return [r.name for r in reports if not r.ok
            and any(x.denominator > 1 for x in entries(r.first().residual))]


def test_corpus_reports_equal_the_dense_routes(cohomology_corpus, rb_pairs,
                                               noncommutative_rb, defect_rb):
    rng = random.Random(5101)
    passing_rb = 0
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        endo = op if op.is_square() and op.rows == alg.dim else None
        verdicts = assert_laws_agree(alg, mod, op, endo)
        assert verdicts["bimodule"] and verdicts["rb"]
        passing_rb += 1
    assert passing_rb == len(cohomology_corpus) + 2
    outcomes = set()
    for alg, mod in rb_pairs:
        for _ in range(10):
            op = _random_matrix(rng, alg.dim, mod.mdim)
            endo = _random_matrix(rng, alg.dim, alg.dim)
            verdicts = assert_laws_agree(alg, mod, op, endo)
            outcomes.add((verdicts["rb"], verdicts["nijenhuis"]))
        assert_laws_agree(alg, mod, Matrix.zeros(alg.dim, mod.mdim),
                          Matrix.identity(alg.dim).scale(Fraction(-2, 3)))
    assert {rb for rb, _ in outcomes} == {True, False}
    assert {nij for _, nij in outcomes} == {True, False}


def test_corpus_failing_witnesses_equal_the_dense_routes(cohomology_corpus,
                                                         noncommutative_rb,
                                                         defect_rb):
    """Perturbed corpus data, so that the bimodule and Rota-Baxter laws fail
    at some pair with non-integer residuals and the witnesses are compared."""
    rng = random.Random(5102)
    failures = {"bimodule": 0, "rb": 0}
    fractional = set()
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        if alg.dim == 0 or mod.mdim == 0:
            continue
        for _ in range(6):
            bent = Bimodule(alg, [m + _random_matrix(rng, m.rows, m.cols).scale(
                Fraction(1, 3)) for m in mod.left], mod.right, check=False)
            op2 = op + _random_matrix(rng, op.rows, op.cols)
            verdicts = assert_laws_agree(alg, bent, op2)
            failures["bimodule"] += not verdicts["bimodule"]
            failures["rb"] += not verdicts["rb"]
            fractional.update(_fractional_witnesses(verdicts["reports"]))
    assert failures["bimodule"] > 0 and failures["rb"] > 0
    assert {"bimodule", "rota_baxter"} <= fractional


def test_contractions_equal_the_multiply_route(a0_1, a0_2, a1, a2, na2,
                                               a2_plus_a1, af_nonassoc,
                                               noncommutative_rb, defect_rb):
    """`basis_associator` and `deformed_product` on every fixture algebra,
    deformed by seeded random operators with mixed denominators."""
    rng = random.Random(5104)
    algebras = [a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc,
                noncommutative_rb[0], defect_rb[0]]
    for alg in algebras:
        d = alg.dim
        for t in itertools.product(range(d), repeat=3):
            assert _exact(alg.basis_associator(*t)) == \
                _exact(ref_basis_associator(alg, *t))
        ops = [Matrix.identity(d), Matrix.zeros(d, d)]
        ops += [_random_matrix(rng, d, d) for _ in range(8)]
        for op in ops:
            got = deformed_product(alg, op)
            want = ref_deformed_product(alg, op)
            assert got.mul == want.mul and got.labels == want.labels
            assert all(type(x) is Fraction for x in got.mul.data)
    with pytest.raises(IndexError):
        a2.basis_associator(0, 2, 0)
    with pytest.raises(IndexError):
        a2.basis_associator(-1, 0, 0)


# ---------------------------------------------------------------------------
# seeded random inputs: dim 0-3, mixed denominators, both outcomes
# ---------------------------------------------------------------------------


def _random_case(rng, dim, mdim, density):
    """An algebra, actions, an operator M -> A and an endomorphism of A,
    each entry nonzero with probability `density`."""
    def entry():
        return rng.choice(VALUES[3:]) if rng.random() < density else 0

    def matrix(rows, cols):
        return Matrix(rows, cols, [entry() for _ in range(rows * cols)])

    alg = Algebra(MultiMap(2, dim, [entry() for _ in range(dim ** 3)]))
    if dim == 0:
        mdim = 0
    mod = Bimodule(alg, [matrix(mdim, mdim) for _ in range(dim)],
                   [matrix(mdim, mdim) for _ in range(dim)], check=False)
    return alg, mod, matrix(dim, mdim), matrix(dim, dim)


def _scaled_regular(alg, scale):
    """The regular actions of alg, scaled; a bimodule of the algebra whose
    constants are scaled alike whenever alg is anti-flexible."""
    scaled = Algebra(alg.mul.scale(scale))
    left = [alg.left_matrix(i).scale(scale) for i in range(alg.dim)]
    right = [alg.right_matrix(i).scale(scale) for i in range(alg.dim)]
    return scaled, Bimodule(scaled, left, right, check=False)


def test_random_reports_equal_the_dense_routes():
    rng = random.Random(5103)
    seen = {name: set() for name in ("associative", "anti_flexible", "rb",
                                     "nijenhuis", "bimodule")}
    fractional = set()
    for trial in range(240):
        dim = trial % 4
        density = (0.15, 0.4, 0.8)[trial % 3]
        alg, mod, op, endo = _random_case(rng, dim, rng.randint(1, 3), density)
        verdicts = assert_laws_agree(alg, mod, op, endo)
        # the regular actions scaled by a fraction: a bimodule exactly when
        # the algebra is anti-flexible, and the zero operator is Rota-Baxter
        scaled, reg = _scaled_regular(alg, rng.choice(VALUES[4:]))
        reg_verdicts = assert_laws_agree(scaled, reg,
                                         Matrix.zeros(dim, dim), endo)
        assert reg_verdicts["bimodule"] == verdicts["classify"].anti_flexible
        assert reg_verdicts["rb"]
        flags = verdicts["classify"]
        seen["associative"].add(flags.associative)
        seen["anti_flexible"].add(flags.anti_flexible)
        seen["rb"].add(verdicts["rb"])
        seen["nijenhuis"].add(verdicts["nijenhuis"])
        seen["bimodule"].add(verdicts["bimodule"])
        seen["bimodule"].add(reg_verdicts["bimodule"])
        fractional.update(_fractional_witnesses(verdicts["reports"]
                                                + reg_verdicts["reports"]))
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen
    assert fractional == {"anti_flexible", "bimodule", "rota_baxter",
                          "nijenhuis"}


def test_half_sweep_anti_flexible_report_equals_the_full_sweep():
    """`anti_flexible_report` visits only the triples with i < k.  On
    seeded dim-4 algebras, most of them not anti-flexible, its first
    failure, witness and text equal the full dense sweep's.  The first
    `dead` basis vectors multiply to zero, so every triple that holds one
    passes and the first failure moves to j > 0."""
    rng = random.Random(5105)
    failed_at = []
    for trial in range(60):
        dead = trial % 3
        density = (0.2, 0.45, 0.8)[trial // 3 % 3]
        alg = Algebra(MultiMap(2, 4, [
            rng.choice(VALUES[3:]) if rng.random() < density else 0
            for _ in range(64)]))
        alg = Algebra.from_products(4, {
            (i, j): dict(enumerate(alg.basis_product(i, j)))
            for i, j in itertools.product(range(dead, 4), repeat=2)})
        got, want = anti_flexible_report(alg), ref_anti_flexible_report(alg)
        assert _key(got) == _key(want)
        assert got.describe() == want.describe()
        if not got.ok:
            failed_at.append(got.first().where)
    assert len(failed_at) >= 40
    assert any(j > 0 for _, j, _ in failed_at)
    assert any(j == 0 for _, j, _ in failed_at)


def run_in_child(filename: str) -> None:
    """Run the one-test file `filename` of this directory in a child
    interpreter and require that its test passed.  The `hypothesis`
    properties run this way: importing hypothesis adds about 14,000 objects
    that every later full garbage collection of this process walks, and
    perfbench's own tests time whole collections against a fixed budget."""
    import antiflex

    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(antiflex.__file__)),
                    env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(tests, filename)],
        cwd=os.path.dirname(tests), env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout


def test_property_reports_equal_the_dense_routes():
    """The `hypothesis` property of `scaled_laws_property.py`, run in a child
    interpreter (see `run_in_child`)."""
    run_in_child("scaled_laws_property.py")
