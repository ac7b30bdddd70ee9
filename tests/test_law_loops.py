"""The hot law checks, `anti_flexible_report` and the operator laws behind
`is_rota_baxter` and `is_nijenhuis`, scan their basis tuples in their own
loops and build a report only at the first failure.  These tests hold them
to the reference routes of `tests/test_scaled_laws.py`, which sweep every
tuple in product order: the same first failure, text, witness (type and
repr included) and `describe()`, on seeded data where another loop order
would fail first elsewhere, and they check that none of the hot paths
reaches the generic `CheckReport.sweep`."""

import functools
import random
from fractions import Fraction

from antiflex import reports
from antiflex.algebra import Algebra, anti_flexible_report, classify
from antiflex.bimodule import regular_bimodule
from antiflex.cohomology import RBComplex
from antiflex.linalg import Matrix, MultiMap, vec_is_zero, vec_sub
from antiflex.operators import is_nijenhuis, is_rota_baxter
from antiflex.reports import CheckReport, Violation
from antiflex.search import search_algebras
from tests import slow_routes
from tests.test_int_views import assert_contractions_agree
from tests.test_scaled_laws import (VALUES, _corpus_triples, _key,
                                    _random_case, ref_anti_flexible_report,
                                    ref_basis_associator, ref_is_nijenhuis,
                                    ref_is_rota_baxter)


def _assert_same_report(got, want):
    assert _key(got) == _key(want)
    assert got.describe() == want.describe()


def _ikj_first(alg):
    """The first triple (i, j, k), i < k, in i, k, j order, whose
    anti-flexible residual is nonzero by the reference associators."""
    d = alg.dim
    for i in range(d):
        for k in range(i + 1, d):
            for j in range(d):
                if not vec_is_zero(vec_sub(ref_basis_associator(alg, i, j, k),
                                           ref_basis_associator(alg, k, j, i))):
                    return (i, j, k)
    return None


def _sparse_algebra(rng, dim, density):
    return Algebra(MultiMap(2, dim, [
        rng.choice(VALUES[3:]) if rng.random() < density else 0
        for _ in range(dim ** 3)]))


def _anti_flexible_trials():
    """240 seeded sparse algebras of dims 0-4 with fractional constants."""
    rng = random.Random(2424)
    for trial in range(240):
        dim = (0, 1, 2, 3, 3, 4)[trial % 6]
        density = (0.08, 0.15, 0.3)[trial // 6 % 3]
        yield _sparse_algebra(rng, dim, density)


def test_anti_flexible_first_failure_equals_the_full_sweep():
    """Seeded sparse algebras of dims 0-4 with fractional constants.  On
    many of the failing ones the first failure in product order (i, then j,
    then k) is not the first in i, k, j order, such as (0, 0, 2) before
    (0, 1, 1); the loop must report the product-order one."""
    failed = disagree = 0
    patterns = set()
    for alg in _anti_flexible_trials():
        got = anti_flexible_report(alg)
        _assert_same_report(got, ref_anti_flexible_report(alg))
        assert got.ok == classify(alg).anti_flexible
        if got.ok:
            assert alg.dim < 2 or _ikj_first(alg) is None
            continue
        failed += 1
        other = _ikj_first(alg)
        if other != got.first().where:
            disagree += 1
            patterns.add((got.first().where, other))
    assert failed >= 60
    assert disagree >= 10
    assert ((0, 0, 2), (0, 1, 1)) in patterns


def _with_zero_column(op, col):
    return Matrix(op.rows, op.cols, [0 if k % op.cols == col else x
                                     for k, x in enumerate(op.data)])


def _operator_trials(rng):
    """160 seeded (alg, mod, op, endo) of dims 0-3 and module dims 0-3,
    drawn from rng, with fractional entries and, in two trials of three,
    T(m_0) = 0 and N(e_0) = 0."""
    for trial in range(160):
        dim = trial % 4
        mdim = (trial // 4) % 4
        alg, mod, op, endo = _random_case(rng, dim, mdim, (0.3, 0.6)[trial % 2])
        if trial % 3 and op.cols:
            op = _with_zero_column(op, 0)
        if trial % 3 and endo.cols:
            endo = _with_zero_column(endo, 0)
        yield alg, mod, op, endo


def test_operator_first_failures_equal_the_full_sweep(cohomology_corpus,
                                                      noncommutative_rb,
                                                      defect_rb):
    """Seeded algebras of dims 0-3 with random actions on modules of dims
    0-3 and operators with fractional entries; with T(m_0) = 0 the pairs
    (0, 0) and (i, 0) pass or fail on other terms, so many first failures
    lie at j > 0.  The corpus triples, their operators scaled by fractions
    (still Rota-Baxter) and perturbed (no longer), cover the star products
    that a passing sweep hands to `star_algebra` and the complex."""
    rng = random.Random(2425)
    seen = {"rb": set(), "nijenhuis": set()}
    late = {"rb": 0, "nijenhuis": 0}
    fractional = set()
    for alg, mod, op, endo in _operator_trials(rng):
        for name, got, want, scale in (
                ("rb", is_rota_baxter(alg, mod, op),
                 ref_is_rota_baxter(alg, mod, op), op.int_view()[1]),
                ("nijenhuis", is_nijenhuis(alg, endo),
                 ref_is_nijenhuis(alg, endo), endo.int_view()[1])):
            _assert_same_report(got, want)
            seen[name].add((alg.dim, mod.mdim, got.ok))
            if not got.ok:
                late[name] += got.first().where[1] > 0
                if scale > 1:
                    fractional.add(name)
        assert_contractions_agree(alg, mod, op)
    assert late["rb"] >= 10 and late["nijenhuis"] >= 10
    assert fractional == {"rb", "nijenhuis"}
    # dims 0 and 1, module dim 0, and both outcomes were reached
    assert {(0, 0, True), (1, 0, True)} <= seen["rb"]
    assert {d for d, _, _ in seen["nijenhuis"]} == {0, 1, 2, 3}
    assert {ok for _, _, ok in seen["rb"]} == {True, False}
    for alg, mod, op in _corpus_triples(cohomology_corpus, noncommutative_rb,
                                        defect_rb):
        for scaled in (op.scale(Fraction(1, 2)), op.scale(Fraction(-2, 3))):
            assert is_rota_baxter(alg, mod, scaled)
            assert assert_contractions_agree(alg, mod, scaled)
        bent = op + Matrix(op.rows, op.cols, [
            rng.choice(VALUES) for _ in range(op.rows * op.cols)]).scale(
                Fraction(1, 3))
        _assert_same_report(is_rota_baxter(alg, mod, bent),
                            ref_is_rota_baxter(alg, mod, bent))
        assert_contractions_agree(alg, mod, bent)


def test_the_hot_laws_never_sweep(cohomology_corpus, noncommutative_rb,
                                  defect_rb, a2, na2, af_nonassoc,
                                  monkeypatch):
    """`RBComplex` on the corpus triples, `noncommutative_rb` and
    `defect_rb`, the three hot laws on passing and failing data, and the
    anti-flexible, not-associative search over the dim-2 grid make no
    `CheckReport.sweep` call, with the reports of the reference routes and
    the hits that `classify` keeps."""
    triples = _corpus_triples(cohomology_corpus, noncommutative_rb, defect_rb)
    rng = random.Random(2426)
    algebras = [a2, na2, af_nonassoc] + [
        _sparse_algebra(rng, 3, 0.3) for _ in range(6)]
    operators = []
    for alg, mod, op in triples:
        bent = op + Matrix(op.rows, op.cols, [
            rng.choice(VALUES) for _ in range(op.rows * op.cols)])
        operators += [(alg, mod, op), (alg, mod, bent)]
    endos = [(alg, Matrix(alg.dim, alg.dim, [
        rng.choice(VALUES) for _ in range(alg.dim ** 2)]))
        for alg, _, _ in triples] + [(a2, Matrix.identity(2))]
    want = ([_key(ref_anti_flexible_report(alg)) for alg in algebras]
            + [_key(ref_is_rota_baxter(*args)) for args in operators]
            + [_key(ref_is_nijenhuis(*args)) for args in endos])
    want_hits = [alg for alg in search_algebras(2, (-1, 0, 1), ())
                 if classify(alg).anti_flexible
                 and not classify(alg).associative]

    calls = []
    sweep = CheckReport.sweep

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return sweep(self, *args, **kwargs)

    monkeypatch.setattr(CheckReport, "sweep", counting)
    for alg, mod, op in triples:
        RBComplex(alg, mod, op)
    got = ([_key(anti_flexible_report(alg)) for alg in algebras]
           + [_key(is_rota_baxter(*args)) for args in operators]
           + [_key(is_nijenhuis(*args)) for args in endos])
    hits = search_algebras(2, (-1, 0, 1), ("anti-flexible", "not-associative"))
    assert calls == []
    assert got == want
    assert {ok for _, ok, _, _ in got} == {True, False}
    assert hits == want_hits and len(hits) == 96
    # the generic sweep still serves the cold laws
    regular_bimodule(a2)
    assert calls == ["bimodule", "bimodule"]


def _eager(report, cls):
    """The report with each violation rebuilt as cls(law, where, residual),
    its witness given at once."""
    return CheckReport(report.name, report.ok,
                       [cls(v.law, v.where, v.residual)
                        for v in report.violations], dict(report.notes))


def test_a_witness_formed_on_read_reads_as_the_eager_form():
    """Every failing report of the seeded sets above, built afresh for each
    read so that the read forms its witness, prints, compares, hashes and
    describes as the same report holding the frozen-dataclass violations of
    `tests/slow_routes.py`, whose witness is formed at once: equal to
    itself and to its eager form, and unequal to the next report wherever
    the eager forms are."""
    rng = random.Random(2425)
    makers = [functools.partial(anti_flexible_report, alg)
              for alg in _anti_flexible_trials()]
    for alg, mod, op, endo in _operator_trials(rng):
        makers += [functools.partial(is_rota_baxter, alg, mod, op),
                   functools.partial(is_nijenhuis, alg, endo)]
    failing = [make for make in makers if not make().ok]
    assert len(failing) >= 200
    assert {make().name for make in failing} == {
        "anti_flexible", "rota_baxter", "nijenhuis"}
    unequal = 0
    for make, after in zip(failing, failing[1:] + failing[:1]):
        oracle = _eager(make(), slow_routes.Violation)
        assert repr(make()) == repr(oracle)
        assert repr(make().first()) == repr(oracle.first())
        assert hash(make().first()) == hash(oracle.first())
        assert make().describe() == oracle.describe()
        assert make().first().describe() == oracle.first().describe()
        assert make() == make() and make().first() == make().first()
        assert make() == _eager(make(), Violation)
        same = (oracle == _eager(after(), slow_routes.Violation))
        assert (make() == after()) == same
        assert (make().first() == after().first()) == same
        unequal += not same
    assert unequal >= len(failing) - 2


def test_a_rejected_candidate_forms_no_witness(monkeypatch):
    """The dim-2 anti-flexible, not-associative sweep fails 6,360
    anti-flexible reports and forms none of their witnesses, with the 96
    hits that `classify` keeps; a read of a failing report's residual forms
    its witness once."""
    candidates = search_algebras(2, (-1, 0, 1), ())
    want_hits = [alg for alg in candidates if classify(alg).anti_flexible
                 and not classify(alg).associative]
    rejected = next(alg for alg in candidates
                    if not classify(alg).anti_flexible)
    want = ref_anti_flexible_report(rejected).first().residual
    formed, failed = [], []
    witness, fail = reports._witness, CheckReport.fail

    def forming(ints, scale):
        formed.append(scale)
        return witness(ints, scale)

    def failing(self, *args):
        failed.append(self.name)
        return fail(self, *args)

    monkeypatch.setattr(reports, "_witness", forming)
    monkeypatch.setattr(CheckReport, "fail", failing)
    hits = search_algebras(2, (-1, 0, 1), ("anti-flexible", "not-associative"))
    assert failed == ["anti_flexible"] * 6360
    assert formed == []
    assert hits == want_hits and len(hits) == 96
    report = anti_flexible_report(rejected)
    assert formed == []
    assert report.first().residual == report.first().residual == want
    assert formed == [1]
