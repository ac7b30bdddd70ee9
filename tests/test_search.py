"""The searches: determinism, self-consistency, known counts, the
backtracking operator search against the brute-force sweep of
`tests/slow_routes.py`, and its laws, read off the integer views, against
the quadratic forms found there by probing the residuals."""

import collections
import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import antiflex
import antiflex.algebra
import antiflex.bimodule
import antiflex.linalg
import antiflex.search
from antiflex.algebra import Algebra, classify
from antiflex.bimodule import Bimodule, zero_bimodule
from antiflex.linalg import Matrix, MultiMap
from antiflex.operators import is_nijenhuis, is_rota_baxter
from antiflex.search import (CANDIDATE_CEILING, SearchSpaceError,
                             _grid_values, search_algebras, search_operators)
from tests.slow_routes import (_grid_each, quadratic_law_probed,
                               search_algebras_each, search_operators_each)
from tests.test_scaled_laws import run_in_child


def test_dim1_binary_grid_finds_both_structures():
    hits = search_algebras(1, (0, 1), ("anti-flexible",))
    assert len(hits) == 2
    assert hits[0].mul.is_zero()
    assert hits[1].basis_product(0, 0) == (1,)


def test_anti_flexible_strictly_contains_associative():
    hits = search_algebras(2, (-1, 0, 1),
                           ("anti-flexible", "not-associative"), limit=5)
    assert hits
    for alg in hits:
        flags = classify(alg)
        assert flags.anti_flexible and not flags.associative


def test_search_is_deterministic():
    first = search_algebras(2, (-1, 0, 1), ("anti-flexible", "not-associative"),
                            limit=3)
    second = search_algebras(2, (-1, 0, 1), ("anti-flexible", "not-associative"),
                             limit=3)
    assert [a.mul.data for a in first] == [a.mul.data for a in second]


def test_found_objects_repass_their_filters():
    for alg in search_algebras(2, (0, 1), ("anti-flexible", "commutative"),
                               limit=10):
        flags = classify(alg)
        assert flags.anti_flexible and alg.is_commutative()


def test_operator_search_on_a2(a2, m_a2):
    hits = search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",))
    assert any(t.is_zero() for t in hits)
    nonzero = [t for t in hits if not t.is_zero()]
    assert nonzero
    for op in hits:
        assert is_rota_baxter(a2, m_a2, op).ok
    # the grid solution set: first row zero, or t11 = 2 t22 (only t22 = 0 fits)
    for op in hits:
        assert op[0, 1] == 0
        assert op[0, 0] * (op[0, 0] - 2 * op[1, 1]) == 0


def test_nijenhuis_search_shape(a2):
    hits = search_operators(a2, None, (-1, 0, 1), ("nijenhuis", "not-scalar"),
                            shape="algebra-endo", limit=4)
    for op in hits:
        assert is_nijenhuis(a2, op).ok
        assert op != Matrix.identity(2).scale(op[0, 0])


def test_predicate_validation(a2):
    with pytest.raises(ValueError):
        search_algebras(1, (0, 1), ("sparkly",))
    with pytest.raises(ValueError):
        search_operators(a2, None, (0, 1), ("rota-baxter",),
                         shape="algebra-endo")


def test_candidate_ceiling():
    with pytest.raises(SearchSpaceError):
        search_algebras(2, tuple(range(-20, 21)), ("anti-flexible",))


def test_limit_zero_returns_no_hits(a2, m_a2):
    assert search_algebras(1, (0, 1), ("anti-flexible",), limit=0) == []
    assert search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",),
                            limit=0) == []


def test_limit_is_exact_and_a_prefix_of_the_full_sweep(a2, m_a2):
    full = search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",))
    assert len(full) > 2
    assert search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",),
                            limit=2) == full[:2]


def test_negative_limit_is_rejected(a2, m_a2):
    with pytest.raises(ValueError):
        search_algebras(1, (0, 1), ("anti-flexible",), limit=-3)
    with pytest.raises(ValueError):
        search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",), limit=-1)


def test_negative_dimension_is_refused_up_front(monkeypatch):
    import antiflex.search as search
    scanned = []
    monkeypatch.setattr(search, "_grid_values",
                        lambda *args: scanned.append(args))
    with pytest.raises(ValueError, match="dimension must be nonnegative, "
                                         "got -1"):
        search_algebras(-1, (0, 1), ("anti-flexible",))
    assert scanned == []


def test_algebra_hits_equal_the_brute_force_sweep():
    """`search_algebras` builds each candidate with its view from int cells;
    its hits are those of building every candidate from its Fraction
    constants with the public constructors (`tests/slow_routes.py`), in
    order, on every grid the tests use: dims 0-2, empty, repeated, scaled,
    fractional and non-int values, every predicate with and without `not-`,
    and limits."""
    cases = [
        (0, (-1, 0, 1), (), (None, 0, 1)), (0, (), (), (None,)),
        (1, (), ("anti-flexible",), (None,)), (1, (0, 0), (), (None,)),
        (1, (0, 1), ("anti-flexible",), (None,)),
        (1, ("1/2", 0.25, True, -3), ("not-commutative",), (None,)),
        (2, (-1, 0, 1), ("anti-flexible", "not-associative"), (None, 0, 5)),
        (2, (-7, 0, 7), ("anti-flexible", "not-associative"), (None,)),
        (2, (-1, 0, 1), ("flexible",), (None,)),
        (2, (-1, 0, 1), ("not-anti-flexible", "not-flexible"), (None,)),
        (2, (0, 1), ("anti-flexible", "commutative"), (None,)),
        (2, (0, 1) * 30, ("anti-flexible",), (None, 3)),
        (2, (-1, Fraction(1, 2), 2), ("anti-flexible", "associative"),
         (None,)),
    ]
    for dim, coeffs, predicates, limits in cases:
        for limit in limits:
            got = search_algebras(dim, coeffs, predicates, limit)
            want = search_algebras_each(dim, coeffs, predicates, limit)
            assert got == want
            assert [alg.labels for alg in got] == [alg.labels for alg in want]


def test_an_int_grid_keeps_its_values_total_and_refusals():
    """`_grid_values` sorts a grid of ints as ints; its values, as numbers,
    its total and its ceiling refusal are those of reading every grid as
    Fractions (`tests/slow_routes.py`)."""
    def outcome(fn):
        try:
            return fn()
        except (SearchSpaceError, ValueError, TypeError) as exc:
            return (type(exc), str(exc))

    def oracle(coeffs, cells):
        next(_grid_each(coeffs, cells, False), None)
        values = sorted(set(Fraction(c) for c in coeffs))
        return values, len(values) ** cells

    grids = [(), (0,), (3, -1, 3, 0), (-7, 0, 7), tuple(range(-20, 21)),
             (True, 0, 2), (1, Fraction(1, 2)), ("1/2", 2), (1, None)]
    for coeffs in grids:
        for cells in (0, 1, 4, 8):
            got = outcome(lambda: _grid_values(coeffs, cells))
            assert got == outcome(lambda: oracle(coeffs, cells))
            if all(type(c) is int for c in coeffs) and type(got[0]) is list:
                assert all(type(v) is int for v in got[0])
    # the coefficients are read once, so an iterator gives the same grid
    for coeffs in ((3, -1, 3, 0), (1, Fraction(1, 2))):
        assert (_grid_values(iter(coeffs), 2) == _grid_values(coeffs, 2)
                == oracle(coeffs, 2))
    assert (outcome(lambda: _grid_values(5, 2))
            == outcome(lambda: oracle(5, 2)))


def test_repeated_coefficients_are_enumerated_once(a2, m_a2):
    assert search_algebras(1, (0, 0), []) == search_algebras(1, (0,), [])
    assert len(search_algebras(1, (0, 0), [])) == 1
    assert (search_operators(a2, m_a2, (1, -1, 0, 1, 0), ("rota-baxter",))
            == search_operators(a2, m_a2, (-1, 0, 1), ("rota-baxter",)))
    # 60 listed values but 2 distinct ones: 2^8 candidates, not 60^8
    assert (search_algebras(2, (0, 1) * 30, ("anti-flexible",), limit=3)
            == search_algebras(2, (0, 1), ("anti-flexible",), limit=3))


# the 27 Rota-Baxter operators of A2 + A1 with its regular bimodule over
# {-1, 0, 1}, in sweep order: row 2 takes every value, rows 1 and 3 vanish
A2_PLUS_A1_HITS = [
    "000---000", "000--0000", "000--+000", "000-0-000", "000-00000",
    "000-0+000", "000-+-000", "000-+0000", "000-++000", "0000--000",
    "0000-0000", "0000-+000", "00000-000", "000000000", "00000+000",
    "0000+-000", "0000+0000", "0000++000", "000+--000", "000+-0000",
    "000+-+000", "000+0-000", "000+00000", "000+0+000", "000++-000",
    "000++0000", "000+++000"]


def _signs(op):
    return "".join("-0+"[int(x) + 1] for x in op.data)


def test_dim3_operator_grid_keeps_the_brute_force_hits(a2_plus_a1,
                                                       m_a2_plus_a1):
    hits = search_operators(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1),
                            ("rota-baxter",))
    assert [_signs(op) for op in hits] == A2_PLUS_A1_HITS
    assert search_operators(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1),
                            ("rota-baxter", "nonzero"), limit=3) \
        == hits[:3]
    assert len(search_operators(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1),
                                ("rota-baxter", "nonzero"))) == 26


def test_the_search_cuts_subtrees(a2_plus_a1, m_a2_plus_a1, monkeypatch):
    """The 19,683 candidates of the dim-3 grid are counted in fewer than
    2,000 steps of the scan, one per leaf or cut subtree: a nonzero check
    cuts its subtree before the leaves."""
    steps = []
    real = antiflex.search._scanner

    def counting(total, progress):
        scan = real(total, progress)

        def counted(k):
            steps.append(k)
            return scan(k)

        return counted

    monkeypatch.setattr(antiflex.search, "_scanner", counting)
    assert len(search_operators(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1),
                                ("rota-baxter",))) == 27
    assert sum(steps) == 3 ** 9
    assert len(steps) < 2000


def test_non_square_frames_equal_the_sweep(a1, a2):
    """Every predicate and its `not-` form, after `nonzero`, on 2x1, 1x2
    and 0x3 frames, where no operator is scalar or invertible, and on the
    square 1x1 frame, against the brute-force sweep: the same hits or the
    same refusal."""
    from antiflex.algebra import Algebra
    from antiflex.bimodule import zero_bimodule

    empty = Algebra.zero(0)
    frames = [(a2, zero_bimodule(a2, 1), "module-to-algebra"),
              (a1, zero_bimodule(a1, 2), "module-to-algebra"),
              (empty, zero_bimodule(empty, 3), "module-to-algebra"),
              (a2, zero_bimodule(a2, 1), "module-endo")]
    seen = set()
    for alg, mod, shape in frames:
        for name in ("rota-baxter", "nijenhuis", "nonzero", "scalar",
                     "invertible"):
            for full in (name, "not-" + name):
                outcomes = []
                for sweep in (search_operators, search_operators_each):
                    try:
                        outcomes.append(sweep(alg, mod, (-1, 0, "1/2"),
                                              ["nonzero", full], shape=shape))
                    except ValueError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (shape, full)
                seen.add((full, "refused" if isinstance(outcomes[0], str)
                          else len(outcomes[0])))
    assert {("scalar", 0), ("invertible", 0), ("not-scalar", 8),
            ("not-invertible", 8), ("scalar", 2), ("invertible", 2),
            ("nijenhuis", "refused"), ("not-rota-baxter", 0)} <= seen


def test_a_matrix_is_built_only_for_each_hit(a2, m_a2, a2_plus_a1,
                                             m_a2_plus_a1, monkeypatch):
    """No Matrix per candidate, and none to compile the laws: one per hit.
    Every construction of a Matrix, by the constructor or from its entries,
    fills its slots with `Matrix._fill`."""
    built = []
    real = antiflex.linalg.Matrix._fill

    def counting(self, arity, in_dim, out_dim, entries, den):
        built.append((out_dim, in_dim))
        real(self, arity, in_dim, out_dim, entries, den)

    monkeypatch.setattr(antiflex.linalg.Matrix, "_fill", counting)
    for args, kwargs in (
            ((a2_plus_a1, m_a2_plus_a1, (-1, 0, 1), ("rota-baxter",)), {}),
            ((a2, m_a2, (-1, 0, 1), ("rota-baxter", "nonzero")),
             {"limit": 3}),
            ((a2, None, (-1, 0, "1/2"), ("nijenhuis", "not-scalar",
                                         "invertible")),
             {"shape": "algebra-endo"}),
            ((a2, m_a2, (0, 1), ("scalar",)), {"shape": "module-endo"})):
        built.clear()
        hits = search_operators(*args, **kwargs)
        assert hits
        assert len(built) == len(hits)


def test_progress_lines_equal_the_brute_force_sweep(a2_plus_a1, m_a2_plus_a1,
                                                    capsys):
    """262,144 candidates cross PROGRESS_EVERY once; the cut subtrees count
    as scanned, so the sweep to the end prints the line of the sweep over
    every candidate, and a limit reached at the zero operator, candidate
    87,382, stops both before it."""
    seen = set()
    for limit in (None, 1):
        outcomes = []
        for sweep in (search_operators, search_operators_each):
            hits = sweep(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1, 2),
                         ("not-nonzero", "rota-baxter"), limit=limit,
                         progress=True)
            outcomes.append((hits, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [Matrix.zeros(3, 3)]
        seen.add(outcomes[0][1])
    assert seen == {"", "search: 200000/262144 candidates scanned\n"}


def test_progress_lines_equal_at_a_short_interval(a2_plus_a1, m_a2_plus_a1,
                                                  capsys, monkeypatch):
    """Every fifth candidate prints a line: hits, limits and cut subtrees
    of every size cross the marks, as the brute-force sweep prints them."""
    monkeypatch.setattr(antiflex.search, "PROGRESS_EVERY", 5)
    for predicates, limit in ((("rota-baxter",), None),
                              (("rota-baxter",), 7),
                              (("rota-baxter", "not-nonzero"), None),
                              (("nonzero", "not-invertible"), 40)):
        outcomes = []
        for sweep in (search_operators, search_operators_each):
            hits = sweep(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1), predicates,
                         limit=limit, progress=True)
            outcomes.append((hits, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].count("\n") >= 2


def test_operator_ceiling_refusal_is_unchanged(a2_plus_a1, m_a2_plus_a1):
    assert CANDIDATE_CEILING == 10 ** 7
    with pytest.raises(SearchSpaceError) as exc:
        search_operators(a2_plus_a1, m_a2_plus_a1, range(-3, 3),
                         ("rota-baxter",))
    assert str(exc.value) == ("6^9 = 10077696 candidates exceed the "
                              "ceiling 10000000")


def test_property_pruned_search_equals_the_brute_force_sweep():
    """The `hypothesis` property of `search_property.py`, run in a child
    interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("search_property.py")


# ---------------------------------------------------------------------------
# the laws read off the integer views against the probed quadratic forms
# ---------------------------------------------------------------------------

LAWS = ("rota-baxter", "nijenhuis")
CONSTANTS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4))


def _direct_law(name, alg, mod, rows, cols):
    """The law the search builds, as `quadratic_law_probed` gives it: one
    dict {(a, b): q} per component, each term reading two operator cells."""
    law = antiflex.search._OPERATOR_FORMS[name](alg, mod, rows, cols)
    polys = []
    for component in law:
        poly = {}
        for q, a, b in component:
            assert a <= b < rows * cols and (a, b) not in poly
            poly[(a, b)] = q
        polys.append(poly)
    return polys


def _law_outcome(route, *args):
    """A law as a multiset of polynomials, or its refusal."""
    try:
        law = route(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    assert all(poly and all(poly.values()) for poly in law)
    return collections.Counter(tuple(sorted(poly.items())) for poly in law)


def _regular_actions(alg):
    """The actions of alg on itself, unchecked."""
    return Bimodule(alg, [alg.left_matrix(i) for i in range(alg.dim)],
                    [alg.right_matrix(i) for i in range(alg.dim)],
                    check=False, mdim=alg.dim)


def _law_cases(alg, mods):
    """Every law on alg over each bimodule (or None), which the law rebases
    on alg when it is over another algebra, in the three search frames and
    the transposed module-to-algebra frame."""
    for mod in mods:
        mdim = alg.dim if mod is None else mod.mdim
        for rows, cols in {(alg.dim, mdim), (alg.dim, alg.dim),
                           (mdim, mdim), (mdim, alg.dim)}:
            for name in LAWS:
                yield name, alg, mod, rows, cols


def _seeded_algebra(rng, dim):
    return Algebra(MultiMap(2, dim, [rng.choice(CONSTANTS)
                                     for _ in range(dim ** 3)]))


def _seeded_actions(rng, alg, mdim):
    def actions():
        return [Matrix(mdim, mdim, [rng.choice(CONSTANTS)
                                    for _ in range(mdim * mdim)])
                for _ in range(alg.dim)]

    return Bimodule(alg, actions(), actions(), check=False, mdim=mdim)


def test_direct_laws_equal_the_probed_quadratic_forms(
        a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc, noncommutative_rb):
    """Each law the search reads off the integer views equals the law found
    by probing its residual, as a multiset of polynomials, on every fixture
    algebra with regular, zero, rebased and no bimodules, and on seeded dim
    0-3 algebras with fractional constants and actions; a frame the law
    refuses is refused with the same type and text."""
    fixtures = [a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc,
                noncommutative_rb[0]]
    cases = []
    for alg in fixtures:
        same_dim = [b for b in fixtures if b.dim == alg.dim and b != alg]
        mods = ([_regular_actions(alg), None]
                + [zero_bimodule(alg, m) for m in (0, 1, 2)]
                + [_regular_actions(b) for b in same_dim[:2]]
                + [_regular_actions(fixtures[(fixtures.index(alg) + 3)
                                             % len(fixtures)])])
        cases.extend(_law_cases(alg, mods))
    rng = random.Random(2323)
    for dim in (0, 1, 2, 3) * 6:
        alg = _seeded_algebra(rng, dim)
        other = _seeded_algebra(rng, dim)
        mods = [_regular_actions(alg), _regular_actions(other),
                _seeded_actions(rng, alg, rng.randint(0, 2)),
                _seeded_actions(rng, other, rng.randint(0, 2))]
        cases.extend(_law_cases(alg, mods))
    seen = collections.Counter()
    for case in cases:
        want = _law_outcome(quadratic_law_probed, *case)
        assert _law_outcome(_direct_law, *case) == want, case
        seen[case[0], "refused" if isinstance(want, tuple)
             else "empty" if not want else "law"] += 1
    assert set(seen) == {(name, kind) for name in LAWS
                         for kind in ("refused", "empty", "law")}
    assert seen["rota-baxter", "law"] >= 50
    assert seen["nijenhuis", "law"] >= 50


def test_operator_searches_never_evaluate_the_law_residual(a2, m_a2,
                                                          monkeypatch):
    """The search reads each law off the integer views: it calls
    `_rota_baxter_module` or `_nijenhuis_law` once, for the law's refusals,
    and never a law residual, the Rota-Baxter one included.  The hits are
    the brute-force ones."""
    cases = (((a2, m_a2, (-1, 0, 1), ("rota-baxter",)), "module-to-algebra"),
             ((a2, None, (-1, 0, "1/2"), ("nijenhuis",)), "algebra-endo"))
    want = [search_operators_each(*args, shape=shape) for args, shape in cases]
    calls = collections.Counter()
    for module, name in ((antiflex.bimodule, "_rota_baxter_law"),
                         (antiflex.search, "_nijenhuis_law")):
        real = getattr(module, name)

        def law(*args, real=real, name=name):
            calls[name] += 1
            residual, n, den = real(*args)

            def counted(*r_args, **kwargs):
                calls["residual"] += 1
                return residual(*r_args, **kwargs)

            return counted, n, den

        monkeypatch.setattr(module, name, law)
    real_module = antiflex.search._rota_baxter_module

    def rota_baxter_module(*args):
        calls["_rota_baxter_module"] += 1
        return real_module(*args)

    monkeypatch.setattr(antiflex.search, "_rota_baxter_module",
                        rota_baxter_module)
    got = [search_operators(*args, shape=shape) for args, shape in cases]
    assert calls == {"_rota_baxter_module": 1, "_nijenhuis_law": 1}
    assert all(got) and got == want


def test_the_anti_flexible_sweep_never_classifies(monkeypatch):
    """The anti-flexible predicate reads `anti_flexible_report`, not
    `classify`, wherever a module of the package refers to it; the hits
    are those that `classify` keeps."""
    calls = []
    real = antiflex.algebra.classify

    def counting(alg):
        calls.append(alg)
        return real(alg)

    modules = [antiflex] + [
        importlib.import_module(f"antiflex.{info.name}")
        for info in pkgutil.iter_modules(antiflex.__path__)
        if not info.name.startswith("__")]
    for module in modules:
        if getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", counting)
    hits = search_algebras(2, (-1, 0, 1), ("anti-flexible",))
    assert calls == []
    monkeypatch.undo()
    assert hits == [alg for alg in search_algebras(2, (-1, 0, 1), ())
                    if classify(alg).anti_flexible]
