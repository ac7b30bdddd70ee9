"""The searches: determinism, self-consistency, known counts, and the
backtracking operator search against the brute-force sweep of
`tests/slow_routes.py`."""

import pytest

import antiflex.linalg
import antiflex.search
from antiflex.algebra import classify
from antiflex.linalg import Matrix
from antiflex.operators import is_nijenhuis, is_rota_baxter
from antiflex.search import (CANDIDATE_CEILING, SearchSpaceError,
                             search_algebras, search_operators)
from tests.slow_routes import search_operators_each
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
    """The 19,683 candidates of the dim-3 grid take fewer than 2,000 law
    evaluations: a vanishing check cuts its subtree before the leaves."""
    evaluated = []
    real = antiflex.search._value

    def counting(component, cells):
        evaluated.append(None)
        return real(component, cells)

    monkeypatch.setattr(antiflex.search, "_value", counting)
    assert len(search_operators(a2_plus_a1, m_a2_plus_a1, (-1, 0, 1),
                                ("rota-baxter",))) == 27
    assert len(evaluated) < 2000


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
