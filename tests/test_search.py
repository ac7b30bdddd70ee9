"""The enumeration oracle: determinism, self-consistency, known counts."""

import pytest

from antiflex.algebra import classify
from antiflex.linalg import Matrix
from antiflex.operators import is_nijenhuis, is_rota_baxter
from antiflex.search import (SearchSpaceError, search_algebras,
                             search_operators)


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
    monkeypatch.setattr(search, "_grid", lambda *args: scanned.append(args))
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
