"""Algebra constructions and identity classification."""

import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from antiflex.algebra import (Algebra, ClassifyFlags, classify,
                              commutator_lie, deformed_product, direct_sum,
                              semidirect_product, tensor_with_associative)
from antiflex.bimodule import zero_bimodule
from antiflex.linalg import (LinAlgError, Matrix, MultiMap, basis_vector,
                             vec_is_zero)
from antiflex.operators import is_nijenhuis
from antiflex.search import search_algebras
from tests.slow_routes import direct_sum_from_products, tensor_from_products
from tests.test_scaled_laws import ref_classify


def test_multiply_and_associator_examples(a1, a0_2, a2, na2):
    e = basis_vector(0, 1)
    assert a1.multiply(e, e) == e
    x = (Fraction(2), Fraction(-1))
    assert vec_is_zero(a0_2.multiply(x, x))
    e1, e2 = basis_vector(0, 2), basis_vector(1, 2)
    assert a2.multiply(e1, e1) == e2
    assert vec_is_zero(a2.multiply(e1, e2))
    # NA2: (e1, e1, e2) = -e2
    assert na2.associator(e1, e1, e2) == (Fraction(0), Fraction(-1))


def test_classify_examples(a2, na2, af_nonassoc):
    flags = classify(a2)
    assert flags.anti_flexible and flags.flexible and flags.associative
    flags = classify(na2)
    assert not flags.anti_flexible
    flags = classify(af_nonassoc)
    assert flags.anti_flexible and not flags.associative


def test_flexible_needs_the_polarized_law():
    """e1e1 = -e1, e1e2 = -e2, e2e1 = e2: every (e_i, e_j, e_i) vanishes,
    yet (x, e1, x) = 2 e2 for x = e1 + e2, so the algebra is not flexible;
    on the dim-2 grid over {-1, 0, 1}, 753 algebras are flexible, not the
    785 on which the basis instances (e_i, e_j, e_i) alone vanish."""
    alg = Algebra.from_products(2, {(0, 0): {0: -1}, (0, 1): {1: -1},
                                    (1, 0): {1: 1}})
    e1, e2 = basis_vector(0, 2), basis_vector(1, 2)
    for x, y in itertools.product((e1, e2), repeat=2):
        assert vec_is_zero(alg.associator(x, y, x))
    x = (Fraction(1), Fraction(1))
    assert alg.associator(x, e1, x) == (0, 2)
    assert classify(alg) == ClassifyFlags(anti_flexible=False, flexible=False,
                                          associative=False)
    assert len(search_algebras(2, (-1, 0, 1), ("flexible",))) == 753


def test_associative_implies_anti_flexible_on_random_tensors():
    rng = random.Random(100201)
    found_assoc = 0
    for _ in range(300):
        alg = Algebra(MultiMap(2, 2, [Fraction(rng.choice((-1, 0, 1)))
                                      for _ in range(8)]))
        flags = classify(alg)
        if flags.associative:
            found_assoc += 1
            assert flags.anti_flexible and flags.flexible
    assert found_assoc > 0


def test_tensor_with_associative(a2, a1, a0_2):
    # unit tensor factor reproduces the structure constants
    t = tensor_with_associative(a2, a1)
    assert t.mul.data == a2.mul.data
    z = tensor_with_associative(a0_2, a2)
    assert z.mul.is_zero() and z.dim == 4
    t22 = tensor_with_associative(a2, a2)
    e0 = basis_vector(0, 4)
    # (e1 x e1).(e1 x e1) = e2 x e2, which is index 3 under flattening
    assert t22.multiply(e0, e0) == basis_vector(3, 4)
    nonzero = [idx for idx in itertools.product(range(4), repeat=2)
               if not vec_is_zero(t22.basis_product(*idx))]
    assert nonzero == [(0, 0)]


def test_tensor_rejects_non_associative(a2, na2):
    with pytest.raises(ValueError):
        tensor_with_associative(a2, na2)


def test_direct_sum(a1, a2, a0_1):
    s = direct_sum(a1, a1)
    assert s.basis_product(0, 0) == basis_vector(0, 2)
    assert s.basis_product(1, 1) == basis_vector(1, 2)
    assert vec_is_zero(s.basis_product(0, 1))
    padded = direct_sum(a2, a0_1)
    assert classify(padded).anti_flexible
    assert padded.dim == 3
    s3 = direct_sum(a2, a1)
    assert classify(s3).anti_flexible


def test_semidirect_product(a1, a2, a0_1, m_a1, m_a2):
    z = semidirect_product(a0_1, zero_bimodule(a0_1, 1))
    assert z.mul.is_zero() and z.dim == 2
    # A1 with its regular bimodule: e1e1=e1, e1e2=e2, e2e1=e2, e2e2=0
    s = semidirect_product(a1, m_a1)
    assert s.basis_product(0, 0) == basis_vector(0, 2)
    assert s.basis_product(0, 1) == basis_vector(1, 2)
    assert s.basis_product(1, 0) == basis_vector(1, 2)
    assert vec_is_zero(s.basis_product(1, 1))
    assert classify(s).anti_flexible
    assert classify(semidirect_product(a2, m_a2)).anti_flexible


def test_semidirect_rejects_invalid_actions(a2):
    from antiflex.bimodule import Bimodule, is_bimodule
    # l(e1) idempotent with l(e1.e1) = 0 violates l(ab) = l(a)l(b)
    zero = Matrix.zeros(2, 2)
    left = [Matrix.from_rows([[1, 0], [0, 0]]), zero]
    assert is_bimodule(a2, left, [zero, zero]).ok is False
    broken = Bimodule(a2, left, [zero, zero], check=False)
    with pytest.raises(ValueError):
        semidirect_product(a2, broken)


def test_deformed_product(a1, a2):
    ident = Matrix.identity(2)
    assert deformed_product(a2, ident).mul == a2.mul
    assert deformed_product(a2, Matrix.zeros(2, 2)).mul.is_zero()
    two = Matrix.identity(1).scale(2)
    assert deformed_product(a1, two).basis_product(0, 0) == (Fraction(2),)


def test_deformed_product_homomorphism_for_nijenhuis(a2, e21):
    assert is_nijenhuis(a2, e21).ok
    deformed = deformed_product(a2, e21)
    assert classify(deformed).anti_flexible
    for i, j in itertools.product(range(2), repeat=2):
        lhs = e21.apply(deformed.basis_product(i, j))
        rhs = a2.multiply(e21.col(i), e21.col(j))
        assert lhs == rhs


def test_commutator_lie(a2, af_nonassoc):
    lie = commutator_lie(a2)
    assert lie.bracket.is_zero()
    lie2 = commutator_lie(af_nonassoc)
    assert lie2.validate().ok


def test_commutator_lie_rejects_non_anti_flexible(na2):
    with pytest.raises(ValueError):
        commutator_lie(na2)


def test_zero_dimensional_algebra_is_vacuously_fine():
    empty = Algebra.zero(0)
    flags = classify(empty)
    assert flags.anti_flexible and flags.flexible and flags.associative


def test_default_labels_are_one_shared_tuple_per_dimension(a2, na2):
    """Every algebra built without labels, by any route, shares the one
    tuple e1, ..., e_dim of its dimension."""
    shared = Algebra.zero(2).labels
    assert shared == ("e1", "e2")
    built = [a2, na2, Algebra(MultiMap(2, 2, [1] * 8)),
             Algebra.from_products(2, {(0, 1): {0: Fraction(1, 2)}}),
             deformed_product(a2, Matrix.identity(2)),
             *search_algebras(2, (0, 1), ("anti-flexible",), limit=3)]
    assert all(alg.labels is shared for alg in built)
    assert Algebra.zero(3).labels == ("e1", "e2", "e3")
    assert Algebra.zero(3).labels is Algebra(MultiMap.zero(2, 3)).labels
    assert Algebra.zero(0).labels == ()


def test_explicit_labels_are_still_checked():
    """Given labels are copied into a tuple and refused, with the same
    messages, for a wrong count or a repeat."""
    names = ["x", "y"]
    alg = Algebra.zero(2, names)
    names.append("z")
    assert alg.labels == ("x", "y")
    assert Algebra.zero(2, iter("ab")).labels == ("a", "b")
    assert Algebra.zero(2, ("e1", "e2")).labels == Algebra.zero(2).labels
    for labels, message in ((["x"], "label count != dimension"),
                            (["x", "y", "z"], "label count != dimension"),
                            ((), "label count != dimension"),
                            (["x", "x"], "duplicate basis labels")):
        with pytest.raises(LinAlgError) as info:
            Algebra.zero(2, labels)
        assert str(info.value) == message
    with pytest.raises(LinAlgError) as info:
        Algebra.zero(0, ["x"])
    assert str(info.value) == "label count != dimension"


# ---------------------------------------------------------------------------
# the one-pass `classify` and the entry-built sums against their old routes
# ---------------------------------------------------------------------------

VALUES = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
          Fraction(-5, 6), Fraction(1, 4))


def _grid():
    """The 6,561 dim-2 algebras over {-1, 0, 1}, in sweep order; built
    anew for each test, so that the session keeps none of them alive."""
    return [Algebra(MultiMap(2, 2, c))
            for c in itertools.product((-1, 0, 1), repeat=8)]


def _random_algebra(rng, dim, density):
    """Each structure constant drawn from VALUES with probability density,
    zero otherwise."""
    return Algebra(MultiMap(2, dim, [
        rng.choice(VALUES) if rng.random() < density else 0
        for _ in range(dim ** 3)]))


def _fixture_algebras(a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc,
                      noncommutative_rb, defect_rb):
    return [a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc,
            noncommutative_rb[0], defect_rb[0], Algebra.zero(0)]


def _assert_same_algebra(got, want):
    assert got.mul._shape() == want.mul._shape()
    assert got.mul.entries == want.mul.entries
    assert got.mul.den == want.mul.den
    assert got.labels == want.labels


def _assert_sums_agree(alg, other):
    """direct_sum and tensor_with_associative equal their from_products
    routes; returns whether the tensor was formed."""
    _assert_same_algebra(direct_sum(alg, other),
                         direct_sum_from_products(alg, other))
    try:
        want = tensor_from_products(alg, other)
    except ValueError as refusal:
        with pytest.raises(ValueError) as info:
            tensor_with_associative(alg, other)
        assert str(info.value) == str(refusal)
        return False
    _assert_same_algebra(tensor_with_associative(alg, other), want)
    return True


def test_sums_equal_the_from_products_routes_on_the_fixtures(
        a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc, noncommutative_rb,
        defect_rb):
    algebras = _fixture_algebras(a0_1, a0_2, a1, a2, na2, a2_plus_a1,
                                 af_nonassoc, noncommutative_rb, defect_rb)
    formed = [_assert_sums_agree(alg, other)
              for alg in algebras for other in algebras]
    assert True in formed and False in formed


def test_sums_equal_the_from_products_routes_on_seeded_draws():
    """Pairs of dims 0-3 with mixed denominators.  Half of the second
    factors are associative (zero algebras, and associative grid algebras
    and A1 scaled by a fraction, alone or summed), so that tensors are
    formed; the rest are drawn at random and mostly refused."""
    rng = random.Random(2901)
    associative = [alg for alg in _grid() if classify(alg).associative]
    a1 = Algebra.from_products(1, {(0, 0): {0: 1}})
    dens, formed = set(), []
    for trial in range(240):
        alg = _random_algebra(rng, rng.randint(0, 3),
                              (0.2, 0.5, 0.9)[trial % 3])
        if trial % 2:
            other = _random_algebra(rng, rng.randint(0, 3), 0.3)
        else:
            pick = rng.choice((Algebra.zero(rng.randint(0, 3)),
                               Algebra(rng.choice(associative).mul.scale(
                                   rng.choice(VALUES))),
                               Algebra(a1.mul.scale(rng.choice(VALUES)))))
            other = direct_sum(pick, Algebra.zero(1)) if trial % 4 else pick
        formed.append(_assert_sums_agree(alg, other))
        dens.add((alg.mul.den, other.mul.den))
    assert formed.count(True) >= 100 and False in formed
    assert any(d1 > 1 and d2 > 1 and d1 != d2 for d1, d2 in dens)


def test_classify_equals_the_reference_on_the_dim2_grid():
    """All 6,561 dim-2 algebras over {-1, 0, 1}, against the dense triple
    sweep of `tests/test_scaled_laws.py`."""
    flags = collections.Counter()
    for alg in _grid():
        got = classify(alg)
        assert got == ref_classify(alg)
        flags[got] += 1
    assert flags == {
        ClassifyFlags(anti_flexible=False, flexible=False,
                      associative=False): 5712,
        ClassifyFlags(anti_flexible=False, flexible=True,
                      associative=False): 648,
        ClassifyFlags(anti_flexible=True, flexible=False,
                      associative=False): 96,
        ClassifyFlags(anti_flexible=True, flexible=True,
                      associative=True): 105}


def test_classify_equals_the_reference_on_the_corpus_and_seeded_draws(
        a0_1, a0_2, a1, a2, na2, a2_plus_a1, af_nonassoc, noncommutative_rb,
        defect_rb):
    """The fixture algebras with their sums and tensors up to dim 4, and
    seeded dim-3 and dim-4 algebras: random ones with mixed denominators,
    some with basis vectors that multiply to zero, and sums of grid
    algebras scaled by fractions, so that every possible flag set
    occurs."""
    rng = random.Random(2902)
    grid = _grid()
    fixtures = _fixture_algebras(a0_1, a0_2, a1, a2, na2, a2_plus_a1,
                                 af_nonassoc, noncommutative_rb, defect_rb)
    algebras = list(fixtures)
    for alg in fixtures:
        for other in fixtures:
            if alg.dim + other.dim <= 4:
                algebras.append(direct_sum(alg, other))
            if alg.dim * other.dim <= 4 and classify(other).associative:
                algebras.append(tensor_with_associative(alg, other))
    for trial in range(120):
        dim = 3 + trial % 2
        if trial % 3 == 0:
            alg = _random_algebra(rng, dim, (0.2, 0.5, 0.9)[trial // 3 % 3])
        elif trial % 3 == 1:
            dead = rng.randint(1, dim - 1)
            alg = _random_algebra(rng, dim - dead, 0.6)
            alg = direct_sum(Algebra.zero(dead), alg)
        else:
            def part(d):
                pick = rng.choice(grid) if d == 2 else Algebra(
                    MultiMap(2, 1, [rng.choice((0, 1))]))
                return Algebra(pick.mul.scale(rng.choice(VALUES)))
            alg = direct_sum(part(2), part(dim - 2))
        algebras.append(alg)
    seen = set()
    for alg in algebras:
        got = classify(alg)
        assert got == ref_classify(alg)
        seen.add(got)
    assert len(seen) == 4


def test_classify_keeps_no_table_of_associators():
    """The pass forms each associator as it goes: on the dim-24 zero
    algebra its traced peak stays under 64 KiB, where a table of the
    24**3 associators takes megabytes."""
    alg = Algebra.zero(24)
    classify(alg)  # reads the integer view once, outside the trace
    tracemalloc.start()
    try:
        flags = classify(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flags == ClassifyFlags(anti_flexible=True, flexible=True,
                                  associative=True)
    assert peak < 64 * 1024
