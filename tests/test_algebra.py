"""Algebra constructions and identity classification."""

import itertools
import random
from fractions import Fraction

import pytest

from antiflex.algebra import (Algebra, ClassifyFlags, classify,
                              commutator_lie, deformed_product, direct_sum,
                              semidirect_product, tensor_with_associative)
from antiflex.bimodule import zero_bimodule
from antiflex.linalg import Matrix, MultiMap, basis_vector, vec_is_zero
from antiflex.operators import is_nijenhuis
from antiflex.search import search_algebras


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
