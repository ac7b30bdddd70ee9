"""Brute-force enumeration of small algebras and operators.

This is the example oracle for the whole package: it sweeps dense coefficient
grids in deterministic lexicographic order, filters by named predicate
conjunctions, and returns up to a requested number of hits.  Everything found
here re-passes its filters on re-ingestion, which the tests assert.
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import Callable, Optional, Sequence

from .algebra import Algebra, classify
from .bimodule import Bimodule
from .linalg import Matrix, MultiMap, Rat
from .operators import is_nijenhuis, is_rota_baxter

__all__ = [
    "SearchSpaceError",
    "CANDIDATE_CEILING",
    "algebra_predicate",
    "operator_predicate",
    "search_algebras",
    "search_operators",
]

CANDIDATE_CEILING = 10 ** 7
PROGRESS_EVERY = 200_000


class SearchSpaceError(ValueError):
    """The requested sweep exceeds the candidate ceiling."""


def _rota_baxter(alg: Algebra, mod: Optional[Bimodule], op: Matrix) -> bool:
    if mod is None:
        raise ValueError("rota-baxter predicate needs a bimodule")
    return bool(is_rota_baxter(alg, mod, op))


# name -> test, resolved (with a "not-" prefix) once per predicate built; an
# operator test also takes the algebra and bimodule the search runs over.
_ALGEBRA_TESTS = {
    "anti-flexible": lambda alg: classify(alg).anti_flexible,
    "flexible": lambda alg: classify(alg).flexible,
    "associative": lambda alg: classify(alg).associative,
    "commutative": Algebra.is_commutative,
}
_OPERATOR_TESTS = {
    "rota-baxter": _rota_baxter,
    "nijenhuis": lambda alg, mod, op: bool(is_nijenhuis(alg, op)),
    "nonzero": lambda alg, mod, op: not op.is_zero(),
    "scalar": lambda alg, mod, op: op.is_square() and op == Matrix.identity(
        op.rows).scale(op[0, 0] if op.rows else 1),
    "invertible": lambda alg, mod, op: op.is_square() and op.inverse() is not None,
}
ALGEBRA_PREDICATES = tuple(_ALGEBRA_TESTS)
OPERATOR_PREDICATES = tuple(_OPERATOR_TESTS)


def algebra_predicate(name: str) -> Callable[[Algebra], bool]:
    test = _ALGEBRA_TESTS.get(name.removeprefix("not-"))
    if test is None:
        raise ValueError(f"unknown algebra predicate {name!r}")
    return (lambda alg: not test(alg)) if name.startswith("not-") else test


def operator_predicate(name: str, alg: Algebra,
                       mod: Optional[Bimodule]) -> Callable[[Matrix], bool]:
    test = _OPERATOR_TESTS.get(name.removeprefix("not-"))
    if test is None:
        raise ValueError(f"unknown operator predicate {name!r}")
    if name.startswith("not-"):
        return lambda op: not test(alg, mod, op)
    return functools.partial(test, alg, mod)


def _grid(coeffs: Sequence, cells: int, progress: bool):
    values = sorted(set(Rat(c) for c in coeffs))
    total = len(values) ** cells
    if total > CANDIDATE_CEILING:
        raise SearchSpaceError(
            f"{len(values)}^{cells} = {total} candidates exceed the "
            f"ceiling {CANDIDATE_CEILING}")
    count = 0
    for entries in itertools.product(values, repeat=cells):
        count += 1
        if progress and count % PROGRESS_EVERY == 0:
            print(f"search: {count}/{total} candidates scanned",
                  file=sys.stderr)
        yield entries


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and limit < 0:
        raise ValueError(f"search limit must be nonnegative, got {limit}")


def search_algebras(dim: int, coeffs: Sequence, predicates: Sequence[str],
                    limit: Optional[int] = None,
                    progress: bool = False) -> list:
    """Enumerate structure-constant tensors on a dim-dimensional space and
    keep the algebras passing every named predicate, in sweep order."""
    if dim < 0:
        raise ValueError(f"search dimension must be nonnegative, got {dim}")
    _check_limit(limit)
    checks = [algebra_predicate(p) for p in predicates]
    hits = []
    for entries in _grid(coeffs, dim ** 3, progress):
        if len(hits) == limit:
            break
        alg = Algebra(MultiMap(2, dim, entries))
        if all(check(alg) for check in checks):
            hits.append(alg)
    return hits


def search_operators(alg: Algebra, mod: Optional[Bimodule], coeffs: Sequence,
                     predicates: Sequence[str], shape: str = "module-to-algebra",
                     limit: Optional[int] = None,
                     progress: bool = False) -> list:
    """Enumerate operator matrices over the grid and filter.

    shape selects the matrix frame: "module-to-algebra" for Rota-Baxter
    candidates (dim x mdim), "algebra-endo" for Nijenhuis candidates
    (dim x dim), or "module-endo" (mdim x mdim).
    """
    if shape not in ("module-to-algebra", "algebra-endo", "module-endo"):
        raise ValueError(f"unknown operator search shape {shape!r}")
    if shape != "algebra-endo" and mod is None:
        raise ValueError(f"{shape} search needs a bimodule")
    rows = mod.mdim if shape == "module-endo" else alg.dim
    cols = alg.dim if shape == "algebra-endo" else mod.mdim
    _check_limit(limit)
    checks = [operator_predicate(p, alg, mod) for p in predicates]
    hits = []
    for entries in _grid(coeffs, rows * cols, progress):
        if len(hits) == limit:
            break
        op = Matrix(rows, cols, entries)
        if all(check(op) for check in checks):
            hits.append(op)
    return hits
