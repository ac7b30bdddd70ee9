"""Enumeration of small algebras and operators over coefficient grids.

Both searches sweep a dense coefficient grid in deterministic lexicographic
order, keep the candidates passing every named predicate, and return up to
a requested number of hits.  Everything found here re-passes its filters on
re-ingestion, which the tests assert.

`search_algebras` builds and tests every candidate.  `search_operators`
backtracks over the cells of the candidate matrix (its row-major entries)
in the same order, on the grid values written as ints over their common
denominator.  The Rota-Baxter and Nijenhuis laws are homogeneous quadratics
in the cells and the scalar law is linear, so each is a list of int
polynomial components, all of which vanish exactly when the law holds.  A
component is checked as soon as its last cell has a value, and a nonzero
value cuts the subtree; `nonzero`, `invertible` and every `not-` form are
tested at the leaves, and only a hit is built as a Matrix.  The hits, their
order, the limit, the refusals and the progress lines (a cut subtree counts
as scanned) are those of building and testing every candidate, which the
tests keep as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import Callable, Optional, Sequence

from .algebra import Algebra, classify
from .bimodule import Bimodule
from .linalg import (Matrix, MultiMap, Rat, _nonzero_cols, int_cols_rank,
                     integer_scaled)
from .operators import (_nijenhuis_law, _rota_baxter_law, is_nijenhuis,
                        is_rota_baxter)

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


def _bimodule(mod: Optional[Bimodule]) -> Bimodule:
    if mod is None:
        raise ValueError("rota-baxter predicate needs a bimodule")
    return mod


def _value(component: list, cells: Sequence) -> int:
    """A polynomial component, a list of (coefficient, cell indices)
    monomials, at the cell values."""
    total = 0
    for coeff, monomial in component:
        for c in monomial:
            coeff *= cells[c]
        total += coeff
    return total


def _holds(law: list, cells: Sequence) -> bool:
    return not any(_value(component, cells) for component in law)


def _quadratic_law(law: tuple, rows: int, cols: int) -> list:
    """The components of a law whose int residual is a homogeneous
    quadratic in the cells of a rows x cols operator, from the
    (residual, n, den) of `operators._rota_baxter_law` or `_nijenhuis_law`.
    A homogeneous quadratic Q is fixed by its values Q(E_a) = q_aa on the
    unit cells and Q(E_a + E_b) = q_aa + q_bb + q_ab on their pairs."""
    residual, n, _ = law
    pairs = list(itertools.product(range(n), repeat=2))

    def at(units):
        tcols = [[] for _ in range(cols)]
        for c in units:
            tcols[c % cols].append((c // cols, 1))
        return [x for i, j in pairs for x in residual(tcols, i, j)]

    terms = {}
    diag = [at((a,)) for a in range(rows * cols)]
    for a, values in enumerate(diag):
        for t, q in enumerate(values):
            if q:
                terms.setdefault(t, []).append((q, (a, a)))
    for a, b in itertools.combinations(range(rows * cols), 2):
        for t, (q, qa, qb) in enumerate(zip(at((a, b)), diag[a], diag[b])):
            if q != qa + qb:
                terms.setdefault(t, []).append((q - qa - qb, (a, b)))
    return list(terms.values())


def _scalar_law(rows: int, cols: int) -> list:
    """x_ij = [i == j] x_00 as linear components in the cells; a non-square
    operator fails the constant component 1."""
    if rows != cols:
        return [[(1, ())]]
    return [[(1, (i * cols + j,))] + ([(-1, (0,))] if i == j else [])
            for i in range(rows) for j in range(cols) if i or j]


def _full_rank(rows: int, cols: int, cells: Sequence[int]) -> bool:
    return (rows == cols
            and int_cols_rank(_nonzero_cols(cells, rows, cols)) == rows)


# name -> test, resolved (with a "not-" prefix) once per predicate built; an
# operator test also takes the algebra and bimodule the search runs over.
_ALGEBRA_TESTS = {
    "anti-flexible": lambda alg: classify(alg).anti_flexible,
    "flexible": lambda alg: classify(alg).flexible,
    "associative": lambda alg: classify(alg).associative,
    "commutative": Algebra.is_commutative,
}
# name -> (test of a Matrix, form on the int cells of a rows x cols
# candidate); a form is a law, a list of components that all vanish exactly
# when the predicate holds, or else a test of the cells at a leaf.
_OPERATOR_TESTS = {
    "rota-baxter": (
        lambda alg, mod, op: bool(is_rota_baxter(alg, _bimodule(mod), op)),
        lambda alg, mod, rows, cols: _quadratic_law(
            _rota_baxter_law(alg, _bimodule(mod), rows, cols), rows, cols)),
    "nijenhuis": (
        lambda alg, mod, op: bool(is_nijenhuis(alg, op)),
        lambda alg, mod, rows, cols: _quadratic_law(
            _nijenhuis_law(alg, rows, cols), rows, cols)),
    "nonzero": (lambda alg, mod, op: not op.is_zero(),
                lambda alg, mod, rows, cols: any),
    "scalar": (lambda alg, mod, op: _holds(_scalar_law(op.rows, op.cols),
                                           op.data),
               lambda alg, mod, rows, cols: _scalar_law(rows, cols)),
    "invertible": (lambda alg, mod, op: op.is_square() and op.rank() == op.rows,
                   lambda alg, mod, rows, cols: functools.partial(
                       _full_rank, rows, cols)),
}
ALGEBRA_PREDICATES = tuple(_ALGEBRA_TESTS)
OPERATOR_PREDICATES = tuple(_OPERATOR_TESTS)


def _lookup(tests: dict, name: str, kind: str):
    test = tests.get(name.removeprefix("not-"))
    if test is None:
        raise ValueError(f"unknown {kind} predicate {name!r}")
    return test


def algebra_predicate(name: str) -> Callable[[Algebra], bool]:
    test = _lookup(_ALGEBRA_TESTS, name, "algebra")
    return (lambda alg: not test(alg)) if name.startswith("not-") else test


def operator_predicate(name: str, alg: Algebra,
                       mod: Optional[Bimodule]) -> Callable[[Matrix], bool]:
    test = _lookup(_OPERATOR_TESTS, name, "operator")[0]
    if name.startswith("not-"):
        return lambda op: not test(alg, mod, op)
    return functools.partial(test, alg, mod)


def _grid_values(coeffs: Sequence, cells: int) -> tuple:
    """(values, total): the distinct grid values, sorted, and the number of
    candidates, refused over the ceiling."""
    values = sorted(set(Rat(c) for c in coeffs))
    total = len(values) ** cells
    if total > CANDIDATE_CEILING:
        raise SearchSpaceError(
            f"{len(values)}^{cells} = {total} candidates exceed the "
            f"ceiling {CANDIDATE_CEILING}")
    return values, total


def _scanner(total: int, progress: bool) -> Callable[[int], int]:
    """scan(k): count k more candidates as scanned and return the count so
    far, with a progress line at each multiple of PROGRESS_EVERY passed
    when progress is on."""
    scanned = 0

    def scan(k):
        nonlocal scanned
        if progress:
            for mark in range(scanned // PROGRESS_EVERY + 1,
                              (scanned + k) // PROGRESS_EVERY + 1):
                print(f"search: {mark * PROGRESS_EVERY}/{total} candidates "
                      f"scanned", file=sys.stderr)
        scanned += k
        return scanned

    return scan


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
    values, total = _grid_values(coeffs, dim ** 3)
    scan = _scanner(total, progress)
    # each candidate's constants are its cells over the grid's denominator
    (ints,), den = integer_scaled(values)
    keys = list(itertools.product(range(dim), repeat=3))
    hits = []
    for cells in itertools.product(ints, repeat=dim ** 3):
        scan(1)
        if len(hits) == limit:
            break
        alg = Algebra(MultiMap._of_ints(2, dim, dim, dict(zip(keys, cells)),
                                        den))
        if all(check(alg) for check in checks):
            hits.append(alg)
    return hits


def search_operators(alg: Algebra, mod: Optional[Bimodule], coeffs: Sequence,
                     predicates: Sequence[str], shape: str = "module-to-algebra",
                     limit: Optional[int] = None,
                     progress: bool = False) -> list:
    """The operator matrices over the grid passing every named predicate,
    in sweep order, found by backtracking over their cells.

    shape selects the matrix frame: "module-to-algebra" for Rota-Baxter
    candidates (dim x mdim), "algebra-endo" for Nijenhuis candidates
    (dim x dim), or "module-endo" (mdim x mdim).

    A predicate that refuses the frame (a law of another shape, or
    rota-baxter without a bimodule) raises at the first candidate passing
    the predicates before it, and the predicates after it are never read.
    """
    if shape not in ("module-to-algebra", "algebra-endo", "module-endo"):
        raise ValueError(f"unknown operator search shape {shape!r}")
    if shape != "algebra-endo" and mod is None:
        raise ValueError(f"{shape} search needs a bimodule")
    rows = mod.mdim if shape == "module-endo" else alg.dim
    cols = alg.dim if shape == "algebra-endo" else mod.mdim
    _check_limit(limit)
    forms = [(name.startswith("not-"),
              _lookup(_OPERATOR_TESTS, name, "operator")[1])
             for name in predicates]
    values, total = _grid_values(coeffs, rows * cols)
    scan = _scanner(total, progress)
    if limit == 0:
        scan(min(total, 1))  # the sweep reads one candidate before it stops
        return []
    checks = [[] for _ in range(rows * cols + 1)]  # by last cell, then constants
    tests = []
    for negated, form in forms:
        try:
            law = form(alg, mod, rows, cols)
        except ValueError as exc:
            tests.append(_refusal(exc))
            break
        if not isinstance(law, list):  # a leaf test
            tests.append((lambda cells, test=law: not test(cells)) if negated
                         else law)
        elif negated:
            tests.append(lambda cells, law=law: not _holds(law, cells))
        else:
            for component in law:
                checks[max((c for _, m in component for c in m),
                           default=-1)].append(component)
    (ints,), _ = integer_scaled(values)
    hits = _backtrack(ints, checks, tests, limit, scan)
    if len(hits) == limit and scan(0) < total:
        scan(1)  # the sweep reads the candidate after the last hit
    entry = dict(zip(ints, values))
    return [Matrix(rows, cols, [entry[x] for x in cells]) for cells in hits]


def _refusal(exc: ValueError) -> Callable:
    def refuse(cells):
        raise exc
    return refuse


def _backtrack(ints: list, checks: list, tests: list, limit: Optional[int],
               scan: Callable[[int], int]) -> list:
    """The cell tuples over the values ints, in lexicographic order, on
    which every component of checks[c] vanishes for each cell c (checked
    once cells 0..c have values; checks[-1] holds the constants) and every
    leaf test passes, up to limit of them; scan counts the candidates
    covered, a cut subtree at once."""
    n = len(checks) - 1
    below = [len(ints) ** (n - 1 - c) for c in range(n)]
    cells = [0] * n
    hits = []

    def leaf():
        """Whether the search stops after the candidate cells."""
        scan(1)
        if all(test(cells) for test in tests):
            hits.append(tuple(cells))
            return len(hits) == limit
        return False

    def visit(c):
        """Whether the search stops within the subtree of cells[:c]."""
        last = c == n - 1
        for x in ints:
            cells[c] = x
            if checks[c] and any(_value(component, cells)
                                 for component in checks[c]):
                scan(below[c])
            elif leaf() if last else visit(c + 1):
                return True
        return False

    if any(_value(component, cells) for component in checks[-1]):
        scan(len(ints) ** n)
    elif n:
        visit(0)
    else:
        leaf()
    return hits
