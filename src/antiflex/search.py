"""Enumeration of small algebras and operators over coefficient grids.

Both searches sweep a dense coefficient grid in deterministic lexicographic
order, keep the candidates passing every named predicate, and return up to
a requested number of hits.  Everything found here re-passes its filters on
re-ingestion, which the tests assert.

`search_algebras` builds and tests every candidate.  A candidate's cells,
the grid values as ints over their common denominator, come in key order,
so each is built with its integer view (`MultiMap._of_view`), one sparse
group per product e_i e_j, and no check sorts its entries.  Its
anti-flexible predicate reads `anti_flexible_report(alg).ok`, which sweeps
half the triples and forms no witness for a rejected candidate, and
`classify` serves only the flexible and associative ones.
`search_operators` backtracks over the cells of the candidate matrix (its
row-major entries) in the same order, on the grid values written as ints
over their common denominator.  Each operator predicate is one form on
those cells (`_OPERATOR_FORMS`), which `operator_predicate` also reads: it
builds the form of an operator's shape and evaluates it on the operator's
ints over its den, so a predicate applied to a Matrix and the search that
prunes on it read the same law.  The Rota-Baxter and Nijenhuis laws are
homogeneous quadratics in the cells and the scalar law is linear, so each
is a list of int polynomial components, all of which vanish exactly when
the law holds.  The two quadratic laws are read straight off the integer
views that `is_rota_baxter` and `is_nijenhuis` contract (`_quadratic_law`),
over the same scale, after the shape refusals of
`bimodule._rota_baxter_module` and `operators._nijenhuis_law`; their
residuals are never evaluated here.  Every
component is a flat list of (q, a, b) terms, q * cell a * cell b, where
cell n (one past the last) is the constant 1, so that linear and constant
monomials are terms too.  A component is checked as soon as its last cell
has a value, and a nonzero value cuts the subtree; `nonzero`, `invertible`
and every `not-` form are tested at the leaves on the cells without the
constant one, and only a hit is built as a Matrix.  The hits, their order,
the limit, the refusals and the progress lines (a cut subtree counts as
scanned) are those of building and testing every candidate, which the
tests keep as the oracle, with the law found by probing the residual
(`tests/slow_routes.py`).
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import Callable, Optional, Sequence

from .algebra import Algebra, anti_flexible_report, classify
from .bimodule import Bimodule, _rota_baxter_module
from .linalg import (Matrix, MultiMap, _exact, _nonzero_cols, int_cols_rank,
                     integer_scaled)
from .operators import _nijenhuis_law
# not called here: the search reads the Rota-Baxter law off the integer
# views; perfbench/test_perfbench.py reads the name here
from .operators import is_rota_baxter  # noqa: F401

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
    """A law component, a list of (q, a, b) terms, at the cell values; the
    last cell is the constant cell, 1."""
    total = 0
    for q, a, b in component:
        total += q * cells[a] * cells[b]
    return total


def _holds(law: list, cells: Sequence) -> bool:
    """Whether every component of a law vanishes at the cell values of an
    operator, which do not include the constant cell."""
    cells = (*cells, 1)
    return not any(_value(component, cells) for component in law)


def _quadratic_law(prod: list, rows: int, cols: int, linear) -> list:
    """The components of an operator law on the cells of a rows x cols
    operator T (cell a * cols + i holds T[a][i]), with prod the int
    products of an algebra of dimension rows, e_a e_b at a * rows + b.  At
    the basis pair (i, j) of range(cols) and at k, the law's int residual
    is

        sum_ab T[a][i] T[b][j] prod[a * rows + b]_k - sum_p T[k][p] v_p,

    with v = linear(i, j) linear in T: at each p < cols, the (cell, q)
    pairs of v_p = sum q * cell.  Each component is a list of its nonzero
    (q, a, b) terms, q * cell a * cell b with a <= b; a zero component is
    left out."""
    law = []
    for i, j in itertools.product(range(cols), repeat=2):
        comps = [{} for _ in range(rows)]
        for ab, products in enumerate(prod):
            ca, cb = ab // rows * cols + i, ab % rows * cols + j
            key = (ca, cb) if ca <= cb else (cb, ca)
            for k, z in products:
                comps[k][key] = comps[k].get(key, 0) + z
        v = linear(i, j)
        for k, comp in enumerate(comps):
            for p, terms in enumerate(v):
                kp = k * cols + p
                for c, q in terms:
                    key = (kp, c) if kp <= c else (c, kp)
                    comp[key] = comp.get(key, 0) - q
            component = [(q, a, b) for (a, b), q in comp.items() if q]
            if component:
                law.append(component)
    return law


def _rota_baxter_terms(alg: Algebra, mod: Optional[Bimodule], rows: int,
                       cols: int) -> list:
    """The Rota-Baxter law, with v = l(T m_i)m_j + r(T m_j)m_i read off the
    view that `bimodule._rota_baxter_law` contracts, after its refusals
    (`_rota_baxter_module`)."""
    prod, left, right, _ = _rota_baxter_module(alg, _bimodule(mod), rows,
                                               cols).int_view()

    def linear(i, j):
        v = [[] for _ in range(cols)]
        for a in range(rows):
            for p, y in left[a][j]:
                v[p].append((a * cols + i, y))
            for p, y in right[a][i]:
                v[p].append((a * cols + j, y))
        return v

    return _quadratic_law(prod, rows, cols, linear)


def _nijenhuis_terms(alg: Algebra, rows: int, cols: int) -> list:
    """The Nijenhuis law, with v = N(e_i)e_j + e_i N(e_j) - N(e_i e_j) read
    off the view of `_nijenhuis_law`, after its refusal."""
    _nijenhuis_law(alg, rows, cols)
    prod, _ = alg.int_view()

    def linear(i, j):
        v = [[] for _ in range(cols)]
        for a in range(rows):
            for p, z in prod[a * rows + j]:
                v[p].append((a * cols + i, z))
            for p, z in prod[i * rows + a]:
                v[p].append((a * cols + j, z))
        for s, z in prod[i * rows + j]:
            for p in range(cols):
                v[p].append((p * cols + s, -z))
        return v

    return _quadratic_law(prod, rows, cols, linear)


def _scalar_law(rows: int, cols: int) -> list:
    """x_ij = [i == j] x_00 as linear components in the cells, with the
    constant cell n = rows * cols; a non-square operator fails the
    constant component 1."""
    n = rows * cols
    if rows != cols:
        return [[(1, n, n)]]
    return [[(1, i * cols + j, n)] + ([(-1, 0, n)] if i == j else [])
            for i in range(rows) for j in range(cols) if i or j]


def _full_rank(rows: int, cols: int, cells: Sequence[int]) -> bool:
    return (rows == cols
            and int_cols_rank(_nonzero_cols(cells, rows, cols)) == rows)


# name -> test, resolved (with a "not-" prefix) once per predicate built.
_ALGEBRA_TESTS = {
    "anti-flexible": lambda alg: anti_flexible_report(alg).ok,
    "flexible": lambda alg: classify(alg).flexible,
    "associative": lambda alg: classify(alg).associative,
    "commutative": Algebra.is_commutative,
}
# name -> form on the int cells of a rows x cols operator over the algebra
# and bimodule the search runs over; a form is a law, a list of components
# that all vanish exactly when the predicate holds, or else a test of the
# cells at a leaf.
_OPERATOR_FORMS = {
    "rota-baxter": _rota_baxter_terms,
    "nijenhuis": lambda alg, mod, rows, cols: _nijenhuis_terms(alg, rows,
                                                               cols),
    "nonzero": lambda alg, mod, rows, cols: any,
    "scalar": lambda alg, mod, rows, cols: _scalar_law(rows, cols),
    "invertible": lambda alg, mod, rows, cols: functools.partial(
        _full_rank, rows, cols),
}


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
    """The test of an operator that `search_operators` makes: the form of
    the operator's shape on its cells, `ints` over its den.  Every law is
    homogeneous in the cells, so it holds on the ints exactly when it
    holds on the entries.  A form that refuses the shape, or rota-baxter
    without a bimodule, raises when the test is applied."""
    form = _lookup(_OPERATOR_FORMS, name, "operator")
    negated = name.startswith("not-")

    def test(op):
        law = form(alg, mod, op.rows, op.cols)
        holds = _holds(law, op.ints) if isinstance(law, list) else law(op.ints)
        return holds != negated

    return test


def _grid_values(coeffs: Sequence, cells: int) -> tuple:
    """(values, total): the distinct grid values, sorted, and the number of
    candidates, refused over the ceiling.  Ints and Fractions are kept as
    they are and any other value is read as a Fraction, so a grid of ints
    forms no Fraction."""
    values = sorted(set(map(_exact, coeffs)))
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
    # each candidate's constants are its cells over the grid's denominator,
    # in key order: the dim cells of e_i e_j form the sparse group at i *
    # dim + j of its integer view, and the sweep over the cells is the sweep
    # over the groups of each product in turn
    (ints,), den = integer_scaled(values)
    groups = [tuple((k, x) for k, x in enumerate(cells) if x)
              for cells in itertools.product(ints, repeat=dim)]
    hits = []
    for view in itertools.product(groups, repeat=dim * dim):
        scan(1)
        if len(hits) == limit:
            break
        alg = Algebra(MultiMap._of_view(2, dim, dim, list(view), den))
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
              _lookup(_OPERATOR_FORMS, name, "operator"))
             for name in predicates]
    values, total = _grid_values(coeffs, rows * cols)
    scan = _scanner(total, progress)
    if limit == 0:
        scan(min(total, 1))  # the sweep reads one candidate before it stops
        return []
    n = rows * cols
    checks = [[] for _ in range(n + 1)]  # by last cell, then constants
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
                # at its last cell: b, or a where b is the constant cell n
                checks[max(b if b < n else a
                           for _, a, b in component)].append(component)
    (ints,), den = integer_scaled(values)
    hits = _backtrack(ints, checks, tests, limit, scan)
    if len(hits) == limit and scan(0) < total:
        scan(1)  # the sweep reads the candidate after the last hit
    return [Matrix._of_ints(1, cols, rows, {(k % cols, k // cols): x
                                            for k, x in enumerate(cells) if x},
                            den) for cells in hits]


def _refusal(exc: ValueError) -> Callable:
    def refuse(cells):
        raise exc
    return refuse


def _backtrack(ints: list, checks: list, tests: list, limit: Optional[int],
               scan: Callable[[int], int]) -> list:
    """The cell tuples over the values ints, in lexicographic order, on
    which every component of checks[c] vanishes for each cell c (checked
    once cells 0..c have values; checks[-1] holds the constants, whose
    terms read only the constant cell) and every leaf test passes, up to
    limit of them; scan counts the candidates covered, a cut subtree at
    once.  The cells are followed by the constant cell, 1, which the leaf
    tests and the hits do not see."""
    n = len(checks) - 1
    below = [len(ints) ** (n - 1 - c) for c in range(n)]
    cells = [0] * n + [1]
    hits = []

    def leaf():
        """Whether the search stops after the candidate cells."""
        scan(1)
        candidate = tuple(cells[:n])
        for test in tests:
            if not test(candidate):
                return False
        hits.append(candidate)
        return len(hits) == limit

    def visit(c):
        """Whether the search stops within the subtree of cells[:c]."""
        last = c == n - 1
        components = checks[c]
        for x in ints:
            cells[c] = x
            for component in components:
                total = 0
                for q, a, b in component:
                    total += q * cells[a] * cells[b]
                if total:
                    scan(below[c])
                    break
            else:
                if leaf() if last else visit(c + 1):
                    return True
        return False

    if any(_value(component, cells) for component in checks[n]):
        scan(len(ints) ** n)
    elif n:
        visit(0)
    else:
        leaf()
    return hits
