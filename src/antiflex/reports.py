"""Structured verdicts for identity checks.

Predicates in this package return a CheckReport rather than a bare bool so
that callers (and the CLI) can see the first violating basis tuple and the
residual witnessing the failure.  Every law is checked over its basis
tuples in lexicographic (product) order, so "first violation" is
deterministic.

Policy: predicates return reports; public constructions `require` their
preconditions once (ValueError "<what>: <describe()>"); internal callers
never re-check, and build from input already checked or proved valid with
an unchecked builder such as `operators._star_product`.  The hot laws,
which searches and complexes check on every candidate, scan their tuples
in their own loops and record the first failure with `fail`, so a passing
check builds nothing but its report (`algebra.anti_flexible_report`, and
`_law_report` here for the Rota-Baxter and Nijenhuis laws, which
`bimodule` and `operators` share);
`CheckReport.sweep` serves every other law.  A hot law's failure keeps its
int residual and the scale it is over, and its witness, the Fractions
residual / scale, is formed on the first read of `Violation.residual`: a
caller that reads only `ok`, such as a search predicate rejecting a
candidate, forms none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

from .linalg import Matrix, vec_is_zero


def _witness(ints, scale: int) -> tuple:
    """The exact residual of an int residual over scale."""
    return tuple(Fraction(x, scale) for x in ints)


class Violation:
    """The first failure of a law: the basis tuple `where` and the residual
    there.  Given a scale, `residual` is handed over as the int residual
    over that scale, and the witness is formed on its first read.  Equality,
    hashing and repr are those of a frozen dataclass of (law, where,
    residual), and the three fields are read-only."""

    __slots__ = ("_law", "_where", "_residual", "_scale")

    def __init__(self, law: str, where: tuple, residual: Any,
                 scale: Optional[int] = None):
        self._law = law
        self._where = where
        self._residual = residual
        self._scale = scale

    @property
    def law(self) -> str:
        return self._law

    @property
    def where(self) -> tuple:
        return self._where

    @property
    def residual(self) -> Any:
        if self._scale is not None:
            self._residual = _witness(self._residual, self._scale)
            self._scale = None
        return self._residual

    def _fields(self) -> tuple:
        return (self._law, self._where, self.residual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"Violation(law={self._law!r}, where={self._where!r}, "
                f"residual={self.residual!r})")

    def describe(self) -> str:
        return f"{self.law} fails at basis tuple {self.where}: residual {self.residual}"


@dataclass(slots=True)
class CheckReport:
    name: str
    ok: bool = True
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def fail(self, law: str, where: tuple, residual,
             scale: Optional[int] = None) -> None:
        """Record a failure; with a scale, residual is the int residual
        over it, and the witness is formed when read."""
        self.ok = False
        self.violations.append(Violation(law, where, residual, scale))

    def sweep(self, law: str, tuples: Iterable[tuple],
              residual: Callable[..., Any],
              witness: Optional[Callable[[Any], Any]] = None) -> "CheckReport":
        """Fail at the first tuple, in the order given, whose residual is not
        zero (a zero tuple, or `.is_zero()`); a failed report skips the sweep.
        The violation records the residual, or `witness(residual)` when given:
        a law checked on integer-scaled data recovers its exact residual so."""
        if not self.ok:
            return self
        for where in tuples:
            res = residual(*where)
            if not (vec_is_zero(res) if isinstance(res, tuple) else res.is_zero()):
                self.fail(law, where, res if witness is None else witness(res))
                break
        return self

    def require(self, what: str) -> "CheckReport":
        """Raise ValueError("<what>: <describe()>") unless the report is ok."""
        if not self.ok:
            raise ValueError(f"{what}: {self.describe()}")
        return self

    def merge(self, other: "CheckReport") -> None:
        if not other.ok:
            self.ok = False
            self.violations.extend(other.violations)
        self.notes.update(other.notes)

    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: ok"
        head = self.violations[0]
        more = f" (+{len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        return f"{self.name}: FAIL - {head.describe()}{more}"


def _law_report(name: str, law: str, op: Matrix, residual, n: int,
                den1: int) -> CheckReport:
    """An operator law over the basis pairs of range(n), in product order,
    from its int residual on the view of op: the first nonzero residual
    fails the report, and, as the law is quadratic in op, its witness is
    the residual over den1 * den2**2, formed when read."""
    cols, den2 = op.int_view()
    report = CheckReport(name)
    for i in range(n):
        for j in range(n):
            res = residual(cols, i, j)
            if any(res):
                report.fail(law, (i, j), res, den1 * den2 * den2)
                return report
    return report
