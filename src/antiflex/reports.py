"""Structured verdicts for identity checks.

Predicates in this package return a CheckReport rather than a bare bool so
that callers (and the CLI) can see the first violating basis tuple and the
residual witnessing the failure.  `CheckReport.sweep` walks a law's basis
tuples in lexicographic order, so "first violation" is deterministic.

Policy: predicates return reports; public constructions `require` their
preconditions once (ValueError "<what>: <describe()>"); internal callers
never re-check, and build from input already checked or proved valid with
an unchecked builder such as `operators._star_product`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .linalg import vec_is_zero


@dataclass(frozen=True)
class Violation:
    law: str
    where: tuple
    residual: Any

    def describe(self) -> str:
        return f"{self.law} fails at basis tuple {self.where}: residual {self.residual}"


@dataclass
class CheckReport:
    name: str
    ok: bool = True
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def fail(self, law: str, where: tuple, residual) -> None:
        self.ok = False
        self.violations.append(Violation(law, where, residual))

    def sweep(self, law: str, tuples: Iterable[tuple],
              residual: Callable[..., Any]) -> "CheckReport":
        """Fail at the first tuple, in the order given, whose residual is not
        zero (a zero tuple, or `.is_zero()`); a failed report skips the sweep."""
        if not self.ok:
            return self
        for where in tuples:
            res = residual(*where)
            if not (vec_is_zero(res) if isinstance(res, tuple) else res.is_zero()):
                self.fail(law, where, res)
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
