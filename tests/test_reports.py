"""CheckReport.sweep and CheckReport.require: the one way a law is checked
and the one way a failed precondition is reported."""

import itertools
from fractions import Fraction

import pytest

from antiflex.linalg import Matrix
from antiflex.reports import CheckReport


def test_sweep_records_first_violation_in_the_given_order_and_stops():
    seen = []

    def residual(i, j):
        seen.append((i, j))
        return (i * j, 0)

    report = CheckReport("demo").sweep("i*j = 0", [(0, 3), (2, 1), (1, 1), (2, 2)],
                                       residual)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.first()
    assert (v.law, v.where, v.residual) == ("i*j = 0", (2, 1), (2, 0))
    assert seen == [(0, 3), (2, 1)]
    # the order given decides which violation is first
    rev = CheckReport("demo").sweep("i*j = 0", [(2, 2), (2, 1)], residual)
    assert rev.first().where == (2, 2)


def test_sweep_returns_self_and_passes_on_zero_residuals():
    report = CheckReport("demo")
    out = report.sweep("zero", itertools.product(range(3), repeat=2),
                       lambda i, j: (0, 0, 0))
    assert out is report and report.ok and report.violations == []
    assert report.sweep("empty", (), lambda: (1,)) is report and report.ok


def test_failed_report_skips_later_sweeps():
    calls = []

    def never(*where):
        calls.append(where)
        return (1,)

    report = (CheckReport("demo")
              .sweep("first", [(0,), (1,)], lambda i: (i,))
              .sweep("second", [(0,), (1,)], never))
    assert report.first().law == "first" and report.first().where == (1,)
    assert len(report.violations) == 1 and calls == []


def test_sweep_with_matrix_residuals():
    zero, unit = Matrix.zeros(2, 2), Matrix.identity(2)
    report = CheckReport("demo").sweep(
        "diag", [(0,), (1,), (2,)], lambda i: unit if i == 1 else zero)
    assert report.first().where == (1,) and report.first().residual == unit
    assert CheckReport("demo").sweep("zero", [(0,), (1,)], lambda i: zero).ok


def test_sweep_records_the_witness_of_a_scaled_residual():
    seen = []

    def witness(res):
        seen.append(res)
        return tuple(Fraction(x, 6) for x in res)

    report = CheckReport("demo").sweep(
        "6x = 0", [(0,), (3,), (4,)], lambda x: (6 * x, 0), witness)
    assert report.first().where == (3,)
    assert report.first().residual == (Fraction(3), Fraction(0))
    assert seen == [(18, 0)]  # only the failing residual is converted
    assert CheckReport("demo").sweep("zero", [(0,)], lambda x: (x,), witness).ok
    assert len(seen) == 1


def test_require_returns_self_when_ok():
    report = CheckReport("demo")
    assert report.require("unused") is report


def test_require_raises_with_what_and_describe():
    report = CheckReport("demo").sweep("x = 0", [(4,)], lambda x: (x,))
    with pytest.raises(ValueError) as info:
        report.require("not a demo")
    assert str(info.value) == f"not a demo: {report.describe()}"
    assert str(info.value) == ("not a demo: demo: FAIL - x = 0 fails at basis "
                               "tuple (4,): residual (4,)")
