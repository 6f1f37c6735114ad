"""The selftest criteria fail by name when the code they vouch for is wrong.

Each test sabotages one piece and calls the criterion function directly,
without the full CLI selftest.
"""

from __future__ import annotations

from dataclasses import replace

import ghostcheck.selftest as selftest_module
from ghostcheck.laurent import LaurentPoly
from ghostcheck.selftest import (
    CRITERIA,
    ZW,
    Chart,
    check_chart_relations,
    check_dimension_formulas,
    check_kernel_witness_subsets,
    run_criterion,
)


def _criterion(name):
    return next(c for c in CRITERIA if c.name == name)


def test_wrong_chart_fails_chart_relations(monkeypatch):
    original = selftest_module.chart

    def wrong_y(m, j):
        ch = original(m, j)
        ((exps, coeff),) = ch.y.terms.items()
        y = LaurentPoly.monomial(ZW, (exps[0], exps[1] + 1), coeff)  # times w
        return Chart(m=m, index=j, x=ch.x, y=y, t=ch.t)

    monkeypatch.setattr(selftest_module, "chart", wrong_y)
    assert check_chart_relations() == (False, "m=1: identity failed: chart 0: x*y = t^1")
    result = run_criterion(_criterion("chart-relations"))
    assert (result.name, result.passed) == ("chart-relations", False)


def test_wrong_closed_form_fails_dimension_formulas(monkeypatch):
    original = selftest_module._moduli_dim_formula
    monkeypatch.setattr(
        selftest_module, "_moduli_dim_formula", lambda big_n, g, d: original(big_n, g, d) + 1
    )
    passed, detail = check_dimension_formulas()
    assert not passed
    assert detail.startswith("stratum formulas disagree on StratumSpec(")
    result = run_criterion(_criterion("dimension-formulas"))
    assert not result.passed and result.detail == detail


def test_scaled_kernel_witness_fails_kernel_witness_subsets(monkeypatch):
    # twice a kernel vector is still in the kernel and has the same support,
    # so only the comparison with the matrix's kernel basis catches it
    original = selftest_module.theorem_check

    def doubled(problem):
        verdict = original(problem)
        return replace(verdict, kernel_witness=tuple(2 * x for x in verdict.kernel_witness))

    monkeypatch.setattr(selftest_module, "theorem_check", doubled)
    assert check_kernel_witness_subsets() == (
        False,
        "instance 0: rank or witness differs from the matrix's kernel basis",
    )
    result = run_criterion(_criterion("kernel-witness-subsets"))
    assert (result.name, result.passed) == ("kernel-witness-subsets", False)
