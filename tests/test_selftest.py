"""The selftest criteria fail by name when the code they vouch for is wrong.

Each test sabotages one piece and calls the criterion function directly,
without the full CLI selftest.
"""

from __future__ import annotations

import ghostcheck.localmodel as localmodel_module
import ghostcheck.selftest as selftest_module
from ghostcheck.laurent import LaurentPoly
from ghostcheck.localmodel import ZW, Chart
from ghostcheck.selftest import (
    CRITERIA,
    check_chart_relations,
    check_dimension_formulas,
    run_criterion,
)


def _criterion(name):
    return next(c for c in CRITERIA if c.name == name)


def test_wrong_chart_fails_chart_relations(monkeypatch):
    original = localmodel_module.chart

    def wrong_y(m, j):
        ch = original(m, j)
        return Chart(m=m, index=j, x=ch.x, y=ch.y * LaurentPoly.monomial(ZW, (0, 1)), t=ch.t)

    monkeypatch.setattr(localmodel_module, "chart", wrong_y)
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
