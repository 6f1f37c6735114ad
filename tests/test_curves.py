from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghostcheck.curves import (
    CurveModelError,
    HyperellipticModel,
    NodalRationalModel,
    PointAtNode,
    PointNotOnCurve,
    RawEvaluationModel,
    WeierstrassPoint,
    is_squarefree,
)
from ghostcheck.exact import QMatrix
from ghostcheck.factory import _hyperelliptic_star_model


def ev_rank(model, points) -> int:
    """Rank of the evaluation covectors of ``points``, one row each."""
    return QMatrix([model.ev_vector(p) for p in points]).rank()


class TestHyperellipticModel:
    def test_spec_degree_and_squarefree(self):
        model = HyperellipticModel(2, [1, 2, 0, 0, 0, 1])  # y^2 = x^5 + 2x + 1
        assert model.genus == 2

    def test_genus_zero_rejected(self):
        with pytest.raises(CurveModelError):
            HyperellipticModel(0, [1, 1, 1])

    def test_wrong_degree_rejected(self):
        with pytest.raises(CurveModelError):
            HyperellipticModel(2, [1, 1, 1])  # degree 2 for genus 2

    def test_non_squarefree_rejected(self):
        # x^5 shares the root 0 with its derivative
        with pytest.raises(CurveModelError):
            HyperellipticModel(2, [0, 0, 0, 0, 0, 1])

    def test_ev_vector_worked_example(self):
        model = HyperellipticModel(2, [1, 2, 0, 0, 0, 1])
        assert model.ev_vector((1, 2)) == (Fraction(1, 2), Fraction(1, 2))

    def test_point_not_on_curve(self):
        model = HyperellipticModel(2, [1, 2, 0, 0, 0, 1])
        with pytest.raises(PointNotOnCurve):
            model.ev_vector((1, 3))

    def test_weierstrass_point_rejected(self):
        # y^2 = x^5 + x has the branch point (0, 0)
        model = HyperellipticModel(2, [0, 1, 0, 0, 0, 1])
        with pytest.raises(WeierstrassPoint):
            model.ev_vector((0, 0))

    def test_ev_vector_never_zero(self):
        model, (k,) = _hyperelliptic_star_model(3)
        for x in range(1, 9):
            assert any(model.ev_vector((x, k)))

    def test_two_point_rank(self):
        model = HyperellipticModel(2, [1, 2, 0, 0, 0, 1])
        assert ev_rank(model, [(1, 2), (1, -2)]) == 1  # same x, opposite sheet: proportional columns
        model2, (k,) = _hyperelliptic_star_model(2)
        assert ev_rank(model2, [(1, k), (2, k)]) == 2

    def test_vandermonde_rank_property(self):
        # h distinct x-values always give an evaluation matrix of rank h
        rng = random.Random(314)
        for _ in range(100):
            genus = rng.randint(2, 5)
            model, (k,) = _hyperelliptic_star_model(genus)
            h = rng.randint(1, genus)
            xs = rng.sample(range(1, 2 * genus + 3), h)
            points = [(Fraction(x), Fraction(rng.choice((-1, 1)) * k)) for x in xs]
            assert ev_rank(model, points) == h


class TestNodalRationalModel:
    def test_worked_example(self):
        model = NodalRationalModel(1, [(0, 1)])
        assert model.ev_vector(2) == (Fraction(-1, 2),)

    def test_single_point_matrix_nonzero(self):
        model = NodalRationalModel(1, [(0, 1)])
        assert ev_rank(model, [5]) == 1

    def test_genus_node_count_mismatch(self):
        with pytest.raises(CurveModelError):
            NodalRationalModel(2, [(0, 1)])

    def test_distinct_node_values_required(self):
        with pytest.raises(CurveModelError):
            NodalRationalModel(2, [(0, 1), (1, 2)])

    def test_point_at_node_rejected(self):
        model = NodalRationalModel(1, [(0, 1)])
        with pytest.raises(PointAtNode):
            model.ev_vector(1)


class TestRawEvaluationModel:
    def test_columns_returned(self):
        model = RawEvaluationModel(2, [[1, "1/2"], [0, 3]])
        assert model.ev_vector(0) == (Fraction(1), Fraction(0))
        assert model.ev_vector(1) == (Fraction(1, 2), Fraction(3))

    def test_index_out_of_range(self):
        model = RawEvaluationModel(1, [[1, 2]])
        with pytest.raises(CurveModelError):
            model.ev_vector(2)

    def test_genus_shape_mismatch(self):
        with pytest.raises(CurveModelError):
            RawEvaluationModel(2, [[1, 2]])


def test_is_squarefree():
    assert is_squarefree([1, 2, 0, 0, 0, 1])
    assert not is_squarefree([0, 0, 1])  # x^2
    assert not is_squarefree([1, 2, 1])  # (x+1)^2
