from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from squarefree_oracle import oracle_is_squarefree


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

    @pytest.mark.parametrize("genus", [1.5, 1.0, True, "1"])
    def test_non_integer_genus_rejected(self, genus):
        with pytest.raises(TypeError):
            HyperellipticModel(genus, [1, 0, 0, 0, 1])

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

    @pytest.mark.parametrize("genus", [True, 1.0])
    def test_non_integer_genus_rejected(self, genus):
        with pytest.raises(TypeError):
            NodalRationalModel(genus, [(0, 1)])

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

    @pytest.mark.parametrize("genus", [True, 1.0])
    def test_non_integer_genus_rejected(self, genus):
        with pytest.raises(TypeError):
            RawEvaluationModel(genus, [[1, 2]])

    def test_genus_shape_mismatch(self):
        with pytest.raises(CurveModelError):
            RawEvaluationModel(2, [[1, 2]])


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def linear_product(roots):
    """prod (x - r) over ``roots``, coefficients ascending."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [-r, 1])
    return out


# 100-digit roots: the answers below are known by construction, not by an oracle
R1, R2, R3 = 10**99 + 7, -(10**99) + 12345, 3 * 10**99 + 1


def test_is_squarefree():
    assert is_squarefree([1, 2, 0, 0, 0, 1])
    assert not is_squarefree([0, 0, 1])  # x^2
    assert not is_squarefree([1, 2, 1])  # (x+1)^2
    assert is_squarefree(["1/2", "-1", 0, 0])  # 1/2 - x, trailing zeros
    assert not is_squarefree([])
    assert not is_squarefree([0, 0])
    assert not is_squarefree(["7/3"])  # degree 0
    # (x - 1/2)^2 (x^3 + 1/3)
    assert not is_squarefree(["1/12", "-1/3", "1/3", "1/4", -1, 1])
    assert not is_squarefree(poly_mul(linear_product([R1, R1]), [5, 0, 1, 0, 2]))
    assert not is_squarefree(poly_mul(linear_product([R2, R3, R3]), [Fraction(1, R1), 1]))
    assert is_squarefree(linear_product([R1, R2, R3, 1, -1]))
    assert is_squarefree(linear_product([Fraction(R1, R3), Fraction(R2, R3), 0, 10**100]))


rationals = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999))


@st.composite
def polynomials(draw):
    """Squarefree-or-not polynomials: half of them carry a square factor."""
    f = draw(st.lists(rationals, min_size=0, max_size=8))
    if f and draw(st.booleans()):
        s = draw(st.lists(rationals, min_size=2, max_size=3))
        f = poly_mul(f, poly_mul(s, s))
    return f + [Fraction(0)] * draw(st.integers(0, 2))


@settings(max_examples=400, deadline=None)
@given(polynomials())
def test_is_squarefree_matches_fraction_euclid(f):
    assert is_squarefree(f) == oracle_is_squarefree(f)
