from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostcheck.exact import rat_to_str
from ghostcheck.jsonio import poly_from_json
from ghostcheck.laurent import (
    LaurentPoly,
    LaurentVariableMismatch,
    MissingSubstitutionImage,
    normal_form_xyt,
    restrict_to_axis,
    substitute,
)

XYT = ("x", "y", "t")
ZW = ("z", "w")


def zw_poly(terms):
    return LaurentPoly(ZW, terms)


def product(p, q):
    """The product of two polynomials over one variable list, for the property tests."""
    assert p.variables == q.variables
    return LaurentPoly(p.variables, [
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in p.terms.items() for e2, c2 in q.terms.items()
    ])


def total(p, q):
    return LaurentPoly(p.variables, [*p.terms.items(), *q.terms.items()])


@st.composite
def laurent_polys(draw, variables=ZW, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(-3, 3)) for _ in variables)
        terms.append((exps, draw(st.integers(-9, 9))))
    return LaurentPoly(variables, terms)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = zw_poly({(1, 0): 0, (0, 1): 2})
        assert list(p.terms) == [(0, 1)]

    def test_terms_accumulate(self):
        p = LaurentPoly(ZW, [((1, 0), 2), ((1, 0), -2), ((0, 0), 5)])
        assert p == LaurentPoly.monomial(ZW, (0, 0), 5)

    def test_exponent_length_checked(self):
        with pytest.raises(ValueError):
            LaurentPoly(ZW, {(1,): 1})

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly(("z", "z"), {})

    def test_non_integer_exponent_rejected(self):
        # never truncated to x*t
        with pytest.raises(TypeError):
            LaurentPoly(XYT, {(1.9, 0, True): 1})


class TestArithmetic:
    def test_variable_mismatch(self):
        p = LaurentPoly(("x", "y"), {(1, 1): 1})
        images = {"x": LaurentPoly.monomial(ZW, (1, 0)), "y": LaurentPoly.monomial(XYT, (1, 0, 0))}
        with pytest.raises(LaurentVariableMismatch):
            substitute(p, images)


class TestSubstitute:
    def test_single_variable(self):
        p = LaurentPoly.monomial(("x",), (1,))
        image = {"x": LaurentPoly.monomial(ZW, (1, 0))}
        assert substitute(p, image) == LaurentPoly.monomial(ZW, (1, 0))

    def test_cancellation(self):
        p = LaurentPoly(("x", "y"), {(1, 1): 1})
        images = {
            "x": LaurentPoly.monomial(ZW, (1, 0)),
            "y": LaurentPoly.monomial(ZW, (-1, 0)),
        }
        assert substitute(p, images) == LaurentPoly.monomial(ZW, (0, 0))
        # x - y + 2t with x, y -> z: the two terms land on z and cancel
        q = LaurentPoly(XYT, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2})
        z = LaurentPoly.monomial(ZW, (1, 0))
        assert substitute(q, {"x": z, "y": z, "t": LaurentPoly.monomial(ZW, (1, 1))}) == zw_poly({(1, 1): 2})

    def test_expansion(self):
        # x^2 + t with x -> z w, t -> z w^2
        p = LaurentPoly(("x", "t"), {(2, 0): 1, (0, 1): 1})
        images = {
            "x": LaurentPoly.monomial(ZW, (1, 1)),
            "t": LaurentPoly.monomial(ZW, (1, 2)),
        }
        assert substitute(p, images) == zw_poly({(2, 2): 1, (1, 2): 1})

    def test_missing_image(self):
        p = LaurentPoly(("x", "y"), {(1, 1): 1})
        with pytest.raises(MissingSubstitutionImage):
            substitute(p, {"x": LaurentPoly.monomial(ZW, (1, 0))})

    def test_non_monomial_image_rejected(self):
        p = LaurentPoly(("x",), {(1,): 1})
        image = zw_poly({(1, 0): 1, (0, 1): 1})
        with pytest.raises(ValueError):
            substitute(p, {"x": image})

    @given(laurent_polys(variables=("x", "y")), laurent_polys(variables=("x", "y")))
    @settings(max_examples=100, deadline=None)
    def test_ring_homomorphism(self, p, q):
        images = {
            "x": LaurentPoly.monomial(ZW, (2, -1), Fraction(3)),
            "y": LaurentPoly.monomial(ZW, (-1, 1), Fraction(1, 2)),
        }
        assert substitute(product(p, q), images) == product(substitute(p, images), substitute(q, images))
        assert substitute(total(p, q), images) == total(substitute(p, images), substitute(q, images))


class TestRestrictToAxis:
    def test_multiple_of_axis_restricts_to_zero(self):
        p = zw_poly({(1, -1): 1})  # z / w
        restricted, pole = restrict_to_axis(p, "z")
        assert pole == 0
        assert not restricted.terms

    def test_leading_coefficient_at_pole(self):
        p = zw_poly({(0, -1): 1, (1, 0): 1})  # 1/w + z
        restricted, pole = restrict_to_axis(p, "w")
        assert pole == 1
        assert restricted == LaurentPoly.monomial(("z",), (0,))

    def test_regular_restriction(self):
        p = zw_poly({(0, 0): 3, (1, 0): 2})  # 3 + 2z
        restricted, pole = restrict_to_axis(p, "z")
        assert pole == 0
        assert restricted == LaurentPoly.monomial(("w",), (0,), 3)

    def test_zero_polynomial(self):
        restricted, pole = restrict_to_axis(LaurentPoly(ZW), "z")
        assert pole == 0 and not restricted.terms

    def test_variable_removed(self):
        p = zw_poly({(0, 2): 1})
        restricted, _ = restrict_to_axis(p, "z")
        assert restricted.variables == ("w",)
        assert restricted == LaurentPoly.monomial(("w",), (2,))


class TestNormalForm:
    def test_xy_to_tm(self):
        p = LaurentPoly(XYT, {(1, 1, 0): 1})
        assert normal_form_xyt(p, 3) == LaurentPoly.monomial(XYT, (0, 0, 3))

    def test_partial_rewrite(self):
        p = LaurentPoly(XYT, {(2, 1, 0): 1})
        assert normal_form_xyt(p, 2) == LaurentPoly.monomial(XYT, (1, 0, 2))

    def test_already_normal(self):
        p = LaurentPoly(XYT, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert normal_form_xyt(p, 4) == p

    def test_negative_exponents_rejected(self):
        p = LaurentPoly(XYT, {(-1, 0, 0): 1})
        with pytest.raises(ValueError):
            normal_form_xyt(p, 2)

    def test_collision_merges(self):
        # x y + t^2 collapses onto one monomial at m = 2
        p = LaurentPoly(XYT, {(1, 1, 0): 1, (0, 0, 2): 1})
        assert normal_form_xyt(p, 2) == LaurentPoly(XYT, {(0, 0, 2): 2})
        # x^2 y - x t^3 cancels at m = 3
        assert normal_form_xyt(LaurentPoly(XYT, {(2, 1, 0): 1, (1, 0, 3): -1}), 3) == LaurentPoly(XYT)

    def test_idempotent_and_multiplicative(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 4)

            def rand_poly():
                terms = {}
                for _ in range(rng.randint(0, 4)):
                    e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                    terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
                return LaurentPoly(XYT, terms)

            a, b = rand_poly(), rand_poly()
            na = normal_form_xyt(a, m)
            assert normal_form_xyt(na, m) == na
            assert normal_form_xyt(product(a, b), m) == normal_form_xyt(
                product(normal_form_xyt(a, m), normal_form_xyt(b, m)), m
            )


class TestSerialization:
    def test_graded_lex_order(self):
        p = zw_poly({(2, 0): 1, (0, 1): 2, (1, 1): 3, (-1, 0): 4})
        assert [exps for exps, _ in p.sorted_terms()] == [(-1, 0), (0, 1), (1, 1), (2, 0)]

    def test_round_trip(self):
        rng = random.Random(42)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                e = (rng.randint(-4, 4), rng.randint(-4, 4))
                terms[e] = terms.get(e, 0) + Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            p = LaurentPoly(ZW, terms)
            data = [{"exps": list(e), "coeff": rat_to_str(c)} for e, c in p.sorted_terms()]
            assert poly_from_json(ZW, data, "p") == p
