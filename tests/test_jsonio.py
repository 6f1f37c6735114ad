from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghostcheck.curves import HyperellipticModel, NodalRationalModel, RawEvaluationModel
from ghostcheck.exact import QMatrix
from ghostcheck.factory import random_instance
from ghostcheck.jsonio import (
    InputError,
    dump_json,
    local_model_from_json,
    model_from_json,
    problem_file_from_json,
    problem_from_json,
    problem_to_json,
)
from ghostcheck.laurent import LaurentPoly
from ghostcheck.localmodel import XYT


class TestProblemRoundTrip:
    def test_many_random_problems(self):
        rng = random.Random(2025)
        for _ in range(200):
            problem = random_instance(
                rng.getrandbits(32), rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
            )
            assert problem_from_json(problem_to_json(problem)) == problem

    def test_rational_entries_survive(self):
        data = {
            "genus": 1,
            "ambient_dim": 2,
            "points": [{"delta": ["2/3"], "deriv": ["-1/7", "0"]}],
        }
        problem = problem_from_json(data)
        assert problem.points[0].delta == (Fraction(2, 3),)
        assert problem.points[0].deriv == (Fraction(-1, 7), Fraction(0))
        assert problem_from_json(problem_to_json(problem)) == problem


class TestCurveModelJson:
    def test_hyperelliptic_round_trip(self):
        model = HyperellipticModel(2, [1, 2, 0, 0, 0, 1])
        data = {"type": "hyperelliptic", "genus": 2, "f": ["1", "2", "0", "0", "0", "1"]}
        assert model_from_json(data) == model

    def test_nodal_round_trip(self):
        model = NodalRationalModel(2, [(0, 1), ("1/2", 3)])
        data = {"type": "nodal_rational", "genus": 2, "nodes": [["0", "1"], ["1/2", "3"]]}
        assert model_from_json(data) == model

    def test_raw_round_trip(self):
        model = RawEvaluationModel(2, QMatrix([["1/2", 0], [1, 3]]))
        data = {"type": "raw", "genus": 2, "ev_matrix": [["1/2", "0"], ["1", "3"]]}
        assert model_from_json(data) == model

    def test_unknown_type(self):
        with pytest.raises(InputError):
            model_from_json({"type": "elliptic", "genus": 1})

    def test_invalid_model_reported_as_input_error(self):
        with pytest.raises(InputError):
            model_from_json({"type": "hyperelliptic", "genus": 2, "f": ["1", "1", "1"]})


class TestCurveModelProblems:
    def test_deltas_resolved_from_model(self):
        data = {
            "curve_model": {
                "type": "hyperelliptic",
                "genus": 2,
                "f": ["1", "2", "0", "0", "0", "1"],
            },
            "attachments": [{"x": "1", "y": "2"}],
            "derivs": [["1", "0"]],
        }
        problem = problem_from_json(data)
        assert problem.genus == 2
        assert problem.ambient_dim == 2
        assert problem.points[0].delta == (Fraction(1, 2), Fraction(1, 2))

    def test_nodal_attachment(self):
        data = {
            "curve_model": {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
            "attachments": [{"p": "2"}],
            "derivs": [["1"]],
        }
        problem = problem_from_json(data)
        assert problem.points[0].delta == (Fraction(-1, 2),)

    def test_raw_attachment_by_index(self):
        data = {
            "curve_model": {
                "type": "raw",
                "genus": 1,
                "ev_matrix": [["5", "7"]],
            },
            "attachments": [{"index": 1}],
            "derivs": [["1", "0"]],
        }
        assert problem_from_json(data).points[0].delta == (Fraction(7),)

    def test_length_mismatch(self):
        data = {
            "curve_model": {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
            "attachments": [{"p": "2"}],
            "derivs": [["1"], ["0"]],
        }
        with pytest.raises(InputError):
            problem_from_json(data)

    def test_invalid_point_reported(self):
        data = {
            "curve_model": {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
            "attachments": [{"p": "1"}],
            "derivs": [["1"]],
        }
        with pytest.raises(InputError):
            problem_from_json(data)


class TestProblemFile:
    def test_single_component(self):
        data = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]}
        parsed = problem_file_from_json(data)
        assert len(parsed.components) == 1
        assert parsed.local_model is None

    def test_multi_component(self):
        component = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]}
        parsed = problem_file_from_json({"components": [component, component]})
        assert len(parsed.components) == 2

    def test_local_model_section(self):
        poly = LaurentPoly.monomial(XYT, (1, 0, 0))
        data = {"local_model": {"m": 2, "G": [[{"exps": [1, 0, 0], "coeff": "1"}]]}}
        parsed = problem_file_from_json(data)
        assert parsed.local_model.m == 2
        assert parsed.local_model.components == (poly,)

    def test_empty_file_rejected(self):
        with pytest.raises(InputError):
            problem_file_from_json({})

    def test_bad_version_rejected(self):
        with pytest.raises(InputError):
            problem_file_from_json({"version": 99, "components": []})

    def test_missing_fields_reported(self):
        with pytest.raises(InputError) as info:
            problem_file_from_json(
                {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"]}]}
            )
        assert "deriv" in str(info.value)


class TestLocalModelJson:
    def test_round_trip(self):
        polys = [
            LaurentPoly(XYT, {(1, 0, 0): Fraction(1), (2, 0, 1): Fraction(-3, 4)}),
            LaurentPoly.zero(XYT),
        ]
        data = {
            "m": 3,
            "G": [[{"exps": [1, 0, 0], "coeff": "1"}, {"exps": [2, 0, 1], "coeff": "-3/4"}], []],
        }
        parsed = local_model_from_json(data)
        assert parsed.m == 3
        assert list(parsed.components) == polys

    def test_empty_components_rejected(self):
        with pytest.raises(InputError):
            local_model_from_json({"m": 2, "G": []})


def test_dump_json_deterministic():
    payload = {"b": 1, "a": [1, 2], "c": {"y": 1, "x": 2}}
    assert dump_json(payload) == dump_json(payload)
    assert dump_json(payload).endswith("\n")
    assert dump_json(payload).index('"a"') < dump_json(payload).index('"b"')
