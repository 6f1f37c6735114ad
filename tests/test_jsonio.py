from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostcheck.jsonio as jsonio_module
from ghostcheck.cli import main
from ghostcheck.curves import HyperellipticModel, NodalRationalModel, RawEvaluationModel
from ghostcheck.exact import rat_to_str
from ghostcheck.factory import _hyperelliptic_star_model, random_instance
from ghostcheck.jsonio import (
    MAX_HYPERELLIPTIC_GENUS,
    MAX_MATRIX_ENTRIES,
    InputError,
    dump_json,
    expansion_to_json,
    local_model_from_json,
    model_from_json,
    problem_file_from_json,
    problem_from_json,
    problem_to_json,
    residue_report_to_json,
)
from ghostcheck.laurent import LaurentPoly, normal_form_xyt
from ghostcheck.localmodel import XYT, expand_ghost, verify_residue_theorem
from ghostcheck.obstruction import MAX_SUBSET_POINTS, Verdict, theorem_check


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


class TestMatrixBound:
    """g*N*n is bounded by MAX_MATRIX_ENTRIES in the reader, before any vector is read."""

    @staticmethod
    def raw(genus, ambient, n):
        return {
            "genus": genus,
            "ambient_dim": ambient,
            "points": [{"delta": ["1"] * genus, "deriv": ["1"] * ambient}] * n,
        }

    def test_the_limit_is_admitted(self):
        n = MAX_MATRIX_ENTRIES // 64
        assert 64 * n == MAX_MATRIX_ENTRIES
        assert problem_from_json(self.raw(8, 8, n)).n_points == n

    def test_one_point_over_the_limit(self):
        n = MAX_MATRIX_ENTRIES // 64 + 1
        with pytest.raises(InputError) as info:
            problem_from_json(self.raw(8, 8, n), "components[1]")
        assert str(info.value) == (
            f"components[1]: g*N*n = 8*8*{n} = {64 * n} matrix entries, "
            f"over the limit {MAX_MATRIX_ENTRIES}"
        )

    def test_curve_model_counts_the_model_genus(self):
        ambient = MAX_MATRIX_ENTRIES // 2 + 1
        data = {
            "curve_model": {"type": "raw", "genus": 2, "ev_matrix": [["1"], ["0"]]},
            "attachments": [{"index": 0}],
            "derivs": [["1"] * ambient],
        }
        with pytest.raises(InputError) as info:
            problem_from_json(data, "problem")
        assert str(info.value).startswith(f"problem: g*N*n = 2*{ambient}*1 = {2 * ambient} matrix")

    def test_library_callers_are_not_bounded(self):
        problem = random_instance(1, 40, 40, 6)
        assert 40 * 40 * 6 > MAX_MATRIX_ENTRIES
        assert theorem_check(problem).rank == 6


class TestHyperellipticGenusBound:
    """The genus is bounded by MAX_HYPERELLIPTIC_GENUS before f is read."""

    @staticmethod
    def star(genus):
        model, _ = _hyperelliptic_star_model(genus)
        return {"type": "hyperelliptic", "genus": genus, "f": [str(c) for c in model.f_coeffs]}

    def test_the_limit_is_admitted(self):
        assert model_from_json(self.star(MAX_HYPERELLIPTIC_GENUS)).genus == MAX_HYPERELLIPTIC_GENUS

    def test_one_over_the_limit(self):
        with pytest.raises(InputError) as info:
            model_from_json(self.star(MAX_HYPERELLIPTIC_GENUS + 1), "problem.curve_model")
        assert str(info.value) == (
            f"problem.curve_model: hyperelliptic genus {MAX_HYPERELLIPTIC_GENUS + 1} "
            f"exceeds the limit {MAX_HYPERELLIPTIC_GENUS}"
        )

    def test_every_line_star_genus_is_admitted(self):
        # a line star has N >= 2 groups of h points and at most MAX_SUBSET_POINTS points
        genus = MAX_SUBSET_POINTS // 2
        assert model_from_json(self.star(genus)).genus == genus


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
        model = RawEvaluationModel(2, [["1/2", 0], [1, 3]])
        data = {"type": "raw", "genus": 2, "ev_matrix": [["1/2", "0"], ["1", "3"]]}
        assert model_from_json(data) == model
        assert model.columns == ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(3)))

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
            LaurentPoly(XYT),
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


def reference_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\xe9\U0001f600')))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), TEXT, st.sampled_from(list(Verdict))
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


JSON_VALUES = st.recursive(LEAVES, containers, max_leaves=20)


@st.composite
def shared_fragments(draw):
    """One container listed twice at one depth and once more at two others."""
    shared = draw(containers(JSON_VALUES))
    return {
        "same_depth": [shared, draw(JSON_VALUES), shared],
        "two_depths": [shared, {"inner": shared}],
    }


class TestDumpJson:
    @given(JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, obj):
        assert dump_json(obj) == reference_dump(obj)

    @given(shared_fragments())
    @settings(max_examples=100, deadline=None)
    def test_shared_fragments_equal_json_dumps(self, obj):
        assert dump_json(obj) == reference_dump(obj)

    @pytest.mark.parametrize("obj", [[], {}, (), [[], {}], {"a": ()}, "", Verdict.INCONCLUSIVE])
    def test_empty_containers_and_str_subclasses(self, obj):
        assert dump_json(obj) == reference_dump(obj)

    @pytest.mark.parametrize("obj", [{1: "a"}, [{1, 2}]])
    def test_refuses_what_it_cannot_write(self, obj):
        with pytest.raises(TypeError):
            dump_json(obj)


def local_model_map(m, n_coords):
    """x with a nonzero residue and t^c constants in every coordinate."""
    return [
        normal_form_xyt(
            LaurentPoly(XYT, {(1, 0, 0): k + 1, **{(0, 0, c): Fraction(c, k + 2) for c in range(1, 10)}}),
            m,
        )
        for k in range(n_coords)
    ]


class TestSharedFragments:
    """A local-model report encodes each distinct record and fragment once."""

    def test_expansion_formats_each_record_once(self, monkeypatch):
        expansion = expand_ghost(local_model_map(32, 3), 32)
        calls = []

        def counted(value):
            calls.append(value)
            return rat_to_str(value)

        monkeypatch.setattr(jsonio_module, "rat_to_str", counted)
        levels = expansion_to_json(expansion.levels)
        records = {id(comp) for lvl in expansion.levels for comp in lvl.components}
        assert len(records) == 2 * 32 - 1
        assert len(calls) == 3 * (len(records) + len(expansion.levels))
        assert levels == [
            {
                "l": lvl.level,
                "a": [str(v) for v in lvl.constant],
                "components": [
                    {"name": c.name, "pole_order": c.pole_order, "residue": [str(v) for v in c.residue]}
                    for c in lvl.components
                ],
            }
            for lvl in expansion.levels
        ]

    def test_report_at_the_m_limit_equals_json_dumps(self, monkeypatch, capsys, tmp_path):
        m = 256
        ghost_map = local_model_map(m, 3)
        path = tmp_path / "local.json"
        terms = [
            [{"exps": list(exps), "coeff": str(coeff)} for exps, coeff in g.terms.items()]
            for g in ghost_map
        ]
        path.write_text(json.dumps({"local_model": {"m": m, "G": terms}}))
        assert main(["localmodel", str(path), "--json"]) == 0
        report = residue_report_to_json(verify_residue_theorem(ghost_map, m))
        assert capsys.readouterr().out == reference_dump(report)
        strings = []
        encode = json.encoder.encode_basestring_ascii

        def counted(text):
            strings.append(text)
            return encode(text)

        monkeypatch.setattr(json.encoder, "encode_basestring_ascii", counted)
        dump_json(report)
        # 5 top-level keys, the verdict and the expected residue; per level 3
        # keys and its constant; per distinct record 3 keys, its name and residue
        assert len(strings) == 5 + 1 + 3 + m * (3 + 3) + (2 * m - 1) * (3 + 1 + 3)
