from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import ghostcheck
import ghostcheck.selftest as selftest_module
from ghostcheck.factory import random_instance
from ghostcheck.jsonio import dump_json, problem_to_json
from ghostcheck.laurent import LaurentPoly
from ghostcheck.cli import (
    EXIT_BAD_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SELFTEST_FAILED,
    main,
)
from ghostcheck.selftest import Criterion
from make_golden import SELFTEST


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star_file(tmp_path, capsys):
    path = tmp_path / "star.json"
    code = main(["generate", "--N", "3", "--h", "4", "--out", str(path)])
    assert code == EXIT_OK
    capsys.readouterr()
    return path


class TestCheck:
    def test_star_instance_report(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "check", str(star_file))
        assert code == EXIT_OK
        assert "rank 12/12" in out
        assert "NOT eventually smoothable (obstruction fires)" in out
        assert "inconclusive (obstruction vanishes)" in out

    def test_json_output(self, capsys, star_file):
        code, out, _ = run_cli(capsys, "check", str(star_file), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        component = report["components"][0]
        assert component["theorem"]["verdict"] == "NotEventuallySmoothable"
        assert component["theorem"]["rank"] == 12
        assert component["corollary"]["verdict"] == "Inconclusive"
        assert report["map_verdict"] == "NotEventuallySmoothable"

    def test_byte_determinism(self, capsys, star_file):
        _, first, _ = run_cli(capsys, "check", str(star_file), "--json")
        _, second, _ = run_cli(capsys, "check", str(star_file), "--json")
        assert first == second

    def test_zero_derivative_column(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps(
                {
                    "genus": 1,
                    "ambient_dim": 1,
                    "points": [{"delta": ["1"], "deriv": ["0"]}],
                }
            )
        )
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == EXIT_OK
        report = json.loads(out)["components"][0]
        assert report["theorem"]["verdict"] == "Inconclusive"
        assert report["theorem"]["kernel_witness"] == ["1"]
        assert report["corollary"]["witness_D"] == [0]

    def test_multi_component_map_verdict(self, capsys, tmp_path):
        fire = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]}
        damp = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["0"]}]}
        path = tmp_path / "multi.json"
        path.write_text(json.dumps({"components": [damp, fire]}))
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["map_verdict"] == "NotEventuallySmoothable"

    def test_components_beside_a_top_level_problem(self, capsys, tmp_path):
        fire = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]}
        model = {"curve_model": {"type": "raw", "genus": 1, "ev_matrix": [["1"]]},
                 "attachments": [{"index": 0}], "derivs": [["1"]]}
        path = tmp_path / "both.json"
        for top in (fire, model):
            path.write_text(json.dumps({"components": [fire], **top}))
            assert run_cli(capsys, "check", str(path)) == (
                EXIT_BAD_INPUT, "", "error: components and a top-level problem are both given\n"
            )
        local = {"m": 1, "G": [[]]}
        for content in ({"components": [fire], "local_model": local}, {**fire, "local_model": local}):
            path.write_text(json.dumps(content))
            assert run_cli(capsys, "check", str(path))[0] == EXIT_OK

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == EXIT_BAD_INPUT
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.json"))
        assert code == EXIT_BAD_INPUT

    def test_no_problem_section(self, capsys, tmp_path):
        path = tmp_path / "only_local.json"
        path.write_text(json.dumps({"local_model": {"m": 1, "G": [[]]}}))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == EXIT_BAD_INPUT

    def test_more_points_than_the_subset_cap(self, capsys, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(dump_json({"version": 1, **problem_to_json(random_instance(3, 2, 2, 25))}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert_bad_input(code, out, err)

    def test_obstructed_verdict_above_the_subset_cap(self, capsys, tmp_path):
        # generic g = N = 16, n = 30: every D has rank_V(D) + rank_E(D) > |D|,
        # so the verdict needs no witness search and the cap does not apply
        path = tmp_path / "thirty.json"
        path.write_text(dump_json({"version": 1, **problem_to_json(random_instance(5, 16, 16, 30))}))
        code, out, err = run_cli(capsys, "check", str(path), "--json")
        assert code == EXIT_OK and err == ""
        corollary = json.loads(out)["components"][0]["corollary"]
        assert corollary == {"verdict": "NotEventuallySmoothable", "witness_D": None}

    def test_corollary_check_refuses_before_the_elimination(self, capsys, monkeypatch, tmp_path):
        # g = 7, N = 10, n = 117: inconclusive and over the witness-search cap,
        # refused by the corollary check before the theorem check could run
        import ghostcheck.cli as cli_module

        def never(problem):
            raise AssertionError("theorem_check ran before the corollary check")

        monkeypatch.setattr(cli_module, "theorem_check", never)
        path = tmp_path / "wide.json"
        path.write_text(dump_json({"version": 1, **problem_to_json(random_instance(7, 7, 10, 117))}))
        assert run_cli(capsys, "check", str(path)) == (
            EXIT_BAD_INPUT, "", "error: 117 attachment points exceed the cap of 24\n",
        )

    def test_hyperelliptic_genus_over_the_limit_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "hyper.json"
        path.write_text(json.dumps({
            "version": 1,
            "curve_model": {"type": "hyperelliptic", "genus": 17, "f": ["1"] * 36},
            "attachments": [{"x": "0", "y": "1"}],
            "derivs": [["1"]],
        }))
        assert run_cli(capsys, "check", str(path)) == (
            EXIT_BAD_INPUT, "",
            "error: problem.curve_model: hyperelliptic genus 17 exceeds the limit 16\n",
        )

    def test_matrix_over_the_limit_is_bad_input(self, capsys, tmp_path):
        # a 6 KB file whose obstruction matrix would have 360,000 entries
        path = tmp_path / "wide.json"
        point = {"delta": ["1"] * 600, "deriv": ["1"] * 600}
        path.write_text(json.dumps({"version": 1, "genus": 600, "ambient_dim": 600, "points": [point]}))
        assert run_cli(capsys, "check", str(path), "--json") == (
            EXIT_BAD_INPUT, "",
            "error: problem: g*N*n = 600*600*1 = 360000 matrix entries, over the limit 8192\n",
        )

    @pytest.mark.parametrize("problem", [
        {"genus": 0, "ambient_dim": 1, "points": [{"delta": ["abc"], "deriv": ["1"]}]},
        {"genus": -1, "ambient_dim": 2, "points": [{"delta": ["abc"], "deriv": ["1", "1"]}]},
        {"genus": 1, "ambient_dim": 0, "points": [{"delta": ["abc"], "deriv": []}]},
        {"curve_model": {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
         "attachments": [{"p": "abc"}], "derivs": [[]]},
    ], ids=["genus-0", "genus-negative", "ambient-0", "curve-model-empty-deriv"])
    def test_nonpositive_dimension_is_refused_before_any_vector(self, capsys, tmp_path, problem):
        # the product g*N*n would pass the matrix bound for any n
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"version": 1, **problem}))
        assert run_cli(capsys, "check", str(path)) == (
            EXIT_BAD_INPUT, "", "error: problem: genus and ambient dimension must be >= 1\n",
        )

    @pytest.mark.parametrize("literal", ["\u0663", "\uff11/\u0662"], ids=["arabic-indic", "fullwidth-over-arabic-indic"])
    def test_non_ascii_digits_are_bad_input(self, capsys, tmp_path, literal):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"version": 1, "genus": 1, "ambient_dim": 1,
                                    "points": [{"delta": [literal], "deriv": ["1"]}]}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(literal) in err

    @pytest.mark.parametrize("threads", ["\u0663", "\uff11"], ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_thread_count_is_bad_input(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("GHOSTCHECK_THREADS", threads)
        code, out, err = run_cli(capsys, "dims", "--N", "3", "--g", "1", "--d", "1")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"error: GHOSTCHECK_THREADS must be a positive integer, got {threads!r}\n"

    @pytest.mark.parametrize("model, attachments, line", [
        (
            {"type": "hyperelliptic", "genus": 2, "f": ["0", "1", "0", "0", "0", "1"]},
            [{"x": "0", "y": "0"}],
            "problem.attachments[0]: x = 0 is a branch point; evaluation needs y != 0",
        ),
        (
            {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
            [{"p": "1"}],
            "problem.attachments[0]: parameter 1 is a node preimage",
        ),
        (
            {"type": "raw", "genus": 1, "ev_matrix": [["1", "2"]]},
            [{"index": 1}, {"index": 2}],
            "problem.attachments[1]: point index 2 out of range",
        ),
    ], ids=["hyperelliptic", "nodal_rational", "raw"])
    def test_evaluation_error_names_its_attachment(self, capsys, tmp_path, model, attachments, line):
        path = tmp_path / "model.json"
        derivs = [["1"] for _ in attachments]
        path.write_text(json.dumps({"curve_model": model, "attachments": attachments, "derivs": derivs}))
        assert run_cli(capsys, "check", str(path)) == (EXIT_BAD_INPUT, "", f"error: {line}\n")

    # a malformed literal is reported before the grid's shape, and the shape before the genus
    @pytest.mark.parametrize("genus, ev_matrix, message", [
        (1, [], "matrix needs at least one row and one column"),
        (1, [[]], "matrix needs at least one row and one column"),
        (0, [[]], "matrix needs at least one row and one column"),
        (2, [["1", "2"], ["3"]], "ragged rows in matrix input"),
        (0, [["1", "2"], ["3"]], "ragged rows in matrix input"),
        (1, [[0.5, "1"]], "cannot interpret float as an exact rational"),
        (2, [["1", "2"], [0.5]], "cannot interpret float as an exact rational"),
        (1, [[], ["1/0"]], "zero denominator in '1/0'"),
        (0, [["1", "2"]], "ghost models need genus >= 1"),
        (2, [["1", "2"]], "evaluation matrix has 1 rows, expected genus 2"),
    ], ids=[
        "no-rows", "empty-row", "empty-row-genus-0", "ragged", "ragged-genus-0", "float-entry",
        "float-in-ragged-rows", "zero-denominator-after-empty-row", "genus-0", "rows-not-genus",
    ])
    def test_raw_model_error_line(self, capsys, tmp_path, genus, ev_matrix, message):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "curve_model": {"type": "raw", "genus": genus, "ev_matrix": ev_matrix},
            "attachments": [{"index": 0}],
            "derivs": [["1"]],
        }))
        assert run_cli(capsys, "check", str(path)) == (
            EXIT_BAD_INPUT, "", f"error: problem.curve_model: {message}\n",
        )


def assert_bad_input(code, out, err):
    """Exit 2, nothing on stdout, exactly one ``error:`` line on stderr."""
    assert code == EXIT_BAD_INPUT
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


NODAL = {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]}
RAW = {"type": "raw", "genus": 1, "ev_matrix": [["1", "2"]]}
HYPER_NO_F = {"type": "hyperelliptic", "genus": 1}
LINEAR_G = [[{"exps": [1, 0, 0], "coeff": "1"}]]


# the exact error line of each malformed local-model term in the cases below
TERM_ERRORS = {
    "term-without-coeff": "local_model.G[0][0]: missing field 'coeff'",
    "term-a-list": "local_model.G[0][0]: expected an object, got list",
    "exps-a-number": "local_model.G[0][0].exps: expected a list, got int",
}


class TestStrictRationals:
    @pytest.mark.parametrize(
        "data",
        [
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": [0.5], "deriv": ["1"]}]},
            {"curve_model": NODAL, "attachments": 5, "derivs": [["1"]]},
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1/0"], "deriv": ["1"]}]},
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": [True], "deriv": ["1"]}]},
            {"genus": 2.7, "ambient_dim": 1, "points": [{"delta": ["1", "1"], "deriv": ["1"]}]},
            {"local_model": {"m": 2.5, "G": LINEAR_G}},
            {"genus": True, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]},
            {"local_model": {"m": True, "G": LINEAR_G}},
            {"local_model": {"m": 2, "G": [[{"exps": [1.7, 0, 0], "coeff": "1"}]]}},
            {"curve_model": RAW, "attachments": [{"index": True}], "derivs": [["1"]]},
            {"genus": 2, "ambient_dim": 1, "points": [{"delta": "12", "deriv": ["1"]}]},
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": {"3": 0}, "deriv": ["1"]}]},
            {"curve_model": HYPER_NO_F, "attachments": [{"x": "0", "y": "1"}], "derivs": [["1"]]},
            {"curve_model": {**HYPER_NO_F, "f": "1001"}, "attachments": [{"x": "0", "y": "1"}],
             "derivs": [["1"]]},
            {"curve_model": {**NODAL, "nodes": ["01"]}, "attachments": [{"p": "2"}], "derivs": [["1"]]},
            {"curve_model": {**RAW, "ev_matrix": ["12"]}, "attachments": [{"index": 0}],
             "derivs": [["1"]]},
            {"curve_model": NODAL, "attachments": [{"p": "2"}], "derivs": ["1"]},
            {"genus": 1, "ambient_dim": 1, "points": {"delta": ["1"], "deriv": ["1"]}},
            {"components": "ab"},
            {"local_model": {"m": 2, "G": [{}]}},
            {"local_model": {"m": 2, "G": "x"}},
            {"version": True, "genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]},
            {"local_model": {"m": 2, "G": [[{"exps": [1, 0, 0]}]]}},
            {"local_model": {"m": 2, "G": [[["x"]]]}},
            {"local_model": {"m": 2, "G": [[{"exps": 5, "coeff": "1"}]]}},
        ],
        ids=[
            "float-in-vector", "attachments-not-a-list", "zero-denominator", "bool-as-rational",
            "float-genus", "float-m", "bool-genus", "bool-m", "float-exponent", "bool-index",
            "delta-a-string", "delta-an-object", "missing-f", "f-a-string", "node-pair-a-string",
            "ev-row-a-string", "derivs-row-a-string", "points-an-object", "components-a-string",
            "term-list-an-object", "G-a-string", "bool-version", "term-without-coeff",
            "term-a-list", "exps-a-number",
        ],
    )
    def test_malformed_value_is_bad_input(self, capsys, tmp_path, request, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, **data}))
        command = "localmodel" if "local_model" in data else "check"
        code, out, err = run_cli(capsys, command, str(path))
        assert_bad_input(code, out, err)
        if request.node.callspec.id in TERM_ERRORS:
            assert err == f"error: {TERM_ERRORS[request.node.callspec.id]}\n"

    @pytest.mark.parametrize(
        "pair, count",
        [(["1"], "1 value"), (["0", "1", "2"], "3 values")],
        ids=["node-of-one-value", "node-of-three-values"],
    )
    def test_node_entry_that_is_not_a_pair(self, capsys, tmp_path, pair, count):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "curve_model": {**NODAL, "nodes": [pair]},
                                    "attachments": [{"p": "2"}], "derivs": [["1"]]}))
        assert run_cli(capsys, "check", str(path)) == (
            EXIT_BAD_INPUT, "",
            f"error: problem.curve_model.nodes[0]: expected a pair [a, b], got {count}\n",
        )


class TestGenerate:
    def test_written_file_checks_clean(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "generate", "--N", "2", "--h", "2", "--model", "nodal_rational",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert "wrote" in out
        data = json.loads(path.read_text())
        assert len(data["points"]) == 4
        code, out, _ = run_cli(capsys, "check", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["components"][0]["theorem"]["rank"] == 4

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--N", "2", "--h", "2")
        assert code == EXIT_OK
        assert json.loads(out)["ambient_dim"] == 2

    def test_json_flag_without_out_changes_nothing(self, capsys):
        argv = ("generate", "--N", "3", "--h", "2", "--model", "nodal_rational")
        plain = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--json") == plain and plain[0] == EXIT_OK

    def test_json_with_out_names_the_written_file(self, capsys, tmp_path):
        path = tmp_path / "star.json"
        code, out, err = run_cli(capsys, "generate", "--N", "2", "--h", "2", "--out", str(path), "--json")
        assert (code, err) == (EXIT_OK, "")
        assert out == dump_json({"n_points": 4, "written": str(path)})
        assert json.loads(path.read_text())["ambient_dim"] == 2

    def test_capacity_error_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--N", "5", "--h", "4")
        assert code == EXIT_BAD_INPUT
        assert "error" in err

    @pytest.mark.parametrize("model", ["hyperelliptic", "nodal_rational"])
    def test_star_above_the_subset_cap_is_bad_input(self, capsys, model):
        assert run_cli(capsys, "generate", "--N", "2", "--h", "80", "--model", model) == (
            EXIT_BAD_INPUT, "", "error: a line star with N = 2, h = 80 has 160 points, over the limit 24\n"
        )

    def test_seed_has_no_effect(self, capsys):
        plain = run_cli(capsys, "generate", "--N", "3", "--h", "2", "--model", "nodal_rational")
        seeded = run_cli(capsys, "generate", "--N", "3", "--h", "2", "--model", "nodal_rational",
                         "--seed", "7")
        assert seeded == plain and plain[0] == EXIT_OK

    def test_rank_deficient_group_is_a_bug(self, capsys, monkeypatch):
        import ghostcheck.factory as factory_module

        def repeated_parameter(big_n, h):
            model = factory_module.NodalRationalModel(h, [(0, 1), (2, 3)])
            return model, [[5, 5], [6, 7]]

        monkeypatch.setattr(factory_module, "_nodal_star_points", repeated_parameter)
        assert run_cli(capsys, "generate", "--N", "2", "--h", "2", "--model", "nodal_rational") == (
            EXIT_INTERNAL, "",
            "internal error: AssertionError: line-star group 0 has evaluation rank below 2; this is a bug\n",
        )


class TestDims:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--N", "3", "--g", "4", "--d", "12")
        assert code == EXIT_OK
        assert "= 48" in out

    def test_with_stratum(self, capsys, tmp_path):
        spec_path = tmp_path / "stratum.json"
        spec_path.write_text(json.dumps({"N": 3, "h": 4, "parts": [[0, 1]] * 12}))
        code, out, _ = run_cli(
            capsys, "dims", "--N", "3", "--g", "4", "--d", "12",
            "--stratum", str(spec_path), "--json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dim_moduli"] == 48
        assert report["stratum"]["dim"] == 48
        assert report["stratum"]["excess"] == 0

    def test_invalid_args(self, capsys):
        code, _, err = run_cli(capsys, "dims", "--N", "3", "--g", "2", "--d", "2")
        assert code == EXIT_BAD_INPUT

    def test_bad_stratum_file(self, capsys, tmp_path):
        spec_path = tmp_path / "stratum.json"
        parts = [[0, 1]] * 12
        for spec in (
            [1, 2],
            {"N": "abc", "h": 4, "parts": parts},
            {"N": 3, "h": 4, "parts": [[1]]},
            {"N": 2.9, "h": 4, "parts": parts},
            {"N": 3, "h": True, "parts": parts},
        ):
            spec_path.write_text(json.dumps(spec))
            code, out, err = run_cli(
                capsys, "dims", "--N", "3", "--g", "4", "--d", "12", "--stratum", str(spec_path)
            )
            assert_bad_input(code, out, err)
        for spec, message in (
            ({"N": 3, "h": 0, "parts": parts}, "ghost genus must be >= 1"),
            ({"N": 3, "h": 4, "parts": [[-1, 1]]}, "parts need g_i >= 0 and d_i >= 1"),
            ({"N": 3, "h": 4, "parts": []}, "need at least one attached part"),
        ):
            spec_path.write_text(json.dumps(spec))
            assert run_cli(
                capsys, "dims", "--N", "3", "--g", "4", "--d", "12", "--stratum", str(spec_path)
            ) == (EXIT_BAD_INPUT, "", f"error: stratum spec {spec_path}: {message}\n")

    def test_stratum_n_differs_from_the_argument(self, capsys, tmp_path):
        spec_path = tmp_path / "stratum.json"
        spec_path.write_text(json.dumps({"N": 2, "h": 4, "parts": [[0, 1]] * 12}))
        assert run_cli(
            capsys, "dims", "--N", "3", "--g", "4", "--d", "12", "--stratum", str(spec_path)
        ) == (EXIT_BAD_INPUT, "", f"error: stratum spec {spec_path}: N = 2 differs from --N 3\n")


class TestLocalModel:
    def _write(self, tmp_path, m, components):
        path = tmp_path / "local.json"
        path.write_text(json.dumps({"local_model": {"m": m, "G": components}}))
        return path

    def test_linear_map_passes(self, capsys, tmp_path):
        path = self._write(tmp_path, 2, [[{"exps": [1, 0, 0], "coeff": "1"}]])
        code, out, _ = run_cli(capsys, "localmodel", str(path), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "pass"
        residues = [
            comp["residue"]
            for level in report["levels"]
            for comp in level["components"]
            if comp["pole_order"] == 1
        ]
        assert residues == [["1"], ["1"]]

    def test_non_constant_level_finding(self, capsys, tmp_path):
        path = self._write(tmp_path, 3, [[{"exps": [0, 1, 1], "coeff": "1"}]])
        code, out, _ = run_cli(capsys, "localmodel", str(path), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["failures"][0]["code"] == "NonConstantLevel"
        assert report["failures"][0]["level"] == 2

    def test_zero_map(self, capsys, tmp_path):
        path = self._write(tmp_path, 1, [[]])
        code, out, _ = run_cli(capsys, "localmodel", str(path), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert all(c["pole_order"] == 0 for l in report["levels"] for c in l["components"])

    def test_normal_form_applied_before_expansion(self, capsys, tmp_path):
        # x*y is not in normal form; the CLI rewrites it to t^m first
        path = self._write(tmp_path, 2, [[{"exps": [1, 1, 0], "coeff": "1"}]])
        code, out, _ = run_cli(capsys, "localmodel", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    def test_ghost_vanishing_violation_is_bad_input(self, capsys, tmp_path):
        path = self._write(tmp_path, 2, [[{"exps": [0, 1, 0], "coeff": "1"}]])
        code, _, err = run_cli(capsys, "localmodel", str(path))
        assert code == EXIT_BAD_INPUT

    def test_missing_section(self, capsys, tmp_path):
        path = tmp_path / "noproblem.json"
        path.write_text(
            json.dumps({"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]})
        )
        code, _, _ = run_cli(capsys, "localmodel", str(path))
        assert code == EXIT_BAD_INPUT

    def test_human_output_deterministic(self, capsys, tmp_path):
        path = self._write(tmp_path, 2, [[{"exps": [1, 0, 0], "coeff": "1"}]])
        _, first, _ = run_cli(capsys, "localmodel", str(path))
        _, second, _ = run_cli(capsys, "localmodel", str(path))
        assert first == second
        assert "verdict: pass" in first


@pytest.fixture(scope="module")
def two_selftest_runs():
    """(exit code, stdout) of two full selftest runs, shared by the tests below."""
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["selftest"])
        runs.append((code, out.getvalue()))
    return runs


class TestSelftest:
    def test_fresh_build_passes(self, two_selftest_runs):
        code, out = two_selftest_runs[0]
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1] == "selftest: 9/9 criteria passed"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_sabotaged_residue_fails_named_criterion(self, monkeypatch):
        from ghostcheck.localmodel import restriction as original

        def residue_flipped(g, m, level, j):
            """The engine's restriction with its w^-1 coefficient negated."""
            r = original(g, m, level, j)
            return LaurentPoly(r.variables, {e: -c if e == (-1,) else c for e, c in r.terms.items()})

        monkeypatch.setattr(selftest_module, "restriction", residue_flipped)
        assert selftest_module.check_residue_leading_term() == (
            False, "m=1 level 1 C_tilde: chart restriction disagrees with the chart pullback"
        )
        criterion = next(c for c in selftest_module.CRITERIA if c.name == "residue-leading-term")
        result = selftest_module.run_criterion(criterion)
        assert (result.name, result.passed) == ("residue-leading-term", False)

    def test_sabotaged_residue_field_fails_named_criterion(self, monkeypatch):
        from ghostcheck.localmodel import verify_residue_theorem as original

        def residue_field_flipped(ghost_map, m):
            """The engine's report with each node's recorded residue negated, restrictions kept."""
            report = original(ghost_map, m)
            levels = []
            for lvl in report.expansion.levels:
                node, *rest = lvl.components
                flipped = replace(node, residue=tuple(-r for r in node.residue))
                levels.append(replace(lvl, components=(flipped, *rest)))
            return replace(report, expansion=replace(report.expansion, levels=tuple(levels)))

        monkeypatch.setattr(selftest_module, "verify_residue_theorem", residue_field_flipped)
        assert selftest_module.check_residue_leading_term() == (
            False, "m=1 level 1 C_tilde: pole order or residue disagrees with the chart pullback"
        )

    def test_sabotaged_constant_fails_named_criterion(self, monkeypatch):
        from ghostcheck.localmodel import verify_residue_theorem as original

        def constant_shifted(ghost_map, m):
            """The engine's report with every constant but a_0 raised by one."""
            report = original(ghost_map, m)
            levels = tuple(
                replace(lvl, constant=tuple(a + (lvl.level > 1) for a in lvl.constant))
                for lvl in report.expansion.levels
            )
            return replace(report, expansion=replace(report.expansion, levels=levels))

        monkeypatch.setattr(selftest_module, "verify_residue_theorem", constant_shifted)
        assert selftest_module.check_residue_leading_term() == (
            False, "m=2 level 2: constant disagrees with the chart pullback"
        )

    def test_failing_criterion_exit_code_and_report(self, capsys, monkeypatch):
        failing = (
            Criterion("always-passes", 5.0, lambda: (True, "ok")),
            Criterion("always-fails", 5.0, lambda: (False, "x")),
        )
        monkeypatch.setattr(selftest_module, "CRITERIA", failing)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_SELFTEST_FAILED
        assert out.splitlines() == [
            "PASS always-passes: ok",
            "FAIL always-fails: x",
            "selftest: 1/2 criteria passed",
        ]
        code, out, _ = run_cli(capsys, "selftest", "--json")
        assert code == EXIT_SELFTEST_FAILED
        report = json.loads(out)
        assert report["passed"] is False
        assert [(c["name"], c["passed"], c["detail"]) for c in report["criteria"]] == [
            ("always-passes", True, "ok"),
            ("always-fails", False, "x"),
        ]

    def test_json_output(self, capsys, monkeypatch):
        quick = (
            Criterion("always-passes", 5.0, lambda: (True, "ok")),
        )
        monkeypatch.setattr(selftest_module, "CRITERIA", quick)
        code, out, _ = run_cli(capsys, "selftest", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["passed"] is True
        assert report["criteria"][0]["name"] == "always-passes"

    def test_repeated_runs_identical_bytes(self, two_selftest_runs):
        (_, first), (_, second) = two_selftest_runs
        assert first == second

    def test_report_matches_the_pinned_text(self, two_selftest_runs):
        _, out = two_selftest_runs[0]
        assert out == SELFTEST.read_text(encoding="utf-8")


class TestEnvironment:
    def test_thread_env_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("GHOSTCHECK_THREADS", "zero")
        code, _, err = run_cli(capsys, "dims", "--N", "3", "--g", "1", "--d", "1")
        assert code == EXIT_BAD_INPUT

    def test_thread_count_does_not_change_output(self, capsys, monkeypatch, star_file):
        monkeypatch.setenv("GHOSTCHECK_THREADS", "1")
        _, first, _ = run_cli(capsys, "check", str(star_file), "--json")
        monkeypatch.setenv("GHOSTCHECK_THREADS", "8")
        _, second, _ = run_cli(capsys, "check", str(star_file), "--json")
        assert first == second

    def test_internal_error_exit_code(self, capsys, monkeypatch, star_file):
        import ghostcheck.cli as cli_module

        def explode(problem):
            raise AssertionError("forced internal failure")

        monkeypatch.setattr(cli_module, "corollary_check", explode)
        code, _, err = run_cli(capsys, "check", str(star_file))
        assert code == EXIT_INTERNAL
        assert "internal error" in err

        def lookup_bug(problem):
            return {}["missing"]

        monkeypatch.setattr(cli_module, "corollary_check", lookup_bug)
        code, out, err = run_cli(capsys, "check", str(star_file))
        assert code == EXIT_INTERNAL
        assert out == "" and err == "internal error: KeyError: 'missing'\n"


class TestArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--N", "abc", "--h", "2"], "argument --N: invalid int value: 'abc'"),
            (["check"], "the following arguments are required: path"),
            ([], "the following arguments are required: command"),
            (["dims", "--N", "3", "--g", "1", "--d", "1", "--frob"], "unrecognized arguments: --frob"),
        ],
        ids=["bad-int", "missing-path", "missing-command", "unknown-flag"],
    )
    def test_argument_error_is_one_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (EXIT_BAD_INPUT, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(("usage: ghostcheck", "ghostcheck "))


def test_request_path_imports_no_selftest_code():
    # what a fresh process loads to serve requests: the chart code and the
    # rest of the selftest stay out of it
    code = (
        "import sys, ghostcheck.cli, ghostcheck.factory, ghostcheck.localmodel\n"
        "print('ghostcheck.selftest' in sys.modules, hasattr(ghostcheck.localmodel, 'chart'))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ghostcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False False\n", "")
