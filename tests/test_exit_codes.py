"""Every input file ends in a report with exit 0 or in one ``error:`` line
with exit 2: valid files are mutated (type swaps, deleted keys, huge
integers, deep nesting) and run through ``cli.main`` in-process."""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostcheck.cli import EXIT_BAD_INPUT, EXIT_OK, main
from ghostcheck.jsonio import MAX_LOCAL_COORDS, MAX_LOCAL_M, MAX_LOCAL_TERMS

HYPER = {"type": "hyperelliptic", "genus": 2, "f": ["1", "2", "0", "0", "0", "1"]}

# name: (argv before the file path, a valid file)
SEEDS = {
    "points": (["check"], {
        "version": 1, "genus": 2, "ambient_dim": 2,
        "points": [
            {"delta": ["1/2", "1/2"], "deriv": ["1", "0"]},
            {"delta": ["1/2", "1"], "deriv": ["0", "1"]},
            {"delta": ["1", "-3"], "deriv": ["1", "1"]},
        ],
    }),
    "hyperelliptic": (["check", "--json"], {
        "version": 1, "curve_model": HYPER,
        "attachments": [{"x": "1", "y": "2"}, {"x": "0", "y": "1"}],
        "derivs": [["1", "0"], ["0", "1"]],
    }),
    "nodal": (["check"], {
        "version": 1, "curve_model": {"type": "nodal_rational", "genus": 2,
                                      "nodes": [["0", "1"], ["2", "3"]]},
        "attachments": [{"p": "5"}, {"p": "7"}, {"p": "-1/2"}],
        "derivs": [["1"], ["2"], ["0"]],
    }),
    "raw": (["check", "--json"], {
        "version": 1, "curve_model": {"type": "raw", "genus": 1, "ev_matrix": [["1", "2", "0"]]},
        "attachments": [{"index": 2}, {"index": 0}],
        "derivs": [["1", "0"], ["0", "0"]],
    }),
    "components": (["check"], {
        "components": [
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["0"]}]},
            {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["2"], "deriv": ["1"]}]},
        ],
    }),
    "local-pass": (["localmodel", "--json"], {
        "version": 1, "local_model": {"m": 3, "G": [
            [{"exps": [1, 0, 0], "coeff": "1"}, {"exps": [1, 1, 0], "coeff": "-2"}],
            [{"exps": [2, 0, 1], "coeff": "1/3"}, {"exps": [0, 1, 1], "coeff": "5"}],
        ]},
    }),
    "local-stop": (["localmodel"], {
        "local_model": {"m": 3, "G": [[{"exps": [0, 1, 1], "coeff": "1"}]]},
    }),
    "stratum": (["dims", "--N", "3", "--g", "5", "--d", "12", "--stratum"], {
        "N": 3, "h": 4, "parts": [[0, 1]] * 10 + [[1, 2]],
    }),
}

DEEP = "@deep@"  # stands for a nested array; json.dumps cannot write one 5000 deep

swapped_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 2), max_size=2),
)
huge_integers = st.integers(10**18, 10**80) | st.integers(-(10**80), -(10**18))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_definite_answer(code, out, err):
    """Exit 0 with a report, or exit 2 with one ``error:`` line naming each location once."""
    if code == EXIT_OK:
        assert out and not err
        return
    assert code == EXIT_BAD_INPUT, err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    parts = lines[0][len("error: "):].split(": ")
    for outer, inner in zip(parts, parts[1:]):
        assert inner != outer and not inner.startswith((outer + ".", outer + "[")), lines[0]


def write(path, data, depth=0):
    text = json.dumps(data)
    if depth:
        text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    path.write_text(text, encoding="utf-8")


@st.composite
def mutations(draw):
    """(seed name, mutated file, nesting depth substituted for DEEP)."""
    name = draw(st.sampled_from(sorted(SEEDS)))
    holder = {"file": copy.deepcopy(SEEDS[name][1])}
    parent, key = holder, "file"
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        node = parent[key]
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
    kind = draw(st.sampled_from(["swap", "delete", "huge", "deep"]))
    depth = 0
    if kind == "delete":
        del parent[key]
    elif kind == "swap":
        parent[key] = draw(swapped_values)
    elif kind == "huge":
        parent[key] = draw(huge_integers)
    elif kind == "deep":
        parent[key] = DEEP
        depth = draw(st.integers(1, 6000))
    return name, holder.get("file"), depth


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None)
@given(mutations())
def test_mutated_file_gets_a_definite_answer(work_dir, mutation):
    name, data, depth = mutation
    path = work_dir / "mutated.json"
    write(path, data, depth)
    assert_definite_answer(*run(SEEDS[name][0] + [str(path)]))


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_seed_files_are_valid(tmp_path, name):
    path = tmp_path / "seed.json"
    write(path, SEEDS[name][1])
    code, out, err = run(SEEDS[name][0] + [str(path)])
    assert (code, err) == (EXIT_OK, "") and out


@pytest.mark.parametrize("name", ["points", "local-pass", "stratum"])
def test_5000_deep_array(tmp_path, name):
    path = tmp_path / "deep.json"
    write(path, DEEP, 5000)
    code, out, err = run(SEEDS[name][0] + [str(path)])
    assert code == EXIT_BAD_INPUT
    assert_definite_answer(code, out, err)


@pytest.mark.parametrize(
    "raw",
    [b'{"genus": "\xff"}', b'{"genus": ' + b"7" * 5000 + b"}"],
    ids=["not-utf8", "integer-literal-over-the-digit-limit"],
)
def test_unparsable_bytes(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run(["check", str(path)])
    assert code == EXIT_BAD_INPUT
    assert_definite_answer(code, out, err)


@pytest.mark.parametrize("m", [MAX_LOCAL_M + 1, 10**6, 10**18])
@pytest.mark.parametrize("name", ["local-pass", "local-stop"])
def test_huge_m_is_bad_input(tmp_path, name, m):
    data = copy.deepcopy(SEEDS[name][1])
    data["local_model"]["m"] = m
    path = tmp_path / "huge_m.json"
    write(path, data)
    assert run(SEEDS[name][0] + [str(path)]) == (
        EXIT_BAD_INPUT, "", f"error: local_model: m = {m} exceeds the limit {MAX_LOCAL_M}\n"
    )


TERM = {"exps": [1, 0, 0], "coeff": "1"}


@pytest.mark.parametrize(
    "coords, message",
    [
        ([[TERM]] * (MAX_LOCAL_COORDS + 1),
         f"G has {MAX_LOCAL_COORDS + 1} coordinates, over the limit {MAX_LOCAL_COORDS}"),
        ([[TERM]] * 10**4, f"G has 10000 coordinates, over the limit {MAX_LOCAL_COORDS}"),
        ([[TERM], [TERM] * (MAX_LOCAL_TERMS + 1)],
         f"G[1] has {MAX_LOCAL_TERMS + 1} terms, over the limit {MAX_LOCAL_TERMS}"),
        ([[TERM] * 10**5], f"G[0] has 100000 terms, over the limit {MAX_LOCAL_TERMS}"),
    ],
    ids=["coords-17", "coords-10^4", "terms-65", "terms-10^5"],
)
@pytest.mark.parametrize("command", [["localmodel"], ["localmodel", "--json"]])
def test_oversized_local_model_is_bad_input(tmp_path, command, coords, message):
    path = tmp_path / "oversized.json"
    write(path, {"version": 1, "local_model": {"m": 3, "G": coords}})
    assert run(command + [str(path)]) == (EXIT_BAD_INPUT, "", f"error: local_model: {message}\n")


def test_local_model_at_the_limits_is_read(tmp_path):
    coords = [[{"exps": [1, 0, c], "coeff": "1"} for c in range(MAX_LOCAL_TERMS)]] * MAX_LOCAL_COORDS
    path = tmp_path / "at_limits.json"
    write(path, {"version": 1, "local_model": {"m": 3, "G": coords}})
    code, out, err = run(["localmodel", str(path)])
    assert (code, err) == (EXIT_OK, "") and out.endswith("verdict: pass\n")


def test_missing_field_names_its_location_once(tmp_path):
    path = tmp_path / "no_f.json"
    write(path, {"curve_model": {"type": "hyperelliptic", "genus": 1},
                 "attachments": [{"x": "0", "y": "1"}], "derivs": [["1"]]})
    assert run(["check", str(path)]) == (
        EXIT_BAD_INPUT, "", "error: problem.curve_model: missing field 'f'\n"
    )


def test_generate_into_a_missing_directory(tmp_path):
    target = tmp_path / "absent" / "star.json"
    code, out, err = run(["generate", "--N", "2", "--h", "2", "--out", str(target)])
    assert code == EXIT_BAD_INPUT
    assert_definite_answer(code, out, err)
    assert not target.exists()
