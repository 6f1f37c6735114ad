"""Write ``tests/golden_cli.json``, the byte-exact CLI corpus that
``tests/test_golden_cli.py`` replays, and ``tests/golden_selftest.txt``, the
text report of ``selftest`` that ``tests/test_cli.py`` compares.

Each case names its input files (written into a fresh directory), an argv in
which ``{dir}`` stands for that directory, and what ``cli.main`` gave: exit
code, stdout, stderr (the directory replaced by ``{dir}`` again) and, for
``generate --out``, the written file. Every subcommand but ``selftest`` is
covered, in text and in ``--json``; ``selftest`` runs for seconds, so only
its text report is pinned, in a file of its own.

Run from the repository root after a deliberate output change only:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from ghostcheck.cli import main
from ghostcheck.factory import random_instance
from ghostcheck.jsonio import problem_to_json

CORPUS = Path(__file__).resolve().parent / "golden_cli.json"
SELFTEST = Path(__file__).resolve().parent / "golden_selftest.txt"
DIR = "{dir}"


def raw(seed, g, big_n, n):
    return {"version": 1, **problem_to_json(random_instance(seed, g, big_n, n))}


# y^2 = 1 + (x-1)(x-2)...(x-6), coefficients ascending: (j, 1) lies on it for j = 1..6
HYPERELLIPTIC = {
    "version": 1,
    "curve_model": {"type": "hyperelliptic", "genus": 2,
                    "f": ["721", "-1764", "1624", "-735", "175", "-21", "1"]},
    "attachments": [{"x": str(j), "y": "1"} for j in (1, 2, 3)],
    "derivs": [["1", "0"], ["0", "1"], ["1/2", "-3"]],
}
# y^2 = 1/4 + x(x-1)(x-2)(x-1/2)(x+1/3)/6: (r, +-1/2) lies on it for each of those five roots r
HYPERELLIPTIC_FRACTIONAL = {
    "version": 1,
    "curve_model": {"type": "hyperelliptic", "genus": 2,
                    "f": ["1/4", "-1/18", "1/36", "7/18", "-19/36", "1/6"]},
    "attachments": [{"x": "0", "y": "1/2"}, {"x": "1/2", "y": "-1/2"}, {"x": "-1/3", "y": "1/2"}],
    "derivs": [["1", "0"], ["2/3", "1"], ["0", "-1"]],
}
# f = (x - 1/2)^2 (x^3 + 1/3) has a double root, so the curve is singular
NOT_SQUAREFREE = {
    "version": 1,
    "curve_model": {"type": "hyperelliptic", "genus": 2, "f": ["1/12", "-1/3", "1/3", "1/4", "-1", "1"]},
    "attachments": [{"x": "1", "y": "1/2"}],
    "derivs": [["1", "0"]],
}
NODAL = {
    "version": 1,
    "curve_model": {"type": "nodal_rational", "genus": 2, "nodes": [["0", "1"], ["2", "3"]]},
    "attachments": [{"p": "5"}, {"p": "7/2"}, {"p": "-4"}],
    "derivs": [["1", "2"], ["3", "-1"], ["0", "5"]],
}
RAW_MODEL = {
    "version": 1,
    "curve_model": {"type": "raw", "genus": 2, "ev_matrix": [["1", "0", "2/3"], ["0", "1", "-1"]]},
    "attachments": [{"index": 0}, {"index": 2}, {"index": 1}],
    "derivs": [["1"], ["2"], ["-1/5"]],
}
FIRES = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}]}
DAMPED = {"genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["0"]}]}


def local(m, *coords):
    return {"version": 1, "local_model": {"m": m, "G": [list(c) for c in coords]}}


def term(a, b, c, coeff):
    return {"exps": [a, b, c], "coeff": coeff}


# name -> (files, argv); every argv without --json is also recorded with it
TOGGLED = {
    "check-raw": ({"p.json": raw(11, 2, 2, 3)}, ["check", "{dir}/p.json"]),
    "check-hyperelliptic": ({"p.json": HYPERELLIPTIC}, ["check", "{dir}/p.json"]),
    "check-nodal": ({"p.json": NODAL}, ["check", "{dir}/p.json"]),
    "check-raw-model": ({"p.json": RAW_MODEL}, ["check", "{dir}/p.json"]),
    "check-components": (
        {"p.json": {"version": 1, "components": [DAMPED, raw(12, 2, 3, 4), FIRES]}},
        ["check", "{dir}/p.json"],
    ),
    "check-kernel-and-corollary-witness": ({"p.json": raw(13, 2, 2, 5)}, ["check", "{dir}/p.json"]),
    "check-zero-column": ({"p.json": {"version": 1, **DAMPED}}, ["check", "{dir}/p.json"]),
    "check-obstructed-above-subset-cap": ({"p.json": raw(5, 16, 16, 30)}, ["check", "{dir}/p.json"]),
    "localmodel-pass": ({"l.json": local(2, [term(1, 0, 0, "1")])}, ["localmodel", "{dir}/l.json"]),
    "localmodel-two-coordinates": (
        {"l.json": local(5, [term(1, 0, 0, "2"), term(2, 0, 1, "-1/3")], [term(0, 0, 1, "0"), term(3, 0, 0, "1")])},
        ["localmodel", "{dir}/l.json"],
    ),
    "localmodel-mixed-xy": (
        {"l.json": local(4, [term(1, 1, 0, "1"), term(2, 1, 1, "3"), term(1, 0, 0, "-2")])},
        ["localmodel", "{dir}/l.json"],
    ),
    "localmodel-non-constant-level": (
        {"l.json": local(3, [term(1, 0, 0, "1")], [term(0, 1, 1, "1")])},
        ["localmodel", "{dir}/l.json"],
    ),
    "localmodel-zero-map": ({"l.json": local(1, [])}, ["localmodel", "{dir}/l.json"]),
    "generate": ({}, ["generate", "--N", "3", "--h", "2", "--model", "nodal_rational"]),
    "generate-out": ({}, ["generate", "--N", "2", "--h", "3", "--out", "{dir}/star.json"]),
    "dims": ({}, ["dims", "--N", "3", "--g", "4", "--d", "12"]),
    "dims-stratum": (
        {"s.json": {"N": 3, "h": 4, "parts": [[0, 1]] * 10 + [[1, 3]]}},
        ["dims", "--N", "3", "--g", "5", "--d", "13", "--stratum", "{dir}/s.json"],
    ),
    "error-invalid-json": ({"bad.json": "{\"version\": 1, \"genus\": "}, ["check", "{dir}/bad.json"]),
    "error-missing-file": ({}, ["localmodel", "{dir}/absent.json"]),
}
ONCE = {
    "localmodel-split-off-constants--json": (
        {"l.json": local(4, [term(1, 0, 0, "1"), term(0, 0, 1, "3"), term(0, 0, 2, "-1/2")],
                         [term(1, 0, 0, "-2"), term(0, 0, 3, "5"), term(2, 0, 1, "1")])},
        ["localmodel", "{dir}/l.json", "--json"],
    ),
    "localmodel-stop-after-levels--json": (
        {"l.json": local(6, [term(1, 0, 0, "1"), term(0, 0, 2, "2"), term(0, 1, 5, "1")],
                         [term(1, 0, 0, "1/3"), term(0, 0, 1, "7"),
                          term(0, 0, 3, "5"), term(0, 2, 3, "-3/4")])},
        ["localmodel", "{dir}/l.json", "--json"],
    ),
    "error-no-command": ({}, []),
    "error-bad-int": ({}, ["generate", "--N", "abc", "--h", "2"]),
    "error-missing-path": ({}, ["check"]),
    "error-unknown-flag": ({}, ["dims", "--N", "3", "--g", "1", "--d", "1", "--frob"]),
    "error-star-above-cap": ({}, ["generate", "--N", "2", "--h", "80", "--json"]),
    "error-unwritable-out": ({}, ["generate", "--N", "2", "--h", "2", "--out", "{dir}/no/star.json"]),
    "error-dims-invalid": ({}, ["dims", "--N", "3", "--g", "2", "--d", "2"]),
    "error-missing-field": (
        {"bad.json": {"version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"]}]}},
        ["check", "{dir}/bad.json", "--json"],
    ),
    "error-not-a-rational": (
        {"bad.json": {"version": 1, "genus": 1, "ambient_dim": 1,
                      "points": [{"delta": ["x"], "deriv": ["1"]}]}},
        ["check", "{dir}/bad.json"],
    ),
    "error-unknown-model": (
        {"bad.json": {"version": 1, "curve_model": {"type": "elliptic", "genus": 1},
                      "attachments": [], "derivs": []}},
        ["check", "{dir}/bad.json"],
    ),
    "error-too-many-points-for-the-witness-search": ({"p.json": raw(3, 2, 2, 25)}, ["check", "{dir}/p.json"]),
    "error-no-local-model": ({"p.json": raw(11, 2, 2, 3)}, ["localmodel", "{dir}/p.json"]),
    "error-ghost-vanishing": (
        {"l.json": local(2, [term(0, 1, 0, "1")])}, ["localmodel", "{dir}/l.json", "--json"]
    ),
    "error-matrix-over-limit": (
        {"p.json": json.dumps({"version": 1, "genus": 91, "ambient_dim": 91,
                               "points": [{"delta": ["1"] * 91, "deriv": ["1"] * 91}]})},
        ["check", "{dir}/p.json"],
    ),
    "error-m-over-limit": ({"l.json": local(257, [term(1, 0, 0, "1")])}, ["localmodel", "{dir}/l.json"]),
    "error-bad-stratum": (
        {"s.json": {"N": 3, "h": 4, "parts": [[1]]}},
        ["dims", "--N", "3", "--g", "4", "--d", "12", "--stratum", "{dir}/s.json"],
    ),
    "check-hyperelliptic-fractional-f": ({"p.json": HYPERELLIPTIC_FRACTIONAL}, ["check", "{dir}/p.json"]),
    "error-hyperelliptic-not-squarefree": ({"p.json": NOT_SQUAREFREE}, ["check", "{dir}/p.json"]),
}


def cases():
    for name, (files, argv) in TOGGLED.items():
        yield name, files, argv
        yield f"{name}--json", files, argv + ["--json"]
    for name, (files, argv) in ONCE.items():
        yield name, files, argv


def run_case(files, argv, workdir):
    """(exit code, stdout, stderr, written file or None) of one call in ``workdir``."""
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content, indent=1)
        Path(workdir, name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace(DIR, workdir) for a in argv])
    written = Path(workdir, "star.json")
    content = written.read_text(encoding="utf-8") if written.exists() else None
    return code, out.getvalue().replace(workdir, DIR), err.getvalue().replace(workdir, DIR), content


def build():
    corpus = []
    for name, files, argv in cases():
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err, written = run_case(files, argv, os.path.realpath(workdir))
        corpus.append({
            "name": name, "files": files, "argv": argv,
            "exit": code, "stdout": out, "stderr": err, "written": written,
        })
    return corpus


def selftest_text() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["selftest"])
    return out.getvalue()


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    SELFTEST.write_text(selftest_text(), encoding="utf-8")
    print(f"wrote {CORPUS} and {SELFTEST}")
