"""Replay the CLI corpus ``tests/golden_cli.json``: every case must give the
same exit code, stdout, stderr and written file, byte for byte.

The corpus is written by ``tests/make_golden.py``; regenerate it only for a
deliberate output change.
"""

from __future__ import annotations

import json

import pytest

from make_golden import CORPUS, run_case

CASES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_subcommand_but_selftest():
    commands = {case["argv"][0] for case in CASES if case["argv"]}
    assert commands == {"check", "generate", "dims", "localmodel"}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_replay(case, tmp_path):
    code, out, err, written = run_case(case["files"], case["argv"], str(tmp_path))
    assert (code, out, err, written) == (case["exit"], case["stdout"], case["stderr"], case["written"])
