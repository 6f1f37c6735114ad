"""Replay every benchmark request through ``cli.main`` and print one digest.

The four builders in ``bench/workloads.py`` (``scan``, ``rank``, ``chain``,
``small``) write their requests for seeds 1, 2 and 977, each into a fresh
work directory. Every request, its warm-up included, runs once in text and
once with ``--json``; its exit code, stdout and stderr, with the work
directory masked as ``{dir}``, feed one SHA-256. The script prints the number
of requests run (both forms counted) and that digest. Two source trees whose
digests are equal gave byte-identical output on all of them.

Run from the repository root of each tree; it reads ``bench/`` and writes
only into temporary directories:

    PYTHONPATH=src python tests/replay_requests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import ghostcheck.cli  # noqa: E402
import ghostcheck.factory  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 977)
DIR = "{dir}"


def run(argv):
    """(exit status, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = ghostcheck.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def replay():
    """(requests run, hex SHA-256 of every masked result in order)."""
    digest = hashlib.sha256()
    count = 0
    for name, builder in workloads.BUILDERS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = os.path.realpath(tmp)
                requests, warm = builder(ghostcheck, seed, workloads.Writer(workdir))
                for request in [warm] + requests:
                    text = [a for a in request.argv if a != "--json"]
                    for argv in (text, text + ["--json"]):
                        count += 1
                        status, out, err = run(argv)
                        record = [name, seed, [a.replace(workdir, DIR) for a in argv], status,
                                  out.replace(workdir, DIR), err.replace(workdir, DIR)]
                        digest.update(json.dumps(record).encode() + b"\n")
    return count, digest.hexdigest()


if __name__ == "__main__":
    count, hexdigest = replay()
    print(f"{count} requests: sha256 {hexdigest}")
