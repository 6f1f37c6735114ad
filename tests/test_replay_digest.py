"""Byte identity of every benchmark request, pinned.

``replay_requests.replay`` runs the benchmark's requests for three seeds,
text and ``--json``, and hashes exit codes, stdout and stderr. A change that
moves any byte of any of them changes the digest.
"""

from __future__ import annotations

from replay_requests import replay

REQUESTS = 636
DIGEST = "ef3d113c2887e86c133f28953101100143268940203d4a4382b35349b67ca9be"


def test_benchmark_requests_are_byte_identical():
    count, digest = replay()
    assert (count, digest) == (REQUESTS, DIGEST), f"replayed {count} requests: sha256 {digest}, pinned {DIGEST}"
