#!/usr/bin/env python3
"""Write expected_scan.json: the committed answers of the scan workload.

    python3 bench/make_expected.py

For every problem the scan workload can draw, the answer is the
(|D|, lex)-minimal subset D with rank_V(D) + rank_E(D) <= |D|, or null
when no subset passes. It comes from this directory's own exhaustive
subset enumeration (checks.first_witness), not from ghostcheck. The
nodal line stars in the pool are built by ghostcheck.factory, so each
entry also records a digest of its problem file; run.py refuses a pool
problem whose digest no longer matches.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pool = workloads.scan_pool(run.import_ghostcheck().factory)
    problems = {}
    for key, (genus, ambient, points) in sorted(pool.items()):
        start = perf_counter()
        vcols = [checks.integer_line(deriv) for _, deriv in points]
        ecols = [checks.integer_line(delta) for delta, _ in points]
        witness = checks.first_witness(vcols, ecols, range(1, len(points) + 1))
        problems[key] = {
            "digest": workloads.digest(workloads.raw_problem(genus, ambient, points)),
            "witness": None if witness is None else list(witness),
        }
        print(f"{key}: {problems[key]['witness']} ({perf_counter() - start:.2f} s)", flush=True)
    with open(workloads.SCAN_ANSWERS, "w", encoding="utf-8") as handle:
        json.dump({"problems": problems}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
