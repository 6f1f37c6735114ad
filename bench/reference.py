#!/usr/bin/env python3
"""Reference figures: the cost curves of ghostcheck's three engines.

    python3 bench/reference.py

Times single library calls (one call per point, no repetition) and prints
one line per point: ``theorem_check`` against n up to 120 at g = N = 12,
``corollary_check`` against n from 16 to 24 at g = N = 12 (each a full
subset scan, since no subset passes), ``verify_residue_theorem`` against m
from 16 to 128 with 3 coordinates of 10 terms each, and one ``selftest``
run. The figures are a reference for the README, not benchmark metrics.
"""

import os
import random
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

THEOREM_N = (20, 40, 60, 80, 100, 120)
COROLLARY_N = tuple(range(16, 25))
RESIDUE_M = (16, 32, 64, 128)


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def main() -> int:
    gc = run.import_ghostcheck()
    from ghostcheck.laurent import LaurentPoly
    from ghostcheck.localmodel import XYT, verify_residue_theorem
    from ghostcheck.obstruction import corollary_check, theorem_check
    from ghostcheck.selftest import run_all

    print("engine               size      seconds  result")
    for n in THEOREM_N:
        problem = gc.factory.random_instance(n, 12, 12, n)
        seconds, verdict = timed(theorem_check, problem)
        print(f"theorem_check        n={n:<6d} {seconds:9.3f}  rank {verdict.rank}", flush=True)
    for n in COROLLARY_N:
        problem = gc.factory.random_instance(n, 12, 12, n)
        seconds, verdict = timed(corollary_check, problem)
        print(f"corollary_check      n={n:<6d} {seconds:9.3f}  {verdict.verdict.value}", flush=True)
    rng = random.Random(0)
    monomials = [(a, 0, c) for a in range(1, 5) for c in range(0, 5 - a)]
    for m in RESIDUE_M:
        coords = [LaurentPoly(XYT, {e: rng.randint(1, 9) for e in monomials}) for _ in range(3)]
        seconds, report = timed(verify_residue_theorem, coords, m)
        print(f"verify_residue       m={m:<6d} {seconds:9.3f}  {'pass' if report.passed else 'fail'}", flush=True)
    seconds, results = timed(run_all)
    passed = sum(r.passed for r in results)
    print(f"selftest             all      {seconds:9.3f}  {passed}/{len(results)} criteria passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
