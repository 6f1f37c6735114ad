"""Reference for the subset scan of ``ghostcheck.obstruction``: every
subset, by plain enumeration."""

from __future__ import annotations

from itertools import combinations

from ghostcheck.obstruction import ObstructionProblem, rank_inequality_holds


def brute_force_passing_subsets(problem: ObstructionProblem) -> list[tuple[int, ...]]:
    """All nonempty subsets satisfying the rank inequality, in (|D|, lex) order."""
    n = problem.n_points
    out = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if rank_inequality_holds(problem, subset):
                out.append(subset)
    return out
