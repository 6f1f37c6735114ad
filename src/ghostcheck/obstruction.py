"""Smoothing-obstruction engine for one ghost component.

A problem consists of, per attachment point, an evaluation covector
(length g, representing the curve-side connecting map dually) and a
derivative vector (length N, the effective-map derivative at the point in
coordinates on the target tangent space). The engine builds the g*N x n
matrix whose column i is the flattened outer product delta_i (x) deriv_i
and decides two one-directional verdicts:

- injectivity test: full column rank means the map cannot be a limit of
  maps with smooth domains ("NotEventuallySmoothable"); otherwise the
  verdict is "Inconclusive" and a kernel vector is reported;
- subset rank test: if some nonempty subset D of the points satisfies
  rank(derivs in D) + rank(covectors in D) <= |D|, the test is
  inconclusive with witness D; if no subset does, the verdict is
  "NotEventuallySmoothable".

The engine never claims smoothability: a trivial kernel is the only
obstructed outcome, everything else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .exact import IntEchelon, QMatrix, RatLike, integerize, rat_vector

MAX_SUBSET_POINTS = 24


class ObstructionError(ValueError):
    pass


class TooManyPoints(ObstructionError):
    """Subset enumeration is capped at 24 points (2^24 subsets worst case)."""


class NotAKernelVector(ObstructionError):
    pass


class Verdict(str, Enum):
    NOT_EVENTUALLY_SMOOTHABLE = "NotEventuallySmoothable"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class AttachmentColumn:
    """Evaluation covector and derivative vector at one attachment point."""

    delta: tuple[Fraction, ...]
    deriv: tuple[Fraction, ...]

    def __init__(self, delta: Sequence[RatLike], deriv: Sequence[RatLike]):
        object.__setattr__(self, "delta", rat_vector(delta))
        object.__setattr__(self, "deriv", rat_vector(deriv))


@dataclass(frozen=True)
class ObstructionProblem:
    genus: int
    ambient_dim: int
    points: tuple[AttachmentColumn, ...]

    def __init__(self, genus: int, ambient_dim: int, points: Sequence[AttachmentColumn]):
        if genus < 1 or ambient_dim < 1:
            raise ObstructionError("genus and ambient dimension must be >= 1")
        pts = tuple(points)
        if not pts:
            raise ObstructionError("at least one attachment point is required")
        for i, p in enumerate(pts):
            if len(p.delta) != genus:
                raise ObstructionError(f"point {i}: delta has length {len(p.delta)}, expected {genus}")
            if len(p.deriv) != ambient_dim:
                raise ObstructionError(
                    f"point {i}: deriv has length {len(p.deriv)}, expected {ambient_dim}"
                )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TheoremVerdict:
    verdict: Verdict
    rank: int
    kernel_witness: Optional[tuple[Fraction, ...]]


@dataclass(frozen=True)
class CorollaryVerdict:
    verdict: Verdict
    witness_D: Optional[tuple[int, ...]]


def obstruction_matrix(problem: ObstructionProblem) -> QMatrix:
    """g*N x n matrix; column i flattens delta_i (x) deriv_i by (a, b) -> a*N + b.

    Pairing the tensor-product map against the covector basis on each factor
    yields exactly these rows, so its kernel is the kernel of the geometric
    map.
    """
    g, big_n = problem.genus, problem.ambient_dim
    columns = []
    for p in problem.points:
        col = [Fraction(0)] * (g * big_n)
        for a in range(g):
            ea = p.delta[a]
            if ea:
                for b in range(big_n):
                    col[a * big_n + b] = ea * p.deriv[b]
        columns.append(col)
    return QMatrix.from_columns(columns)


def theorem_check(problem: ObstructionProblem) -> TheoremVerdict:
    """Injectivity verdict: obstructed iff the matrix has full column rank."""
    basis = obstruction_matrix(problem).kernel_basis()
    rank = problem.n_points - len(basis)
    if not basis:
        return TheoremVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, rank, None)
    return TheoremVerdict(Verdict.INCONCLUSIVE, rank, basis[0])


def subset_ranks(problem: ObstructionProblem, subset: Sequence[int]) -> tuple[int, int]:
    """(rank of deriv columns, rank of delta columns) over the given indices."""
    indices = list(subset)
    deriv = QMatrix.from_columns([problem.points[i].deriv for i in indices])
    delta = QMatrix.from_columns([problem.points[i].delta for i in indices])
    return deriv.rank(), delta.rank()


def rank_inequality_holds(problem: ObstructionProblem, subset: Sequence[int]) -> bool:
    rank_v, rank_e = subset_ranks(problem, subset)
    return rank_v + rank_e <= len(subset)


def _first_witness_of_size(
    size: int, n: int, vcols: Sequence[tuple[int, ...]], ecols: Sequence[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """Lexicographically first size-k subset satisfying the rank inequality.

    Depth-first search in index order with a sound prune: ranks never
    decrease when a column is added, so a prefix whose rank sum already
    exceeds the target size cannot extend to a witness. The first completed
    subset is therefore exactly the lex-minimal witness of this size.
    """

    def recurse(start: int, chosen: list[int], ev: IntEchelon, ee: IntEchelon):
        if len(chosen) == size:
            return tuple(chosen)
        slots = size - len(chosen)
        for i in range(start, n - slots + 1):
            ev2 = ev.inserted(vcols[i])
            ee2 = ee.inserted(ecols[i])
            if ev2.rank + ee2.rank > size:
                continue
            chosen.append(i)
            found = recurse(i + 1, chosen, ev2, ee2)
            if found is not None:
                return found
            chosen.pop()
        return None

    return recurse(0, [], IntEchelon(), IntEchelon())


def corollary_check(problem: ObstructionProblem) -> CorollaryVerdict:
    """Exhaustive subset rank test with witness minimal under (|D|, lex).

    All nonempty subsets are covered, smallest cardinality first; within a
    cardinality class the scan is lexicographic and stops at the first
    witness. No subset passing means the obstructed verdict.
    """
    n = problem.n_points
    if n > MAX_SUBSET_POINTS:
        raise TooManyPoints(f"{n} attachment points exceed the cap of {MAX_SUBSET_POINTS}")
    vcols = [integerize(p.deriv) for p in problem.points]
    ecols = [integerize(p.delta) for p in problem.points]
    for size in range(1, n + 1):
        witness = _first_witness_of_size(size, n, vcols, ecols)
        if witness is not None:
            if not rank_inequality_holds(problem, witness):
                raise AssertionError("subset scan and exact ranks disagree; this is a bug")
            return CorollaryVerdict(Verdict.INCONCLUSIVE, witness)
    return CorollaryVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, None)


def kernel_to_witness_d(
    problem: ObstructionProblem, kernel_vector: Sequence[RatLike]
) -> tuple[int, ...]:
    """Support of a kernel vector; it always satisfies the rank inequality.

    The kernel relation makes the composite (covectors on D) -> (span of
    derivs on D) zero, so rank-nullity bounds the two ranks by |D|.
    """
    vec = rat_vector(kernel_vector)
    if len(vec) != problem.n_points:
        raise NotAKernelVector(f"vector length {len(vec)} != {problem.n_points} points")
    if not any(vec):
        raise NotAKernelVector("kernel vector must be nonzero")
    if any(obstruction_matrix(problem).matvec(vec)):
        raise NotAKernelVector("vector is not in the kernel of the obstruction matrix")
    return tuple(i for i, x in enumerate(vec) if x)
