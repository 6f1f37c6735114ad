"""Smoothing-obstruction engine for one ghost component.

A problem consists of, per attachment point, an evaluation covector
(length g, representing the curve-side connecting map dually) and a
derivative vector (length N, the effective-map derivative at the point in
coordinates on the target tangent space). Column i of the g*N x n
obstruction matrix is the flattened outer product delta_i (x) deriv_i, and
the engine decides two one-directional verdicts:

- injectivity test: full column rank means the map cannot be a limit of
  maps with smooth domains ("NotEventuallySmoothable"); otherwise the
  verdict is "Inconclusive" and a kernel vector is reported. It eliminates
  integer rows built from the integerized covector and derivative rows,
  each a positive multiple of a row of the matrix, and back-substitutes
  only the reported kernel vector;
- subset rank test: if some nonempty subset D of the points satisfies
  rank(derivs in D) + rank(covectors in D) <= |D|, the test is
  inconclusive with witness D; if no subset does, the verdict is
  "NotEventuallySmoothable".

The subset test is decided in polynomial time by matroid partition
(Edmonds 1968, with Cunningham's shortest augmenting paths) over the two
column matroids M_V (derivatives) and M_E (covectors), and every
obstructed verdict carries one split per point that is checked with exact
ranks before it is returned; the splits differ only along short augmenting
paths, so each side's sets are ranked in sorted order and a prefix shared
with the previous set is eliminated once. The exponential (|D|, lex) subset
scan runs only on inconclusive problems, to find the minimal witness, and
only it is capped at 24 points. It carries each later point's residual
against the chosen prefix's span, so a candidate's rank increments are read
off without any elimination, a child reads its own off its parent's
residuals, and only a node that goes deeper pays one fraction-free step per
later residual.

The engine never claims smoothability: a trivial kernel is the only
obstructed outcome, everything else is inconclusive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import IntEchelon, QMatrix, RatLike, integer, integerize, primitive, rat_vector

MAX_SUBSET_POINTS = 24


class ObstructionError(ValueError):
    pass


class TooManyPoints(ObstructionError):
    """The witness search is capped at 24 points (2^24 subsets worst case).

    Raised only for an inconclusive subset test; an obstructed verdict needs
    no witness and is returned for any number of points.
    """


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
        genus, ambient_dim = integer(genus), integer(ambient_dim)
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
    return QMatrix(
        [
            [p.delta[a] * p.deriv[b] for p in problem.points]
            for a in range(problem.genus)
            for b in range(problem.ambient_dim)
        ]
    )


def theorem_check(problem: ObstructionProblem) -> TheoremVerdict:
    """Injectivity verdict: obstructed iff the matrix has full column rank.

    Row (a, b) is eliminated as the elementwise product of the integerized
    covector row (delta_1[a], ..., delta_n[a]) and the integerized
    derivative row b. It is a positive multiple of ``obstruction_matrix``
    row a*N + b, so the rank and the reduced-row-echelon kernel are the
    matrix's. Only the first kernel vector is back-substituted: it
    is the witness the report shows.
    """
    points = problem.points
    deltas = [integerize([p.delta[a] for p in points]) for a in range(problem.genus)]
    derivs = [integerize([p.deriv[b] for p in points]) for b in range(problem.ambient_dim)]
    echelon = IntEchelon.of(tuple(map(mul, d, v)) for d in deltas for v in derivs)
    if echelon.rank == problem.n_points:
        return TheoremVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, echelon.rank, None)
    f = next((i for i, p in enumerate(echelon.pivots) if p != i), echelon.rank)
    v = echelon.kernel_vector(f, problem.n_points)
    return TheoremVerdict(Verdict.INCONCLUSIVE, echelon.rank, tuple(Fraction(x, v[f]) for x in v))


def subset_ranks(problem: ObstructionProblem, subset: Sequence[int]) -> tuple[int, int]:
    """(rank of deriv columns, rank of delta columns) over the given nonempty indices."""
    points = [problem.points[i] for i in subset]
    if not points:
        raise ValueError("need at least one column")
    return (
        IntEchelon.of(integerize(p.deriv) for p in points).rank,
        IntEchelon.of(integerize(p.delta) for p in points).rank,
    )


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

    Each node holds, per side, every later point's residual against the
    span of the chosen columns, or None when the point lies in that span,
    so a candidate raises a side's rank exactly when its residual is not
    None and the prune reads no column. A child reads that off its
    parent's residuals before it builds its own: with w the residual of
    the point just chosen, a later point joins the span exactly when its
    parent residual r is None, w or -w. Every residual is zero at the
    coordinates cleared before it, where the chosen columns' span has no
    nonzero vector, so r is in the span with w added only as a multiple of
    w; both are primitive (roots come from ``integerize``, each reduction
    is made primitive), so that multiple is 1 or -1. Residuals are lists
    throughout, as a list never equals a tuple. A node builds its own
    residuals once, before its first recursion, so a node that prunes
    every candidate or fills the last slot builds none. The build drops
    every residual equal to w or -w and clears w's pivot p from any other
    with one fraction-free step of a one-row ``IntEchelon``, made
    primitive; the result is nonzero, as the residual is not parallel to w.
    """

    def grown(residuals: list, start: int, w: Optional[list], neg: Optional[list]) -> list:
        if w is None:
            return residuals
        p = next(k for k, x in enumerate(w) if x)
        row = IntEchelon([w if w[p] > 0 else neg], [p])
        out = residuals[:start]  # never read again; they keep the later indices
        for r in residuals[start:]:
            if r is not None and r[p]:
                r = None if r == w or r == neg else primitive(row.reduced(r))
            out.append(r)
        return out

    def recurse(start: int, chosen: tuple[int, ...], rank: int, rv: list, re: list):
        # rv and re are the parent's residuals; the point just chosen is start - 1
        wv, we = (rv[start - 1], re[start - 1]) if chosen else (None, None)
        nv = None if wv is None else [-x for x in wv]
        ne = None if we is None else [-x for x in we]
        slots = size - len(chosen)
        own = None
        for i in range(start, n - slots + 1):
            r, s = rv[i], re[i]
            grown_rank = (
                rank
                + (r is not None and r != wv and r != nv)
                + (s is not None and s != we and s != ne)
            )
            if grown_rank > size:
                continue
            if slots == 1:
                return chosen + (i,)
            if own is None:
                own = grown(rv, start, wv, nv), grown(re, start, we, ne)
            found = recurse(i + 1, chosen + (i,), grown_rank, *own)
            if found is not None:
                return found
        return None

    def roots(cols: Sequence[tuple[int, ...]]) -> list:
        return [list(c) if any(c) else None for c in cols]

    return recurse(0, (), 0, roots(vcols), roots(ecols))


def _minimal_witness(
    vcols: Sequence[tuple[int, ...]], ecols: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """The (|D|, lex)-minimal passing subset of a problem known to have one.

    All nonempty subsets are covered, smallest cardinality first; within a
    cardinality class the scan is lexicographic and stops at the first
    witness.
    """
    n = len(vcols)
    if n > MAX_SUBSET_POINTS:
        raise TooManyPoints(f"{n} attachment points exceed the cap of {MAX_SUBSET_POINTS}")
    for size in range(1, n + 1):
        witness = _first_witness_of_size(size, n, vcols, ecols)
        if witness is not None:
            return witness
    raise AssertionError("matroid partition and subset scan disagree on the verdict; this is a bug")


class _Circuits:
    """Fundamental circuits of one independent set of columns.

    One echelon holds each member's column followed by its unit tag e_i.
    Reducing a query's tagged column clears the column part exactly when
    the query lies in the members' span; the tag part then holds the
    query's unique dependency on the members, whose support is the
    fundamental circuit.
    """

    def __init__(self, cols: Sequence[tuple[int, ...]], members: Sequence[int]):
        self.cols = cols
        self.width = len(cols[0])
        self.echelon = IntEchelon()
        for i in members:
            self.add(i)

    def _tagged(self, i: int) -> tuple[int, ...]:
        tag = [0] * len(self.cols)
        tag[i] = 1
        return self.cols[i] + tuple(tag)

    def add(self, i: int):
        self.echelon = self.echelon.inserted(self._tagged(i))

    def circuit(self, x: int) -> Optional[list[int]]:
        """None when x is independent of the members; else the members x's circuit holds."""
        v = self.echelon.reduced(self._tagged(x))
        if any(v[: self.width]):
            return None
        return [i for i, c in enumerate(v[self.width :]) if c and i != x]


def _augmenting_path(source: int, side: Sequence[int], reach) -> Optional[list[tuple[int, int]]]:
    """Shortest augmenting path from ``source`` in the exchange graph.

    ``side[x]`` is 0 (independent in M_V) or 1 (in M_E) for a placed point
    and -1 for an unplaced one, which may enter either side; a placed point
    may only move to the other side. ``reach(x, k)`` is None when x can
    enter side k outright, else the members of side k that x would
    displace. The path comes back as (point, side it enters) pairs; a
    shortest path has no shortcut, so moving every point on it keeps both
    sides independent (Edmonds' matroid partition, Cunningham 1986).
    """
    parent = {source: None}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for k in (0, 1) if side[x] < 0 else (1 - side[x],):
            displaced = reach(x, k)
            if displaced is None:
                path = [(x, k)]
                while parent[x] is not None:
                    x, k = parent[x]
                    path.append((x, k))
                return path
            for y in displaced:
                if y not in parent:
                    parent[y] = (x, k)
                    queue.append(y)
    return None


def _partition(vcols, ecols) -> Optional[tuple[list[int], list[_Circuits]]]:
    """A split of all points into an M_V- and an M_E-independent set.

    Points are placed in index order, greedily when possible and otherwise
    along a shortest augmenting path. Returns each point's side and the
    circuit oracle of each side, or None when some point cannot be placed,
    which means some subset D has rank_V(D) + rank_E(D) < |D|.
    """
    cols = (vcols, ecols)
    n = len(vcols)
    side = [-1] * n
    spans = [_Circuits(cols[k], []) for k in (0, 1)]
    for s in range(n):
        path = _augmenting_path(s, side, lambda x, k: spans[k].circuit(x))
        if path is None:
            return None
        for x, k in path:
            side[x] = k
        if len(path) == 1:
            spans[path[0][1]].add(s)
        else:
            spans = [_Circuits(cols[k], [i for i in range(n) if side[i] == k]) for k in (0, 1)]
    return side, spans


def _split_with_copy(e: int, side: Sequence[int], displaced: Sequence[Optional[list[int]]]):
    """Split of S + e' for e' a parallel copy of e, or None if there is none.

    ``side`` partitions S and ``displaced[x]`` is x's exchange-graph edge
    list on the side it is not on. The copy e' has e's edges there; its
    edge e' -> e on e's own side is left out, as e' -> e -> y is never
    shorter than e' -> y. With e' read as e, returns (A, B) with A
    independent in M_V, B in M_E, A | B = S and e in both.
    """
    n = len(side)
    moved = list(side) + [side[e]]  # e' starts on e's side, so it may only cross over
    path = _augmenting_path(n, moved, lambda x, k: displaced[e if x == n else x])
    if path is None:
        return None
    for x, k in path:
        moved[x] = k
    return tuple(
        tuple(i for i in range(n) if moved[i] == k or (i == e and moved[n] == k)) for k in (0, 1)
    )


def _obstruction_splits(vcols, ecols) -> Optional[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """One split per point proving the obstructed verdict, or None if it fails.

    For every e, S + e' splits into an M_V- and an M_E-independent set
    exactly when rank_V(D) + rank_E(D) > |D| for every D containing e. The
    exchange graph of the split of S is built once, one fundamental circuit
    per point, and each e costs one breadth-first search on it.
    """
    partition = _partition(vcols, ecols)
    if partition is None:
        return None
    side, spans = partition
    displaced = [spans[1 - k].circuit(x) for x, k in enumerate(side)]
    splits = []
    for e in range(len(side)):
        split = _split_with_copy(e, side, displaced)
        if split is None:
            return None
        splits.append(split)
    return splits


def _check_splits(vcols, ecols, splits):
    """Raise unless every point e has a split (A, B) with A | B = S, e in
    both, and A and B independent by exact rank.

    Each side's sets are walked in lexicographic order on a stack of
    echelons, one per element of the current set, so a prefix shared with
    the previous set is eliminated only once.
    """
    n = len(vcols)
    if len(splits) != n:
        raise AssertionError(f"matroid partition gave {len(splits)} splits for {n} points; this is a bug")

    def fail(e):
        raise AssertionError(
            f"matroid partition split for point {e} fails its exact rank check; this is a bug"
        )

    everything = set(range(n))
    for e, (a, b) in enumerate(splits):
        if not (e in a and e in b and set(a) | set(b) == everything):
            fail(e)
    for k, cols in enumerate((vcols, ecols)):
        stack, previous = [IntEchelon()], ()
        for e in sorted(range(n), key=lambda x: splits[x][k]):
            members = splits[e][k]
            common = 0
            while common < min(len(members), len(previous)) and members[common] == previous[common]:
                common += 1
            del stack[common + 1 :]
            for i in members[common:]:
                stack.append(stack[-1].inserted(cols[i]))
            if stack[-1].rank != len(members):
                fail(e)
            previous = members


def corollary_check(problem: ObstructionProblem) -> CorollaryVerdict:
    """Subset rank test: obstructed iff no nonempty D has rank_V(D) + rank_E(D) <= |D|.

    The verdict comes from matroid partition. With f(D) = rank_V(D) +
    rank_E(D) - |D|, f(S) <= 0 makes the full set S pass; as the ranks
    are at most N and g, that holds whenever n >= g + N. Otherwise one
    split (A, B) of S per point e, with A independent in M_V, B in M_E,
    A | B = S and e in both, gives f(D) >= |D & A| + |D & B| - |D| =
    |D & A & B| >= 1 for every D containing e. Each split is checked with
    two exact ranks before the obstructed verdict is returned. An
    inconclusive verdict is reported with the (|D|, lex)-minimal witness
    from the subset scan, which alone is capped at 24 points.
    """
    n = problem.n_points
    vcols = [integerize(p.deriv) for p in problem.points]
    ecols = [integerize(p.delta) for p in problem.points]
    if n < problem.genus + problem.ambient_dim and (
        IntEchelon.of(vcols).rank + IntEchelon.of(ecols).rank > n
    ):
        splits = _obstruction_splits(vcols, ecols)
        if splits is not None:
            _check_splits(vcols, ecols, splits)
            return CorollaryVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, None)
    return CorollaryVerdict(Verdict.INCONCLUSIVE, _minimal_witness(vcols, ecols))


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
