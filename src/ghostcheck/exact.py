"""Exact rational arithmetic, dense rational matrices and their one eliminator.

No operation mutates a value it is given. No floating point appears
anywhere in this package: the verdicts downstream are rank conditions, and
a single rounding error would flip them.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator, structural equality), serialized as ``"a/b"`` or ``"a"``.
``rat_grid`` reads a rational matrix for ``QMatrix`` and the raw curve
model alike.

One fraction-free integer echelon, ``IntEchelon``, does every elimination,
and ``IntEchelon.of`` is the one routine that inserts vectors until the
rank is full. Once a vector proves dependent at half rank or more, it
holds the echelon's integer kernel basis and skips, without reducing them,
the vectors orthogonal to it, which are exactly those already in the span.
``QMatrix.rank`` and ``QMatrix.kernel_basis`` call it on the rows scaled to
integers, ``ghostcheck.obstruction`` on the theorem's integer rows and on
integerized columns, and ``ghostcheck.factory`` on integerized columns. The
split certificates share one ``IntEchelon.inserted`` per distinct prefix of
their sorted sides, the subset scan carries each later point's residual,
drops one equal to plus or minus the chosen point's residual (both are
primitive, so that is exactly when it joins the span) and clears one
coordinate of any other with ``IntEchelon.reduced`` on a one-row echelon,
and the matroid partition reads fundamental circuits off
``IntEchelon.reduced``. ``primitive`` is the one content removal, shared by
``integerize``, ``inserted``, the kernel vectors, the scan's residuals and
the pseudo-remainders of ``ghostcheck.curves.is_squarefree``.
``IntEchelon.kernel_vector`` is the one back-substitution, fraction-free as
well. No ``Fraction`` is divided during elimination; a kernel vector returns
to the rationals only when it is divided by its free coordinate.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)  # int reads any Unicode digit


def rat(value: RatLike) -> Fraction:
    """Coerce an int, a string like ``"a/b"`` or ``"a"``, or a Fraction.

    Floats and bools are rejected with ``TypeError``, a zero denominator with
    ``ValueError``: exactness is a hard requirement.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RAT_RE.match(value.strip())
        if not match:
            raise ValueError(f"not a rational literal: {value!r}")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def integer(value) -> int:
    """Accept a Python int only; bools, floats and strings raise ``TypeError``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {type(value).__name__} {value!r}")


def rat_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"a/b"`` in lowest terms, ``"a"`` when b = 1."""
    return str(value)


def rat_vector(values: Iterable[RatLike]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def primitive(vec: list[int]) -> list[int]:
    """``vec`` divided by the gcd of its entries; a zero vector comes back as is."""
    g = gcd(*vec)
    return vec if g <= 1 else [x // g for x in vec]


def integerize(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same line)."""
    scale = lcm(*(v.denominator for v in vec))
    return tuple(primitive([v.numerator * (scale // v.denominator) for v in vec]))


class IntEchelon:
    """Incremental fraction-free row echelon over the integers.

    Rows are primitive integer vectors sorted by pivot position; each row's
    first nonzero entry is its pivot, and it is positive. Reducing an incoming
    vector in ascending pivot order never reintroduces cleared coordinates.
    ``inserted`` leaves the echelon it is called on unchanged, so the split
    certificates can branch from a shared prefix.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: list | None = None, pivots: list | None = None):
        """Empty, or over ``rows`` and their ``pivots``, which it keeps as given."""
        self.rows = [] if rows is None else rows
        self.pivots = [] if pivots is None else pivots

    @classmethod
    def of(cls, vectors: Iterable[Sequence[int]]) -> "IntEchelon":
        """Echelon of ``vectors``, inserted in order.

        Insertion stops once the rank equals the vectors' length: no later
        vector can change a full-rank span, so the rest are never read.
        Once a vector turns out dependent at half rank or more, the
        echelon's integer kernel basis is held until the next independent
        vector, and every vector orthogonal to all of it is skipped: over Q
        the row space is the kernel's orthogonal complement, so those are
        exactly the vectors ``inserted`` would return the echelon unchanged
        for. From half rank on, ``width - rank`` dot products cost less
        than ``rank`` reduction steps.
        """
        echelon = cls()
        kernel = None
        for vec in vectors:
            if kernel is not None and not any(sum(map(mul, vec, k)) for k in kernel):
                continue
            grown = echelon.inserted(vec)
            width = len(vec)
            if grown.rank == width:
                return grown
            if grown is not echelon:
                echelon, kernel = grown, None
            elif kernel is None and 2 * echelon.rank >= width:
                pivots = set(echelon.pivots)
                kernel = [echelon.kernel_vector(f, width) for f in range(width) if f not in pivots]
        return echelon

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduced(self, vec: Sequence[int]) -> list[int]:
        """``vec`` with every pivot coordinate cleared by fraction-free row steps.

        The result is a nonzero multiple of ``vec`` minus an integer
        combination of the rows; it is zero exactly when ``vec`` lies in
        their span.
        """
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = v[p], row[p]
                v = [x * b - y * a for x, y in zip(v, row)]
        return v

    def inserted(self, vec: tuple[int, ...]) -> "IntEchelon":
        v = self.reduced(vec)
        if not any(v):
            return self
        v = primitive(v)
        pivot = next(i for i, x in enumerate(v) if x)
        if v[pivot] < 0:
            v = [-x for x in v]
        pos = bisect_left(self.pivots, pivot)
        return IntEchelon(
            self.rows[:pos] + [tuple(v)] + self.rows[pos:],
            self.pivots[:pos] + [pivot] + self.pivots[pos:],
        )

    def kernel_vector(self, f: int, width: int) -> list[int]:
        """Primitive integer kernel vector of the rows for the free column ``f``.

        ``v[f]`` is positive, the other free columns are 0, and every row's
        dot product with ``v`` is 0, so ``v / v[f]`` is the kernel vector
        read off the reduced row echelon form. Rows with a pivot right of
        ``f`` force their pivot coordinates to 0; the rows left of it are
        solved bottom-up without division: each step scales the solution so
        far by the row's pivot over its gcd with the rest of the row's sum,
        just enough for the new coordinate to be an integer.
        """
        k = bisect_left(self.pivots, f)
        v = [0] * width
        v[f] = 1
        for i in reversed(range(k)):
            row, p = self.rows[i], self.pivots[i]
            acc = sum(row[c] * v[c] for c in self.pivots[i + 1 : k]) + row[f] * v[f]
            g = gcd(acc, row[p])
            scale = row[p] // g
            if scale > 1:
                v = [x * scale for x in v]
            v[p] = -(acc // g)
        return primitive(v)


def rat_grid(entries: Iterable[Iterable[RatLike]]) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of exact rationals, at least one of them, all of one nonzero width.

    Every entry is converted before the shape is checked, so a malformed
    literal is reported first.
    """
    grid = tuple(rat_vector(row) for row in entries)
    if not grid or not grid[0]:
        raise ValueError("matrix needs at least one row and one column")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows in matrix input")
    return grid


class QMatrix:
    """Dense matrix over Q with exact rank and kernel.

    Both come from one ``IntEchelon`` of the rows. The kernel basis is read
    off the reduced row echelon form, which is unique, so kernel bases, and
    every report built from them, are reproducible.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RatLike]]):
        self.entries = rat_grid(entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0])

    # -- arithmetic -----------------------------------------------------

    def matvec(self, vec: Sequence[RatLike]) -> tuple[Fraction, ...]:
        v = rat_vector(vec)
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), Fraction(0)) for row in self.entries)

    # -- elimination ----------------------------------------------------

    def _echelon(self) -> IntEchelon:
        """Echelon of the row space; scaling a row keeps the rank and the kernel."""
        return IntEchelon.of(integerize(row) for row in self.entries)

    def rank(self) -> int:
        """Exact rank over Q."""
        return self._echelon().rank

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Deterministic basis of the right null space.

        One basis vector per free column, in ascending column order; the
        free coordinate is set to 1 and pivot coordinates are the negated
        reduced-row-echelon entries of that column, so ``self.matvec(v)`` is
        exactly zero. Each is ``IntEchelon.kernel_vector`` divided by its
        free coordinate.
        """
        echelon = self._echelon()
        pivots = set(echelon.pivots)
        basis = []
        for f in range(self.cols):
            if f not in pivots:
                v = echelon.kernel_vector(f, self.cols)
                basis.append(tuple(Fraction(x, v[f]) for x in v))
        return basis
