"""Ghost-curve models and their evaluation covectors.

Each model fixes a basis of the global sections of its dualizing sheaf and a
local coordinate at every admissible point, and produces, through
``ev_vector``, the vector of basis sections evaluated at one point against
that coordinate. The models evaluate one point at a time; the rank of
several points is taken by their callers. Conventions:

- hyperelliptic y^2 = f(x), genus g: basis x^(a-1) dx / y for a = 1..g,
  coordinate x - x0 at a point (x0, y0) with y0 != 0;
- nodal rational (a line glued at g pairs of points): basis
  eta_j = (1/(x - a_j) - 1/(x - b_j)) dx, coordinate x - p at a parameter p
  away from the glued points (residues +1 at a_j, -1 at b_j);
- raw: the n columns of a stored genus x n matrix of evaluation vectors,
  points are column indices.

Verdicts downstream are invariant under these choices: rescaling the
coordinate at a point by s only divides its covector by s, which changes no
rank. So the coordinates are fixed, with no scale parameter, and fixtures and
reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact import RatLike, integer, integerize, primitive, rat, rat_grid, rat_vector


class CurveModelError(ValueError):
    """Invalid model data or inadmissible point."""


class PointNotOnCurve(CurveModelError):
    pass


class WeierstrassPoint(CurveModelError):
    """y = 0 on a hyperelliptic model; the fixed chart cannot evaluate there."""


class PointAtNode(CurveModelError):
    pass


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def is_squarefree(coeffs: Sequence[Fraction]) -> bool:
    """gcd(f, f') is a nonzero constant.

    Decided over the integers by the primitive polynomial remainder sequence
    (Collins 1967) of f and f': each pseudo-remainder is made primitive. By
    Gauss's lemma gcd(f, f') has positive degree over Q exactly when the
    sequence ends in a nonconstant polynomial.
    """
    a = list(integerize(rat_vector(coeffs)))
    while a and a[-1] == 0:
        a.pop()
    if len(a) < 2:
        return False
    b = primitive([i * c for i, c in enumerate(a)][1:])
    while len(b) > 1:
        lead = b[-1]
        while len(a) >= len(b):
            s = len(a) - len(b)
            top = a.pop()
            a = [lead * c for c in a[:s]] + [lead * c - top * d for c, d in zip(a[s:], b)]
            while a and a[-1] == 0:
                a.pop()
        if not a:
            return False
        a, b = b, primitive(a)
    return True


@dataclass(frozen=True)
class HyperellipticModel:
    """Smooth hyperelliptic curve y^2 = f(x) of genus g >= 1.

    ``f_coeffs[i]`` multiplies x^i; deg f must be 2g+1 or 2g+2 and f must be
    squarefree. Points are (x0, y0) pairs on the affine chart with y0 != 0.
    """

    genus: int
    f_coeffs: tuple[Fraction, ...]

    def __init__(self, genus: int, f_coeffs: Sequence[RatLike]):
        genus, coeffs = integer(genus), rat_vector(f_coeffs)
        if genus < 1:
            raise CurveModelError("ghost models need genus >= 1")
        if not coeffs or coeffs[-1] == 0:
            raise CurveModelError("leading coefficient of f must be nonzero")
        degree = len(coeffs) - 1
        if degree not in (2 * genus + 1, 2 * genus + 2):
            raise CurveModelError(
                f"deg f = {degree} incompatible with genus {genus} (need 2g+1 or 2g+2)"
            )
        if not is_squarefree(coeffs):
            raise CurveModelError("f must be squarefree")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "f_coeffs", coeffs)

    def f_at(self, x: RatLike) -> Fraction:
        return _poly_eval(self.f_coeffs, rat(x))

    def validate_point(self, point: Sequence[RatLike]) -> tuple[Fraction, Fraction]:
        x0, y0 = rat(point[0]), rat(point[1])
        if y0 * y0 != self.f_at(x0):
            raise PointNotOnCurve(f"({x0}, {y0}) does not satisfy y^2 = f(x)")
        if y0 == 0:
            raise WeierstrassPoint(f"x = {x0} is a branch point; evaluation needs y != 0")
        return x0, y0

    def ev_vector(self, point: Sequence[RatLike]) -> tuple[Fraction, ...]:
        """(w_1(p), ..., w_g(p)) against the coordinate x - x0: the basis
        section x^(a-1) dx / y evaluates to x0^(a-1) / y0."""
        x0, y0 = self.validate_point(point)
        return tuple(x0 ** (a - 1) / y0 for a in range(1, self.genus + 1))


@dataclass(frozen=True)
class NodalRationalModel:
    """Irreducible nodal curve of arithmetic genus g: a line glued at g pairs.

    Sections of the dualizing sheaf are differentials on the line with simple
    poles at the pair (a_j, b_j) and opposite residues; the basis eta_j has
    residue +1 at a_j and -1 at b_j. Points and nodes live on one affine
    chart (the point at infinity is excluded).
    """

    genus: int
    node_pairs: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, genus: int, node_pairs: Sequence[Sequence[RatLike]]):
        genus = integer(genus)
        if genus < 1:
            raise CurveModelError("ghost models need genus >= 1")
        pairs = tuple((rat(a), rat(b)) for a, b in node_pairs)
        if len(pairs) != genus:
            raise CurveModelError(f"genus {genus} needs exactly {genus} node pairs")
        flat = [v for pair in pairs for v in pair]
        if len(set(flat)) != len(flat):
            raise CurveModelError("node parameters must be pairwise distinct")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "node_pairs", pairs)

    def validate_point(self, p: RatLike) -> Fraction:
        value = rat(p)
        for a, b in self.node_pairs:
            if value == a or value == b:
                raise PointAtNode(f"parameter {value} is a node preimage")
        return value

    def ev_vector(self, p: RatLike) -> tuple[Fraction, ...]:
        value = self.validate_point(p)
        return tuple(1 / (value - a) - 1 / (value - b) for a, b in self.node_pairs)


@dataclass(frozen=True)
class RawEvaluationModel:
    """Direct carrier of a genus x n evaluation matrix, held as its n columns;
    points are column indices."""

    genus: int
    columns: tuple[tuple[Fraction, ...], ...]

    def __init__(self, genus: int, rows: Sequence[Sequence[RatLike]]):
        genus, grid = integer(genus), rat_grid(rows)
        if genus < 1:
            raise CurveModelError("ghost models need genus >= 1")
        if len(grid) != genus:
            raise CurveModelError(f"evaluation matrix has {len(grid)} rows, expected genus {genus}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "columns", tuple(zip(*grid)))

    def ev_vector(self, index: int) -> tuple[Fraction, ...]:
        if not 0 <= index < len(self.columns):
            raise CurveModelError(f"point index {index} out of range")
        return self.columns[index]


GhostCurveModel = Union[HyperellipticModel, NodalRationalModel, RawEvaluationModel]
