"""Instance construction: dimension counts, the line-star example family,
and seeded random problems for property testing.

Line-star point groups are written down in closed form, never searched
for: each model's groups have full evaluation rank by a lemma stated where
they are built, and ``build_line_star_instance`` checks that rank once per
group with ``IntEchelon.of``, raising ``AssertionError`` (a bug) if it
fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curves import HyperellipticModel, NodalRationalModel, is_squarefree
from .exact import IntEchelon, integer, integerize, rat_vector
from .obstruction import MAX_SUBSET_POINTS, AttachmentColumn, ObstructionProblem


class FactoryError(ValueError):
    pass


class ModelConstructionError(FactoryError):
    """Raised when no admissible point configuration was found."""


def _moduli_dim_formula(ambient_dim: int, genus: int, degree: int) -> int:
    return (ambient_dim - 3) * (1 - genus) + degree * (ambient_dim + 1)


def dim_moduli(ambient_dim: int, genus: int, degree: int) -> int:
    """Dimension of the space of maps with smooth genus-g domains, degree d,
    into projective N-space: (N-3)(1-g) + d(N+1). Needs d >= 2g-1 so the
    deformations are unobstructed."""
    if ambient_dim < 1 or genus < 1 or degree < 1:
        raise FactoryError("need N, g, d >= 1")
    if degree < 2 * genus - 1:
        raise FactoryError(f"need d >= 2g-1 (got d = {degree}, g = {genus})")
    return _moduli_dim_formula(ambient_dim, genus, degree)


@dataclass(frozen=True)
class StratumSpec:
    """One boundary stratum: a genus-h ghost curve with n attached effective
    pieces of genera g_i and degrees d_i (d_i >= 2 g_i)."""

    ambient_dim: int
    ghost_genus: int
    parts: tuple[tuple[int, int], ...]

    def __init__(self, ambient_dim: int, ghost_genus: int, parts: Sequence[Sequence[int]]):
        ambient_dim, ghost_genus = integer(ambient_dim), integer(ghost_genus)
        pts = tuple((integer(g), integer(d)) for g, d in parts)
        if ambient_dim < 1:
            raise FactoryError("ambient dimension must be >= 1")
        if ghost_genus < 1:
            raise FactoryError("ghost genus must be >= 1")
        if not pts:
            raise FactoryError("need at least one attached part")
        for g_i, d_i in pts:
            if g_i < 0 or d_i < 1:
                raise FactoryError("parts need g_i >= 0 and d_i >= 1")
            if d_i < 2 * g_i:
                raise FactoryError(f"part (g={g_i}, d={d_i}) violates d_i >= 2 g_i")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "ghost_genus", ghost_genus)
        object.__setattr__(self, "parts", pts)
        if self.degree < 2 * self.genus - 1:
            raise FactoryError(
                f"total degree {self.degree} violates d >= 2g-1 for total genus {self.genus}"
            )

    @property
    def n_points(self) -> int:
        return len(self.parts)

    @property
    def genus(self) -> int:
        return self.ghost_genus + sum(g for g, _ in self.parts)

    @property
    def degree(self) -> int:
        return sum(d for _, d in self.parts)


def dim_stratum(spec: StratumSpec) -> int:
    """Dimension of the stratum, by the explicit sum

        3h - 3 + n - N(n-1) + sum_i ((N-3)(1-g_i) + d_i(N+1) + 1),

    the same polynomial as the closed form (moduli dimension) + N h - n;
    the selftest and tests/test_factory.py compare the two.
    """
    big_n, h, n = spec.ambient_dim, spec.ghost_genus, spec.n_points
    total = 3 * h - 3 + n - big_n * (n - 1)
    for g_i, d_i in spec.parts:
        total += (big_n - 3) * (1 - g_i) + d_i * (big_n + 1) + 1
    return total


# -- the line-star example family --------------------------------------------


def _hyperelliptic_star_model(h: int) -> tuple[HyperellipticModel, list[int]]:
    """Genus-h curve y^2 = k^2 + prod_{j=1}^{2h+2} (x - j), which carries the
    rational points (j, +-k) for j = 1..2h+2. The constant k^2 is bumped
    through squares until f is squarefree."""
    base = [1]
    for j in range(1, 2 * h + 3):
        base = [a - j * b for a, b in zip([0] + base, base + [0])]
    for k in range(1, 50):
        coeffs = [base[0] + k * k] + base[1:]
        if is_squarefree(coeffs):
            return HyperellipticModel(h, coeffs), [k]
    raise ModelConstructionError(f"no squarefree interpolating polynomial found for h = {h}")


def _hyperelliptic_star_points(
    big_n: int, h: int
) -> tuple[HyperellipticModel, list[list[tuple[Fraction, Fraction]]]]:
    """N groups of h distinct points, each group with full evaluation rank.

    Groups 2i-1 and 2i share a block of x-values with opposite y-signs, so
    the whole collection stays pairwise distinct; the model guarantees
    rational points over x = 1..2h+2 only, which bounds ceil(N/2) blocks of
    h x-values each. A group's covectors x0^(a-1) / y0 with one y0 form a
    scaled Vandermonde matrix in h distinct x-values, so its rank is h.
    """
    blocks_needed = (big_n + 1) // 2
    if blocks_needed * h > 2 * h + 2:
        raise ModelConstructionError(
            f"N = {big_n}, h = {h}: the model guarantees rational points over "
            f"{2 * h + 2} x-values, fewer than the {blocks_needed * h} required"
        )
    model, (k,) = _hyperelliptic_star_model(h)
    groups = []
    for i in range(big_n):
        block = i // 2
        sign = 1 if i % 2 == 0 else -1
        xs = range(block * h + 1, block * h + h + 1)
        groups.append([(Fraction(x), Fraction(sign * k)) for x in xs])
    return model, groups


def _nodal_star_points(big_n: int, h: int) -> tuple[NodalRationalModel, list[list[Fraction]]]:
    """N groups of h parameters: group i is the h consecutive integers from 2h + i h.

    The nodes glue 2j to 2j+1 for j < h, so every parameter p lies past every
    node preimage. Each group has full evaluation rank: entry j of p's
    covector is 1/(p - 2j) - 1/(p - 2j - 1) = -int_{2j}^{2j+1} (p - s)^-2 ds,
    so the group's h x h determinant is, up to sign, the integral over the
    box s_j in [2j, 2j+1] of det[(p_i - s_j)^-2]. By Borchardt's identity
    (1855) that integrand is det[1/(p_i - s_j)] * per[1/(p_i - s_j)]. With
    distinct p_i, distinct s_j and every p_i > 2h - 1 >= s_j, the Cauchy
    determinant never vanishes and keeps one sign, and the permanent is
    positive, so the integral is nonzero.
    """
    model = NodalRationalModel(h, [(2 * j, 2 * j + 1) for j in range(h)])
    groups = [[Fraction(2 * h + i * h + offset) for offset in range(h)] for i in range(big_n)]
    return model, groups


def build_line_star_instance(
    big_n: int, h: int, model_kind: str = "hyperelliptic"
) -> ObstructionProblem:
    """Ghost curve of genus h attached to N concurrent lines, h points each.

    Group i of attachment points carries the i-th standard basis vector of
    the target tangent space as its derivative; every group's evaluation
    matrix has rank h, so the obstruction matrix is square of full rank
    n = N h and the injectivity test always fires. The subset rank test
    never does: the set of all points satisfies the inequality because
    N + h <= N h for N, h >= 2. That makes the witness search run on every
    star, so a star of more than ``MAX_SUBSET_POINTS`` points, which it
    could never finish, is refused.
    """
    if big_n < 2 or h < 2:
        raise FactoryError("the line-star family needs N >= 2 and h >= 2")
    if big_n * h > MAX_SUBSET_POINTS:
        raise FactoryError(
            f"a line star with N = {big_n}, h = {h} has {big_n * h} points, "
            f"over the limit {MAX_SUBSET_POINTS}"
        )
    model, groups = _line_star_geometry(big_n, h, model_kind)
    columns = []
    for i, points in enumerate(groups):
        deriv = [Fraction(0)] * big_n
        deriv[i] = Fraction(1)
        deltas = [model.ev_vector(p) for p in points]
        if IntEchelon.of(integerize(delta) for delta in deltas).rank != h:
            raise AssertionError(
                f"line-star group {i} has evaluation rank below {h}; this is a bug"
            )
        columns.extend(AttachmentColumn(delta=delta, deriv=deriv) for delta in deltas)
    return ObstructionProblem(genus=h, ambient_dim=big_n, points=columns)


def _line_star_geometry(big_n: int, h: int, model_kind: str):
    if model_kind == "hyperelliptic":
        return _hyperelliptic_star_points(big_n, h)
    if model_kind == "nodal_rational":
        return _nodal_star_points(big_n, h)
    raise FactoryError(f"unknown model kind {model_kind!r}")


def random_instance(
    seed: int, genus: int, ambient_dim: int, n_points: int, coeff_bound: int = 9
) -> ObstructionProblem:
    """Seed-deterministic problem with integer entries in [-bound, bound]."""
    if genus < 1 or ambient_dim < 1 or n_points < 1:
        raise FactoryError("need g, N, n >= 1")
    rng = random.Random(seed)
    columns = []
    for _ in range(n_points):
        delta = [rng.randint(-coeff_bound, coeff_bound) for _ in range(genus)]
        deriv = [rng.randint(-coeff_bound, coeff_bound) for _ in range(ambient_dim)]
        columns.append(AttachmentColumn(delta=rat_vector(delta), deriv=rat_vector(deriv)))
    return ObstructionProblem(genus=genus, ambient_dim=ambient_dim, points=columns)
