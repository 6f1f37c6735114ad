"""Symbolic local model of a smoothing family near one ghost attachment node.

The surface xy = t^m is resolved by a chain of m-1 rational curves. We work
in m monomial charts indexed j = 0..m-1:

    x = z^(j+1) w^j,   y = z^(m-1-j) w^(m-j),   t = z w.

The expansion never builds them; ``selftest`` holds them and checks their
algebra.

The central fiber t = 0 is a reduced chain

    E_0 -- E_1 -- ... -- E_{m-1} -- E_m

where E_0 is the effective branch (the strict transform of {y = t = 0}) and
E_m is the ghost branch (the strict transform of {x = t = 0}, written
C_tilde). The curve E_j is {w = 0} in chart j and {z = 0} in chart j-1; the
node p_l = E_{l-1} cap E_l is the origin of chart l-1, with coordinates
x_l = z (along E_{l-1}) and y_l = w (along E_l) satisfying x_l y_l = t.

Given a function G(x, y, t) vanishing on the ghost side of the fiber,
``expand_ghost`` peels the expansion

    G = a_0 + a_1 t + ... + a_{m-1} t^(m-1) + t^m G_m,

restricting each G_l to the sub-chain E_l ... E_m (C_tilde standing in for
E_m). An expansion records what its report shows: per level the constant,
and per component the pole order and residue at its near node. The
restrictions themselves are built on demand, one coordinate at a time, by
``restriction``: for the message of a NonConstantLevel stop and for the
selftest, never for a report.

In chart j-1 the term x^a y^b t^c is the single monomial z^d w^(d + b - a)
with d = a*j + b*(m-j) + c, and t = zw, so the term restricts to E_j at
level d, as coeff * w^(b - a), and nowhere else. The input rules (checked by
``_validate_input``: no mixed xy terms, no negative exponents, and
G(x=0, t=0) = 0, so every term without x carries t) leave four rules for
level l:

- x^a t^c lands at d = a*j + c > j unless it is x itself, so x is the only
  such term a level sees: as w^-1 on E_l, a simple pole at the node p_l
  with residue the x-coefficient;
- t^l is the constant a_l on the whole sub-chain;
- y^b t^c shows first on C_tilde at level c, as w^b, so the first c < m
  stops the expansion with NonConstantLevel(c + 1, "C_tilde", ...) before
  the term can reach any E_j;
- no other term reaches any level.

So a completed expansion has simple poles with the prescribed residue by
construction; the selftest checks every ``restriction``, pole order,
residue and constant against chart-by-chart substitution. Constancy of G_l
on the deeper sub-chain is a global property of the compact ghost curve;
the affine model raises NonConstantLevel when the input does not extend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .laurent import LaurentPoly

XYT = ("x", "y", "t")
W = ("w",)
ZERO = Fraction(0)


class LocalModelError(ValueError):
    pass


class GhostVanishingViolated(LocalModelError):
    """Input does not vanish on the ghost branch {x = 0, t = 0}."""


class NonConstantLevel(LocalModelError):
    """A level restriction is not constant, so no further constant can be split off.

    Carries the level at which the split failed, the offending component,
    and the levels completed before the failure.
    """

    def __init__(self, level: int, component: str, detail: str, levels_completed=()):
        super().__init__(f"level {level}: restriction to {component} is not constant ({detail})")
        self.level = level
        self.component = component
        self.levels_completed = tuple(levels_completed)


@dataclass(frozen=True)
class ComponentRecord:
    """One chain component of a level: the pole order and residue, coordinate
    by coordinate, of the level function at the component's near node."""

    name: str
    pole_order: int
    residue: tuple[Fraction, ...]


@dataclass(frozen=True)
class ExpansionLevel:
    level: int
    constant: tuple[Fraction, ...]
    components: tuple[ComponentRecord, ...]


@dataclass(frozen=True)
class GhostExpansion:
    m: int
    levels: tuple[ExpansionLevel, ...]


def _validate_input(components: Sequence[LaurentPoly]):
    for idx, g in enumerate(components):
        if g.variables != XYT:
            raise LocalModelError(
                f"component {idx}: expected variables {XYT}, got {g.variables}"
            )
        for (ex, ey, et) in g.terms:
            if ex < 0 or ey < 0 or et < 0:
                raise LocalModelError(f"component {idx}: negative exponent in input")
            if ex > 0 and ey > 0:
                raise LocalModelError(
                    f"component {idx}: term with both x and y; apply the xy -> t^m normal form first"
                )
        for (ex, ey, et) in g.terms:
            if ex == 0 and et == 0:
                raise GhostVanishingViolated(
                    f"component {idx}: G(x=0, t=0) = 0 fails (term with y-exponent {ey})"
                )


def expand_ghost(ghost_map: Iterable[LaurentPoly], m: int) -> GhostExpansion:
    """Peel the order-by-order expansion of G along the resolved chain.

    ``ghost_map`` is one polynomial in (x, y, t) per target coordinate, in
    any iterable (read once), with nonnegative exponents, no mixed xy terms,
    and vanishing on the ghost branch.
    Level l records, for every component of the sub-chain E_l ... E_m, the
    pole order and residue at its near node, and the constant split off to
    form G_l. The four rules of the module docstring give them from three
    readings of the terms: the residues are the x-coefficients, the
    constant of level l is the t^(l-1) coefficient, and the first y^b t^c
    with c < m stops the expansion. ``restriction`` gives the level
    functions themselves.
    """
    ghost_map = tuple(ghost_map)
    if m < 1:
        raise LocalModelError("m must be >= 1")
    if not ghost_map:
        raise LocalModelError("ghost map needs at least one coordinate")
    _validate_input(ghost_map)
    residues = effective_branch_derivative(ghost_map)
    zeros = tuple(ZERO for _ in ghost_map)
    # the expansion stops at the first c < m with a term y^b t^c, b > 0, in coordinate k
    stop, k = min(
        ((c, k) for k, g in enumerate(ghost_map) for (_, b, c) in g.terms if b and c < m),
        default=(m, 0),
    )
    # E_l carries the node p_l and the pole of x; every other component is regular
    names = [f"E_{j}" for j in range(1, m)] + ["C_tilde"]
    nodes = [ComponentRecord(name, int(any(residues)), residues) for name in names]
    regular = [ComponentRecord(name, 0, zeros) for name in names]
    # level l splits off a_(l-1), and a_0 = 0: G vanishes at the first node
    levels = tuple(
        ExpansionLevel(
            level=level,
            constant=tuple(g.coefficient((0, 0, level - 1)) for g in ghost_map),
            components=(nodes[level - 1], *regular[level:]),
        )
        for level in range(1, stop + 1)
    )
    if stop < m:
        raise NonConstantLevel(
            stop + 1,
            "C_tilde",
            f"coordinate {k} restricts to {restriction(ghost_map[k], m, stop, m)!r}",
            levels_completed=levels,
        )
    return GhostExpansion(m=m, levels=levels)


def restriction(g: LaurentPoly, m: int, level: int, j: int) -> LaurentPoly:
    """The level function G_level of one coordinate restricted to chain
    component j (E_j, or C_tilde for j = m), in w, for a level the expansion
    completes and level <= j <= m: the four rules of the module docstring."""
    if not 1 <= level <= j <= m:
        raise LocalModelError(f"component {j} is not on the level-{level} sub-chain for m = {m}")
    terms = {(0,): g.coefficient((0, 0, level))}  # t^level
    if j == level:
        terms[(-1,)] = g.coefficient((1, 0, 0))  # x
    if j == m:  # y^b t^level
        terms.update(((b,), coeff) for (a, b, c), coeff in g.terms.items() if a == 0 and c == level)
    return LaurentPoly(W, terms)


def effective_branch_derivative(ghost_map: Sequence[LaurentPoly]) -> tuple[Fraction, ...]:
    """x-linear coefficient of G(x, 0, 0): the derivative of G along the
    effective branch at the first node."""
    return tuple(g.coefficient((1, 0, 0)) for g in ghost_map)


@dataclass(frozen=True)
class ResidueReport:
    m: int
    expected_residue: tuple[Fraction, ...]
    expansion: GhostExpansion

    @property
    def passed(self) -> bool:
        """Always true: the four rules build every level with the expected residue."""
        return True


def verify_residue_theorem(ghost_map: Iterable[LaurentPoly], m: int) -> ResidueReport:
    """Expand G along the chain, next to the residue each level must carry.

    The expansion has at worst a simple pole per level, at its own node,
    with residue the x-linear coefficient of G(x, 0, 0) coordinate by
    coordinate: the four rules build it that way.
    """
    ghost_map = tuple(ghost_map)
    expansion = expand_ghost(ghost_map, m)
    return ResidueReport(m=m, expected_residue=effective_branch_derivative(ghost_map), expansion=expansion)
