"""Level-by-level oracle for ``ghostcheck.localmodel.expand_ghost``.

The engine never substitutes: it files each term of G straight into its
level restriction from the exponents. This oracle keeps the direct route: it
forms ``G_l = (G_(l-1) - a_(l-1)) / t`` downstairs in (x, y, t) at every
level, pulls ``G_l`` back to the chart of every component of the sub-chain
and restricts it to the component with ``restrict_to_axis``. It raises the
engine's exceptions with the same messages, so reports can be compared whole.
Its records keep the restrictions, which the engine builds only on demand
with ``restriction``.
It also checks what the engine builds in by construction: every pole is
simple, sits at the level's own node and has the expected residue; a
violation raises this module's ``UnexpectedPole`` or ``ResidueMismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ghostcheck.laurent import LaurentPoly, restrict_to_axis
from ghostcheck.localmodel import (
    XYT,
    ExpansionLevel,
    GhostExpansion,
    LocalModelError,
    NonConstantLevel,
    ResidueReport,
    _validate_input,
    effective_branch_derivative,
)
from ghostcheck.selftest import chart


class UnexpectedPole(LocalModelError):
    """A pole of order >= 2, off the allowed node, or along a whole component."""

    def __init__(self, level: int, component: str, detail: str):
        super().__init__(f"level {level}: unexpected pole on {component} ({detail})")


class ResidueMismatch(LocalModelError):
    """A level's residue at its node differs from the x-linear coefficient of G."""


@dataclass(frozen=True)
class OracleComponent:
    """The engine's component record, with the restriction of each coordinate."""

    name: str
    restriction: tuple[LaurentPoly, ...]
    pole_order: int
    residue: tuple[Fraction, ...]


def component_names(m: int, level: int) -> list[tuple[str, int]]:
    """Components of the level-l sub-chain as (name, chain index), index m = ghost branch."""
    return [(f"E_{j}", j) for j in range(level, m)] + [("C_tilde", m)]


def oracle_expand_ghost(ghost_map: Sequence[LaurentPoly], m: int) -> GhostExpansion:
    if m < 1:
        raise LocalModelError("m must be >= 1")
    comps = list(ghost_map)
    if not comps:
        raise LocalModelError("ghost map needs at least one coordinate")
    _validate_input(comps)
    n_coords = len(comps)
    charts = [chart(m, j) for j in range(m)]
    t_inverse = LaurentPoly.monomial(XYT, (0, 0, -1))

    constants: list[tuple[Fraction, ...]] = [tuple(Fraction(0) for _ in comps)]
    levels: list[ExpansionLevel] = []
    current = [g * t_inverse for g in comps]  # G_1 = G / t (a_0 = 0)

    for level in range(1, m + 1):
        records: list[OracleComponent] = []
        for name, j in component_names(m, level):
            view = charts[j - 1]
            restrictions = []
            pole_order = 0
            residue = []
            for g in current:
                restricted, along = restrict_to_axis(view.pullback(g), "z")
                if along > 0:
                    raise UnexpectedPole(level, name, "pole along the whole component")
                order = max(0, -min((e[0] for e in restricted.terms), default=0))
                max_exp = max((e[0] for e in restricted.terms), default=0)
                if j < m and max_exp > 0:
                    raise UnexpectedPole(level, name, f"pole of order {max_exp} at the far node p_{j + 1}")
                if order > 0 and j != level:
                    raise UnexpectedPole(level, name, f"pole at p_{j}, outside the allowed node p_{level}")
                if order > 1:
                    raise UnexpectedPole(level, name, f"pole order {order} exceeds 1 at p_{j}")
                restrictions.append(restricted)
                pole_order = max(pole_order, order)
                residue.append(restricted.coefficient((-1,)))
            records.append(
                OracleComponent(
                    name=name,
                    restriction=tuple(restrictions),
                    pole_order=pole_order,
                    residue=tuple(residue),
                )
            )
        levels.append(
            ExpansionLevel(
                level=level,
                constant=constants[level - 1],
                components=tuple(records),
            )
        )
        if level == m:
            break
        values: list[Fraction] = [Fraction(0)] * n_coords
        seeded = False
        for record in records[1:]:
            for k, restricted in enumerate(record.restriction):
                if not restricted.is_constant:
                    raise NonConstantLevel(
                        level + 1,
                        record.name,
                        f"coordinate {k} restricts to {restricted!r}",
                        levels_completed=levels,
                    )
            if not seeded:
                values = [r.coefficient((0,)) for r in record.restriction]
                seeded = True
            elif [r.coefficient((0,)) for r in record.restriction] != values:
                raise NonConstantLevel(
                    level + 1,
                    record.name,
                    "components disagree on the constant value",
                    levels_completed=levels,
                )
        a_level = tuple(values)
        constants.append(a_level)
        current = [
            (g - LaurentPoly.constant(XYT, a)) * t_inverse
            for g, a in zip(current, a_level)
        ]

    return GhostExpansion(m=m, levels=tuple(levels))


def oracle_verify_residue_theorem(ghost_map: Sequence[LaurentPoly], m: int) -> ResidueReport:
    expansion = oracle_expand_ghost(ghost_map, m)
    expected = effective_branch_derivative(ghost_map)
    for lvl in expansion.levels:
        if lvl.components[0].residue != expected:
            raise ResidueMismatch(
                f"level {lvl.level}: residue {lvl.components[0].residue} != expected {expected}"
            )
    return ResidueReport(m=m, expected_residue=expected, expansion=expansion)
