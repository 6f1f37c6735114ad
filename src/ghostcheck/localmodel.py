"""Symbolic local model of a smoothing family near one ghost attachment node.

The surface xy = t^m is resolved by a chain of m-1 rational curves. We work
in m monomial charts indexed j = 0..m-1:

    x = z^(j+1) w^j,   y = z^(m-1-j) w^(m-j),   t = z w.

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
E_m) and recording pole orders and residues at the nodes. In chart j-1 the
term x^a y^b t^c is the single monomial z^d w^(d + b - a) with
d = a*j + b*(m-j) + c, and t = zw, so the term restricts to E_j at level d,
as coeff * w^(b - a), and nowhere else. The input rules (checked by
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
construction; the selftest checks every restriction against chart-by-chart
substitution. Constancy of G_l on the deeper sub-chain is a global property
of the compact ghost curve; the affine model raises NonConstantLevel when
the input does not extend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .laurent import LaurentPoly, substitute

XYT = ("x", "y", "t")
ZW = ("z", "w")
W = ("w",)
ZERO = Fraction(0)
ZERO_W = LaurentPoly(W)

MAX_CHART_M = 8


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
class Chart:
    """Monomial parametrization of one resolution chart."""

    m: int
    index: int
    x: LaurentPoly
    y: LaurentPoly
    t: LaurentPoly

    def pullback(self, poly: LaurentPoly) -> LaurentPoly:
        """Rewrite a polynomial in (x, y, t) in this chart's (z, w)."""
        return substitute(poly, {"x": self.x, "y": self.y, "t": self.t})


def chart(m: int, j: int) -> Chart:
    """Chart j of the resolved surface xy = t^m, 0 <= j <= m-1."""
    if m < 1:
        raise LocalModelError("m must be >= 1")
    if not 0 <= j <= m - 1:
        raise LocalModelError(f"chart index {j} out of range for m = {m}")
    return Chart(
        m=m,
        index=j,
        x=LaurentPoly.monomial(ZW, (j + 1, j)),
        y=LaurentPoly.monomial(ZW, (m - 1 - j, m - j)),
        t=LaurentPoly.monomial(ZW, (1, 1)),
    )


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool


@dataclass(frozen=True)
class ChartReport:
    m: int
    checks: tuple[CheckItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_chart_relations(m: int) -> ChartReport:
    """Check the chart algebra of the resolved surface, identity by identity.

    (i) x*y = t^m in every chart; (ii) the transitions z' = w^-1,
    w' = z*w^2 carry chart j+1's parametrization to chart j's. Each of these
    2m - 1 identities reads the charts' x, y and t, so a wrong chart fails
    some of them. Failures are reported, not raised.
    """
    if not 1 <= m <= MAX_CHART_M:
        raise LocalModelError(f"chart verification supports 1 <= m <= {MAX_CHART_M}")
    checks: list[CheckItem] = []
    charts = [chart(m, j) for j in range(m)]
    for ch in charts:
        lhs = ch.x * ch.y
        rhs = ch.t**m
        checks.append(CheckItem(f"chart {ch.index}: x*y = t^{m}", lhs == rhs))
    for j in range(m - 1):
        images = {
            "z": LaurentPoly.monomial(ZW, (0, -1)),
            "w": LaurentPoly.monomial(ZW, (1, 2)),
        }
        nxt = charts[j + 1]
        ok = all(
            substitute(getattr(nxt, name), images) == getattr(charts[j], name)
            for name in ("x", "y", "t")
        )
        checks.append(CheckItem(f"transition chart {j} -> {j + 1}", ok))
    return ChartReport(m=m, checks=tuple(checks))


@dataclass(frozen=True)
class ComponentRestriction:
    """Restriction of one level function to one chain component.

    ``restriction`` holds one Laurent polynomial per target coordinate, in
    the component's coordinate at its near node (w in the viewing chart).
    ``pole_order`` and ``residue`` refer to that node.
    """

    name: str
    restriction: tuple[LaurentPoly, ...]
    pole_order: int
    residue: tuple[Fraction, ...]


@dataclass(frozen=True)
class ExpansionLevel:
    level: int
    constant: tuple[Fraction, ...]
    components: tuple[ComponentRestriction, ...]


@dataclass(frozen=True)
class GhostExpansion:
    m: int
    levels: tuple[ExpansionLevel, ...]


def _component_names(m: int, level: int) -> list[tuple[str, int]]:
    """Components of the level-l sub-chain as (name, chain index), index m = ghost branch."""
    comps = [(f"E_{j}", j) for j in range(level, m)]
    comps.append(("C_tilde", m))
    return comps


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


def expand_ghost(
    ghost_map: Union[LaurentPoly, Sequence[LaurentPoly]], m: int
) -> GhostExpansion:
    """Peel the order-by-order expansion of G along the resolved chain.

    ``ghost_map`` is one polynomial in (x, y, t) per target coordinate
    (a single polynomial is treated as one coordinate), with nonnegative
    exponents, no mixed xy terms, and vanishing on the ghost branch.
    Level l records the restriction of G_l to every component of the
    sub-chain E_l ... E_m, the pole order and residue at the node p_l, and
    the constant split off to form it. Each level is built from the four
    rules of the module docstring.
    """
    if m < 1:
        raise LocalModelError("m must be >= 1")
    comps = [ghost_map] if isinstance(ghost_map, LaurentPoly) else list(ghost_map)
    if not comps:
        raise LocalModelError("ghost map needs at least one coordinate")
    _validate_input(comps)
    residues = effective_branch_derivative(comps)
    zeros = tuple(ZERO for _ in comps)
    # on_ghost[k][c] holds the terms y^b t^c (b >= 0) of coordinate k as the
    # restriction {(b,): coefficient} they give C_tilde at level c
    on_ghost: list[dict[int, dict[tuple[int], Fraction]]] = []
    for g in comps:
        by_level: dict[int, dict[tuple[int], Fraction]] = {}
        for (a, b, c), coeff in g.terms.items():
            if a == 0 and c <= m:
                by_level.setdefault(c, {})[(b,)] = coeff
        on_ghost.append(by_level)
    # the expansion stops at the first c < m with a term y^b t^c, b > 0
    stop = min(
        (c for by_level in on_ghost for c, terms in by_level.items() if c < m and any(b for (b,) in terms)),
        default=m,
    )

    levels: list[ExpansionLevel] = []
    constant = zeros  # a_0 = 0: G vanishes at the first node
    for level in range(1, stop + 1):
        ghost = [by_level.get(level, {}) for by_level in on_ghost]
        flat = [{(0,): t[(0,)]} if (0,) in t else {} for t in ghost]  # t^level
        regular = tuple(_wrap(terms) for terms in flat)
        records = []
        for name, j in _component_names(m, level):
            if j == level:  # E_level carries the node p_level and the pole of x
                near = ghost if j == m else flat
                restriction = tuple(
                    _wrap({(-1,): r, **terms} if r else terms) for r, terms in zip(residues, near)
                )
                records.append(ComponentRestriction(name, restriction, int(any(residues)), residues))
            else:
                restriction = tuple(map(_wrap, ghost)) if j == m else regular
                records.append(ComponentRestriction(name, restriction, 0, zeros))
        levels.append(ExpansionLevel(level=level, constant=constant, components=tuple(records)))
        constant = tuple(terms.get((0,), ZERO) for terms in flat)
    if stop < m:
        restricted = levels[-1].components[-1].restriction
        k = next(k for k, r in enumerate(restricted) if not r.is_constant)
        raise NonConstantLevel(
            stop + 1, "C_tilde", f"coordinate {k} restricts to {restricted[k]!r}", levels_completed=levels
        )
    return GhostExpansion(m=m, levels=tuple(levels))


def _wrap(terms: dict[tuple[int], Fraction]) -> LaurentPoly:
    """A restriction in w from terms the four rules keep distinct."""
    return LaurentPoly._canonical(W, terms) if terms else ZERO_W  # shared: LaurentPoly is immutable


def effective_branch_derivative(
    ghost_map: Union[LaurentPoly, Sequence[LaurentPoly]],
) -> tuple[Fraction, ...]:
    """x-linear coefficient of G(x, 0, 0): the derivative of G along the
    effective branch at the first node."""
    comps = [ghost_map] if isinstance(ghost_map, LaurentPoly) else list(ghost_map)
    return tuple(g.coefficient((1, 0, 0)) for g in comps)


@dataclass(frozen=True)
class ResidueReport:
    m: int
    expected_residue: tuple[Fraction, ...]
    expansion: GhostExpansion

    @property
    def passed(self) -> bool:
        """Always true: the four rules build every level with the expected residue."""
        return True


def verify_residue_theorem(
    ghost_map: Union[LaurentPoly, Sequence[LaurentPoly]], m: int
) -> ResidueReport:
    """Expand G along the chain, next to the residue each level must carry.

    The expansion has at worst a simple pole per level, at its own node,
    with residue the x-linear coefficient of G(x, 0, 0) coordinate by
    coordinate: the four rules build it that way.
    """
    expansion = expand_ghost(ghost_map, m)
    return ResidueReport(m=m, expected_residue=effective_branch_derivative(ghost_map), expansion=expansion)
