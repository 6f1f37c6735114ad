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

restricting each G_l to the sub-chain E_l ... E_m and recording pole orders
and residues at the nodes. Since t = zw in every chart, G_l in chart j-1 is
(P_j - a_1 (zw) - ... - a_{l-1} (zw)^(l-1)) / (zw)^l with P_j the pullback
of G, so the restriction of G_l to E_j is read off the terms of P_j of
z-degree l, with the w-exponent shifted by -l. The pullback is never formed
by substitution: in chart j-1 the term x^a y^b t^c is the single monomial

    z^d w^(d + b - a),   d = a*j + b*(m-j) + c,

with its coefficient unchanged (every chart image has coefficient 1), so it
lands on level d of E_j as coefficient * w^(b - a). On input without mixed
xy terms this is injective: b - a fixes (a, b), as one of them is 0, and d
then fixes c. Distinct terms therefore never merge or cancel, and every
level restriction is canonical as built. For valid input the only pole at
level l is a simple one at p_l, with residue equal to the x-linear
coefficient of G(x, 0, 0), the derivative of G along the effective branch
at the first node. Constancy of G_l on the deeper sub-chain is a global
property of the compact ghost curve; the affine model checks it and raises
NonConstantLevel when the input does not extend.
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
    and everything computed before the failure.
    """

    def __init__(self, level: int, component: str, detail: str,
                 constants=(), levels_completed=()):
        super().__init__(f"level {level}: restriction to {component} is not constant ({detail})")
        self.level = level
        self.component = component
        self.constants = tuple(constants)
        self.levels_completed = tuple(levels_completed)


class UnexpectedPole(LocalModelError):
    """A pole of order >= 2, off the allowed node, or along a whole component.

    Must never occur for inputs satisfying the preconditions; it would
    contradict the simple-pole property the expansion verifies.
    """

    def __init__(self, level: int, component: str, detail: str):
        super().__init__(f"level {level}: unexpected pole on {component} ({detail})")
        self.level = level
        self.component = component


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
    ch = Chart(
        m=m,
        index=j,
        x=LaurentPoly.monomial(ZW, (j + 1, j)),
        y=LaurentPoly.monomial(ZW, (m - 1 - j, m - j)),
        t=LaurentPoly.monomial(ZW, (1, 1)),
    )
    if ch.x * ch.y != LaurentPoly.monomial(ZW, (m, m)):  # t^m = (zw)^m
        raise AssertionError("chart parametrization violates x*y = t^m; this is a bug")
    return ch


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
    residue_at_node: tuple[Fraction, ...]


@dataclass(frozen=True)
class GhostExpansion:
    m: int
    n_coords: int
    constants: tuple[tuple[Fraction, ...], ...]
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
    the constant split off to form the next level.
    """
    if m < 1:
        raise LocalModelError("m must be >= 1")
    comps = [ghost_map] if isinstance(ghost_map, LaurentPoly) else list(ghost_map)
    if not comps:
        raise LocalModelError("ghost map needs at least one coordinate")
    _validate_input(comps)
    n_coords = len(comps)
    # pulled[j - 1][k] buckets the pullback P_j of coordinate k to chart j-1
    # by z-degree d, each bucket already shifted to the level-d restriction
    # to E_j: {d: {(w-exponent - d,): coefficient}}. In chart j-1 the term
    # x^a y^b t^c is the single monomial z^d w^(d + b - a) with
    # d = a*j + b*(m-j) + c, and its coefficient is unchanged because every
    # chart image has coefficient 1. Without mixed xy terms (_validate_input)
    # b - a fixes (a, b) and then d fixes c, so distinct terms never merge or
    # cancel and every bucket is canonical as built. Levels stop at m, so
    # z-degrees above m are never read.
    pulled: list[list[dict[int, dict[tuple[int], Fraction]]]] = [
        [{} for _ in comps] for _ in range(m)
    ]
    for k, g in enumerate(comps):
        for (a, b, c), coeff in g.terms.items():
            shifted = (b - a,)
            for j in range(1, m + 1):
                d = a * j + b * (m - j) + c
                if d <= m:
                    pulled[j - 1][k].setdefault(d, {})[shifted] = coeff

    components = _component_names(m, 1)
    constants: list[tuple[Fraction, ...]] = [tuple(Fraction(0) for _ in comps)]
    levels: list[ExpansionLevel] = []

    for level in range(1, m + 1):
        records: list[ComponentRestriction] = []
        for name, j in components[level - 1:]:
            # E_j is {z = 0} in chart j-1; its coordinate there is w, centered
            # at the near node p_j. Positive w-exponents are a pole at the far
            # node p_{j+1} for compact components, but are harmless on the
            # ghost branch whose far end leaves the local model.
            restrictions = []
            pole_order = 0
            residue = []
            for buckets in pulled[j - 1]:
                # G_level = (P_j - a_1 t - ... - a_(level-1) t^(level-1)) / t^level
                # and t = zw, so a term z^d w^e becomes z^(d-level) w^(e-level).
                if buckets and min(buckets) < level:
                    raise UnexpectedPole(level, name, "pole along the whole component")
                terms = buckets.get(level)
                if terms is None:
                    restrictions.append(ZERO_W)  # shared: LaurentPoly is immutable
                    residue.append(ZERO)
                    continue
                (low,), (high,) = min(terms), max(terms)
                order = max(0, -low)
                if j < m and high > 0:
                    raise UnexpectedPole(level, name, f"pole of order {high} at the far node p_{j + 1}")
                if order > 0 and j != level:
                    raise UnexpectedPole(level, name, f"pole at p_{j}, outside the allowed node p_{level}")
                if order > 1:
                    raise UnexpectedPole(level, name, f"pole order {order} exceeds 1 at p_{j}")
                restrictions.append(LaurentPoly._canonical(W, terms))
                pole_order = max(pole_order, order)
                residue.append(terms.get((-1,), ZERO))
            records.append(
                ComponentRestriction(
                    name=name,
                    restriction=tuple(restrictions),
                    pole_order=pole_order,
                    residue=tuple(residue),
                )
            )
        node_record = records[0]  # E_level carries the allowed node p_level
        levels.append(
            ExpansionLevel(
                level=level,
                constant=constants[level - 1],
                components=tuple(records),
                residue_at_node=node_record.residue,
            )
        )
        if level == m:
            break
        # Split off a_level: G_level must be a single constant on the deeper
        # sub-chain (a global fact for the compact ghost curve; here checked).
        values = None
        for record in records[1:]:
            for k, restricted in enumerate(record.restriction):
                if any(e != (0,) for e in restricted.terms):
                    raise NonConstantLevel(
                        level + 1,
                        record.name,
                        f"coordinate {k} restricts to {restricted!r}",
                        constants=constants,
                        levels_completed=levels,
                    )
            record_values = [r.terms.get((0,), ZERO) for r in record.restriction]
            if values is None:
                values = record_values
            elif record_values != values:
                raise NonConstantLevel(
                    level + 1,
                    record.name,
                    "components disagree on the constant value",
                    constants=constants,
                    levels_completed=levels,
                )
        constants.append(tuple(values))
        # On every deeper chart the z-degree-level terms are now exactly
        # a_level (zw)^level, so removing them splits a_level off.
        for per_coord in pulled[level:]:
            for buckets in per_coord:
                buckets.pop(level, None)

    return GhostExpansion(
        m=m,
        n_coords=n_coords,
        constants=tuple(constants),
        levels=tuple(levels),
    )


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
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_residue_theorem(
    ghost_map: Union[LaurentPoly, Sequence[LaurentPoly]], m: int
) -> ResidueReport:
    """Check the simple-pole-and-residue property of the expansion.

    Every level must carry at worst a simple pole, located only at its own
    node (both enforced by ``expand_ghost``), with residue exactly equal to
    the x-linear coefficient of G(x, 0, 0), coordinate by coordinate.
    Residue mismatches are reported as failures rather than raised.
    """
    expansion = expand_ghost(ghost_map, m)
    expected = effective_branch_derivative(ghost_map)
    failures = []
    for lvl in expansion.levels:
        if lvl.residue_at_node != expected:
            failures.append(
                f"level {lvl.level}: residue {lvl.residue_at_node} != expected {expected}"
            )
    return ResidueReport(
        m=m, expected_residue=expected, expansion=expansion, failures=tuple(failures)
    )
