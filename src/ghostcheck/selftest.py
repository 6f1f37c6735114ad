"""Acceptance suite: every release criterion as a callable check.

Each criterion is exact (zero tolerance) and carries a wall-clock budget.
The checks pit the engines against independent oracles: chart-by-chart
substitution for the chain restrictions with their pole orders, residues
and split-off constants, and hand-evaluated fixtures for the dimension
counts; every theorem rank and kernel witness must equal those read off the
obstruction matrix's kernel basis, and every kernel witness must pass the
rank inequality.
Details in the results never include timings, so repeated runs print
identical bytes. The monomial charts of the resolved surface live here:
the expansion never reads them, so a request other than ``selftest`` never
imports them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .curves import NodalRationalModel
from .exact import QMatrix
from .factory import (
    StratumSpec,
    _hyperelliptic_star_model,
    _moduli_dim_formula,
    build_line_star_instance,
    dim_moduli,
    dim_stratum,
    random_instance,
)
from .laurent import LaurentPoly, substitute
from .localmodel import XYT, LocalModelError, restriction, verify_residue_theorem
from .obstruction import (
    AttachmentColumn,
    ObstructionProblem,
    Verdict,
    corollary_check,
    kernel_to_witness_d,
    obstruction_matrix,
    rank_inequality_holds,
    theorem_check,
)

KERNEL_CORPUS_SEED = 74501
MIXED_CORPUS_SEED = 74502
RESIDUE_CORPUS_SEED = 74503
INVARIANCE_SEED = 74504
SINGLE_POINT_SEED = 74505
SPEC_CORPUS_SEED = 74506


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    name: str
    budget_seconds: float
    func: Callable[[], tuple[bool, str]]


# -- charts of the resolved surface -------------------------------------------


ZW = ("z", "w")
MAX_CHART_M = 8


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


def verify_chart_relations(m: int) -> tuple[tuple[str, bool], ...]:
    """Check the chart algebra of the resolved surface, identity by identity.

    (i) x*y = t^m in every chart, as the chart substitution of both sides;
    (ii) the transitions z' = w^-1, w' = z*w^2 carry chart j+1's
    parametrization to chart j's. Each of these 2m - 1 identities reads the
    charts' x, y and t, so a wrong chart fails some of them. Failures are
    reported as ``(name, False)`` pairs, not raised.
    """
    if not 1 <= m <= MAX_CHART_M:
        raise LocalModelError(f"chart verification supports 1 <= m <= {MAX_CHART_M}")
    checks: list[tuple[str, bool]] = []
    charts = [chart(m, j) for j in range(m)]
    xy = LaurentPoly.monomial(XYT, (1, 1, 0))
    tm = LaurentPoly.monomial(XYT, (0, 0, m))
    for ch in charts:
        checks.append((f"chart {ch.index}: x*y = t^{m}", ch.pullback(xy) == ch.pullback(tm)))
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
        checks.append((f"transition chart {j} -> {j + 1}", ok))
    return tuple(checks)


# -- independent oracles ------------------------------------------------------


def oracle_chain_restrictions(
    component: LaurentPoly, m: int
) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Level restrictions of the expansion, by chart substitution.

    G_l = (G - a_1 t - ... - a_(l-1) t^(l-1)) / t^l. Chain component j
    (1..m, with m the ghost branch) is {z = 0} in chart j-1, where t = zw,
    so the restriction of G_l to it is the z-degree-l part of the chart's
    pullback of G alone, with its w-exponents shifted by -l: each a_k t^k
    pulls back to z-degree k < l, and the lower z-degrees cancel wherever
    the expansion reaches level l. It is read for every level l <= j. The
    pullback goes through ``laurent.substitute``, never through the
    exponent rule the engine uses.
    """
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j in range(1, m + 1):
        for (dz, dw), coeff in chart(m, j - 1).pullback(component).terms.items():
            if 1 <= dz <= j:
                out.setdefault((dz, j), {})[dw - dz] = coeff
    return out


def _admissible_ghost_map(rng: random.Random, n_coords: int, m: int) -> list[LaurentPoly]:
    """Random maps whose expansion passes every level: x^a t^c with a >= 1
    (the pole at each node), pure t^c with c >= 1 (a constant split off at
    level c on every deeper component) and y^b t^m (w^b on the ghost branch
    at level m)."""
    monomials = [(a, 0, c) for a in range(1, 5) for c in range(0, 5 - a)]
    monomials += [(0, 0, c) for c in range(1, 5)] + [(0, b, m) for b in (1, 2)]
    comps = []
    for _ in range(n_coords):
        terms = {}
        for mono in monomials:
            coeff = rng.randint(-9, 9)
            if coeff:
                terms[mono] = Fraction(coeff)
        comps.append(LaurentPoly(XYT, terms))
    return comps


# -- shared corpora -----------------------------------------------------------

_CORPUS_CACHE: dict[str, list] = {}


def kernel_corpus() -> list[ObstructionProblem]:
    """The first 1000 seeded draws (g, N <= 4, n <= 6) with a nontrivial kernel."""
    if "kernel" not in _CORPUS_CACHE:
        rng = random.Random(KERNEL_CORPUS_SEED)
        kept = []
        draws = 0
        while len(kept) < 1000 and draws < 60000:
            draws += 1
            genus = rng.randint(1, 4)
            ambient = rng.randint(1, 4)
            n = rng.randint(1, 6)
            problem = random_instance(rng.getrandbits(32), genus, ambient, n)
            if obstruction_matrix(problem).rank() < problem.n_points:
                kept.append(problem)
        _CORPUS_CACHE["kernel"] = kept
    return _CORPUS_CACHE["kernel"]


def mixed_corpus() -> list[ObstructionProblem]:
    """200 seeded draws with up to 12 points, kernel or not."""
    if "mixed" not in _CORPUS_CACHE:
        rng = random.Random(MIXED_CORPUS_SEED)
        _CORPUS_CACHE["mixed"] = [
            random_instance(
                rng.getrandbits(32), rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 12)
            )
            for _ in range(200)
        ]
    return _CORPUS_CACHE["mixed"]


# -- criteria -----------------------------------------------------------------


def check_star_family_12pt() -> tuple[bool, str]:
    problem = build_line_star_instance(3, 4, "hyperelliptic")
    matrix = obstruction_matrix(problem)
    theorem = theorem_check(problem)
    corollary = corollary_check(problem)
    ok = (
        matrix.rows == 12
        and matrix.cols == 12
        and theorem.rank == 12
        and theorem.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE
        and corollary.verdict is Verdict.INCONCLUSIVE
        and corollary.witness_D is not None
        and rank_inequality_holds(problem, corollary.witness_D)
        and rank_inequality_holds(problem, tuple(range(12)))
    )
    detail = (
        f"matrix {matrix.rows}x{matrix.cols} rank {theorem.rank}; "
        f"theorem {theorem.verdict.value}, corollary {corollary.verdict.value} "
        f"with witness size {len(corollary.witness_D or ())}"
    )
    return ok, detail


def check_star_family_sweep() -> tuple[bool, str]:
    cases = 0
    for big_n in (2, 3, 4):
        for h in (2, 3, 4, 5):
            for kind in ("hyperelliptic", "nodal_rational"):
                problem = build_line_star_instance(big_n, h, kind)
                theorem = theorem_check(problem)
                corollary = corollary_check(problem)
                if theorem.verdict is not Verdict.NOT_EVENTUALLY_SMOOTHABLE:
                    return False, f"theorem failed to fire for N={big_n}, h={h}, {kind}"
                if theorem.rank != big_n * h:
                    return False, f"rank {theorem.rank} != {big_n * h} for N={big_n}, h={h}, {kind}"
                if corollary.verdict is not Verdict.INCONCLUSIVE:
                    return False, f"corollary fired for N={big_n}, h={h}, {kind}"
                cases += 1
    return True, f"{cases} instances: theorem fires, corollary stays inconclusive"


def check_kernel_witness_subsets() -> tuple[bool, str]:
    corpus = kernel_corpus()
    if len(corpus) < 1000:
        return False, f"only {len(corpus)} kernel instances generated"
    for idx, problem in enumerate(corpus):
        theorem = theorem_check(problem)
        basis = obstruction_matrix(problem).kernel_basis()
        if (theorem.rank, theorem.kernel_witness) != (problem.n_points - len(basis), basis[0]):
            return False, f"instance {idx}: rank or witness differs from the matrix's kernel basis"
        witness_d = kernel_to_witness_d(problem, theorem.kernel_witness)
        if not rank_inequality_holds(problem, witness_d):
            return False, f"instance {idx}: derived D fails the rank inequality"
    return True, (
        f"{len(corpus)} kernel witnesses equal the matrix's first kernel vector "
        "and map to valid subsets"
    )


def check_soundness_ordering() -> tuple[bool, str]:
    fired = 0
    total = 0
    for problem in kernel_corpus() + mixed_corpus():
        total += 1
        corollary = corollary_check(problem)
        if corollary.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE:
            fired += 1
            theorem = theorem_check(problem)
            if theorem.verdict is not Verdict.NOT_EVENTUALLY_SMOOTHABLE:
                return False, "subset test fired on a problem with nontrivial kernel"
    return True, f"{total} instances, subset test fired {fired} times, ordering held"


def check_residue_leading_term() -> tuple[bool, str]:
    rng = random.Random(RESIDUE_CORPUS_SEED)
    checked = 0
    for m in range(1, 6):
        for _ in range(20):
            components = _admissible_ghost_map(rng, rng.randint(1, 3), m)
            report = verify_residue_theorem(components, m)
            oracles = [oracle_chain_restrictions(comp_poly, m) for comp_poly in components]
            for lvl in report.expansion.levels:
                for j, record in enumerate(lvl.components, start=lvl.level):
                    want = [oracle.get((lvl.level, j), {}) for oracle in oracles]
                    got = [
                        {e[0]: c for e, c in restriction(g, m, lvl.level, j).terms.items()} for g in components
                    ]
                    where = f"m={m} level {lvl.level} {record.name}"
                    if got != want:
                        return False, f"{where}: chart restriction disagrees with the chart pullback"
                    pole = max(0, -min((e for terms in want for e in terms), default=0))
                    if pole > 1:
                        return False, f"{where}: pole of order {pole}"
                    residue = tuple(terms.get(-1, Fraction(0)) for terms in want)
                    if (record.pole_order, record.residue) != (pole, residue):
                        return False, f"{where}: pole order or residue disagrees with the chart pullback"
                # a_(l-1), split off to form G_l, is the constant of G_(l-1) on E_l
                split_off = tuple(
                    oracle.get((lvl.level - 1, lvl.level), {}).get(0, Fraction(0)) for oracle in oracles
                )
                if lvl.constant != split_off:
                    return False, f"m={m} level {lvl.level}: constant disagrees with the chart pullback"
            checked += 1
    return True, f"{checked} admissible maps: poles simple, residues exact, oracle agrees"


def check_chart_relations() -> tuple[bool, str]:
    total = 0
    for m in range(1, 9):
        checks = verify_chart_relations(m)
        failed = next((name for name, holds in checks if not holds), None)
        if failed is not None:
            return False, f"m={m}: identity failed: {failed}"
        total += len(checks)
    return True, f"{total} chart identities hold for m = 1..8"


MODULI_FIXTURES = [
    (3, 4, 12, 48),
    (3, 1, 2, 8),
    (3, 1, 1, 4),
    (2, 2, 4, 13),
    (1, 1, 1, 2),
    (4, 3, 5, 23),
]

STRATUM_FIXTURES = [
    (3, 4, [(0, 1)] * 12, 48),
    (2, 2, [(0, 1)] * 4, 13),
    (3, 1, [(0, 2)], 10),
    (2, 3, [(1, 2), (0, 5)], 28),
]


def _random_valid_spec(rng: random.Random) -> StratumSpec:
    while True:
        parts = []
        for _ in range(rng.randint(1, 6)):
            g_i = rng.randint(0, 3)
            parts.append((g_i, rng.randint(max(1, 2 * g_i), 2 * g_i + 4)))
        try:
            return StratumSpec(rng.randint(1, 5), rng.randint(1, 5), parts)
        except ValueError:
            continue


def check_dimension_formulas() -> tuple[bool, str]:
    for big_n, g, d, expected in MODULI_FIXTURES:
        got = dim_moduli(big_n, g, d)
        if got != expected:
            return False, f"dim_moduli({big_n},{g},{d}) = {got}, expected {expected}"
    for big_n, h, parts, expected in STRATUM_FIXTURES:
        got = dim_stratum(StratumSpec(big_n, h, parts))
        if got != expected:
            return False, f"dim_stratum(N={big_n},h={h},parts={parts}) = {got}, expected {expected}"
    rng = random.Random(SPEC_CORPUS_SEED)
    for _ in range(500):
        spec = _random_valid_spec(rng)
        explicit = dim_stratum(spec)
        closed = _moduli_dim_formula(spec.ambient_dim, spec.genus, spec.degree)
        closed += spec.ambient_dim * spec.ghost_genus - spec.n_points
        if explicit != closed:
            return False, f"stratum formulas disagree on {spec}"
    return True, "10 fixtures match, closed form agrees on 500 random strata"


def _random_invertible(rng: random.Random, size: int) -> QMatrix:
    while True:
        candidate = QMatrix(
            [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        )
        if candidate.rank() == size:
            return candidate


def _nonzero_scale(rng: random.Random) -> Fraction:
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(1, 4), rng.randint(1, 3))


def _witness_support(theorem) -> tuple[int, ...] | None:
    if theorem.kernel_witness is None:
        return None
    return tuple(i for i, v in enumerate(theorem.kernel_witness) if v)


def check_invariance_suite() -> tuple[bool, str]:
    rng = random.Random(INVARIANCE_SEED)
    for idx in range(500):
        problem = random_instance(
            rng.getrandbits(32), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 6)
        )
        basis_g = _random_invertible(rng, problem.genus)
        basis_n = _random_invertible(rng, problem.ambient_dim)
        columns = []
        for p in problem.points:
            delta_scale = _nonzero_scale(rng)
            deriv_scale = _nonzero_scale(rng)
            columns.append(
                AttachmentColumn(
                    delta=[delta_scale * v for v in basis_g.matvec(p.delta)],
                    deriv=[deriv_scale * v for v in basis_n.matvec(p.deriv)],
                )
            )
        transformed = ObstructionProblem(problem.genus, problem.ambient_dim, columns)
        base_theorem, base_corollary = theorem_check(problem), corollary_check(problem)
        new_theorem, new_corollary = theorem_check(transformed), corollary_check(transformed)
        if base_theorem.verdict is not new_theorem.verdict:
            return False, f"instance {idx}: theorem verdict changed under transformation"
        if base_theorem.rank != new_theorem.rank:
            return False, f"instance {idx}: rank changed under transformation"
        if base_corollary.verdict is not new_corollary.verdict:
            return False, f"instance {idx}: corollary verdict changed under transformation"
        if base_corollary.witness_D != new_corollary.witness_D:
            return False, f"instance {idx}: witness subset changed under transformation"
        if _witness_support(base_theorem) != _witness_support(new_theorem):
            return False, f"instance {idx}: kernel witness support changed"
    return True, "500 instances invariant under column rescaling and basis change"


def check_single_attachment() -> tuple[bool, str]:
    rng = random.Random(SINGLE_POINT_SEED)
    cases = 0
    for idx in range(100):
        genus = rng.randint(1, 4)
        if idx % 2 == 0:
            model, (k,) = _hyperelliptic_star_model(genus)
            delta = model.ev_vector((Fraction(1), Fraction(k)))
        else:
            model = NodalRationalModel(genus, [(2 * j, 2 * j + 1) for j in range(genus)])
            delta = model.ev_vector(Fraction(2 * genus))
        if not any(delta):
            return False, f"case {idx}: model produced a zero covector"
        ambient = rng.randint(1, 4)
        if idx % 4 < 2:
            deriv = [Fraction(0)] * ambient
        else:
            deriv = [Fraction(rng.randint(-9, 9)) for _ in range(ambient)]
            if not any(deriv):
                deriv[0] = Fraction(1)
        problem = ObstructionProblem(
            genus, ambient, [AttachmentColumn(delta=delta, deriv=deriv)]
        )
        verdict = theorem_check(problem).verdict
        expected = (
            Verdict.NOT_EVENTUALLY_SMOOTHABLE if any(deriv) else Verdict.INCONCLUSIVE
        )
        if verdict is not expected:
            return False, f"case {idx}: verdict {verdict.value}, expected {expected.value}"
        cases += 1
    return True, f"{cases} single-attachment cases: obstructed iff the derivative is nonzero"


CRITERIA: tuple[Criterion, ...] = (
    Criterion("star-family-12pt", 1.0, check_star_family_12pt),
    Criterion("star-family-sweep", 5.0, check_star_family_sweep),
    Criterion("kernel-witness-subsets", 10.0, check_kernel_witness_subsets),
    Criterion("soundness-ordering", 30.0, check_soundness_ordering),
    Criterion("residue-leading-term", 10.0, check_residue_leading_term),
    Criterion("chart-relations", 1.0, check_chart_relations),
    Criterion("dimension-formulas", 1.0, check_dimension_formulas),
    Criterion("invariance-suite", 30.0, check_invariance_suite),
    Criterion("single-attachment", 1.0, check_single_attachment),
)


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.monotonic()
    try:
        passed, detail = criterion.func()
    except Exception as exc:  # a crash is a failed criterion, not a crash of the suite
        return CriterionResult(criterion.name, False, f"raised {type(exc).__name__}: {exc}")
    elapsed = time.monotonic() - start
    if passed and elapsed > criterion.budget_seconds:
        return CriterionResult(
            criterion.name,
            False,
            f"{detail}; exceeded the {criterion.budget_seconds:g}s budget",
        )
    return CriterionResult(criterion.name, passed, detail)


def run_all() -> list[CriterionResult]:
    return [run_criterion(c) for c in CRITERIA]
