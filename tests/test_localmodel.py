from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostcheck.laurent as laurent_module
import ghostcheck.localmodel as localmodel_module
import ghostcheck.selftest as selftest_module
from ghostcheck.cli import main
from ghostcheck.jsonio import dump_json, expansion_to_json, residue_report_to_json
from ghostcheck.laurent import LaurentPoly, normal_form_xyt
from ghostcheck.localmodel import (
    XYT,
    GhostVanishingViolated,
    LocalModelError,
    NonConstantLevel,
    effective_branch_derivative,
    expand_ghost,
    restriction,
    verify_residue_theorem,
)
from ghostcheck.obstruction import (
    AttachmentColumn,
    ObstructionProblem,
    Verdict,
    theorem_check,
)
from ghostcheck.selftest import ZW, Chart, chart, oracle_chain_restrictions, verify_chart_relations
from localmodel_oracle import oracle_expand_ghost, oracle_verify_residue_theorem


def mono(exps, coeff=1):
    return LaurentPoly.monomial(XYT, exps, coeff)


def poly(terms):
    return LaurentPoly(XYT, terms)


X = mono((1, 0, 0))
Y = mono((0, 1, 0))


class TestCharts:
    def test_m1_is_smooth_model(self):
        ch = chart(1, 0)
        assert ch.x == LaurentPoly.monomial(ZW, (1, 0))
        assert ch.y == LaurentPoly.monomial(ZW, (0, 1))
        assert ch.t == LaurentPoly.monomial(ZW, (1, 1))

    def test_m2_chart0(self):
        ch = chart(2, 0)
        assert ch.x == LaurentPoly.monomial(ZW, (1, 0))
        assert ch.y == LaurentPoly.monomial(ZW, (1, 2))
        assert ch.t == LaurentPoly.monomial(ZW, (1, 1))

    def test_m3_chart1(self):
        ch = chart(3, 1)
        assert ch.x == LaurentPoly.monomial(ZW, (2, 1))
        assert ch.y == LaurentPoly.monomial(ZW, (1, 2))

    def test_index_range(self):
        with pytest.raises(LocalModelError):
            chart(2, 2)
        with pytest.raises(LocalModelError):
            chart(2, -1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_relations_all_pass(self, m):
        checks = verify_chart_relations(m)
        assert all(holds for _, holds in checks)
        named = [name for name, _ in checks]
        assert len(named) == len(set(named))

    def test_m1_has_no_exceptional_equations(self):
        assert len(verify_chart_relations(1)) == 1  # just x*y = t

    def test_m5_equation_count(self):
        # one product identity per chart and m-1 transitions
        assert len(verify_chart_relations(5)) == 5 + 4

    @pytest.mark.parametrize("coordinate", ["x", "y", "t"])
    def test_wrong_chart_fails_identities(self, monkeypatch, coordinate):
        original = selftest_module.chart

        def wrong_chart(m, j):
            ch = original(m, j)
            if j != 2:
                return ch
            fields = {"x": ch.x, "y": ch.y, "t": ch.t}
            ((exps, coeff),) = fields[coordinate].terms.items()
            fields[coordinate] = LaurentPoly.monomial(ZW, (exps[0] + 1, exps[1]), coeff)  # times z
            return Chart(m=m, index=j, **fields)

        monkeypatch.setattr(selftest_module, "chart", wrong_chart)
        failed = {name for name, holds in verify_chart_relations(4) if not holds}
        assert failed == {
            "chart 2: x*y = t^4",
            "transition chart 1 -> 2",
            "transition chart 2 -> 3",
        }

    def test_m_out_of_range(self):
        with pytest.raises(LocalModelError):
            verify_chart_relations(9)
        with pytest.raises(LocalModelError):
            verify_chart_relations(0)


class TestExpandGhost:
    def test_m1_simple_pole(self):
        expansion = expand_ghost([X], 1)
        assert [lvl.constant for lvl in expansion.levels] == [(Fraction(0),)]
        (level,) = expansion.levels
        (comp,) = level.components
        assert comp.name == "C_tilde"
        assert comp.pole_order == 1
        assert level.components[0].residue == (Fraction(1),)

    def test_m2_residues_at_both_levels(self):
        expansion = expand_ghost([X], 2)
        first, second = expansion.levels
        assert [c.name for c in first.components] == ["E_1", "C_tilde"]
        assert first.components[0].residue == (Fraction(1),)
        assert first.components[1].pole_order == 0
        assert second.constant == (Fraction(0),)
        assert [c.name for c in second.components] == ["C_tilde"]
        assert second.components[0].residue == (Fraction(1),)

    def test_m2_no_linear_term_means_no_poles(self):
        g = poly({(1, 0, 1): 1, (2, 0, 0): 1})  # x t + x^2
        expansion = expand_ghost([g], 2)
        for level in expansion.levels:
            assert level.components[0].residue == (Fraction(0),)
            for comp in level.components:
                assert comp.pole_order == 0

    def test_zero_map(self):
        expansion = expand_ghost([LaurentPoly(XYT)], 1)
        assert expansion.levels[0].components[0].residue == (Fraction(0),)
        assert expansion.levels[0].components[0].pole_order == 0

    def test_vector_valued(self):
        expansion = expand_ghost([X, mono((1, 0, 0), 3)], 2)
        assert len(expansion.levels[0].constant) == 2
        assert expansion.levels[0].components[0].residue == (Fraction(1), Fraction(3))

    def test_ghost_vanishing_precondition(self):
        with pytest.raises(GhostVanishingViolated):
            expand_ghost([Y], 2)
        with pytest.raises(GhostVanishingViolated):
            expand_ghost([mono((0, 0, 0))], 2)

    def test_mixed_xy_rejected(self):
        with pytest.raises(LocalModelError):
            expand_ghost([mono((1, 1, 0))], 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(LocalModelError):
            expand_ghost([mono((-1, 0, 2))], 2)

    def test_wrong_variables_rejected(self):
        with pytest.raises(LocalModelError):
            expand_ghost([LaurentPoly.monomial(ZW, (1, 0))], 2)

    def test_non_constant_level_ty(self):
        with pytest.raises(NonConstantLevel) as info:
            expand_ghost([mono((0, 1, 1))], 3)
        assert info.value.level == 2
        assert info.value.component == "C_tilde"
        assert len(info.value.levels_completed) == 1

    def test_non_constant_level_t2y(self):
        with pytest.raises(NonConstantLevel) as info:
            expand_ghost([mono((0, 1, 2))], 3)
        assert info.value.level == 3

    def test_ghost_branch_tail_is_regular(self):
        # y t^m restricts to the coordinate on the ghost branch only at the
        # last level, where positive powers are allowed
        g = mono((0, 1, 3))
        expansion = expand_ghost([g], 3)
        final = expansion.levels[-1]
        assert final.components[0].residue == (Fraction(0),)
        ghost = final.components[-1]
        assert ghost.pole_order == 0
        assert restriction(g, 3, 3, 3).terms

    def test_level_shift_consistency(self):
        rng = random.Random(61)
        for _ in range(40):
            m = rng.randint(2, 5)
            terms = {}
            for _ in range(rng.randint(1, 5)):
                a = rng.randint(1, 3)
                c = rng.randint(0, 3 - min(a, 3))
                terms[(a, 0, c)] = terms.get((a, 0, c), 0) + rng.randint(-9, 9)
            g = LaurentPoly(XYT, terms)
            gt = poly({(a, b, c + 1): v for (a, b, c), v in g.terms.items()})  # g * t
            base = expand_ghost([g], m)
            shifted = expand_ghost([gt], m)
            assert [lvl.constant for lvl in shifted.levels[1:]] == [lvl.constant for lvl in base.levels[: m - 1]]
            for lvl in range(1, m):
                base_level = base.levels[lvl - 1]
                shift_level = shifted.levels[lvl]
                base_by_name = {c.name: c for c in base_level.components}
                for j, comp in enumerate(shift_level.components, start=lvl + 1):
                    assert restriction(gt, m, lvl + 1, j) == restriction(g, m, lvl, j)
                    assert comp.residue == base_by_name[comp.name].residue

    def test_linearity(self):
        rng = random.Random(67)
        for _ in range(30):
            m = rng.randint(1, 4)

            def rand_admissible():
                terms = {}
                for _ in range(rng.randint(0, 4)):
                    a = rng.randint(1, 3)
                    c = rng.randint(0, 2)
                    terms[(a, 0, c)] = terms.get((a, 0, c), 0) + rng.randint(-9, 9)
                return LaurentPoly(XYT, terms)

            g1, g2 = rand_admissible(), rand_admissible()
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            sum_expansion = expand_ghost([poly([*g1.terms.items(), *g2.terms.items()])], m)
            e1, e2 = expand_ghost([g1], m), expand_ghost([g2], m)
            scaled = expand_ghost([poly({e: scale * c for e, c in g1.terms.items()})], m)
            for lvl in range(m):
                s = sum_expansion.levels[lvl].components[0].residue
                a = e1.levels[lvl].components[0].residue
                b = e2.levels[lvl].components[0].residue
                assert s == tuple(x + y for x, y in zip(a, b))
                assert scaled.levels[lvl].components[0].residue == tuple(scale * x for x in a)


class TestResidueTheorem:
    @pytest.mark.parametrize("m", range(1, 6))
    def test_scaled_linear_map(self, m):
        for c in (Fraction(1), Fraction(-3), Fraction(5, 7)):
            report = verify_residue_theorem([mono((1, 0, 0), c)], m)
            assert report.expected_residue == (c,)
            for level in report.expansion.levels:
                assert level.components[0].residue == (c,)

    def test_zero_map_passes(self):
        report = verify_residue_theorem([LaurentPoly(XYT)], 1)
        assert report.expected_residue == (Fraction(0),)

    def test_oracle_agreement(self):
        rng = random.Random(71)
        for _ in range(40):
            m = rng.randint(1, 5)
            terms = {}
            for _ in range(rng.randint(0, 6)):
                a = rng.randint(1, 4)
                c = rng.randint(0, 4 - a)
                terms[(a, 0, c)] = terms.get((a, 0, c), 0) + rng.randint(-9, 9)
            g = LaurentPoly(XYT, terms)
            report = verify_residue_theorem([g], m)
            oracle = oracle_chain_restrictions(g, m)
            for level in report.expansion.levels:
                for j in range(level.level, m + 1):
                    got = {e[0]: c for e, c in restriction(g, m, level.level, j).terms.items()}
                    assert got == oracle.get((level.level, j), {})

    def test_one_shot_iterable_gives_the_tuple_report(self):
        coords = (poly({(1, 0, 0): 3, (0, 0, 1): 2}), poly({(1, 0, 0): 1, (0, 1, 2): 5}))
        expected = outcome(verify_residue_theorem, coords, 2)
        assert outcome(verify_residue_theorem, (g for g in coords), 2) == expected
        assert verify_residue_theorem(iter(coords), 2).expected_residue == (Fraction(3), Fraction(1))
        assert expand_ghost((g for g in coords), 2) == expand_ghost(coords, 2)

    def test_expected_from_effective_branch(self):
        g = poly({(1, 0, 0): 4, (2, 0, 0): 7, (1, 0, 2): -5})
        assert effective_branch_derivative([g]) == (Fraction(4),)

    def test_feeds_obstruction_single_point(self):
        # a nonzero residue at one attachment point makes the injectivity
        # test fire; a zero one leaves it inconclusive
        for g, expected in (
            (X, Verdict.NOT_EVENTUALLY_SMOOTHABLE),
            (mono((2, 0, 0)), Verdict.INCONCLUSIVE),
        ):
            report = verify_residue_theorem([g, g], 2)
            deriv = report.expansion.levels[-1].components[0].residue
            delta = [Fraction(1, 2), Fraction(1, 2)]
            prob = ObstructionProblem(2, 2, [AttachmentColumn(delta=delta, deriv=deriv)])
            assert theorem_check(prob).verdict is expected


# x^a t^c, pure t^c (nonzero split-off constants), y^b t^c, and any
# nonnegative monomial, mixed xy included, which the xy -> t^m normal form
# rewrites as the command line does
MONOMIALS = st.one_of(
    st.tuples(st.integers(1, 3), st.just(0), st.integers(0, 3)),
    st.tuples(st.just(0), st.just(0), st.integers(1, 6)),
    st.tuples(st.just(0), st.integers(1, 2), st.integers(0, 10)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)


@st.composite
def ghost_maps(draw):
    m = draw(st.integers(1, 9))
    coordinate = st.lists(st.tuples(MONOMIALS, st.integers(-4, 4)), max_size=5)
    coords = draw(st.lists(coordinate, min_size=1, max_size=3))
    return [normal_form_xyt(LaurentPoly(XYT, terms), m) for terms in coords], m


def outcome(verify, components, m):
    """Everything a report or a failure exposes, for comparison: the report
    bytes, or the exception's type, message, level, component and the bytes
    of the levels it completed."""
    try:
        report = verify(components, m)
    except NonConstantLevel as exc:
        completed = dump_json(expansion_to_json(exc.levels_completed))
        return ("NonConstantLevel", str(exc), exc.level, exc.component, completed)
    except LocalModelError as exc:
        return (type(exc).__name__, str(exc))
    return ("report", dump_json(residue_report_to_json(report)))


def completed_levels(expand, components, m):
    """The levels an expansion completes, whether or not it stops; None on bad input."""
    try:
        return expand(components, m).levels
    except NonConstantLevel as exc:
        return exc.levels_completed
    except LocalModelError:
        return None


def assert_restrictions_match_oracle(components, m):
    """Every restriction the oracle builds equals ``restriction`` on the same level and component."""
    for level in completed_levels(oracle_expand_ghost, components, m) or ():
        for j, record in enumerate(level.components, start=level.level):
            assert record.restriction == tuple(restriction(g, m, level.level, j) for g in components)


class TestExpansionOracle:
    @given(ghost_maps())
    @settings(max_examples=400, deadline=None)
    def test_matches_level_by_level_oracle(self, case):
        components, m = case
        assert outcome(verify_residue_theorem, components, m) == outcome(
            oracle_verify_residue_theorem, components, m
        )
        assert_restrictions_match_oracle(components, m)

    def test_pure_t_terms_split_off_constants(self):
        report = verify_residue_theorem([poly({(1, 0, 0): 1, (0, 0, 1): 3, (0, 0, 2): 5})], 4)
        assert [lvl.constant for lvl in report.expansion.levels] == [
            (Fraction(0),), (Fraction(3),), (Fraction(5),), (Fraction(0),)
        ]
        assert all(lvl.components[0].residue == (Fraction(1),) for lvl in report.expansion.levels)


def normal_form_map(m, *coords):
    """Coordinates given as {(a, b, c): coeff}, reduced modulo xy = t^m as the CLI does."""
    return [normal_form_xyt(LaurentPoly(XYT, terms), m) for terms in coords]


# Beyond the m <= 9 the hypothesis oracle reaches: x^a t^c, pure t^c (nonzero
# split-off constants), y^b t^m (regular on the ghost branch), mixed terms
# that the normal form pushes past the last level, y t^c stops, and terms
# that no level sees: t^(m+3), y t^(m+1), x^2 t^(m-1) and x t^m.
LARGE_M_CASES = {
    "m40-pass": (40, [
        {(1, 0, 0): 1, (0, 0, 1): 3, (0, 0, 2): 5, (2, 0, 1): -2, (3, 0, 0): 7,
         (0, 1, 40): 4, (3, 1, 1): 6},
        {(1, 0, 0): 2, (0, 0, 7): -1, (0, 2, 40): Fraction(1, 3), (2, 2, 0): 9},
    ]),
    "m64-pass": (64, [
        {(1, 0, 0): Fraction(5, 7), (1, 0, 3): 1, (4, 0, 0): -3, (0, 0, 63): 2,
         (0, 3, 64): 1, (2, 1, 5): 8},
        {(2, 0, 0): 1, (0, 0, 30): -4},
        {(1, 0, 0): -1, (1, 1, 0): 2},
    ]),
    "m40-stop": (40, [
        {(1, 0, 0): 1, (0, 0, 5): 2, (0, 1, 17): 3},
    ]),
    "m40-unseen": (40, [
        {(1, 0, 0): 3, (0, 0, 43): 1, (0, 1, 41): -2, (2, 0, 39): 5, (1, 0, 40): 7},
        {(0, 0, 43): 4, (0, 1, 41): 1, (2, 0, 39): -1, (1, 0, 40): 2, (0, 0, 2): 6},
    ]),
    "m64-stop": (64, [
        {(1, 0, 0): 1, (0, 0, 2): 1},
        {(3, 0, 1): 2, (0, 2, 33): -1, (1, 2, 1): 5},
    ]),
}


class TestClosedFormPullback:
    @pytest.mark.parametrize("name", sorted(LARGE_M_CASES))
    def test_pinned_large_m_matches_oracle(self, name):
        m, coords = LARGE_M_CASES[name]
        components = normal_form_map(m, *coords)
        result = outcome(verify_residue_theorem, components, m)
        assert result == outcome(oracle_verify_residue_theorem, components, m)
        assert result[0] == ("NonConstantLevel" if name.endswith("stop") else "report")
        assert_restrictions_match_oracle(components, m)

    def test_never_substitutes(self, monkeypatch):
        cases = [(normal_form_map(m, *coords), m) for m, coords in LARGE_M_CASES.values()]
        expected = [outcome(verify_residue_theorem, *case) for case in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("expand_ghost must not substitute")

        monkeypatch.setattr(laurent_module, "substitute", forbidden)
        monkeypatch.setattr(selftest_module, "substitute", forbidden)
        monkeypatch.setattr(Chart, "pullback", forbidden)
        assert [outcome(verify_residue_theorem, *case) for case in cases] == expected

    @given(ghost_maps())
    @settings(max_examples=200, deadline=None)
    def test_restrictions_are_canonical(self, case):
        components, m = case
        for level in completed_levels(expand_ghost, components, m) or ():
            for j in range(level.level, m + 1):
                for g in components:
                    restricted = restriction(g, m, level.level, j)
                    assert restricted == LaurentPoly(("w",), restricted.terms)
                    assert all(
                        type(e) is tuple and len(e) == 1 and type(e[0]) is int
                        and type(c) is Fraction and c
                        for e, c in restricted.terms.items()
                    )

    @pytest.mark.parametrize("name", sorted(LARGE_M_CASES))
    def test_request_path_builds_no_restriction(self, monkeypatch, capsys, tmp_path, name):
        m, coords = LARGE_M_CASES[name]
        terms = [
            [{"exps": list(exps), "coeff": str(coeff)} for exps, coeff in coord.items()]
            for coord in coords
        ]
        path = tmp_path / "local.json"
        path.write_text(json.dumps({"local_model": {"m": m, "G": terms}}))
        argv = ["localmodel", str(path), "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr()
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = localmodel_module.restriction
        monkeypatch.setattr(localmodel_module, "restriction", counted)
        assert main(argv) == 0
        assert capsys.readouterr() == expected
        assert len(calls) == (1 if name.endswith("stop") else 0)
