from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ghostcheck.curves import NodalRationalModel
from ghostcheck.exact import QMatrix
from ghostcheck.factory import (
    FactoryError,
    ModelConstructionError,
    StratumSpec,
    build_line_star_instance,
    dim_moduli,
    dim_stratum,
    random_instance,
)
from ghostcheck.obstruction import (
    MAX_SUBSET_POINTS,
    Verdict,
    corollary_check,
    obstruction_matrix,
    theorem_check,
)
from matrix_oracle import oracle_rank


class TestDimModuli:
    @pytest.mark.parametrize(
        "N,g,d,expected",
        [(3, 4, 12, 48), (3, 1, 2, 8), (3, 1, 1, 4), (2, 2, 4, 13), (1, 1, 1, 2), (4, 3, 5, 23)],
    )
    def test_fixtures(self, N, g, d, expected):
        assert dim_moduli(N, g, d) == expected

    def test_degree_bound_enforced(self):
        with pytest.raises(FactoryError):
            dim_moduli(3, 2, 2)  # d < 2g - 1

    def test_positivity_preconditions(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(FactoryError):
                dim_moduli(*bad)


class TestStratumSpec:
    def test_derived_quantities(self):
        spec = StratumSpec(3, 4, [(0, 1)] * 12)
        assert spec.n_points == 12
        assert spec.genus == 4
        assert spec.degree == 12

    def test_part_constraints(self):
        with pytest.raises(FactoryError):
            StratumSpec(3, 1, [(2, 3)])  # d_i < 2 g_i
        with pytest.raises(FactoryError):
            StratumSpec(3, 1, [(0, 0)])
        with pytest.raises(FactoryError):
            StratumSpec(3, 0, [(0, 1)])
        with pytest.raises(FactoryError):
            StratumSpec(3, 1, [])

    def test_total_degree_bound(self):
        # total genus 4 needs total degree >= 7
        with pytest.raises(FactoryError):
            StratumSpec(2, 3, [(1, 2), (0, 1)])

    def test_non_integer_values_rejected(self):
        # never truncated to parts ((0, 3),)
        with pytest.raises(TypeError):
            StratumSpec(2, 2, [(0.7, 3.9)])
        with pytest.raises(TypeError):
            StratumSpec(2.0, 2, [(0, 3)])


class TestDimStratum:
    @pytest.mark.parametrize(
        "N,h,parts,expected",
        [
            (3, 4, [(0, 1)] * 12, 48),
            (2, 2, [(0, 1)] * 4, 13),
            (3, 1, [(0, 2)], 10),
            (2, 3, [(1, 2), (0, 5)], 28),
            (4, 2, [(0, 2), (0, 2), (1, 2)], 33),
            (1, 1, [(0, 1)], 2),
        ],
    )
    def test_fixtures(self, N, h, parts, expected):
        assert dim_stratum(StratumSpec(N, h, parts)) == expected

    def test_single_part_specialization(self):
        # one attached part of genus 0: dim = moduli dim + N*h - 1
        for big_n, h, d in [(2, 2, 4), (3, 3, 6), (4, 2, 5)]:
            spec = StratumSpec(big_n, h, [(0, d)])
            assert dim_stratum(spec) == dim_moduli(big_n, h, d) + big_n * h - 1

    def test_closed_form_identity(self):
        rng = random.Random(53)
        for _ in range(200):
            parts = []
            for _ in range(rng.randint(1, 5)):
                g_i = rng.randint(0, 2)
                parts.append((g_i, rng.randint(max(1, 2 * g_i), 2 * g_i + 3)))
            try:
                spec = StratumSpec(rng.randint(1, 4), rng.randint(1, 4), parts)
            except FactoryError:
                continue
            total_g = spec.genus
            total_d = spec.degree
            closed = (spec.ambient_dim - 3) * (1 - total_g) + total_d * (spec.ambient_dim + 1)
            closed += spec.ambient_dim * spec.ghost_genus - spec.n_points
            assert dim_stratum(spec) == closed


class TestLineStarInstance:
    def test_small_case_full_rank(self):
        problem = build_line_star_instance(2, 2)
        matrix = obstruction_matrix(problem)
        assert (matrix.rows, matrix.cols) == (4, 4)
        assert matrix.rank() == 4
        verdict = corollary_check(problem)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.witness_D == (0, 1, 2, 3)

    def test_nodal_rank_six(self):
        problem = build_line_star_instance(2, 3, "nodal_rational")
        assert theorem_check(problem).rank == 6

    def test_group_derivatives_are_standard_basis(self):
        problem = build_line_star_instance(3, 2)
        for i, point in enumerate(problem.points):
            group = i // 2
            expected = [Fraction(0)] * 3
            expected[group] = Fraction(1)
            assert list(point.deriv) == expected

    def test_columns_count(self):
        problem = build_line_star_instance(4, 5, "nodal_rational")
        assert problem.n_points == 20
        assert problem.genus == 5
        assert problem.ambient_dim == 4

    def test_parameter_bounds(self):
        with pytest.raises(FactoryError):
            build_line_star_instance(1, 3)
        with pytest.raises(FactoryError):
            build_line_star_instance(3, 1)
        with pytest.raises(FactoryError):
            build_line_star_instance(2, 2, "unknown")

    def test_hyperelliptic_capacity_limit(self):
        with pytest.raises(ModelConstructionError):
            build_line_star_instance(5, 4, "hyperelliptic")
        # the nodal model has no such limit
        assert build_line_star_instance(5, 4, "nodal_rational").n_points == 20

    def test_star_size_bound(self):
        assert build_line_star_instance(2, 12, "nodal_rational").n_points == MAX_SUBSET_POINTS
        with pytest.raises(FactoryError) as info:
            build_line_star_instance(5, 5, "nodal_rational")
        assert str(info.value) == "a line star with N = 5, h = 5 has 25 points, over the limit 24"

    def test_nodal_groups_are_consecutive_integers(self):
        # group i is the h consecutive parameters from 2h + i h, so point k sits at 2h + k
        big_n, h = 4, 5
        problem = build_line_star_instance(big_n, h, "nodal_rational")
        model = NodalRationalModel(h, [(2 * j, 2 * j + 1) for j in range(h)])
        assert [p.delta for p in problem.points] == [
            model.ev_vector(2 * h + k) for k in range(big_n * h)
        ]

    def test_nodal_rank_lemma(self):
        # any h distinct integers >= 2h have evaluation rank h on the star's nodal model
        rng = random.Random(2718)
        for _ in range(150):
            h = rng.randint(1, 8)
            model = NodalRationalModel(h, [(2 * j, 2 * j + 1) for j in range(h)])
            params = rng.sample(range(2 * h, 2 * h + rng.choice((h, 40, 10**6))), h)
            assert oracle_rank(QMatrix([model.ev_vector(p) for p in params])) == h


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(123, 2, 3, 4)
        b = random_instance(123, 2, 3, 4)
        assert a == b

    def test_seeds_differ(self):
        assert random_instance(1, 2, 2, 4) != random_instance(2, 2, 2, 4)

    def test_bounds_respected(self):
        problem = random_instance(7, 3, 3, 6, coeff_bound=2)
        for p in problem.points:
            assert all(-2 <= v <= 2 for v in p.delta)
            assert all(-2 <= v <= 2 for v in p.deriv)

    def test_parameter_validation(self):
        with pytest.raises(FactoryError):
            random_instance(1, 0, 1, 1)

    def test_oversized_always_inconclusive(self):
        # more points than g*N forces a kernel
        for seed in range(10):
            problem = random_instance(seed, 1, 2, 5)
            assert theorem_check(problem).verdict is Verdict.INCONCLUSIVE

    def test_single_point_fires_iff_both_vectors_nonzero(self):
        rng = random.Random(83)
        fired = inconclusive = 0
        for _ in range(4000):
            if fired >= 20 and inconclusive >= 5:
                break
            problem = random_instance(rng.getrandbits(32), 1, rng.randint(1, 3), 1, coeff_bound=1)
            point = problem.points[0]
            expected_fire = any(point.delta) and any(point.deriv)
            verdict = theorem_check(problem).verdict
            assert (verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE) == expected_fire
            fired += expected_fire
            inconclusive += not expected_fire
        assert fired >= 20 and inconclusive >= 5
