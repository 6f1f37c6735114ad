from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostcheck.cli as cli_module
import ghostcheck.obstruction as obstruction_module
from ghostcheck.cli import EXIT_INTERNAL, main
from ghostcheck.exact import IntEchelon, QMatrix, integerize
from ghostcheck.factory import random_instance
from ghostcheck.jsonio import dump_json, problem_to_json
from ghostcheck.obstruction import (
    AttachmentColumn,
    CorollaryVerdict,
    NotAKernelVector,
    ObstructionProblem,
    TheoremVerdict,
    TooManyPoints,
    Verdict,
    corollary_check,
    kernel_to_witness_d,
    obstruction_matrix,
    rank_inequality_holds,
    subset_ranks,
    theorem_check,
)
from matrix_oracle import oracle_kernel_basis, oracle_rank
from obstruction_oracle import brute_force_passing_subsets


def problem(genus, ambient, columns):
    return ObstructionProblem(
        genus, ambient, [AttachmentColumn(delta=d, deriv=v) for d, v in columns]
    )


class TestObstructionMatrix:
    def test_one_by_one(self):
        p = problem(1, 1, [((1,), (1,))])
        assert obstruction_matrix(p).entries == ((Fraction(1),),)

    def test_outer_product_layout(self):
        p = problem(2, 2, [((1, 0), (0, 1))])
        assert obstruction_matrix(p).entries == (
            (Fraction(0),),
            (Fraction(1),),
            (Fraction(0),),
            (Fraction(0),),
        )

    def test_row_index_convention(self):
        # entry (a, b) of column i is delta[a] * deriv[b] at row a*N + b
        p = problem(2, 3, [((2, 3), (5, 7, 11))])
        rows = obstruction_matrix(p).entries
        assert len(rows) == 6
        for a in range(2):
            for b in range(3):
                assert rows[a * 3 + b] == (p.points[0].delta[a] * p.points[0].deriv[b],)

    def test_fractional_points_with_zero_covector_entries(self):
        columns = [
            (("1/2", "0", "-3"), ("2/3", "-1/4")),
            (("0", "0", "5/7"), ("0", "9")),
            (("-4/9", "1", "0"), ("3/2", "1/6")),
            (("0", "0", "0"), ("1", "-1")),
        ]
        p = problem(3, 2, columns)
        expected = tuple(
            tuple(pt.delta[a] * pt.deriv[b] for pt in p.points)
            for a in range(3)
            for b in range(2)
        )
        assert obstruction_matrix(p).entries == expected

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            problem(2, 2, [((1,), (0, 1))])
        with pytest.raises(ValueError):
            problem(2, 2, [((1, 0), (1,))])
        with pytest.raises(ValueError):
            ObstructionProblem(2, 2, [])

    def test_non_integer_dimensions_rejected(self):
        with pytest.raises(TypeError):
            problem(2.0, 1, [((1, 0), (1,))])
        with pytest.raises(TypeError):
            problem(2, True, [((1, 0), (1,))])


class TestTheoremCheck:
    def test_single_nonzero_column_fires(self):
        verdict = theorem_check(problem(1, 1, [((1,), (1,))]))
        assert verdict.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE
        assert verdict.rank == 1
        assert verdict.kernel_witness is None

    def test_zero_derivative_column(self):
        p = problem(2, 2, [((1, 0), (1, 0)), ((0, 1), (0, 0))])
        verdict = theorem_check(p)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.kernel_witness == (Fraction(0), Fraction(1))

    def test_equal_columns(self):
        p = problem(2, 2, [((1, 2), (3, 4)), ((1, 2), (3, 4))])
        verdict = theorem_check(p)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        w = verdict.kernel_witness
        assert w[0] == -w[1] != 0  # proportional to (1, -1)
        assert all(v == 0 for v in obstruction_matrix(p).matvec(w))

    def test_rank_bound(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_instance(rng.getrandbits(32), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 6))
            verdict = theorem_check(p)
            assert verdict.rank <= min(p.n_points, p.genus * p.ambient_dim)
            fired = verdict.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE
            assert fired == (verdict.rank == p.n_points)

    @pytest.mark.parametrize("n_points", [3, 9])
    def test_eliminates_once(self, monkeypatch, n_points):
        # g*N = 4 rows: three points give full rank, nine points a kernel;
        # one integer elimination, no Fraction matrix, one back-substitution
        # only when there is a kernel
        p = random_instance(17, 2, 2, n_points)
        expected = (
            TheoremVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, 3, None)
            if n_points == 3
            else TheoremVerdict(Verdict.INCONCLUSIVE, 4, oracle_kernel_basis(obstruction_matrix(p))[0])
        )
        calls = []
        of, kernel_vector = IntEchelon.of.__func__, IntEchelon.kernel_vector

        def counted_of(cls, vectors):
            calls.append("of")
            return of(cls, vectors)

        def counted_kernel_vector(self, f, width):
            calls.append("kernel_vector")
            return kernel_vector(self, f, width)

        def forbidden(*args):
            raise AssertionError("theorem_check built the Fraction matrix")

        monkeypatch.setattr(IntEchelon, "of", classmethod(counted_of))
        monkeypatch.setattr(IntEchelon, "kernel_vector", counted_kernel_vector)
        monkeypatch.setattr(obstruction_module, "obstruction_matrix", forbidden)
        monkeypatch.setattr(QMatrix, "rank", forbidden)
        monkeypatch.setattr(QMatrix, "kernel_basis", forbidden)
        assert theorem_check(p) == expected
        assert calls == (["of"] if n_points == 3 else ["of", "kernel_vector"])

    def test_skips_rows_orthogonal_to_the_kernel(self, monkeypatch):
        # 81 rows, 24 points, one of them with a zero derivative: 23 rows reach
        # the final rank, the 24th is dependent, and the other 57 are skipped
        generic = random_instance(29, 9, 9, 24).points
        p = problem(9, 9, [(pt.delta, (0,) * 9 if i == 5 else pt.deriv) for i, pt in enumerate(generic)])
        calls = []
        inserted = IntEchelon.inserted

        def counted(self, vec):
            calls.append(vec)
            return inserted(self, vec)

        monkeypatch.setattr(IntEchelon, "inserted", counted)
        verdict = theorem_check(p)
        assert len(calls) == 24
        witness = tuple(Fraction(i == 5) for i in range(24))
        assert verdict == TheoremVerdict(Verdict.INCONCLUSIVE, 23, witness)


@st.composite
def theorem_problems(draw):
    """g, N <= 3 and n up to g*N + 3, so kernels of dimension 2 and more occur.

    Entries are integers, fractions over one shared denominator or over
    30-digit ones; points may be zero on either factor, repeat an earlier
    point up to scale, or share its covector with a rescaled derivative.
    """
    genus, ambient = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, genus * ambient + 3))
    shared = draw(st.sampled_from((1, 6, 10**29 + 3)))
    long_denominators = st.integers(10**29, 10**30 - 1)

    def entry():
        kind = draw(st.sampled_from(("zero", "shared", "shared", "long")))
        if kind == "zero":
            return Fraction(0)
        numerator = draw(st.integers(-9, 9))
        return Fraction(numerator, shared if kind == "shared" else draw(long_denominators))

    def vector(dim):
        return [entry() for _ in range(dim)]

    columns = []
    for _ in range(n):
        kinds = ["fresh"] * 4 + ["zero_delta", "zero_deriv"] + (["copy", "proportional"] if columns else [])
        kind = draw(st.sampled_from(kinds))
        if kind in ("copy", "proportional"):
            delta, deriv = draw(st.sampled_from(columns))
            scale = draw(st.sampled_from((1, -1, 2, Fraction(-7, 3))))
            if kind == "copy":
                delta = [scale * x for x in delta]
            deriv = [scale * x for x in deriv]
        else:
            delta = [0] * genus if kind == "zero_delta" else vector(genus)
            deriv = [0] * ambient if kind == "zero_deriv" else vector(ambient)
        columns.append((delta, deriv))
    return problem(genus, ambient, columns)


class TestTheoremOracle:
    @settings(max_examples=300, deadline=None)
    @given(theorem_problems())
    def test_rank_and_witness_equal_the_fraction_oracle(self, p):
        matrix = obstruction_matrix(p)
        basis = oracle_kernel_basis(matrix)
        verdict = Verdict.INCONCLUSIVE if basis else Verdict.NOT_EVENTUALLY_SMOOTHABLE
        expected = TheoremVerdict(verdict, oracle_rank(matrix), basis[0] if basis else None)
        assert theorem_check(p) == expected


class TestCorollaryCheck:
    def test_single_point_fires(self):
        verdict = corollary_check(problem(2, 2, [((1, 0), (0, 1))]))
        assert verdict.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE
        assert verdict.witness_D is None

    def test_zero_derivative_inconclusive(self):
        p = problem(2, 2, [((1, 0), (1, 0)), ((0, 1), (0, 0))])
        verdict = corollary_check(p)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.witness_D == (1,)

    def test_cap_at_24_points(self):
        cols = [((1,), (1,))] * 25
        with pytest.raises(TooManyPoints):
            corollary_check(problem(1, 1, cols))

    def test_matches_naive_enumeration(self):
        rng = random.Random(17)
        for _ in range(150):
            p = random_instance(
                rng.getrandbits(32), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 7)
            )
            verdict = corollary_check(p)
            # brute_force_passing_subsets lists subsets in (|D|, lex) order
            reference = next(iter(brute_force_passing_subsets(p)), None)
            if reference is None:
                assert verdict.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE
                assert verdict.witness_D is None
            else:
                assert verdict.verdict is Verdict.INCONCLUSIVE
                assert verdict.witness_D == reference

    def test_witness_is_minimal(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(100):
            p = random_instance(rng.getrandbits(32), 2, 2, rng.randint(2, 6))
            verdict = corollary_check(p)
            if verdict.witness_D is None:
                continue
            passing = brute_force_passing_subsets(p)
            ordered = sorted(passing, key=lambda d: (len(d), d))
            assert verdict.witness_D == ordered[0]
            checked += 1
        assert checked > 10


@st.composite
def degenerate_problems(draw):
    """g, N <= 4 and n <= 9, with zero, repeated and proportional columns.

    n stops one above g + N, as every larger problem passes as a whole, and
    fresh columns are drawn most often, so that a fair share is obstructed.
    """
    genus, ambient = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, min(9, genus + ambient + 1)))

    def column(dim, earlier):
        kinds = ["zero"] + ["fresh"] * 6 + (["copy"] if earlier else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return [0] * dim
        if kind == "copy":
            scale = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
            return [scale * v for v in draw(st.sampled_from(earlier))]
        return draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))

    deltas, derivs = [], []
    for _ in range(n):
        deltas.append(column(genus, deltas))
        derivs.append(column(ambient, derivs))
    return problem(genus, ambient, list(zip(deltas, derivs)))


OBSTRUCTED_30 = random_instance(5, 16, 16, 30)  # generic, so every D has f(D) >= 2


class TestMatroidPartitionVerdict:
    @settings(max_examples=400, deadline=None)
    @given(degenerate_problems())
    def test_matches_brute_force_enumeration(self, p):
        reference = next(iter(brute_force_passing_subsets(p)), None)
        verdict = Verdict.NOT_EVENTUALLY_SMOOTHABLE if reference is None else Verdict.INCONCLUSIVE
        assert corollary_check(p) == CorollaryVerdict(verdict, reference)

    def test_obstructed_problems_skip_the_witness_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the witness search ran on an obstructed problem")

        rng = random.Random(43)
        obstructed = [OBSTRUCTED_30]
        while len(obstructed) < 30:
            p = random_instance(rng.getrandbits(32), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 6))
            if not brute_force_passing_subsets(p):
                obstructed.append(p)
        monkeypatch.setattr(obstruction_module, "_first_witness_of_size", forbidden)
        for p in obstructed:
            assert corollary_check(p) == CorollaryVerdict(Verdict.NOT_EVENTUALLY_SMOOTHABLE, None)

    def test_corrupted_split_is_an_internal_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "thirty.json"
        path.write_text(dump_json({"version": 1, **problem_to_json(OBSTRUCTED_30)}))

        def dependent_side(e, side, displaced):
            return tuple(range(len(side))), (e,)  # 30 derivatives in a 16-dimensional space

        monkeypatch.setattr(obstruction_module, "_split_with_copy", dependent_side)
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_INTERNAL and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal error: AssertionError: ")

    @pytest.mark.parametrize(
        "p, kernel_witness",
        [
            (OBSTRUCTED_30, (Fraction(1),) * 30),  # corollary obstructed, theorem not
            (problem(1, 1, [((1,), (1,)), ((1,), (1,))]), (Fraction(1), Fraction(0))),  # D = {0, 1}
        ],
        ids=["obstructed-corollary", "support-below-witness"],
    )
    def test_disagreeing_verdicts_are_an_internal_error(
        self, capsys, monkeypatch, tmp_path, p, kernel_witness
    ):
        path = tmp_path / "problem.json"
        path.write_text(dump_json({"version": 1, **problem_to_json(p)}))

        def inconclusive(q):
            return TheoremVerdict(Verdict.INCONCLUSIVE, q.n_points - 1, kernel_witness)

        monkeypatch.setattr(cli_module, "theorem_check", inconclusive)
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_INTERNAL and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal error: AssertionError: ")


@st.composite
def scan_problems(draw):
    """n <= 10 with zero, repeated and proportional columns and 30-digit entries."""
    genus, ambient = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(3, 10))
    small = st.integers(-2, 2)
    large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    # a zero column passes alone, so most problems have none and a larger witness
    zeros = ["zero"] if draw(st.integers(0, 3)) == 0 else []

    def column(dim, earlier):
        kinds = zeros + ["small", "small", "large"] + (["copy"] if earlier else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return [0] * dim
        if kind == "copy":
            scale = draw(st.sampled_from((1, -1, 3, Fraction(-7, 10**29))))
            return [scale * v for v in draw(st.sampled_from(earlier))]
        entries = small if kind == "small" else large
        return draw(st.lists(entries, min_size=dim, max_size=dim).filter(any))

    deltas, derivs = [], []
    for _ in range(n):
        deltas.append(column(genus, deltas))
        derivs.append(column(ambient, derivs))
    return problem(genus, ambient, list(zip(deltas, derivs)))


class TestFirstWitnessOfSize:
    @settings(max_examples=100, deadline=None)
    @given(scan_problems())
    def test_every_size_matches_the_first_passing_combination(self, p):
        n = p.n_points
        vcols = [integerize(q.deriv) for q in p.points]
        ecols = [integerize(q.delta) for q in p.points]
        for size in range(1, n + 1):
            expected = next(
                (d for d in combinations(range(n), size) if rank_inequality_holds(p, d)), None
            )
            assert obstruction_module._first_witness_of_size(size, n, vcols, ecols) == expected


class TestCheckSplits:
    @staticmethod
    def columns_and_splits(p):
        vcols = [integerize(q.deriv) for q in p.points]
        ecols = [integerize(q.delta) for q in p.points]
        return vcols, ecols, obstruction_module._obstruction_splits(vcols, ecols)

    def test_dependent_side_names_its_point(self):
        vcols, ecols, splits = self.columns_and_splits(OBSTRUCTED_30)
        obstruction_module._check_splits(vcols, ecols, splits)
        k = 7
        splits[k] = (tuple(range(30)), splits[k][1])  # 30 derivatives in a 16-dimensional space
        with pytest.raises(AssertionError, match=f"split for point {k} fails"):
            obstruction_module._check_splits(vcols, ecols, splits)

    def test_split_that_misses_a_point_raises(self):
        vcols, ecols, splits = self.columns_and_splits(OBSTRUCTED_30)
        k, missing = 7, 12
        splits[k] = tuple(tuple(i for i in side if i != missing) for side in splits[k])
        with pytest.raises(AssertionError, match=f"split for point {k} fails"):
            obstruction_module._check_splits(vcols, ecols, splits)

    def test_inserts_each_distinct_prefix_once(self, monkeypatch):
        vcols, ecols, splits = self.columns_and_splits(random_instance(1, 2, 64, 64))
        prefixes = sum(
            len({split[k][:d] for split in splits for d in range(1, len(split[k]) + 1)}) for k in (0, 1)
        )
        assert prefixes < sum(len(a) + len(b) for a, b in splits)
        calls = 0
        inserted = IntEchelon.inserted

        def counted(self, vec):
            nonlocal calls
            calls += 1
            return inserted(self, vec)

        monkeypatch.setattr(IntEchelon, "inserted", counted)
        obstruction_module._check_splits(vcols, ecols, splits)
        assert calls == prefixes


class TestSubsetRanks:
    def test_equal_fraction_oracle(self):
        # columns are drawn fresh, zero, or as scaled copies of earlier ones, and
        # subsets may repeat an index
        rng = random.Random(4104)

        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

        for _ in range(300):
            g, big_n, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 8)
            columns = []
            for _ in range(n):
                draw = rng.random()
                if columns and draw < 0.3:
                    delta, deriv = rng.choice(columns)
                    scale = Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 2))
                    columns.append((tuple(scale * x for x in delta), deriv))
                elif draw < 0.5:
                    columns.append(((0,) * g, tuple(entry() for _ in range(big_n))))
                elif draw < 0.6:
                    columns.append((tuple(entry() for _ in range(g)), (0,) * big_n))
                else:
                    columns.append(
                        (tuple(entry() for _ in range(g)), tuple(entry() for _ in range(big_n)))
                    )
            p = problem(g, big_n, columns)
            subset = [rng.randrange(n) for _ in range(rng.randint(1, n + 2))]
            expected = tuple(
                oracle_rank(QMatrix([getattr(p.points[i], side) for i in subset]))
                for side in ("deriv", "delta")
            )
            assert subset_ranks(p, subset) == expected

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError):
            subset_ranks(problem(1, 1, [((1,), (1,))]), ())


class TestKernelToWitness:
    def test_equal_columns_support(self):
        p = problem(2, 2, [((1, 2), (3, 4)), ((1, 2), (3, 4))])
        witness = theorem_check(p).kernel_witness
        d = kernel_to_witness_d(p, witness)
        assert d == (0, 1)
        rank_v, rank_e = subset_ranks(p, d)
        assert rank_v + rank_e <= len(d)

    def test_zero_column_support(self):
        p = problem(2, 2, [((1, 0), (1, 0)), ((0, 1), (0, 0))])
        d = kernel_to_witness_d(p, (0, 1))
        assert d == (1,)

    def test_random_instances_satisfy_inequality(self):
        rng = random.Random(29)
        found = 0
        while found < 40:
            p = random_instance(rng.getrandbits(32), 2, 2, 5)
            verdict = theorem_check(p)
            if verdict.kernel_witness is None:
                continue
            d = kernel_to_witness_d(p, verdict.kernel_witness)
            assert rank_inequality_holds(p, d)
            assert d in set(brute_force_passing_subsets(p))
            found += 1

    def test_rejects_non_kernel_vectors(self):
        p = problem(1, 1, [((1,), (1,))])
        with pytest.raises(NotAKernelVector):
            kernel_to_witness_d(p, (1,))
        with pytest.raises(NotAKernelVector):
            kernel_to_witness_d(p, (0,))
        with pytest.raises(NotAKernelVector):
            kernel_to_witness_d(p, (0, 1))


class TestInvariances:
    def test_soundness_ordering_sample(self):
        rng = random.Random(31)
        for _ in range(200):
            p = random_instance(
                rng.getrandbits(32), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 6)
            )
            if corollary_check(p).verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE:
                assert theorem_check(p).verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE

    def test_column_scaling_invariance(self):
        rng = random.Random(37)
        for _ in range(60):
            p = random_instance(rng.getrandbits(32), 2, 3, rng.randint(1, 5))
            scaled_cols = []
            for col in p.points:
                s = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
                t = Fraction(rng.choice((-2, 1, 4)), rng.choice((1, 3)))
                scaled_cols.append(
                    AttachmentColumn(
                        delta=[s * v for v in col.delta], deriv=[t * v for v in col.deriv]
                    )
                )
            q = ObstructionProblem(p.genus, p.ambient_dim, scaled_cols)
            tp, tq = theorem_check(p), theorem_check(q)
            assert tp.verdict is tq.verdict and tp.rank == tq.rank
            assert corollary_check(p) == corollary_check(q)

    def test_basis_change_invariance(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_instance(rng.getrandbits(32), 2, 2, rng.randint(1, 5))
            while True:
                s = QMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
                if s.rank() == 2:
                    break
            while True:
                t = QMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
                if t.rank() == 2:
                    break
            q = ObstructionProblem(
                p.genus,
                p.ambient_dim,
                [
                    AttachmentColumn(delta=s.matvec(c.delta), deriv=t.matvec(c.deriv))
                    for c in p.points
                ],
            )
            assert theorem_check(p).verdict is theorem_check(q).verdict
            assert corollary_check(p) == corollary_check(q)
