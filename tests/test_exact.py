from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostcheck.exact import IntEchelon, QMatrix, integer, integerize, rat, rat_to_str
from matrix_oracle import identity, matmul, oracle_kernel_basis, oracle_rank, transpose, zeros


def _det(rows):
    # Laplace expansion; only used on minors up to 4x4
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def minor_rank(matrix: QMatrix) -> int:
    """Independent rank oracle: size of the largest nonvanishing minor."""
    best = 0
    for size in range(1, min(matrix.rows, matrix.cols) + 1):
        found = False
        for rr in combinations(range(matrix.rows), size):
            for cc in combinations(range(matrix.cols), size):
                sub = [[matrix.entries[i][j] for j in cc] for i in rr]
                if _det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if not found:
            break
        best = size
    return best


class TestRat:
    def test_parse_and_format(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-3/4") == Fraction(-3, 4)
        assert rat("5") == Fraction(5)
        assert rat(7) == Fraction(7)
        assert rat_to_str(Fraction(6, 8)) == "3/4"
        assert rat_to_str(Fraction(-5)) == "-5"
        assert rat_to_str(Fraction(10, 2)) == "5"

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "3/4/5", "", "a"])
    def test_rejects_non_rational_strings(self, bad):
        with pytest.raises(ValueError):
            rat(bad)

    @pytest.mark.parametrize("digits", ["\u0663", "\uff11/\u0662"], ids=["arabic-indic", "fullwidth-over-arabic-indic"])
    def test_rejects_non_ascii_digits(self, digits):
        # Fraction would read these as 3 and 1/2
        with pytest.raises(ValueError):
            rat(digits)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            rat(True)
        with pytest.raises(TypeError):
            rat(False)

    @pytest.mark.parametrize("zero_den", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_is_value_error(self, zero_den):
        with pytest.raises(ValueError):
            rat(zero_den)

    @given(
        st.sampled_from(("", "+", "-")),
        st.text("0", max_size=3),
        st.integers(0, 10**40),
        st.one_of(st.none(), st.integers(1, 10**40)),
        st.integers(1, 12),
        st.text(" \t\n", max_size=2),
    )
    def test_equals_fraction_on_valid_literals(self, sign, zeros, num, den, common, pad):
        # signs, leading zeros and a/b with a common factor, read as Fraction reads them
        if den is None:
            s = f"{sign}{zeros}{num}"
        else:
            s = f"{sign}{zeros}{num * common}/{zeros}{den * common}"
        assert rat(pad + s + pad) == Fraction(s)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert rat(rat_to_str(q)) == q

    @pytest.mark.parametrize("bad", [True, False, 2.0, 2.7, "2", None, Fraction(2)])
    def test_integer_accepts_ints_only(self, bad):
        assert integer(-3) == -3
        with pytest.raises(TypeError):
            integer(bad)

    def test_integerize(self):
        assert integerize((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert integerize((Fraction(0), Fraction(0))) == (0, 0)
        assert integerize((Fraction(4), Fraction(6))) == (2, 3)
        assert integerize(()) == ()
        assert integerize((Fraction(-1, 2), Fraction(-1, 3))) == (-3, -2)
        assert integerize((Fraction(-4, 3), Fraction(0), Fraction(2, 9))) == (-6, 0, 1)
        # denominators 6, 10 and 15 share factors pairwise; their lcm is 30
        assert integerize((Fraction(1, 6), Fraction(-3, 10), Fraction(2, 15))) == (5, -9, 4)
        big = 10**29 + 7
        assert integerize((Fraction(1, big), Fraction(-2, 3))) == (3, -2 * big)


def plain_insert_loop(vectors):
    """``IntEchelon.of`` without its kernel skip: insert every vector until the rank is full."""
    echelon = IntEchelon()
    for vec in vectors:
        echelon = echelon.inserted(vec)
        if echelon.rank == len(vec):
            break
    return echelon


@st.composite
def dependent_lists(draw):
    """Up to 30 vectors, most of them integer combinations of a few base
    vectors (zero included), with a fresh vector now and then. Half the
    entries are 0, so that a fresh vector is often orthogonal to some but
    not all of a kernel basis."""
    width = draw(st.integers(1, 8))
    entries = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=width, max_size=width)
    base = draw(st.lists(entries, min_size=1, max_size=width))
    coefficients = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    vectors = []
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.integers(0, 5)) == 0:
            vectors.append(tuple(draw(entries)))
        else:
            c = draw(coefficients)
            vectors.append(tuple(sum(ci * b[j] for ci, b in zip(c, base)) for j in range(width)))
    return vectors


class TestIntEchelonOf:
    def test_stops_reading_at_full_rank(self):
        def vectors():
            yield (0, 0)
            yield (2, 4)
            yield (1, 3)
            raise AssertionError("read past full rank")

        assert IntEchelon.of(vectors()).rank == 2

    def test_deficient_and_empty(self):
        assert IntEchelon.of([(1, 2, 3), (2, 4, 6), (0, 0, 0)]).rank == 1
        assert IntEchelon.of([]).rank == 0

    def test_skips_vectors_orthogonal_to_the_kernel(self, monkeypatch):
        # the first (1, 1, 0) is reduced and found dependent at rank 2 of 3,
        # which fetches the kernel (0, 0, 1); its copies are never reduced
        calls = []
        inserted = IntEchelon.inserted

        def counted(self, vec):
            calls.append(vec)
            return inserted(self, vec)

        monkeypatch.setattr(IntEchelon, "inserted", counted)
        vectors = [(1, 0, 0), (0, 1, 0)] + [(1, 1, 0)] * 5 + [(0, 0, 1)]
        assert IntEchelon.of(vectors).rank == 3
        assert calls == [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]

    @given(dependent_lists())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_plain_insert_loop(self, vectors):
        echelon, plain = IntEchelon.of(vectors), plain_insert_loop(vectors)
        assert (echelon.rows, echelon.pivots) == (plain.rows, plain.pivots)

    @given(dependent_lists())
    @settings(max_examples=200, deadline=None)
    def test_kernel_vectors_are_orthogonal_to_every_row(self, vectors):
        echelon, width = IntEchelon.of(vectors), len(vectors[0])
        free = [f for f in range(width) if f not in echelon.pivots]
        for f in free:
            v = echelon.kernel_vector(f, width)
            assert all(sum(map(mul, row, v)) == 0 for row in echelon.rows)
            assert v[f] > 0 and not any(v[c] for c in free if c != f)
            assert gcd(*v) == 1


class TestQMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QMatrix([])
        with pytest.raises(ValueError):
            QMatrix([[1, 2], [3]])

    def test_rank_identity(self):
        assert identity(2).rank() == 2

    def test_rank_zero_matrix(self):
        assert zeros(3, 4).rank() == 0

    def test_rank_dependent_rows(self):
        assert QMatrix([[1, 2], [2, 4]]).rank() == 1

    def test_rank_rational_entries(self):
        m = QMatrix([["1/2", "1/3"], ["1/4", "1/6"]])
        assert m.rank() == 1

    def test_kernel_single_row(self):
        (v,) = QMatrix([[1, 1]]).kernel_basis()
        assert v[0] * 1 + v[1] * 1 == 0
        assert v[0] / v[1] == -1

    def test_kernel_identity_is_empty(self):
        assert identity(2).kernel_basis() == []

    def test_kernel_two_rows(self):
        (v,) = QMatrix([[1, 0, 1], [0, 1, 1]]).kernel_basis()
        scale = v[2] / Fraction(-1)
        assert v == (scale * 1, scale * 1, scale * -1)

    def test_matvec_and_matmul(self):
        m = QMatrix([[1, 2], [3, 4]])
        assert m.matvec([1, 0]) == (Fraction(1), Fraction(3))
        assert matmul(m, identity(2)).entries == m.entries


class TestRankKernelProperties:
    def test_random_corpus(self):
        # 500 matrices with entries in -9..9, sizes up to 6x6
        rng = random.Random(2024)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = QMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            r = m.rank()
            assert r == transpose(m).rank()
            basis = m.kernel_basis()
            assert len(basis) == cols - r
            for v in basis:
                assert all(x == 0 for x in m.matvec(v))

    def test_rank_matches_minor_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = QMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            assert m.rank() == minor_rank(m)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_transpose_invariant(self, entries):
        m = QMatrix(entries)
        assert m.rank() == transpose(m).rank()

    def test_rank_bounds(self):
        rng = random.Random(99)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = QMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            assert 0 <= m.rank() <= min(rows, cols)


@st.composite
def oracle_matrices(draw):
    """Integer or fractional entries, tall and wide shapes, with zero rows,
    zero columns and repeated (possibly rescaled) rows mixed in."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.integers(-9, 9))
    else:
        entry = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=9))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    index_row, index_col = st.integers(0, rows - 1), st.integers(0, cols - 1)
    for i in draw(st.lists(index_row, max_size=2)):
        grid[i] = [0] * cols
    for j in draw(st.lists(index_col, max_size=2)):
        for row in grid:
            row[j] = 0
    for src, dst in draw(st.lists(st.tuples(index_row, index_row), max_size=3)):
        scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
        grid[dst] = [scale * x for x in grid[src]]
    return QMatrix(grid)


class TestFractionOracle:
    """The integer echelon against the Fraction RREF, tuple for tuple."""

    @given(oracle_matrices())
    @settings(max_examples=400, deadline=None)
    def test_rank_and_kernel_equal_oracle(self, m):
        assert m.rank() == oracle_rank(m)
        basis = m.kernel_basis()
        assert basis == oracle_kernel_basis(m)
        assert all(type(x) is Fraction for v in basis for x in v)

    def test_tall_and_wide(self):
        rng = random.Random(5)
        for rows, cols in ((14, 3), (3, 14), (12, 12)):
            for _ in range(10):
                m = QMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
                assert m.rank() == oracle_rank(m)
                assert m.kernel_basis() == oracle_kernel_basis(m)
