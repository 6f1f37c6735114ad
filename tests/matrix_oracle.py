"""Test-only matrix helpers and the Fraction RREF oracle for ``QMatrix``.

``QMatrix`` keeps only what the program uses; these build and combine
matrices for the tests, and ``oracle_rank`` / ``oracle_kernel_basis``
recompute rank and kernel with plain Gauss-Jordan elimination on
``Fraction`` entries, independently of the integer echelon.
"""

from __future__ import annotations

from fractions import Fraction

from ghostcheck.exact import QMatrix


def identity(size: int) -> QMatrix:
    return QMatrix([[1 if i == j else 0 for j in range(size)] for i in range(size)])


def zeros(rows: int, cols: int) -> QMatrix:
    return QMatrix([[0] * cols for _ in range(rows)])


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix([[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)])


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return QMatrix(
        [
            [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def rref(m: QMatrix) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, on Fractions.

    Pivot rule: first remaining row with a nonzero entry in the leftmost
    unresolved column.
    """
    grid = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot = next((i for i in range(r, m.rows) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        inv = 1 / grid[r][c]
        grid[r] = [x * inv for x in grid[r]]
        for i in range(m.rows):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return grid, tuple(pivots)


def oracle_rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def oracle_kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """One vector per free column, free coordinate 1, pivots read off the RREF."""
    reduced, pivots = rref(m)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return basis
