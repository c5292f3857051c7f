"""Small exact linear algebra over the rationals: row reduction, nullspaces,
and solving inside a span.  Everything works on lists of Fractions; sizes here
are tiny (derivation systems on algebras of dimension at most a few dozen)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = list[Fraction]
Matrix = list[Vector]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace(rows: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace of the matrix (exact)."""
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def solve_in_span(basis: Sequence[Vector], target: Vector) -> Vector | None:
    """Coefficients expressing `target` in the span of `basis`, or None."""
    if not basis:
        return [] if all(x == 0 for x in target) else None
    n = len(target)
    aug = [[basis[j][i] for j in range(len(basis))] + [target[i]] for i in range(n)]
    reduced, pivots = rref(aug)
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][-1]
    return coeffs

