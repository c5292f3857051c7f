"""Small exact linear algebra over the rationals: row reduction, nullspaces,
solving inside a span, and an incremental echelon form.  The inputs are
integer rows (scale a rational row by its common denominator first: that
leaves its row space, and so the reduced form, unchanged).  Elimination is
integer-preserving, each updated row divided by its content, and the exact
Fractions of the reduced form are built at the end, one division per entry.
Sizes here are small (derivation systems on algebras of dimension at most a
few dozen)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = list[Fraction]
Matrix = list[Vector]


def _primitive(row: list[int]) -> list[int] | None:
    """The row divided by the gcd of its entries, or None if it is zero."""
    g = math.gcd(*row)
    if not g:
        return None
    return row if g == 1 else [x // g for x in row]


def _reduce(v: list[int], rows: dict[int, list[int]]) -> list[int] | None:
    """v reduced fraction-free against the rows, pivot column -> row, each
    zero at the pivots of the rows before it: v becomes p * v - v[c] * row
    over its content.  The primitive remainder, or None if v is in their span."""
    v = _primitive(v)
    for c, row in rows.items():
        if v is None:
            break
        f = v[c]
        if f:
            v = _primitive([row[c] * x - f * y for x, y in zip(v, row)])
    return v


def rref(rows: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (Fractions) and pivot column indices of an
    integer matrix, exact.  Row by row: a row is reduced against the reduced
    rows so far and, if a remainder is left, its leading column is cleared
    from them and it joins them.  Once every column is a pivot, the rest of
    the rows lie in the span and are skipped."""
    ncols = len(rows[0]) if rows else 0
    reduced: dict[int, list[int]] = {}
    for v in rows:
        if len(reduced) == ncols:
            break
        v = _reduce(list(v), reduced)
        if v is None:
            continue
        c = next(i for i, x in enumerate(v) if x)
        q = v[c]
        for pc, row in reduced.items():
            f = row[c]
            if f:
                reduced[pc] = _primitive([q * x - f * y for x, y in zip(row, v)])
        reduced[c] = v
    pivots = sorted(reduced)
    return [[Fraction(x, reduced[c][c]) for x in reduced[c]] for c in pivots], pivots


def nullspace(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace of the integer matrix (exact): one vector
    per free column, with 1 there and 0 at the other free columns."""
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


def solve_in_span(basis: Sequence[Sequence[int]],
                  targets: Sequence[Sequence[int]]) -> list[Vector] | None:
    """Coefficients expressing each integer target in the span of the integer
    basis vectors, or None if any target lies outside it.  All targets share
    one elimination of [basis columns | target columns]; a basis vector that
    depends on earlier ones (a free column) gets coefficient 0."""
    s = len(basis)
    columns = [*basis, *targets]
    size = len(columns[0]) if columns else 0
    reduced, pivots = rref([[v[e] for v in columns] for e in range(size)])
    if pivots and pivots[-1] >= s:
        return None
    coeffs = [[Fraction(0)] * s for _ in targets]
    for row, pc in zip(reduced, pivots):
        for k, c in enumerate(coeffs):
            c[pc] = row[s + k]
    return coeffs


def extend_echelon(echelon: dict[int, list[int]], v: Sequence[int]) -> bool:
    """Reduce the integer vector v against the echelon rows (pivot column ->
    row, each zero at the pivots of the rows before it).  If v is not in
    their span, add its primitive remainder under its leading column and
    return True; otherwise return False."""
    v = _reduce(list(v), echelon)
    if v is None:
        return False
    echelon[next(i for i, x in enumerate(v) if x)] = v
    return True
