"""Similarity diagnostics: conjugation by upper-unipotent block operators, the
minimal intertwiner for the square-root relation, and its norm growth across
truncations, each a prefix of one spectrum.  On any finite truncation the
intertwiner exists; the meaningful finite shadow of non-similarity is that
its norm diverges with the truncation.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .reports import ConvergenceReport
from .scalars import to_float
from .spectrum import BlockOperator, DiagonalOperator, SpectrumSequence


class IntertwinerSolve(NamedTuple):
    """Minimal-norm diagonal solution B of B N = N^(1/2) on a truncation.
    `prefix_norms[m - 1]` is the largest |B_n|, n <= m, the norm of the
    solve on the first m points; `norm` is the last of them."""

    truncation: int
    intertwiner: DiagonalOperator
    norm: float
    residual: float
    prefix_norms: tuple[float, ...]


def conjugate_by_upper_unipotent(X: BlockOperator, B: DiagonalOperator) -> BlockOperator:
    """Conjugate X by [[I, B], [0, I]] (exact block algebra).

    The upper-right block of the result is X12 + B X22 - X11 B; the diagonal
    blocks are unchanged.
    """
    if X.dim != len(B):
        raise ValueError("dimension mismatch between the operator and the conjugator")
    b12 = X.b12 + (B @ X.b22) - (X.b11 @ B)
    return BlockOperator(X.b11, b12, X.b22)


def minimal_intertwiner(spectrum: SpectrumSequence) -> IntertwinerSolve:
    """Solve B N = N^(1/2) entrywise: B = diag(lambda_n^(-1/2)), residual zero.

    The spectrum's points are positive by construction and its cached roots
    are read, so B is always defined on the truncation.  Each entry of B is
    floated once, for the prefix maxima of |B_n|; the last is bitwise
    `B.norm()`.  An exactly zero residual is 0.0 with no float taken.
    """
    roots = spectrum.roots
    B = DiagonalOperator(tuple(1 / r for r in roots))
    residual_diag = (B @ spectrum.diagonal()) - DiagonalOperator(roots)
    residual = 0.0 if residual_diag.is_zero() else residual_diag.norm()
    norms = tuple(itertools.accumulate((abs(to_float(b)) for b in B.diag), max))
    return IntertwinerSolve(len(spectrum), B, norms[-1], residual, norms)


def similarity_growth_sweep(spectrum: SpectrumSequence, truncations: Sequence[int]
                            ) -> tuple[ConvergenceReport, IntertwinerSolve]:
    """Minimal intertwiner norm per truncation size, with the solve behind it.

    Each truncation is a prefix of `spectrum`, and so is its intertwiner:
    one solve on the whole spectrum, whose residual bounds every prefix's,
    gives the norm at M as its prefix maximum, the largest |B_n|, n <= M,
    bitwise the prefix solve's `DiagonalOperator.norm`.  Verdicts:
    `threshold_met` is vacuously true with tolerance 0 (the sweep has no
    threshold); the `bounded` slot certifies strict norm growth, the finite
    shadow of unboundedness.  The solve is handed back so that callers read
    its residual and intertwiner without solving again.
    """
    if not truncations:
        raise ValueError("truncations: must not be empty")
    if any(b <= a for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncations: must be strictly increasing")
    if truncations[0] < 1 or truncations[-1] > len(spectrum):
        raise ValueError("truncations: must lie between 1 and the spectrum length")
    solve = minimal_intertwiner(spectrum)
    rows = [(int(m), solve.prefix_norms[m - 1]) for m in truncations]
    increasing = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
    report = ConvergenceReport(("M", "intertwiner_norm"), tuple(rows), True, increasing, 0.0)
    return report, solve
