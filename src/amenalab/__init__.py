"""amenalab: a numerical laboratory for the compact triangular operator family
with a square-root coupling block over a diagonal positive spectrum.

It machine-checks three families of claims on finite truncations: the algebra
generated by the operator is spanned by explicit idempotents, every kernel
algebra of a character carries a bounded approximate identity built from
polynomial approximants, and the canonical similarity witness blows up with
the truncation size.
"""

from .polynomials import (InternalConsistencyError, MvtCheck, NotchFunction, Polynomial,
                          approximate_with_derivative, divide_shifted, evaluate_on_grid,
                          interval_sups, mvt_bound_check, notch, sup_norm, unit_notch)
from .reports import ConvergenceReport, write_report
from .scalars import Surd, as_fraction, exact_sqrt, is_exact_zero, to_float
from .spectrum import (BlockOperator, DiagonalOperator, SpectrumSequence,
                       apply_poly_to_block, build_T, build_shifted_T, make_spectrum,
                       operator_norm)
from .amenability import (ApproximationStep, DerivationSpace, algebra_element,
                          approximate_identity_step, approximate_identity_steps, bai_defect,
                          derivation_dimensions, derivation_space, generation_defect,
                          generation_defect_closed_form, idempotent_E,
                          idempotent_norm_closed_form, idempotent_partial_sum,
                          membership_residual, report_from_steps, unit_approximation_step,
                          unit_approximation_steps)
from .similarity import (IntertwinerSolve, conjugate_by_upper_unipotent,
                         minimal_intertwiner, similarity_growth_sweep)

__version__ = "0.1.0"

__all__ = [
    "ApproximationStep", "BlockOperator", "ConvergenceReport",
    "DerivationSpace", "DiagonalOperator", "InternalConsistencyError", "IntertwinerSolve",
    "MvtCheck", "NotchFunction", "Polynomial", "SpectrumSequence", "Surd", "algebra_element",
    "approximate_identity_step", "approximate_identity_steps", "approximate_with_derivative",
    "apply_poly_to_block", "as_fraction", "bai_defect", "build_T", "build_shifted_T",
    "conjugate_by_upper_unipotent", "derivation_dimensions", "derivation_space",
    "divide_shifted", "evaluate_on_grid", "exact_sqrt", "generation_defect",
    "generation_defect_closed_form", "idempotent_E", "idempotent_norm_closed_form",
    "idempotent_partial_sum", "interval_sups", "is_exact_zero", "make_spectrum",
    "membership_residual", "minimal_intertwiner", "mvt_bound_check", "notch", "operator_norm",
    "report_from_steps", "similarity_growth_sweep", "sup_norm", "to_float",
    "unit_approximation_step", "unit_approximation_steps", "unit_notch", "write_report",
]
