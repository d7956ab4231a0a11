"""Finite braid group representations from a deformed oscillator algebra.

The package builds lowest-weight subspaces of n-fold tensor products of
deformed-oscillator representations and computes the braid generator
matrices acting there, with exact Laurent arithmetic in the homogeneous
case and cross-checked numeric routes otherwise.
"""

from .scalars import (
    DEFAULT_TOLS,
    Laurent,
    Phase,
    Tolerances,
    q_number,
)
from .oscillator import (
    BraidoscError,
    Context,
    RepLabel,
    TensorState,
    WeightVector,
    apply_casimir,
    apply_coproduct,
    apply_generator,
    apply_intertwiner,
    apply_monomial,
    basis_state,
    homogeneous_context,
    marked_context,
    vacuum,
)
from .weightspace import (
    DimensionMismatchError,
    counts,
    lowest_weight_dimension,
    lowest_weight_kernel,
    lowest_weight_kernel_exact,
    lowest_weight_monomials,
    monomial_exponents,
    span_residual,
    verify_decomposition,
    weight_basis,
    weight_dimension,
)
from .braid import (
    BasisElement,
    BraidMatrix,
    GramSolveError,
    apply_braid_generator,
    braid_relation_defect,
    build_matrices,
    closed_form_burau,
    closed_form_lkb,
    closed_form_marked_n1,
    compare_transition_formulas,
    evaluate_word,
    family_to_json,
    inverse_defect,
    pair_basis_change,
    reduced_burau_reference,
    sigma_weight_matrix,
    unreduced_burau,
)

# verify is loaded on first use: matrix, word and dims never need it
_VERIFY_NAMES = ("CheckResult", "SuiteReport", "run_suites", "suite_algebra", "suite_braid", "suite_spaces")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLS",
    "Laurent",
    "Phase",
    "Tolerances",
    "q_number",
    "BraidoscError",
    "Context",
    "RepLabel",
    "TensorState",
    "WeightVector",
    "apply_casimir",
    "apply_coproduct",
    "apply_generator",
    "apply_intertwiner",
    "apply_monomial",
    "basis_state",
    "homogeneous_context",
    "marked_context",
    "vacuum",
    "DimensionMismatchError",
    "counts",
    "lowest_weight_dimension",
    "lowest_weight_kernel",
    "lowest_weight_kernel_exact",
    "lowest_weight_monomials",
    "monomial_exponents",
    "span_residual",
    "verify_decomposition",
    "weight_basis",
    "weight_dimension",
    "BasisElement",
    "BraidMatrix",
    "GramSolveError",
    "apply_braid_generator",
    "braid_relation_defect",
    "build_matrices",
    "closed_form_burau",
    "closed_form_lkb",
    "closed_form_marked_n1",
    "compare_transition_formulas",
    "evaluate_word",
    "family_to_json",
    "inverse_defect",
    "pair_basis_change",
    "reduced_burau_reference",
    "sigma_weight_matrix",
    "unreduced_burau",
    "CheckResult",
    "SuiteReport",
    "run_suites",
    "suite_algebra",
    "suite_braid",
    "suite_spaces",
    "__version__",
]
