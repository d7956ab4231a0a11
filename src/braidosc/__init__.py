"""Finite braid group representations from a deformed oscillator algebra.

The package builds lowest-weight subspaces of n-fold tensor products of
deformed-oscillator representations and computes the braid generator
matrices acting there, with exact Laurent arithmetic in the homogeneous
case and cross-checked numeric routes otherwise.

Names load on first use: ``import braidosc`` imports no submodule, and
reading ``braidosc.build_matrices`` imports ``braid`` (and numpy) then.
Each read looks the name up in its submodule again and nothing is stored
here, so a function replaced in its submodule is what the package returns.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in __all__ order
_SOURCE = {
    "DEFAULT_TOLS": "scalars",
    "Laurent": "scalars",
    "Phase": "scalars",
    "Tolerances": "scalars",
    "q_number": "scalars",
    "BraidoscError": "scalars",
    "Context": "oscillator",
    "RepLabel": "oscillator",
    "TensorState": "oscillator",
    "WeightVector": "oscillator",
    "apply_casimir": "oscillator",
    "apply_coproduct": "oscillator",
    "apply_generator": "oscillator",
    "apply_intertwiner": "oscillator",
    "apply_monomial": "oscillator",
    "basis_state": "oscillator",
    "homogeneous_context": "oscillator",
    "marked_context": "oscillator",
    "vacuum": "oscillator",
    "DimensionMismatchError": "weightspace",
    "counts": "scalars",
    "lowest_weight_dimension": "scalars",
    "lowest_weight_kernel": "weightspace",
    "lowest_weight_kernel_exact": "weightspace",
    "lowest_weight_monomials": "weightspace",
    "monomial_exponents": "weightspace",
    "span_residual": "weightspace",
    "verify_decomposition": "weightspace",
    "weight_basis": "weightspace",
    "weight_dimension": "scalars",
    "BasisElement": "braid",
    "BraidMatrix": "braid",
    "GramSolveError": "braid",
    "apply_braid_generator": "braid",
    "braid_relation_defect": "braid",
    "build_matrices": "braid",
    "closed_form_burau": "braid",
    "closed_form_lkb": "braid",
    "closed_form_marked_n1": "braid",
    "compare_transition_formulas": "braid",
    "evaluate_word": "braid",
    "family_to_json": "braid",
    "inverse_defect": "braid",
    "pair_basis_change": "braid",
    "reduced_burau_reference": "braid",
    "sigma_weight_matrix": "braid",
    "unreduced_burau": "braid",
    "CheckResult": "verify",
    "SuiteReport": "verify",
    "run_suites": "verify",
    "suite_algebra": "verify",
    "suite_braid": "verify",
    "suite_spaces": "verify",
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module("." + _SOURCE[name], __name__), name)
    if name in _SOURCE.values():
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
