"""fusionkit: amenability computations for fusion rings.

Two independent routes to amenability evidence for fusion rings (group
rings and corepresentation rings of compact quantum groups): combinatorial
Foelner conditions on weighted boundaries, and truncated Kesten-type
spectral tests for the convolution operators.  The two can be run against
each other and against closed-form answers for the catalog rings.
"""
from .catalog import (build_deformed_su2_ring, build_su2_ring, cyclic_ring,
                      free_group_ring, group_ring_from_table,
                      integer_lattice_ring, measure_from_decomposition,
                      tensor_product, trivial_ring)
from .core import (AxiomCheck, AxiomReport, Element, FusionRing, ProbMeasure,
                   conjugate_element, convolve, indicator, multiply,
                   natural_trace, product_basis, subset_weight, verify_axioms)
from .errors import (BudgetExceeded, EmptySet, FusionError, IncompleteTable,
                     InvalidLabel, InvalidParam, InvalidTable,
                     MeasureMissingUnit, NoConvergence, NonSymmetricMeasure,
                     NotSelfAdjoint, RingMismatch, ZeroFunction)
from .foelner import (BoundaryResult, CurvePoint, FoelnerReport, SearchResult,
                      boundary, dirichlet_norm, fc1_check, fc2_check,
                      fc3_check, foelner_search, inner_sigma, lp_sigma_norm,
                      nw_ratio, transition_kernel, transition_kernel_exact)
from .ringio import export_table, load_ring, ring_from_doc, save_ring
from .spectral import (AmenabilityReport, CompressedOperator, RadiusEstimate,
                       SpectralEstimate, TruncationWindow, Verdict,
                       amenability_estimate, build_window, gns_operator,
                       l_measure_operator, l_operator, lambda_measure_apply,
                       lambda_operator_apply, rho1_operator_apply,
                       rho_measure_apply, top_eigenvalue)

__version__ = "0.1.0"

__all__ = [
    "AmenabilityReport", "AxiomCheck", "AxiomReport", "BoundaryResult",
    "BudgetExceeded", "CompressedOperator", "CurvePoint", "Element",
    "EmptySet", "FoelnerReport", "FusionError", "FusionRing",
    "IncompleteTable", "InvalidLabel", "InvalidParam", "InvalidTable",
    "MeasureMissingUnit", "NoConvergence", "NonSymmetricMeasure",
    "NotSelfAdjoint", "ProbMeasure", "RadiusEstimate", "RingMismatch",
    "SearchResult", "SpectralEstimate", "TruncationWindow", "Verdict",
    "ZeroFunction", "amenability_estimate", "boundary",
    "build_deformed_su2_ring", "build_su2_ring", "build_window",
    "conjugate_element", "convolve", "cyclic_ring",
    "dirichlet_norm", "export_table", "fc1_check", "fc2_check", "fc3_check",
    "foelner_search", "free_group_ring", "gns_operator",
    "group_ring_from_table", "indicator", "inner_sigma",
    "integer_lattice_ring", "l_measure_operator", "l_operator",
    "lambda_measure_apply", "lambda_operator_apply", "load_ring",
    "lp_sigma_norm", "measure_from_decomposition", "multiply",
    "natural_trace", "nw_ratio", "product_basis", "rho1_operator_apply",
    "rho_measure_apply", "ring_from_doc", "save_ring", "subset_weight",
    "tensor_product", "top_eigenvalue", "transition_kernel",
    "transition_kernel_exact", "trivial_ring", "verify_axioms",
]
