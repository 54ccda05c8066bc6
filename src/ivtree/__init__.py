"""Translation-invariant Gibbs measures for the Ising model with competing
nearest-neighbor and prolonged next-nearest-neighbor interactions on the
order-3 Cayley tree."""

from .fixpoint import (
    FixedPointReport,
    ThresholdReport,
    critical_points,
    find_positive_fixed_points,
    iterate_map,
    predict_count,
    solve_fixed_points,
)
from .model import (
    BoundaryFieldVector,
    ConfigClass,
    CouplingParameters,
    SemiBallConfiguration,
    TransferWeights,
    classify_config,
    couplings,
    derive_weights,
    field_form_from_pqrs,
    field_from_scalar,
)
from .oracle import (
    CayleyTree,
    FiniteVolumeMeasure,
    build_tree,
    finite_measure,
    hamiltonian,
    kolmogorov_consistency_check,
    verify_recurrence_by_enumeration,
)
from .recurrence import (
    UVector,
    VVector,
    check_identities,
    full_step,
    reduced_step,
    scalar_map_dg,
    scalar_map_g,
)
from .scanner import GridSpec, PhasePoint, emit_csv, emit_curve, emit_jsonl, scan_grid

__version__ = "0.1.0"

__all__ = [
    "BoundaryFieldVector",
    "CayleyTree",
    "ConfigClass",
    "CouplingParameters",
    "FiniteVolumeMeasure",
    "FixedPointReport",
    "GridSpec",
    "PhasePoint",
    "SemiBallConfiguration",
    "ThresholdReport",
    "TransferWeights",
    "UVector",
    "VVector",
    "build_tree",
    "check_identities",
    "classify_config",
    "couplings",
    "critical_points",
    "derive_weights",
    "emit_csv",
    "emit_curve",
    "emit_jsonl",
    "field_form_from_pqrs",
    "field_from_scalar",
    "find_positive_fixed_points",
    "finite_measure",
    "full_step",
    "hamiltonian",
    "iterate_map",
    "kolmogorov_consistency_check",
    "predict_count",
    "reduced_step",
    "scalar_map_dg",
    "scalar_map_g",
    "scan_grid",
    "solve_fixed_points",
    "verify_recurrence_by_enumeration",
]
