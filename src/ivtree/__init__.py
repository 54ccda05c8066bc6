"""Translation-invariant Gibbs measures for the Ising model with competing
nearest-neighbor and prolonged next-nearest-neighbor interactions on the
order-3 Cayley tree.

Each public name loads its module on first use (PEP 562), so a run imports
only the layers it calls: a grid scan loads the scanner and the private
kernels _solver and _check (this one only to check consistency).
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, as the module defines them
_EXPORTS = {
    "fixpoint": ("FixedPointReport", "ThresholdReport", "critical_points", "emit_curve",
                 "find_positive_fixed_points", "iterate_map", "solve_fixed_points"),
    "model": ("BoundaryFieldVector", "CouplingParameters", "TransferWeights", "couplings",
              "derive_weights", "field_from_scalar"),
    "oracle": ("CayleyTree", "FiniteVolumeMeasure", "build_tree", "finite_measure",
               "hamiltonian", "kolmogorov_consistency_check"),
    "recurrence": ("full_step", "scalar_map_dg", "scalar_map_g"),
    "scanner": ("GridSpec", "PhasePoint", "emit_csv", "emit_jsonl", "scan_grid"),
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    """Import the module that defines a public name, and keep the name here."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
