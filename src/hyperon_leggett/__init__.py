"""Bell and Leggett inequality tests for entangled hyperon pairs.

The package computes exact two-qubit predictions under biased/unsharp
two-outcome measurements, treats hyperon weak decays as spontaneous unsharp
spin measurements, evaluates the local- and nonlocal-realism bounds, and
simulates joint decay events with estimators that rebuild the correlation
functions from finite samples.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name by its module.  Exports and submodules are imported on first access
# (PEP 562), so a command loads only the modules it runs: the scans never load simulation.
_EXPORTS = {
    "quantum": ("Direction", "TwoQubitState", "X_AXIS", "Y_AXIS", "Z_AXIS", "expectation",
                "pauli_dot", "singlet_state", "spin_state", "tensor", "triplet_m0_state"),
    "povm": ("DecayAmplitudes", "MeasurementParams", "alpha_from_amplitudes", "decay_kraus",
             "mean_polarization", "outcome_probability", "povm_element"),
    "geometry": ("TripleSettings", "build_settings", "flip_b_prime", "load_settings",
                 "save_settings", "validate_settings"),
    "correlations": ("OUTCOMES", "correlation_singlet", "correlation_triplet_m0",
                     "correlation_via_operators", "joint_prob_matrix", "joint_prob_singlet"),
    "inequalities": ("InequalityReport", "ch_povm_lhs", "chsh_povm", "leggett_diff_lhs",
                     "leggett_max_lhs", "leggett_sum_curve", "leggett_sum_lhs",
                     "leggett_violation_condition", "optimal_phi", "symmetric_alpha_threshold"),
    "catalog": ("DecayMode", "ProductionChannel", "channel_correlation",
                "default_catalog_path", "load_catalog", "make_pair_channel"),
    "simulation": ("EstimatedCorrelation", "EventSample", "estimate_correlation",
                   "estimate_leggett_lhs", "load_events", "sample_pair_decay", "save_events"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "eventtext", "floattext")
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups find it without this hook
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
