"""Bell and Leggett inequality tests for entangled hyperon pairs.

The package computes exact two-qubit predictions under biased/unsharp
two-outcome measurements, treats hyperon weak decays as spontaneous unsharp
spin measurements, evaluates the local- and nonlocal-realism bounds, and
simulates joint decay events with estimators that rebuild the correlation
functions from finite samples.
"""

__version__ = "0.1.0"

from .quantum import (Direction, TwoQubitState, X_AXIS, Y_AXIS, Z_AXIS,
                      expectation, pauli_dot, singlet_state, spin_state,
                      tensor, triplet_m0_state)
from .povm import (DecayAmplitudes, MeasurementParams, alpha_from_amplitudes,
                   decay_kraus, mean_polarization, outcome_probability,
                   povm_element)
from .geometry import (TripleSettings, build_settings, flip_b_prime,
                       load_settings, save_settings, validate_settings)
from .correlations import (OUTCOMES, correlation_singlet, correlation_triplet_m0,
                           correlation_via_operators, joint_prob_matrix,
                           joint_prob_singlet, parity_flip_z)
from .inequalities import (InequalityReport, ch_povm_lhs, chsh_povm,
                           leggett_diff_lhs, leggett_max_lhs, leggett_sum_curve,
                           leggett_sum_lhs, leggett_violation_condition,
                           optimal_phi, symmetric_alpha_threshold)
from .catalog import (DecayMode, ProductionChannel, channel_correlation,
                      default_catalog_path, load_catalog, make_pair_channel)
from .simulation import (EstimatedCorrelation, EventSample, estimate_correlation,
                         estimate_leggett_lhs, load_events, sample_pair_decay,
                         save_events)
