"""Collective pseudo-spin statistics and entanglement detection for
symmetric pure states of N two-level atoms.

The library computes, for any exchange-symmetric pure state, the rotated
transverse spin variances in the mean-spin-aligned frame, the squeezing
parameters Q and spectroscopic parameters xi_R, and the pairwise-correlation
entanglement parameter S.  S > 0 certifies entanglement; S = 0 does not
rule it out, and S depends on the choice of transverse axes.  A brute-force
2**N tensor-product oracle independently recomputes every quantity for
cross-validation.
"""

from .dicke import (
    DickeState,
    CollectiveMoments,
    PairCorrelators,
    NORM_TOLERANCE,
    apply_jz,
    apply_jplus,
    apply_jminus,
    collective_moments,
    pairwise_correlators,
)
from .errors import (
    SpinentError,
    NormalizationError,
    LengthMismatchError,
    InvalidQuantumNumberError,
    InsufficientAtomsError,
    DegenerateMeanSpinError,
    DimensionCapError,
    NotSymmetricError,
    WrongAtomCountError,
)
from .frame import (
    DEFAULT_EPSILON,
    MeanSpin,
    Frame,
    mean_spin,
    build_frame,
    rotation_matrix,
    rotated_first_moments,
)
from .metrics import (
    DEFAULT_S_TOLERANCE,
    Classification,
    MetricsReport,
    StateAnalysis,
    transverse_variances,
    correlation_terms,
    correlation_terms_pairwise,
    entanglement_parameter,
    s_from_variances,
    squeezing_parameters,
    s_from_q,
    spectroscopic_parameters,
    s_from_xi,
    classify,
    analyze,
)
from .oracle import (
    DEFAULT_DIMENSION_CAP,
    FullState,
    OracleReport,
    dicke_to_full,
    full_to_dicke,
    single_atom_action,
    oracle_metrics,
    schmidt_rank_two_atoms,
)
from .states import (
    CoherentSpec,
    coherent_state,
    dicke_state,
    twisted_state,
    custom_state,
    random_state,
)

__version__ = "0.1.0"

__all__ = [
    "DickeState", "CollectiveMoments", "PairCorrelators", "NORM_TOLERANCE",
    "apply_jz", "apply_jplus", "apply_jminus", "collective_moments",
    "pairwise_correlators",
    "SpinentError", "NormalizationError", "LengthMismatchError",
    "InvalidQuantumNumberError", "InsufficientAtomsError",
    "DegenerateMeanSpinError", "DimensionCapError", "NotSymmetricError",
    "WrongAtomCountError",
    "DEFAULT_EPSILON", "MeanSpin", "Frame", "mean_spin", "build_frame",
    "rotation_matrix", "rotated_first_moments",
    "DEFAULT_S_TOLERANCE", "Classification", "MetricsReport",
    "StateAnalysis", "transverse_variances", "correlation_terms",
    "correlation_terms_pairwise", "entanglement_parameter",
    "s_from_variances", "squeezing_parameters", "s_from_q",
    "spectroscopic_parameters", "s_from_xi", "classify", "analyze",
    "DEFAULT_DIMENSION_CAP", "FullState", "OracleReport", "dicke_to_full",
    "full_to_dicke", "single_atom_action", "oracle_metrics",
    "schmidt_rank_two_atoms",
    "CoherentSpec", "coherent_state", "dicke_state", "twisted_state",
    "custom_state", "random_state",
    "__version__",
]
