"""Noisy nonlocal games: values, certificates, self-tests and protocols.

The package evaluates quantum strategies for the CHSH, magic-square and
2-out-of-n CHSH games when the players share depolarized (or more general
diagonal-correlation) entangled registers, certifies the closed-form value
bounds through sum-of-squares decompositions, extracts the underlying qubit
observables from near-optimal statistics, and simulates the game-repetition
protocols with trace tests and noise-rate estimation.
"""

from .pauli import (
    PauliExpansion,
    StandardBasis,
    ValidationError,
    apply_depolarizing_coeffs,
    apply_general_scaling,
    degree_profile,
    hs_distance,
    normalized_trace,
    pauli_basis,
    pauli_expand,
    pauli_expand_naive,
    pauli_reconstruct,
    two_qubit_pauli_basis,
)
from .states import (
    BipartiteState,
    CorrelationSpectrum,
    bit_phase_flip_epr,
    canonicalize_to_epr,
    correlation_matrix,
    diagonalize_correlation,
    make_depolarized_epr,
    make_epr_power,
    maximal_correlation,
    ppt_separability_2x2,
)
from .games import (
    ChshStrategy,
    GameValueReport,
    MagicSquareReport,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    derived_observable,
    magic_square_value,
    marginal_pair_observable,
    trace_error,
    two_out_of_n_value,
)
from .certificates import (
    SoSCertificate,
    chsh_sos_certificate,
    chsh_upper_bound,
    classical_baselines,
    magic_square_upper_bound,
    ms_consistency_certificate,
)
from .extraction import (
    anticommutator_norm,
    bloch_relation,
    chsh_selftest,
    commutator_norm,
    general_noise_selftest,
    lp_min_closed_form,
    ms_local_unitary,
    ms_selftest,
    nearest_binary_observable,
    observable_scaling_residual,
    pauli_pair_unitary,
    povm_projectivity_report,
    register_concentration,
    two_out_of_n_selftest,
)
from .protocols import (
    NoiseEstimate,
    ProtocolParams,
    ProtocolTranscript,
    derive_delta,
    estimate_noise_rate,
    run_protocol,
    sample_round,
    trace_soundness_bound,
)
from .optimizer import (
    grid_bruteforce_chsh_qubit,
    random_search_ms,
    seesaw_chsh,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
