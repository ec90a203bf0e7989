"""Noisy nonlocal games: values, certificates, self-tests and protocols.

The package evaluates quantum strategies for the CHSH, magic-square and
2-out-of-n CHSH games when the players share depolarized (or more general
diagonal-correlation) entangled registers, certifies the closed-form value
bounds through sum-of-squares decompositions, extracts the underlying qubit
observables from near-optimal statistics, and simulates the game-repetition
protocols with trace tests and noise-rate estimation.

The package root re-exports the seven names of the README's Python API;
every other name is imported from its module.
"""

from .certificates import chsh_sos_certificate
from .extraction import chsh_selftest
from .games import canonical_chsh_strategy, chsh_violation
from .protocols import ProtocolParams, estimate_noise_rate, run_protocol

__all__ = [
    "canonical_chsh_strategy",
    "chsh_violation",
    "chsh_sos_certificate",
    "chsh_selftest",
    "ProtocolParams",
    "run_protocol",
    "estimate_noise_rate",
    "__version__",
]

__version__ = "0.1.0"
