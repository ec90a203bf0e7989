"""Sum-of-squares certificates for the noisy-game value bounds, the closed
form bounds themselves, and classical baselines with enumeration oracles.

The certificates are exact operator identities: the gap between the bound at
zero trace error and the achieved value decomposes into manifestly
sign-controlled terms (squares, norm defects, and a noise deficit bounded
below by -sqrt(2) eps_tr^2 / rho).  Expectations are evaluated in coefficient
space, so certifying a strategy never builds a joint operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .games import (
    _MS_SIGNS,
    _MS_VARIABLES,
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    _chsh_report,
    ms_question_variables,
    ms_parity_target,
    variable_slot,
)
from .pauli import ValidationError


def chsh_upper_bound(rho: float, eps_tr: float) -> float:
    """Largest possible CHSH value for trace-bounded observables on shared
    depolarized pairs: 2*sqrt(2)*rho + sqrt(2)*eps_tr^2/rho."""
    if rho <= 0:
        raise ValidationError("the bound diverges at rho = 0")
    return 2 * np.sqrt(2) * rho + np.sqrt(2) * eps_tr ** 2 / rho


def magic_square_upper_bound(rho: float, eps_tr: float) -> float:
    """Consistency-test (hence overall) winning bound: (1+rho)/2 + eps_tr^2/(4 rho)."""
    if rho <= 0:
        raise ValidationError("the bound diverges at rho = 0")
    return (1 + rho) / 2 + eps_tr ** 2 / (4 * rho)


@dataclass
class SoSCertificate:
    game: str
    rho: float
    bound: float
    value: float
    gap_expectation: float
    terms: list = field(default_factory=list)  # (label, expectation)
    residual: float = 0.0

    def term_sum(self) -> float:
        return float(sum(v for _, v in self.terms))

    def square_terms(self) -> list:
        return [(k, v) for k, v in self.terms if k.startswith("square")]


def _sos_certificate(game: str, rho: float, bound: float, value: float,
                     plain: np.ndarray, comb: np.ndarray, kappa: float) -> SoSCertificate:
    """The SoS identity both certificates share, on coefficient rows: with
    p_i the plain rows and c_i = comb_i / kappa the noise-scaled rows they
    pair with, the gap sum_i kappa (1 - <p_i, c_i>) is kappa/2 ||p_i - c_i||^2
    (square_i) plus kappa/2 (1 - ||p_i||^2) (norm_defect_i) per i, plus the
    noise_deficit sum_i kappa/2 (1 - ||c_i||^2)."""
    c = comb / kappa
    half = kappa / 2
    terms = []
    for i, (p, ci) in enumerate(zip(plain, c)):
        terms.append((f"square_{i}", half * float((p - ci) @ (p - ci))))
        terms.append((f"norm_defect_{i}", half * (1 - float(p @ p))))
    terms.append(("noise_deficit", half * float(np.sum(1 - np.einsum("ix,ix->i", c, c)))))
    gap = bound - value
    cert = SoSCertificate(game, rho, bound, value, gap, terms)
    cert.residual = gap - cert.term_sum()
    return cert


def chsh_sos_certificate(strategy: ChshStrategy, rho: float,
                         noise_on: str = "bob") -> SoSCertificate:
    """Decompose 2*sqrt(2)*rho - value into squares plus defect terms.

    The shared identity (`_sos_certificate`) with kappa = sqrt(2) rho and
    comb_i = D0' + (-1)^i D1', the noise-scaled rows of the other player:
    the squares are (rho/sqrt(2)) <(P_i - S_i)^2> with S_i = comb_i/(sqrt(2) rho),
    and the noise deficit is sqrt(2) rho - <D0'^2 + D1'^2>/(sqrt(2) rho).
    noise_on='alice' gives the mirrored decomposition used for diagnostics.

    Value and terms read one stacked expansion per player; the noise-scaled
    side's rows are multiplied by the weights w(x) = rho^|x|.
    """
    if rho <= 0:
        raise ValidationError("certificates are undefined at rho = 0")
    a, b, w = PairEvaluator(rho).expand_stacks(*strategy.stacks)
    value = _chsh_report((a * w) @ b.T).violation
    if noise_on == "bob":
        plain, scaled = a, b * w
    elif noise_on == "alice":
        plain, scaled = b, a * w
    else:
        raise ValidationError("noise_on must be 'bob' or 'alice'")
    comb = np.stack([scaled[0] + scaled[1], scaled[0] - scaled[1]])
    return _sos_certificate("chsh", rho, chsh_upper_bound(rho, 0.0), value,
                            plain, comb, np.sqrt(2.0) * rho)


def ms_consistency_certificate(strategy: MagicSquareStrategy, rho: float,
                               variable: tuple) -> SoSCertificate:
    """Per-variable decomposition of rho - <consistency correlation>.

    The consistency probability for a variable is 1/2 + <C>/2 with
    C = P (x) Q'; rho - <C> is the shared identity (`_sos_certificate`) with
    kappa = rho and comb = Q': (rho/2) <(P - Q'/rho)^2>, the first player's
    norm defect, and the noise deficit (rho^2 - <Q'^2>)/(2 rho).  Question
    r_i's eight elements and the variable's observable are expanded in one
    stack; P's row is the _MS_SIGNS-signed sum of the element rows.
    """
    if rho <= 0:
        raise ValidationError("certificates are undefined at rho = 0")
    i, j = variable
    if (i, j) not in _MS_VARIABLES:
        raise ValidationError(f"variable must be (i, j) with i and j in 1..3, got ({i},{j})")
    question = f"r{i}"
    slot = variable_slot(question, i, j)
    elems, q_rows, w = PairEvaluator(rho, m=4).expand_stacks(
        strategy.alice_povms[question], strategy.bob_observables[(i, j)][None])
    p = _MS_SIGNS[:, slot - 1] @ elems
    q_scaled = q_rows * w
    return _sos_certificate("magic_square", rho, rho, float(p @ q_scaled[0]),
                            p[None], q_scaled, rho)


def certify(strategy, rho: float, variable: tuple | None = None) -> SoSCertificate:
    """The game's certificate; a variable (i, j) is read only by the
    magic-square certificate, (1, 1) when not given."""
    if isinstance(strategy, MagicSquareStrategy):
        return ms_consistency_certificate(strategy, rho, variable or (1, 1))
    if variable is not None:
        raise ValidationError(f"a variable is read only by the magic-square certificate, "
                              f"not for a {type(strategy).__name__}")
    if isinstance(strategy, ChshStrategy):
        return chsh_sos_certificate(strategy, rho)
    raise ValidationError(f"no certificate for strategy type {type(strategy).__name__}")


# ---------------------------------------------------------------------------
# classical baselines


def classical_baselines(game: str) -> float:
    """Best deterministic classical winning probability."""
    if game == "chsh":
        return 0.75
    if game == "magic_square":
        return 17.0 / 18.0
    raise ValidationError(f"no classical baseline for game {game!r}")


def classical_chsh_max_enumerated() -> float:
    """Brute force over all deterministic answer functions."""
    best = 0.0
    for bits in itertools.product((0, 1), repeat=4):
        a0, a1, b0, b1 = bits
        wins = sum(1 for x in (0, 1) for y in (0, 1)
                   if ((a0, a1)[x] ^ (b0, b1)[y]) == x * y)
        best = max(best, wins / 4.0)
    return best


def classical_ms_max_enumerated() -> float:
    """Brute force over deterministic strategies: Bob's 2^9 assignments, with
    Alice's per-question best response computed independently per question."""
    questions = [(q, ms_question_variables(q), ms_parity_target(q))
                 for q in ("r1", "r2", "r3", "c1", "c2", "c3")]
    assignments = list(itertools.product((1, -1), repeat=3))
    best = 0.0
    for bob_bits in itertools.product((1, -1), repeat=9):
        bob = {(i, j): bob_bits[3 * (i - 1) + (j - 1)]
               for i in (1, 2, 3) for j in (1, 2, 3)}
        total = 0.0
        for _, variables, target in questions:
            q_best = 0
            for a in assignments:
                if a[0] * a[1] * a[2] != target:
                    continue
                q_best = max(q_best, sum(1 for slot, var in enumerate(variables)
                                         if a[slot] == bob[var]))
            total += q_best / 3.0
        best = max(best, total / 6.0)
    return best
