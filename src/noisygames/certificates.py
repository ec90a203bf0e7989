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
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    chsh_violation,
    derived_observable,
    ms_question_variables,
    ms_parity_target,
    variable_slot,
)
from .pauli import (
    ValidationError,
    apply_depolarizing_coeffs,
)


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


def chsh_sos_certificate(strategy: ChshStrategy, rho: float,
                         noise_on: str = "bob") -> SoSCertificate:
    """Decompose 2*sqrt(2)*rho - value into squares plus defect terms.

    With S_i the noise-scaled combination (Q0' + (-1)^i Q1')/(sqrt(2) rho),
    the gap equals (rho/sqrt(2)) <(P_i - S_i)^2> summed over i, plus
    (rho/sqrt(2)) (1 - <P_i^2>) per player defect, plus the noise deficit
    sqrt(2) rho - <Q0'^2 + Q1'^2>/(sqrt(2) rho).  noise_on='alice' gives the
    mirrored decomposition used for diagnostics.
    """
    if rho <= 0:
        raise ValidationError("certificates are undefined at rho = 0")
    report = chsh_violation(strategy, rho)
    value = report.violation
    ev = PairEvaluator(rho)
    if noise_on == "bob":
        plain, scaled = strategy.alice, strategy.bob
        exp_plain = [ev.expand_a(p) for p in plain]
        exp_scaled = [apply_depolarizing_coeffs(ev.expand_b(q), rho) for q in scaled]
    elif noise_on == "alice":
        plain, scaled = strategy.bob, strategy.alice
        exp_plain = [ev.expand_b(q) for q in plain]
        exp_scaled = [apply_depolarizing_coeffs(ev.expand_a(p), rho) for p in scaled]
    else:
        raise ValidationError("noise_on must be 'bob' or 'alice'")

    s2 = np.sqrt(2.0)
    terms = []
    scaled_sq = 0.0
    for i in (0, 1):
        comb = exp_scaled[0].coeffs + (-1) ** i * exp_scaled[1].coeffs  # D0' +- D1'
        # <(plain_i (x) I - I (x) comb/(s2 rho))^2> over the shared ideal state
        t_plain = exp_plain[i].total_mass()
        cross = float(exp_plain[i].coeffs @ comb)
        t_comb = float(comb @ comb)
        sq = t_plain - 2 * cross / (s2 * rho) + t_comb / (2 * rho ** 2)
        terms.append((f"square_{i}", rho / s2 * sq))
        defect = rho / s2 * (1 - t_plain)
        terms.append((f"norm_defect_{i}", defect))
        scaled_sq += exp_scaled[i].total_mass()
    terms.append(("noise_deficit", s2 * rho - scaled_sq / (s2 * rho)))

    bound = chsh_upper_bound(rho, 0.0)
    gap = bound - value
    cert = SoSCertificate("chsh", rho, bound, value, gap, terms)
    cert.residual = gap - cert.term_sum()
    return cert


def ms_consistency_certificate(strategy: MagicSquareStrategy, rho: float,
                               variable: tuple) -> SoSCertificate:
    """Per-variable decomposition of rho - <consistency correlation>.

    The consistency probability for a variable is 1/2 + <C>/2 with
    C = P (x) Q'; rho - <C> splits into (rho/2) <(P - Q'/rho)^2>, the
    first player's norm defect, and the noise deficit (rho^2 - <Q'^2>)/(2 rho).
    """
    if rho <= 0:
        raise ValidationError("certificates are undefined at rho = 0")
    i, j = variable
    question = f"r{i}"
    slot = variable_slot(question, i, j)
    p_row = derived_observable(strategy.alice_povms[question], slot)
    q = strategy.bob_observables[(i, j)]
    ev = PairEvaluator(rho, m=4)
    exp_p = ev.expand_a(p_row)
    exp_q_scaled = apply_depolarizing_coeffs(ev.expand_b(q), rho)
    value = float(exp_p.coeffs @ exp_q_scaled.coeffs)  # <C>
    t_p = exp_p.total_mass()
    t_qs = exp_q_scaled.total_mass()
    cross = value
    sq = t_p - 2 * cross / rho + t_qs / rho ** 2
    terms = [
        ("square_0", rho / 2 * sq),
        ("norm_defect_0", rho / 2 * (1 - t_p)),
        ("noise_deficit", (rho ** 2 - t_qs) / (2 * rho)),
    ]
    gap = rho - value
    cert = SoSCertificate("magic_square", rho, rho, value, gap, terms)
    cert.residual = gap - cert.term_sum()
    return cert


def certify(strategy, rho: float, variable: tuple | None = None) -> SoSCertificate:
    if isinstance(strategy, ChshStrategy):
        return chsh_sos_certificate(strategy, rho)
    if isinstance(strategy, MagicSquareStrategy):
        return ms_consistency_certificate(strategy, rho, variable or (1, 1))
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
