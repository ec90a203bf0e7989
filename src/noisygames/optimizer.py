"""Independent numerical search for maximal values: see-saw alternating
optimization, a grid oracle for the qubit case, and random magic-square
probing.  These serve as evidence that the closed-form bounds are tight and
never exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import chsh_upper_bound, magic_square_upper_bound
from .games import (
    ChshStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    chsh_violation,
    magic_square_value,
    random_chsh_strategy,
    random_magic_square_strategy,
    trace_error,
)
from .pauli import (
    ValidationError,
    apply_depolarizing_coeffs,
    default_basis,
    pauli_expand,
    pauli_reconstruct,
)


def depolarize_matrix(op: np.ndarray, rho: float, m: int = 2) -> np.ndarray:
    """Register-wise depolarizing channel applied to a dense operator."""
    exp = pauli_expand(op, default_basis(m))
    return pauli_reconstruct(apply_depolarizing_coeffs(exp, rho))


@dataclass
class OptimizationTrace:
    iterates: list = field(default_factory=list)  # (value, step label)
    best_value: float = -np.inf
    best_strategy: ChshStrategy | None = None
    unconstrained_value: float | None = None

    def record(self, value: float, label: str, strategy: ChshStrategy):
        self.iterates.append((value, label))
        if value > self.best_value:
            self.best_value = value
            self.best_strategy = strategy


def _best_traceless_binary_response(target: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize the normalized trace of P @ target over traceless binary P:
    sign +1 on the top half of target's eigenbasis, -1 on the bottom."""
    vals, vecs = np.linalg.eigh(target)
    d = target.shape[0]
    signs = np.concatenate([-np.ones(d // 2), np.ones(d - d // 2)])  # eigh ascending
    p = (vecs * signs) @ vecs.conj().T
    value = float((signs * vals).sum() / d)
    return p, value


def seesaw_chsh(rho: float, n: int, init="random", max_iters: int = 100,
                tol: float = 1e-12, seed: int | None = None) -> OptimizationTrace:
    """Alternating maximization of the CHSH value over traceless binary
    observables.

    Each half-step solves its subproblem exactly within the traceless binary
    class (eigenbasis sign assignment), so the value never decreases.  The
    trace also reports the unconstrained-effective value of the final
    iterate, where the responding player may use any binary observable.
    """
    if not 0.0 < rho <= 1.0:
        raise ValidationError("see-saw needs rho in (0, 1]")
    if isinstance(init, ChshStrategy):
        strategy = init
    elif init == "canonical":
        strategy = canonical_chsh_strategy(n)
    elif init == "random":
        rng = np.random.default_rng(seed)
        strategy = random_chsh_strategy(n, rng, kind="binary")
    else:
        raise ValidationError(f"unknown initialization {init!r}")

    trace = OptimizationTrace()
    value = chsh_violation(strategy, rho).violation
    trace.record(value, "init", strategy)
    for iteration in range(max_iters):
        previous = value
        # Alice's exact response to the noise-scaled Bob combinations
        new_alice = []
        for i in (0, 1):
            comb = strategy.bob[0] + (-1) ** i * strategy.bob[1]
            target = depolarize_matrix(comb, rho).T
            p, _ = _best_traceless_binary_response(target)
            new_alice.append(p)
        strategy = ChshStrategy(n, tuple(new_alice), strategy.bob)
        value = chsh_violation(strategy, rho).violation
        trace.record(value, f"alice_{iteration}", strategy)
        # Bob's exact response to the noise-scaled Alice combinations
        new_bob = []
        for y in (0, 1):
            comb = strategy.alice[0] + (-1) ** y * strategy.alice[1]
            target = depolarize_matrix(comb, rho).T
            q, _ = _best_traceless_binary_response(target)
            new_bob.append(q)
        strategy = ChshStrategy(n, strategy.alice, tuple(new_bob))
        value = chsh_violation(strategy, rho).violation
        trace.record(value, f"bob_{iteration}", strategy)
        if value - previous < tol:
            break
    # unconstrained binary response value for the final iterate
    unconstrained = 0.0
    for i in (0, 1):
        comb = strategy.bob[0] + (-1) ** i * strategy.bob[1]
        target = depolarize_matrix(comb, rho)
        unconstrained += float(np.abs(np.linalg.eigvalsh(target)).sum()) / target.shape[0]
    trace.unconstrained_value = unconstrained
    return trace


# grid points whose dot products with the whole grid are taken at once
_GRID_CHUNK = 512


def grid_bruteforce_chsh_qubit(rho: float, resolution: int = 64) -> float:
    """Grid oracle for single-qubit strategies on one depolarized pair.

    The first player's two Bloch vectors sweep a spherical-angle grid; the
    second player's exact best response is applied in closed form (optimal
    unit vectors align with the sum and difference of the first player's
    correlation-twisted vectors), giving rho * (|a0+a1| + |a0-a1|).
    """
    if resolution < 8:
        raise ValidationError("resolution below 8 is too coarse to be useful")
    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    vecs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp),
                     np.cos(tt)], axis=-1).reshape(-1, 3)
    best = 0.0
    for start in range(0, vecs.shape[0], _GRID_CHUNK):
        dots = vecs[start:start + _GRID_CHUNK] @ vecs.T
        np.clip(dots, -1.0, 1.0, out=dots)
        vals = np.sqrt(2 + 2 * dots) + np.sqrt(2 - 2 * dots)
        best = max(best, float(vals.max()))
    return rho * best


@dataclass
class MsSearchResult:
    best_value: float
    best_kind: str
    samples: int
    max_excess: float  # largest value minus its trace-corrected bound


def random_search_ms(rho: float, n: int, samples: int, seed: int,
                     kinds=("projective", "mixed", "raw")) -> MsSearchResult:
    """Random magic-square strategies scored against the winning bound.

    The canonical strategy is always included as a candidate; every sample is
    also checked against its own trace-corrected bound and the largest
    excess is reported (positive excess would falsify the bound).
    """
    rng = np.random.default_rng(seed)
    best = magic_square_value(canonical_magic_square_strategy(n), rho).overall
    best_kind = "canonical"
    max_excess = best - magic_square_upper_bound(rho, 0.0)
    for s in range(samples):
        kind = kinds[s % len(kinds)]
        strat = random_magic_square_strategy(n, rng, kind=kind)
        value = magic_square_value(strat, rho).overall
        bound = magic_square_upper_bound(rho, trace_error(strat))
        max_excess = max(max_excess, value - bound)
        if value > best:
            best, best_kind = value, kind
    return MsSearchResult(best, best_kind, samples + 1, max_excess)


def seesaw_sweep_rows(rhos, n: int, restarts: int, seed: int) -> list[dict]:
    """CSV-ready rows (rho, bound, bestFound, gap, restarts) for a sweep.

    Restarts are independent and deterministic from (seed, restart index)."""
    rows = []
    for rho in rhos:
        best = -np.inf
        for r in range(restarts):
            trace = seesaw_chsh(rho, n, init="random", seed=seed + 1000 * r)
            best = max(best, trace.best_value)
        bound = chsh_upper_bound(rho, 0.0)
        rows.append({"rho": rho, "bound": bound, "bestFound": best,
                     "gap": bound - best, "restarts": restarts})
    return rows


def seesaw_sweep_csv(rhos, n: int, restarts: int, seed: int) -> str:
    """The sweep as CSV text with header rho,bound,bestFound,gap,restarts."""
    rows = seesaw_sweep_rows(rhos, n, restarts, seed)
    lines = ["rho,bound,bestFound,gap,restarts"]
    lines += [f"{r['rho']},{r['bound']},{r['bestFound']},{r['gap']},{r['restarts']}"
              for r in rows]
    return "\n".join(lines) + "\n"
