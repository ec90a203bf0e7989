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
    PairEvaluator,
    _chsh_report,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    magic_square_value,
    random_chsh_strategy,
    random_magic_square_strategy,
    trace_error,
)
from .pauli import ValidationError


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


def _best_responses(targets: np.ndarray) -> np.ndarray:
    """Per target, the traceless binary P maximizing the normalized trace of
    P @ target: sign +1 on the top half of target's eigenbasis, -1 on the
    bottom."""
    vecs = np.linalg.eigh(targets)[1]
    d = targets.shape[-1]
    signs = np.concatenate([-np.ones(d // 2), np.ones(d - d // 2)])  # eigh ascending
    return (vecs * signs) @ vecs.conj().swapaxes(-1, -2)


def seesaw_chsh(rho: float, n: int, init="random", max_iters: int = 100,
                tol: float = 1e-12, seed: int | None = None) -> OptimizationTrace:
    """Alternating maximization of the CHSH value over traceless binary
    observables.

    Each half-step solves its subproblem exactly within the traceless binary
    class (eigenbasis sign assignment), so the value never decreases.  It
    reads one PairEvaluator.expand_stacks of the new strategy, for its value
    and for the X0 +- X1 targets that PairEvaluator.move gives the next
    response.  The trace also reports the unconstrained-effective value of
    the final iterate, where the responding player may use any binary
    observable.
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

    evaluator = PairEvaluator(rho)
    trace = OptimizationTrace()

    def record(strategy: ChshStrategy, label: str) -> tuple:
        a, b, w = evaluator.expand_stacks(*strategy.stacks)
        value = _chsh_report((a * w) @ b.T).violation
        trace.record(value, label, strategy)
        return value, a, b

    def targets(rows: np.ndarray, first: bool) -> np.ndarray:
        """The X0 +- X1 combinations of one player's coefficient rows, moved
        through the noise into the other player's basis."""
        return evaluator.move(np.stack([rows[0] + rows[1], rows[0] - rows[1]]), first)

    value, a, b = record(strategy, "init")
    for iteration in range(max_iters):
        previous = value
        strategy = ChshStrategy(n, _best_responses(targets(b, False)), strategy.bob)
        _, a, b = record(strategy, f"alice_{iteration}")
        strategy = ChshStrategy(n, strategy.alice, _best_responses(targets(a, True)))
        value, a, b = record(strategy, f"bob_{iteration}")
        if value - previous < tol:
            break
    # unconstrained binary response value for the final iterate
    trace.unconstrained_value = sum(float(np.abs(np.linalg.eigvalsh(t)).sum()) / len(t)
                                    for t in targets(b, False))
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
