import numpy as np
import pytest

from noisygames.certificates import chsh_upper_bound
from noisygames.games import canonical_chsh_strategy, random_chsh_strategy
from noisygames.optimizer import (
    depolarize_matrix,
    grid_bruteforce_chsh_qubit,
    random_search_ms,
    seesaw_chsh,
    seesaw_sweep_rows,
)
from noisygames.pauli import SIGMA_X, SIGMA_Z, ValidationError


def test_depolarize_matrix():
    out = depolarize_matrix(np.kron(SIGMA_Z, SIGMA_Z), 0.5)
    assert np.abs(out - 0.25 * np.kron(SIGMA_Z, SIGMA_Z)).max() < 1e-12
    out = depolarize_matrix(np.eye(2), 0.3)
    assert np.abs(out - np.eye(2)).max() < 1e-12


def test_seesaw_canonical_fixed_point():
    trace = seesaw_chsh(0.9, 1, init="canonical")
    assert trace.best_value == pytest.approx(2 * np.sqrt(2) * 0.9, abs=1e-12)
    assert len(trace.iterates) <= 5


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_seesaw_random_restarts_reach_optimum(rho):
    best = max(seesaw_chsh(rho, 1, init="random", seed=s).best_value for s in range(50))
    assert best >= 2 * np.sqrt(2) * rho - 1e-6


def test_seesaw_tsirelson_value_at_unit_fidelity():
    best = max(seesaw_chsh(1.0, 1, init="random", seed=s).best_value for s in range(20))
    assert best == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_seesaw_monotone():
    trace = seesaw_chsh(0.7, 2, init="random", seed=5)
    values = [v for v, _ in trace.iterates]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_seesaw_never_exceeds_bound():
    for seed in range(10):
        trace = seesaw_chsh(0.6, 2, init="random", seed=seed)
        assert trace.best_value <= chsh_upper_bound(0.6, 0.0) + 1e-9
        assert trace.unconstrained_value is not None


def test_seesaw_accepts_explicit_strategy():
    rng = np.random.default_rng(9)
    init = random_chsh_strategy(1, rng)
    trace = seesaw_chsh(0.8, 1, init=init, max_iters=50)
    assert trace.best_value >= 2 * np.sqrt(2) * 0.8 - 1e-6


def test_seesaw_rejects_bad_rho():
    with pytest.raises(ValidationError):
        seesaw_chsh(0.0, 1)


@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_grid_oracle(rho):
    value = grid_bruteforce_chsh_qubit(rho, 64)
    assert abs(value - 2 * np.sqrt(2) * rho) < 0.01
    assert value <= chsh_upper_bound(rho, 0.0) + 1e-9


def test_grid_resolution_floor():
    with pytest.raises(ValidationError):
        grid_bruteforce_chsh_qubit(0.5, 4)


def test_random_search_ms():
    result = random_search_ms(0.6, 1, samples=45, seed=3)
    assert result.best_value == pytest.approx(0.8, abs=1e-9)  # canonical included
    assert result.best_kind == "canonical"
    assert result.max_excess <= 1e-9


def test_sweep_rows():
    rows = seesaw_sweep_rows([0.5, 0.9], 1, restarts=5, seed=0)
    assert len(rows) == 2
    for row in rows:
        assert row["gap"] >= -1e-9
        assert row["bestFound"] <= row["bound"] + 1e-9
        assert row["gap"] == pytest.approx(row["bound"] - row["bestFound"], abs=1e-12)


def test_sweep_csv():
    from noisygames.optimizer import seesaw_sweep_csv

    text = seesaw_sweep_csv([0.7], 1, restarts=3, seed=1)
    lines = text.strip().split("\n")
    assert lines[0] == "rho,bound,bestFound,gap,restarts"
    assert len(lines) == 2
    assert text == seesaw_sweep_csv([0.7], 1, restarts=3, seed=1)  # deterministic
