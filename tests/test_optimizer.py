import numpy as np
import pytest

from noisygames.certificates import chsh_upper_bound
from noisygames.games import random_chsh_strategy
from noisygames.optimizer import (
    grid_bruteforce_chsh_qubit,
    random_search_ms,
    seesaw_chsh,
    seesaw_sweep_rows,
)
from noisygames.pauli import ValidationError


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


# (n, rho, seed) -> the number of iterates, the values after the first two
# half-steps, best_value and unconstrained_value of seesaw_chsh from a random
# start, recorded while the see-saw built its targets with a dense
# depolarizing channel of its own; equal to 1e-12 under the SkylakeX,
# Haswell and Nehalem OpenBLAS kernels
SEESAW_PINS = [
    (1, 0.5, 0, 5, 1.2894040051714688, 1.414213562373095, 1.4142135623730951, 1.4142135623730954),
    (1, 0.5, 1, 5, 1.398653071522354, 1.4142135623730945, 1.414213562373095, 1.414213562373095),
    (1, 0.9, 0, 5, 2.3209272093086444, 2.545584412271571, 2.5455844122715714, 2.5455844122715714),
    (1, 0.9, 1, 5, 2.5175755287402373, 2.5455844122715705, 2.5455844122715705,
     2.5455844122715705),
    (2, 0.5, 0, 25, 1.0842604887845226, 1.2908785235343392, 1.4142135623730863,
     1.4142135623730927),
    (2, 0.5, 1, 29, 0.8804715124120006, 1.0481657457730316, 1.4142135623730883,
     1.4142135623730931),
    (2, 0.9, 0, 125, 2.3061168213064374, 2.437087678752436, 2.545584412269837, 2.5455844122701667),
    (2, 0.9, 1, 141, 2.082746881352269, 2.3853329979912385, 2.545584412269881, 2.545584412270202),
]


@pytest.mark.parametrize("n, rho, seed, iterates, alice, bob, best, unconstrained", SEESAW_PINS)
def test_seesaw_pins(n, rho, seed, iterates, alice, bob, best, unconstrained):
    trace = seesaw_chsh(rho, n, init="random", seed=seed)
    assert len(trace.iterates) == iterates
    assert [label for _, label in trace.iterates[:3]] == ["init", "alice_0", "bob_0"]
    assert trace.iterates[1][0] == pytest.approx(alice, abs=1e-12)
    assert trace.iterates[2][0] == pytest.approx(bob, abs=1e-12)
    assert trace.best_value == pytest.approx(best, abs=1e-12)
    assert trace.unconstrained_value == pytest.approx(unconstrained, abs=1e-12)


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
