"""The self-tests' linear diagnostics, read from coefficient rows, against
the dense operators they stand for.

Every distance below is checked against `hs_distance` of explicitly built
operators (derived observables, pair marginals, transposed targets), and
every wrong-parity mass against the POVM elements' normalized traces, to
1e-12 over seeded random strategies of each game.  The magic square at
n = 2 takes the register-by-register contraction path.
"""

import numpy as np
import pytest

from noisygames.extraction import (
    chsh_selftest,
    ms_selftest,
    two_out_of_n_selftest,
)
from noisygames.games import (
    TwoOutOfNStrategy,
    _pair_keys,
    add_trace_bias,
    derived_observable,
    haar_unitary,
    ms_outcomes,
    ms_parity_target,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
    variable_slot,
)
from noisygames.pauli import hs_distance, normalized_trace

TOL = 1e-12
S2 = np.sqrt(2.0)


def assert_close(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, (key, got[key], want[key])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chsh_relation_distances(n, seed):
    rng = np.random.default_rng([901, n, seed])
    strat = random_chsh_strategy(n, rng, kind=("binary", "bounded")[seed % 2],
                                 trace_bias=0.2 * (seed // 2))
    q0, q1 = strat.bob
    want = {f"P{i}_vs_QT": hs_distance(strat.alice[i], (q0 + (-1) ** i * q1).T / S2)
            for i in (0, 1)}
    assert_close(chsh_selftest(strat, 0.7)["relationDistances"], want)


@pytest.mark.parametrize("kind", ["projective", "mixed", "raw"])
@pytest.mark.parametrize("n", [1, 2])
def test_ms_row_distances_and_wrong_parity_mass(n, kind):
    rng = np.random.default_rng([902, n, len(kind)])
    strat = random_magic_square_strategy(n, rng, kind=kind, trace_bias=0.2)
    povms = strat.alice_povms
    row_col, p_vs_qt = {}, {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            p_row = derived_observable(povms[f"r{i}"], variable_slot(f"r{i}", i, j))
            p_col = derived_observable(povms[f"c{j}"], variable_slot(f"c{j}", i, j))
            row_col[f"s{i}{j}"] = hs_distance(p_row, p_col)
            p_vs_qt[f"s{i}{j}"] = hs_distance(p_row, strat.bob_observables[(i, j)].T)
    wrong = {q: sum(normalized_trace(e) for e, a in zip(povms[q], ms_outcomes())
                    if np.prod(a) != ms_parity_target(q))
             for q in povms}
    report = ms_selftest(strat, 0.74)
    assert_close(report["rowColDistances"], row_col)
    assert_close(report["pVsQtDistances"], p_vs_qt)
    assert_close(report["wrongParityMass"], wrong)


def random_two_out_of_n(n: int, rng) -> TwoOutOfNStrategy:
    """Trace-biased random binary singles and random projective pair POVMs."""
    d = 2 ** n
    players = []
    for _ in range(2):
        singles = {(i, x): add_trace_bias(random_traceless_binary(d, rng), rng.uniform(-0.2, 0.2))
                   for i in range(1, n + 1) for x in (0, 1)}
        povms = {}
        for key in _pair_keys(n):
            u, outcome = haar_unitary(d, rng), rng.integers(0, 4, size=d)
            povms[key] = np.stack([(u * (outcome == e)) @ u.conj().T for e in range(4)])
        players.append((singles, povms))
    (a, a_povms), (b, b_povms) = players
    return TwoOutOfNStrategy(n, n, a, b, a_povms, b_povms)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_out_of_n_marginal_relation_distances(n):
    strat = random_two_out_of_n(n, np.random.default_rng([903, n]))
    want = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for y in (0, 1):
                for z in (0, 1):
                    label = f"[{i}{y}|{i}{y},{j}{z}]"
                    a_comb = strat.alice_singles[(i, 0)] + (-1) ** y * strat.alice_singles[(i, 1)]
                    b_comb = strat.bob_singles[(i, 0)] + (-1) ** y * strat.bob_singles[(i, 1)]
                    want["R" + label] = hs_distance(strat.pair_marginal("bob", i, y, j, z),
                                                    a_comb.T / S2)
                    want["T" + label] = hs_distance(strat.pair_marginal("alice", i, y, j, z),
                                                    b_comb.T / S2)
    assert_close(two_out_of_n_selftest(strat, 0.76)["marginalRelationDistances"], want)
