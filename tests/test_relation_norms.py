"""The self-tests' relation norms, read from one stacked product pass
(`extraction._relation_norms`), against explicit per-pair operators.

Every commutator and anticommutator norm of the four self-tests is checked
against `hs_norm(A @ B + sign * B @ A)` of the operators it names, and every
magic-square product distance against its explicit triple product, to 1e-12
over canonical, perturbed and seeded random strategies of each game and the
general-noise path.  A 2-out-of-n register collision's contradiction is
checked against the Bloch cross product |a x b| of its qubit locals.
"""

import itertools

import numpy as np
import pytest

from noisygames.extraction import (
    _relation_norms,
    chsh_selftest,
    general_noise_selftest,
    ms_selftest,
    two_out_of_n_selftest,
)
from noisygames.games import (
    MS_QUESTIONS,
    TwoOutOfNStrategy,
    _pair_keys,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    derived_observable,
    embed_on_register,
    haar_unitary,
    ms_parity_target,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
)
from noisygames.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z, hs_norm
from noisygames.states import bit_phase_flip_epr, diagonalize_correlation

TOL = 1e-12
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def explicit(a, b, sign):
    return hs_norm(a @ b + sign * b @ a)


def assert_close(got: dict, want: dict):
    assert list(got) == list(want)
    for key in want:
        assert abs(got[key] - want[key]) <= TOL, (key, got[key], want[key])


def random_two_out_of_n(n, rng, n_prime=None):
    """Random bounded singles and random projective pair POVMs."""
    n_prime = n if n_prime is None else n_prime
    d = 2 ** n_prime
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
    return TwoOutOfNStrategy(n, n_prime, a, b, a_povms, b_povms)


@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_matches_explicit_products(sign):
    rng = np.random.default_rng([911, sign + 1])
    for d in (2, 4, 8):
        g = rng.normal(size=(2, 3, 5, d, d)) + 1j * rng.normal(size=(2, 3, 5, d, d))
        a, b = g + g.conj().swapaxes(-1, -2)
        got = _relation_norms(a, b, sign)
        assert got.shape == (3, 5)
        for k in np.ndindex(3, 5):
            assert abs(got[k] - explicit(a[k], b[k], sign)) <= TOL * max(1.0, got[k])


def chsh_strategies():
    rng = np.random.default_rng(912)
    yield canonical_chsh_strategy(1)
    yield canonical_chsh_strategy(3, register=2)
    yield perturbed_chsh_strategy(2, 1, 0.3)
    for n in (1, 2, 3):
        yield random_chsh_strategy(n, rng, kind=("binary", "bounded")[n % 2], trace_bias=0.1)


@pytest.mark.parametrize("strategy", list(chsh_strategies()))
def test_chsh_anticommutators(strategy):
    want = {player: explicit(*ops, 1) for player, ops in
            (("alice", strategy.alice), ("bob", strategy.bob))}
    assert_close(chsh_selftest(strategy, 0.7)["antiCommutators"], want)


@pytest.mark.parametrize("strategy", list(chsh_strategies()))
def test_general_noise_anticommutators(strategy):
    # the transport to the Pauli frame is a local unitary, under which the
    # anticommutator norms of the untransported observables are invariant
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    want = {player: explicit(*ops, 1) for player, ops in
            (("alice", strategy.alice), ("bob", strategy.bob))}
    assert_close(general_noise_selftest(strategy, spectrum)["antiCommutators"], want)


def ms_strategies():
    rng = np.random.default_rng(913)
    yield canonical_magic_square_strategy(1)
    yield canonical_magic_square_strategy(2)
    yield perturbed_magic_square_strategy(1, 1, 0.2)
    for n, kind in itertools.product((1, 2), ("projective", "mixed", "raw")):
        yield random_magic_square_strategy(n, rng, kind=kind, trace_bias=0.2)


@pytest.mark.parametrize("strategy", list(ms_strategies()))
def test_ms_commutators_anticommutators_and_products(strategy):
    obs = {(q, slot): derived_observable(strategy.alice_povms[q], slot)
           for q in MS_QUESTIONS for slot in (1, 2, 3)}
    same_line = {}
    for i in (1, 2, 3):
        for j, j2 in itertools.combinations((1, 2, 3), 2):
            for kind, q in (("row", f"r{i}"), ("col", f"c{i}")):
                same_line[f"{kind}{i}:{j},{j2}"] = explicit(obs[q, j], obs[q, j2], -1)
    cross = {f"s{i}{j},s{i2}{j2}": explicit(obs[f"r{i}", j], obs[f"r{i2}", j2], 1)
             for (i, j), (i2, j2) in itertools.combinations(
                 [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)], 2)
             if i != i2 and j != j2}
    eye = np.eye(strategy.dim)
    products = {("row" if q[0] == "r" else "col") + q[1]:
                hs_norm(obs[q, 1] @ obs[q, 2] @ obs[q, 3] - ms_parity_target(q) * eye)
                for q in MS_QUESTIONS}
    report = ms_selftest(strategy, 0.7)
    assert_close(report["sameLineCommutators"], same_line)
    assert_close(report["crossAntiCommutators"], cross)
    assert_close(report["productDistances"], products)


def two_out_of_n_strategies():
    rng = np.random.default_rng(914)
    yield canonical_two_out_of_n_strategy(2)
    yield canonical_two_out_of_n_strategy(3, 4, [3, 1, 4])
    yield perturbed_two_out_of_n_strategy(3, 0.4, index=2)
    for n, n_prime in ((2, 2), (3, 3), (3, 4), (4, 4)):
        yield random_two_out_of_n(n, rng, n_prime)


@pytest.mark.parametrize("strategy", list(two_out_of_n_strategies()))
def test_two_out_of_n_index_anticommutators_and_cross_commutators(strategy):
    players = (("P", strategy.alice_singles), ("Q", strategy.bob_singles))
    anti = {f"{p}{i}": explicit(ops[(i, 0)], ops[(i, 1)], 1)
            for i in range(1, strategy.n + 1) for p, ops in players}
    cross = {f"{p}{i}{u},{p}{j}{v}": explicit(ops[(i, u)], ops[(j, v)], -1)
             for i, u, j, v in _pair_keys(strategy.n) for p, ops in players}
    report = two_out_of_n_selftest(strategy, 0.76)
    assert_close(report["indexAntiCommutators"], anti)
    assert_close(report["crossCommutators"], cross)


def bloch_unit(op):
    v = np.einsum("kij,ji->k", PAULIS, op).real / 2
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("seed", range(6))
def test_collision_contradiction_is_the_bloch_cross_product(seed):
    # index 2's first-player singles are random traceless qubit operators on
    # index 1's register, and its second-player singles are index 1's; the
    # contradiction is the largest |a x b| over the unit Bloch vectors of the
    # two indices' first-player locals there
    rng = np.random.default_rng([915, seed])
    base = canonical_two_out_of_n_strategy(2)
    alice, bob = dict(base.alice_singles), dict(base.bob_singles)
    locals_ = []
    for x in (0, 1):
        vec = rng.normal(size=3)
        locals_.append(np.einsum("k,kij->ij", vec / np.linalg.norm(vec) * rng.uniform(0.3, 1.0),
                                 PAULIS))
        alice[(2, x)] = embed_on_register(locals_[x], 2, 1)
        bob[(2, x)] = bob[(1, x)]
    strategy = TwoOutOfNStrategy(2, 2, alice, bob,
                                 dict(base.alice_pair_povms), dict(base.bob_pair_povms))
    report = two_out_of_n_selftest(strategy, 0.7)
    assert report["registers"] == {"1": 1, "2": 1} and not report["distinct"]
    (collision,) = report["collisions"]
    assert (collision["indexA"], collision["indexB"], collision["register"]) == (1, 2, 1)
    want = max(np.linalg.norm(np.cross(bloch_unit(a), bloch_unit(b)))
               for a in (SIGMA_Z, SIGMA_X) for b in locals_)
    assert abs(collision["contradiction"] - want) <= TOL
    assert 0.0 < collision["contradiction"] < 1.0


def test_collision_between_rotated_copies_is_strictly_partial():
    # index 2 holds index 1's observables rotated by 0.3 about the y-axis on
    # the same register: the worst pair is Z against the rotated X,
    # |z x (cos 0.3 x - sin 0.3 z)| = cos 0.3
    base = canonical_two_out_of_n_strategy(2)
    alice, bob = dict(base.alice_singles), dict(base.bob_singles)
    c, s = np.cos(0.3), np.sin(0.3)
    alice[(2, 0)] = embed_on_register(c * SIGMA_Z + s * SIGMA_X, 2, 1)
    alice[(2, 1)] = embed_on_register(c * SIGMA_X - s * SIGMA_Z, 2, 1)
    bob[(2, 0)], bob[(2, 1)] = bob[(1, 0)], bob[(1, 1)]
    strategy = TwoOutOfNStrategy(2, 2, alice, bob,
                                 dict(base.alice_pair_povms), dict(base.bob_pair_povms))
    (collision,) = two_out_of_n_selftest(strategy, 0.7)["collisions"]
    assert collision["contradiction"] == pytest.approx(c, abs=TOL)
