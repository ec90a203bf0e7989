"""The canonical builders make their POVMs as stacks: one stacked product of
spectral projectors per game, hermitized once.  Each must give, byte for
byte, what the per-key loops below give: one product of projectors at a
time, hermitized and embedded one element at a time.  Bytes, not values:
the JSON writer prints -0.0, so a sign of zero moves a strategy document."""

import functools
import itertools

import numpy as np
import pytest

from noisygames.games import (
    MS_QUESTIONS,
    _pair_basis_observable,
    _pair_keys,
    _y_rotation,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    conjugate_on_register,
    embed_on_register,
    magic_square_table,
    ms_question_variables,
    perturbed_two_out_of_n_strategy,
)


def commuting_projector_povm(observables):
    """The products of the spectral projectors (I + a_s O_s) / 2, one element
    per answer tuple a in itertools.product((1, -1), repeat=k) order, each
    hermitized."""
    d = observables[0].shape[0]
    elems = []
    for a in itertools.product((1, -1), repeat=len(observables)):
        e = functools.reduce(np.matmul, [(np.eye(d) + val * obs) / 2
                                         for val, obs in zip(a, observables)])
        elems.append((e + e.conj().T) / 2)
    return np.stack(elems)


def reference_two_out_of_n_povms(n, n_prime, registers):
    return {(i, y, j, z): commuting_projector_povm(
        [embed_on_register(_pair_basis_observable(u), n_prime, registers[k - 1])
         for k, u in ((i, y), (j, z))]) for i, y, j, z in _pair_keys(n)}


def reference_magic_square(n, register):
    table = magic_square_table()
    povms = {}
    for q in MS_QUESTIONS:
        local = commuting_projector_povm([table[i - 1, j - 1] for i, j in ms_question_variables(q)])
        povms[q] = np.stack([embed_on_register(e, n, register, m=4) for e in local])
    bob = {(i, j): embed_on_register(table[i - 1, j - 1].T, n, register, m=4)
           for i in (1, 2, 3) for j in (1, 2, 3)}
    return povms, bob


def assert_same_bytes(got: dict, want: dict):
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key].tobytes() == np.asarray(value, dtype=complex).tobytes(), key


LAYOUTS = [(n, n_prime, registers) for n in (1, 2, 3, 4)
           for n_prime, registers in ((n, list(range(1, n + 1))),
                                      (n + 1, list(range(1, n + 1))),
                                      (n, list(range(n, 0, -1))))]


@pytest.mark.parametrize("n, n_prime, registers", LAYOUTS)
def test_two_out_of_n_pair_povms_are_the_per_key_products(n, n_prime, registers):
    strategy = canonical_two_out_of_n_strategy(n, n_prime, registers)
    want = reference_two_out_of_n_povms(n, n_prime, registers)
    assert_same_bytes(strategy.alice_pair_povms, want)
    assert_same_bytes(strategy.bob_pair_povms, want)


@pytest.mark.parametrize("n, register", [(1, 1), (2, 1), (2, 2)])
def test_magic_square_operators_are_the_per_question_products(n, register):
    strategy = canonical_magic_square_strategy(n, register)
    povms, bob = reference_magic_square(n, register)
    assert_same_bytes(strategy.alice_povms, povms)
    assert_same_bytes(strategy.bob_observables, bob)


@pytest.mark.parametrize("n, index, theta", [(2, 1, 0.21), (3, 2, -1.3), (4, 4, 0.0)])
def test_perturbed_two_out_of_n_is_the_per_key_conjugation(n, index, theta):
    base = canonical_two_out_of_n_strategy(n)
    w = _y_rotation(theta)
    singles = dict(base.bob_singles)
    for x in (0, 1):
        singles[(index, x)] = conjugate_on_register(singles[(index, x)], w, n, index)
    pairs = {key: np.stack([conjugate_on_register(e, w, n, index) for e in povm])
             if index in (key[0], key[2]) else povm
             for key, povm in base.bob_pair_povms.items()}
    strategy = perturbed_two_out_of_n_strategy(n, theta, index)
    assert_same_bytes(strategy.bob_singles, singles)
    assert_same_bytes(strategy.bob_pair_povms, pairs)
    assert_same_bytes(strategy.alice_pair_povms, base.alice_pair_povms)
