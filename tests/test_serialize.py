import hashlib
import json
import re

import numpy as np
import pytest

from noisygames.certificates import chsh_sos_certificate
from noisygames.extraction import chsh_selftest, ms_selftest, two_out_of_n_selftest
from noisygames.games import (
    MS_QUESTIONS,
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    _pair_keys,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    haar_unitary,
    magic_square_value,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
    two_out_of_n_value,
)
from noisygames.pauli import ValidationError
from noisygames.protocols import ProtocolParams, estimate_noise_rate, run_protocol
from noisygames.serialize import (
    certificate_to_json,
    estimate_to_json,
    game_value_to_json,
    selftest_to_json,
    state_from_json,
    state_to_json,
    strategy_from_json,
    strategy_to_json,
    transcript_to_json,
)
from noisygames.states import make_depolarized_epr


def test_state_round_trip():
    state = make_depolarized_epr(0.7, 1)
    back = state_from_json(state_to_json(state))
    assert np.abs(back.density - state.density).max() < 1e-12


def test_state_symbolic():
    state = state_from_json({"kind": "depolarized_epr", "rho": 0.7, "n": 1})
    assert np.abs(state.density - make_depolarized_epr(0.7, 1).density).max() < 1e-12
    density = state_from_json({"kind": "epr_power", "n": 2}).density
    assert np.trace(density @ density).real == pytest.approx(1.0)


def test_state_unknown_field_rejected():
    doc = state_to_json(make_depolarized_epr(0.5, 1))
    doc["extra"] = 1
    with pytest.raises(ValidationError):
        state_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "depolarized_epr", "rho": [1], "n": 1}, "state field 'rho' must be a number, got [1]"),
    ({"kind": "depolarized_epr", "rho": 0.7, "n": 1.7},
     "state field 'n' must be an integer, got 1.7"),
    ({"kind": "depolarized_epr", "rho": 0.7, "n": 1, "pairRegisters": "no"},
     "state field 'pairRegisters' must be a boolean, got 'no'"),
    ({"kind": "epr_power", "n": "2"}, "state field 'n' must be an integer, got '2'"),
    ({"dimA": 2.0, "dimB": 2, "density": [[[0.5, 0.0]]]},
     "state field 'dimA' must be an integer, got 2.0"),
    ({"dimA": 2, "dimB": None, "density": [[[0.5, 0.0]]]},
     "state field 'dimB' must be an integer, got None"),
], ids=["rho-a-list", "n-a-fraction", "pair-registers-a-string", "epr-power-n-a-string",
        "dim-a-float", "dim-b-null"])
def test_state_field_of_the_wrong_type_is_named(doc, message):
    # the parent raised TypeError for a list and truncated n = 1.7 to 1
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        state_from_json(doc)


def test_symbolic_state_reads_pair_registers_as_a_boolean():
    state = state_from_json({"kind": "depolarized_epr", "rho": 0.7, "n": 1,
                             "pairRegisters": True})
    expected = make_depolarized_epr(0.7, 1, pair_registers=True)
    assert np.abs(state.density - expected.density).max() < 1e-12


def test_chsh_strategy_round_trip():
    strat = canonical_chsh_strategy(2, register=2)
    back = strategy_from_json(strategy_to_json(strat))
    assert chsh_violation(back, 0.8).violation == pytest.approx(
        chsh_violation(strat, 0.8).violation, abs=1e-12)


def test_ms_strategy_round_trip():
    strat = canonical_magic_square_strategy(1)
    back = strategy_from_json(strategy_to_json(strat))
    assert magic_square_value(back, 0.6).overall == pytest.approx(0.8, abs=1e-12)


def test_two_out_of_n_strategy_round_trip():
    strat = canonical_two_out_of_n_strategy(2)
    back = strategy_from_json(strategy_to_json(strat))
    assert two_out_of_n_value(back, 0.7).win_prob == pytest.approx(
        0.5 + np.sqrt(2) * 0.7 / 4, abs=1e-12)


def test_symbolic_strategies():
    strat = strategy_from_json({"kind": "canonical", "game": "chsh", "n": 3, "register": 2})
    assert chsh_violation(strat, 0.9).violation == pytest.approx(
        2 * np.sqrt(2) * 0.9, abs=1e-12)
    strat = strategy_from_json({"kind": "canonical-perturbed", "game": "chsh",
                                "n": 1, "theta": 0.2})
    assert chsh_violation(strat, 0.9).violation == pytest.approx(
        2 * np.sqrt(2) * 0.9 * np.cos(0.2), abs=1e-9)
    strat = strategy_from_json({"kind": "random", "game": "chsh", "n": 2, "seed": 5})
    assert strat.n == 2
    with pytest.raises(ValidationError):
        strategy_from_json({"kind": "mystery"})


def test_strategy_unknown_field_rejected():
    with pytest.raises(ValidationError):
        strategy_from_json({"game": "chsh", "n": 1, "bogus": True})
    with pytest.raises(ValidationError):
        strategy_from_json({"kind": "canonical", "game": "chsh", "n": 1, "bogus": 2})


@pytest.mark.parametrize("build, field", [
    (canonical_chsh_strategy, "observables"),
    (canonical_magic_square_strategy, "alicePovms"),
    (canonical_magic_square_strategy, "bobObservables"),
    (canonical_two_out_of_n_strategy, "aliceSingles"),
    (canonical_two_out_of_n_strategy, "bobSingles"),
    (canonical_two_out_of_n_strategy, "alicePairPovms"),
    (canonical_two_out_of_n_strategy, "bobPairPovms"),
])
def test_strategy_missing_field_is_named(build, field):
    doc = strategy_to_json(build(1))
    del doc[field]
    with pytest.raises(ValidationError,
                       match=rf"^{doc['game']} strategy is missing fields: \['{field}'\]$"):
        strategy_from_json(doc)


def test_magic_square_strategy_missing_question_is_named():
    doc = strategy_to_json(canonical_magic_square_strategy(1))
    del doc["alicePovms"]["r3"]
    with pytest.raises(ValidationError, match=r"^alicePovms is missing fields: \['r3'\]$"):
        strategy_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "canonical", "game": ["chsh"]}, "'game' must be a string, got ['chsh']"),
    ({"game": ["chsh"], "n": 1}, "'game' must be a string, got ['chsh']"),
    ({"kind": "random", "seed": None}, "'seed' must be an integer, got None"),
    ({"kind": "canonical", "game": "two_out_of_n", "n": 2, "nPrime": [1]},
     "'nPrime' must be an integer, got [1]"),
    ({"kind": "canonical-perturbed", "theta": [1]}, "'theta' must be a number, got [1]"),
    ({"kind": "canonical-perturbed"}, "'theta' must be a number, got None"),
    ({"kind": "random", "traceBias": [0.1]}, "'traceBias' must be a number, got [0.1]"),
    ({"kind": "canonical", "n": True}, "'n' must be an integer, got True"),
    ({"kind": "canonical", "n": 1.5}, "'n' must be an integer, got 1.5"),
    ({"kind": "random", "variant": 3}, "'variant' must be a string, got 3"),
    ({"game": "chsh", "n": "1", "observables": {}}, "'n' must be an integer, got '1'"),
])
def test_strategy_field_of_the_wrong_type_is_named(doc, message):
    with pytest.raises(ValidationError) as exc:
        strategy_from_json(doc)
    assert str(exc.value) == f"strategy field {message}"


def test_strategy_numeric_fields_take_json_numbers():
    strat = strategy_from_json({"kind": "canonical-perturbed", "game": "chsh", "n": np.int64(1),
                                "theta": 1})
    assert strat.n == 1
    assert strategy_from_json({"kind": "random", "seed": 3, "traceBias": 0}).n == 1


@pytest.mark.parametrize("doc, field", [
    ({"kind": "canonical-perturbed", "game": "two_out_of_n", "n": 2, "nPrime": 4}, "nPrime"),
    ({"kind": "canonical", "game": "two_out_of_n", "n": 2, "register": 2}, "register"),
    ({"kind": "canonical-perturbed", "game": "two_out_of_n", "n": 2, "theta": 0.1,
      "register": 1}, "register"),
    ({"kind": "canonical", "game": "chsh", "nPrime": 1}, "nPrime"),
    ({"kind": "canonical-perturbed", "game": "magic_square", "theta": 0.1, "nPrime": 2},
     "nPrime"),
    ({"kind": "random", "game": "magic_square", "register": 1}, "register"),
    ({"kind": "canonical", "game": "chsh", "theta": 0.1}, "theta"),
    ({"kind": "canonical-perturbed", "game": "chsh", "theta": 0.1, "seed": 3}, "seed"),
])
def test_symbolic_field_the_constructor_does_not_read_is_named(doc, field):
    # such a field used to be dropped: the first document built n_prime = 2
    with pytest.raises(ValidationError) as exc:
        strategy_from_json(doc)
    assert str(exc.value) == (f"symbolic {doc['kind']} {doc['game']} strategy has unknown "
                              f"fields: [{field!r}]")


@pytest.mark.parametrize("n, n_prime", [(2, 0), (2, 1), (3, 2)])
def test_two_out_of_n_needs_a_register_per_index(n, n_prime):
    with pytest.raises(ValidationError, match="^need at least as many registers as indices$"):
        strategy_from_json({"kind": "canonical", "game": "two_out_of_n", "n": n, "nPrime": n_prime})
    with pytest.raises(ValidationError, match="^need at least as many registers as indices$"):
        canonical_two_out_of_n_strategy(n, n_prime)


def test_report_serialization():
    doc = game_value_to_json(chsh_violation(canonical_chsh_strategy(1), 0.9))
    assert doc["winProb"] == pytest.approx(0.5 + doc["violation"] / 8)
    doc = game_value_to_json(magic_square_value(canonical_magic_square_strategy(1), 0.5))
    assert doc["overall"] == pytest.approx(0.75)
    assert doc["parityPass"] == pytest.approx(1.0)


def test_certificate_serialization():
    cert = chsh_sos_certificate(canonical_chsh_strategy(1), 0.8)
    doc = certificate_to_json(cert, eps_tr=0.0)
    assert doc["game"] == "chsh"
    assert doc["epsTr"] == 0.0
    assert {t["label"] for t in doc["terms"]} >= {"square_0", "square_1", "noise_deficit"}
    assert doc["gap"] == pytest.approx(doc["bound"] - doc["value"], abs=1e-9)


def test_selftest_serialization_all_games():
    import json

    doc = selftest_to_json(chsh_selftest(canonical_chsh_strategy(1), 0.7))
    assert doc["register"] == 1 and doc["maxDistance"] < 1e-9
    doc2 = selftest_to_json(ms_selftest(canonical_magic_square_strategy(1), 0.7))
    assert doc2["game"] == "magic_square" and doc2["localUnitary"] is not None
    doc3 = selftest_to_json(two_out_of_n_selftest(canonical_two_out_of_n_strategy(2), 0.7))
    assert doc3["distinct"]
    for d in (doc, doc2, doc3):
        json.dumps(d)  # JSON-serializable end to end


def test_transcript_and_estimate_serialization():
    import json

    tr = run_protocol(ProtocolParams("chsh", 100, 0.05, seed=3, rho=0.8),
                      canonical_chsh_strategy(1))
    doc = transcript_to_json(tr)
    assert doc["tPrime"] == tr.t_prime and "rounds" not in doc
    doc = transcript_to_json(tr, include_rounds=True)
    assert len(doc["rounds"]["x"]) == tr.t_prime
    json.dumps(doc)
    est = estimate_noise_rate("chsh", statistic=0.74, n_rounds=1000)
    json.dumps(estimate_to_json(est))


def test_only_transcripts_carry_schema_version_4():
    from noisygames.extraction import general_noise_selftest
    from noisygames.states import bit_phase_flip_epr, diagonalize_correlation

    chsh = canonical_chsh_strategy(1)
    tr = run_protocol(ProtocolParams("chsh", 20, 0.05, seed=3, rho=0.8), chsh)
    assert transcript_to_json(tr)["schemaVersion"] == 4
    assert transcript_to_json(tr, include_rounds=True)["schemaVersion"] == 4
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    others = [
        state_to_json(make_depolarized_epr(0.8, 1)),
        *(strategy_to_json(s) for s in (chsh, canonical_magic_square_strategy(1),
                                        canonical_two_out_of_n_strategy(2))),
        game_value_to_json(chsh_violation(chsh, 0.9)),
        game_value_to_json(magic_square_value(canonical_magic_square_strategy(1), 0.9)),
        game_value_to_json(two_out_of_n_value(canonical_two_out_of_n_strategy(2), 0.9)),
        certificate_to_json(chsh_sos_certificate(chsh, 0.8), eps_tr=0.0),
        selftest_to_json(chsh_selftest(chsh, 0.7)),
        selftest_to_json(ms_selftest(canonical_magic_square_strategy(1), 0.7)),
        selftest_to_json(two_out_of_n_selftest(canonical_two_out_of_n_strategy(2), 0.7)),
        selftest_to_json(general_noise_selftest(chsh, spectrum)),
        estimate_to_json(estimate_noise_rate("chsh", statistic=0.74, n_rounds=1000)),
    ]
    assert [doc["schemaVersion"] for doc in others] == [1] * len(others)


@pytest.mark.parametrize("game", ["chsh", "magic_square"])
def test_symbolic_random_strategy_rejects_an_unknown_variant(game):
    with pytest.raises(ValidationError, match="unknown random .* kind 'typo'"):
        strategy_from_json({"kind": "random", "game": game, "variant": "typo"})


@pytest.mark.parametrize("density", [
    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["x", 0.0]]],
    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    [],
], ids=["entry-a-string", "ragged-row", "empty"])
def test_state_density_that_is_not_a_matrix_is_named(density):
    # the first two used to raise numpy's own message, naming no field
    with pytest.raises(ValidationError) as exc:
        state_from_json({"dimA": 2, "dimB": 1, "density": density})
    assert str(exc.value) == ("state field 'density': matrix JSON must be a nested array of "
                              "[re, im] pairs")


@pytest.mark.parametrize("density", [
    [[["0.5", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, False]]],
], ids=["entry-a-numeric-string", "entry-a-boolean"])
def test_state_density_entry_that_is_not_a_number_is_named(density):
    # numpy reads "0.5" and false as numbers, so both densities used to load
    with pytest.raises(ValidationError) as exc:
        state_from_json({"dimA": 2, "dimB": 1, "density": density})
    assert str(exc.value) == ("state field 'density': matrix JSON entries must be numbers, "
                              "not strings or booleans")


def _random_two_out_of_n_strategy(n: int, n_prime: int, seed: int) -> TwoOutOfNStrategy:
    """Haar-random binary singles and pair POVMs of rank-(d/4) projectors."""
    rng = np.random.default_rng(seed)
    d = 2 ** n_prime
    singles = [(i, x) for i in range(1, n + 1) for x in (0, 1)]

    def povm():
        u = haar_unitary(d, rng)
        rank_one = np.einsum("ik,jk->kij", u, u.conj())
        return np.stack([rank_one[e::4].sum(axis=0) for e in range(4)])

    (alice, alice_pairs), (bob, bob_pairs) = (
        (dict(zip(singles, random_traceless_binary(d, rng, count=len(singles)))),
         {(i, y, j, z): povm() for i in range(1, n + 1) for j in range(i + 1, n + 1)
          for y in (0, 1) for z in (0, 1)}) for _ in range(2))
    return TwoOutOfNStrategy(n, n_prime, alice, bob, alice_pairs, bob_pairs)


# 2x2 Hermitian operators of spectral norm at most 1, and two-outcome POVMs,
# written out entry by entry: inexact decimals, imaginary parts and -0.0
# (-0.7j is complex(-0.0, -0.7))
_LITERAL_OBSERVABLES = [np.array([[0.1, 0.3 - 0.4j], [0.3 + 0.4j, -0.1]]),
                        np.array([[-0.0, 0.7j], [-0.7j, 0.0]]),
                        np.array([[1 / 3, -0.25 + 0.5j], [-0.25 - 0.5j, -1 / 7]]),
                        np.array([[-1.0, -0.0], [-0.0, 1.0]], dtype=complex)]
_LITERAL_POVMS = [(np.array([[0.36, 0.48j], [-0.48j, 0.64]]),
                   np.array([[0.64, -0.48j], [0.48j, 0.36]])),
                  (np.array([[0.5, 0.3 - 0.4j], [0.3 + 0.4j, 0.5]]),
                   np.array([[0.5, -0.3 + 0.4j], [-0.3 - 0.4j, 0.5]])),
                  (np.array([[1.0, -0.0], [-0.0, 0.0]], dtype=complex),
                   np.array([[-0.0, 0.0], [0.0, 1.0]], dtype=complex))]


def _literal_strategy(game: str):
    """A strategy of `game` at n = 1 (2-out-of-2 on two registers) whose
    members are the literal operators above or their Kronecker products:
    elementwise products only, so its bytes are the same under every BLAS
    kernel, and no two members of a player are equal."""
    obs = [np.kron(a, b) for a in _LITERAL_OBSERVABLES for b in _LITERAL_OBSERVABLES]
    povms = [np.stack([np.kron(e, f) for e in first for f in second])
             for first in _LITERAL_POVMS for second in _LITERAL_POVMS]
    if game == "chsh":
        return ChshStrategy(1, tuple(_LITERAL_OBSERVABLES[:2]), tuple(_LITERAL_OBSERVABLES[2:]))
    if game == "magic_square":
        return MagicSquareStrategy(
            1, {q: 0.5 * np.concatenate([povms[k], povms[k + 3]])
                for k, q in enumerate(MS_QUESTIONS)},
            dict(zip([(i, j) for i in (1, 2, 3) for j in (1, 2, 3)], obs)))
    singles = [(i, x) for i in (1, 2) for x in (0, 1)]
    return TwoOutOfNStrategy(2, 2, dict(zip(singles, obs[:4])), dict(zip(singles, obs[4:8])),
                             dict(zip(_pair_keys(2), povms[:4])),
                             dict(zip(_pair_keys(2), povms[4:8])))


# sha256 of json.dumps(strategy_to_json(s)), recorded from the former
# per-game writers: the document format must not move a byte.  The pinned
# strategies' entries are exact (canonical: 0, +-1, +-1/2, +-i, 1/sqrt(2)) or
# literal, so the digests do not depend on the host's BLAS kernel
GOLDEN_STRATEGY_DOCUMENTS = {
    "chsh-canonical": (lambda: canonical_chsh_strategy(2, register=2),
                       "61d5b053d6355e1345c59573ef2d3b1f98d2b5dade6f95ab3e50978118e06b1e"),
    "chsh-literal": (lambda: _literal_strategy("chsh"), "55d1191783ed42c1e6dfc68b221bc2db341df2dca2e25eff063f9def67a4e685"),
    "ms-canonical": (lambda: canonical_magic_square_strategy(1),
                     "41c798e4ae84ea99bb1949ddb8e4eb26b41a5ba7b955f627e69b04403ba825f9"),
    "ms-literal": (lambda: _literal_strategy("magic_square"), "b5ae1683b5d328f4a88fb8ba506c90891ef46b87d67c668723ccbdf6c915ae91"),
    "two-out-of-n-canonical": (lambda: canonical_two_out_of_n_strategy(3),
                               "d1568c9621bf0a1539cecf62dc6d80c67ce3da796a24a5deae4596c285e8919a"),
    "two-out-of-n-literal": (lambda: _literal_strategy("two_out_of_n"), "a353530ef50d1c38cae50fefcded0f2fc1403f0844f9102339e79344f19dd658"),
}


@pytest.mark.parametrize("name", list(GOLDEN_STRATEGY_DOCUMENTS))
def test_strategy_document_bytes_are_kept(name):
    build, digest = GOLDEN_STRATEGY_DOCUMENTS[name]
    text = json.dumps(strategy_to_json(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# strategies whose operators come from QR and matrix products as well: their
# bytes vary with the BLAS kernel, but each must read back bit for bit
ROUND_TRIP_STRATEGIES = {
    **{name: build for name, (build, _) in GOLDEN_STRATEGY_DOCUMENTS.items()},
    "chsh-perturbed": lambda: perturbed_chsh_strategy(2, 1, 0.3),
    "chsh-random": lambda: random_chsh_strategy(2, np.random.default_rng(5), "bounded", 0.1),
    "ms-perturbed": lambda: perturbed_magic_square_strategy(1, 1, 0.2),
    "ms-random": lambda: random_magic_square_strategy(1, np.random.default_rng(7), "mixed", 0.1),
    "two-out-of-n-perturbed": lambda: perturbed_two_out_of_n_strategy(3, 0.4, 2),
    "two-out-of-n-random": lambda: _random_two_out_of_n_strategy(2, 3, 9),
}


@pytest.mark.parametrize("name", list(ROUND_TRIP_STRATEGIES))
def test_strategy_document_stacks_round_trip_bit_for_bit(name):
    strategy = ROUND_TRIP_STRATEGIES[name]()
    back = strategy_from_json(json.loads(json.dumps(strategy_to_json(strategy))))
    assert type(back) is type(strategy)
    for stack, back_stack in zip(strategy.stacks, back.stacks, strict=True):
        assert back_stack.tobytes() == stack.tobytes()
