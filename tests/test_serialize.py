import re

import numpy as np
import pytest

from noisygames.certificates import chsh_sos_certificate
from noisygames.extraction import chsh_selftest, ms_selftest, two_out_of_n_selftest
from noisygames.games import (
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    magic_square_value,
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
    state = state_from_json({"kind": "epr_power", "n": 2})
    assert state.purity() == pytest.approx(1.0)


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


def test_only_transcripts_carry_schema_version_3():
    from noisygames.extraction import general_noise_selftest
    from noisygames.states import bit_phase_flip_epr, diagonalize_correlation

    chsh = canonical_chsh_strategy(1)
    tr = run_protocol(ProtocolParams("chsh", 20, 0.05, seed=3, rho=0.8), chsh)
    assert transcript_to_json(tr)["schemaVersion"] == 3
    assert transcript_to_json(tr, include_rounds=True)["schemaVersion"] == 3
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
