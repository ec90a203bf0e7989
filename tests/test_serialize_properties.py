"""Round-trip properties of the JSON documents: every strategy type survives
strategy_to_json and strategy_from_json with equal operators and equal game
values, and every transcript document survives json.dumps and json.loads
unchanged and gives `estimate-rho --transcript` the estimate of its run."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisygames.cli import main
from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    magic_square_value,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    two_out_of_n_value,
)
from noisygames.protocols import ProtocolParams, estimate_noise_rate, run_protocol
from noisygames.serialize import (
    estimate_to_json,
    game_value_to_json,
    strategy_from_json,
    strategy_to_json,
    transcript_to_json,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
RHOS = st.floats(0.0, 1.0)


def _operators(strategy) -> dict:
    """Every operator of a strategy, by a name for the failure message."""
    if isinstance(strategy, ChshStrategy):
        return {**{f"P{x}": op for x, op in enumerate(strategy.alice)},
                **{f"Q{y}": op for y, op in enumerate(strategy.bob)}}
    if isinstance(strategy, MagicSquareStrategy):
        return {**{f"povm {q}": povm for q, povm in strategy.alice_povms.items()},
                **{f"s{i}{j}": op for (i, j), op in strategy.bob_observables.items()}}
    return {f"{side} {key}": op for side in ("alice_singles", "bob_singles",
                                             "alice_pair_povms", "bob_pair_povms")
            for key, op in getattr(strategy, side).items()}


def _value(strategy, rho) -> dict:
    if isinstance(strategy, ChshStrategy):
        return game_value_to_json(chsh_violation(strategy, rho))
    if isinstance(strategy, MagicSquareStrategy):
        return game_value_to_json(magic_square_value(strategy, rho))
    return game_value_to_json(two_out_of_n_value(strategy, rho))


def check_round_trip(strategy, rho):
    doc = strategy_to_json(strategy)
    back = strategy_from_json(json.loads(json.dumps(doc)))
    assert type(back) is type(strategy)
    ops, back_ops = _operators(strategy), _operators(back)
    assert ops.keys() == back_ops.keys()
    for name, op in ops.items():
        assert np.array_equal(back_ops[name], op), name
    assert strategy_to_json(back) == doc
    assert _value(back, rho) == _value(strategy, rho)


@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 2), kind=st.sampled_from(["binary", "bounded"]),
       bias=st.floats(0.0, 0.3), rho=RHOS)
def test_chsh_strategy_round_trip(seed, n, kind, bias, rho):
    check_round_trip(random_chsh_strategy(n, np.random.default_rng(seed), kind, bias), rho)


@PROPERTY
@given(seed=SEEDS, kind=st.sampled_from(["projective", "mixed", "raw"]),
       bias=st.floats(0.0, 0.3), rho=RHOS)
def test_magic_square_strategy_round_trip(seed, kind, bias, rho):
    check_round_trip(random_magic_square_strategy(1, np.random.default_rng(seed), kind, bias),
                     rho)


@PROPERTY
@given(n=st.integers(2, 3), theta=st.floats(-np.pi, np.pi), data=st.data(), rho=RHOS)
def test_two_out_of_n_strategy_round_trip(n, theta, data, rho):
    index = data.draw(st.integers(1, n), label="perturbed index")
    check_round_trip(perturbed_two_out_of_n_strategy(n, theta, index), rho)


_CANONICAL = {"chsh": lambda: canonical_chsh_strategy(1),
              "magic_square": lambda: canonical_magic_square_strategy(1),
              "two_out_of_n": lambda: canonical_two_out_of_n_strategy(2)}


@PROPERTY
@given(game=st.sampled_from(list(_CANONICAL)), t=st.integers(1, 300), seed=SEEDS,
       rho=st.floats(0.5, 1.0), include_rounds=st.booleans())
def test_transcript_document_round_trip(game, t, seed, rho, include_rounds):
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=seed, rho=rho), _CANONICAL[game]())
    doc = transcript_to_json(tr, include_rounds=include_rounds)
    text = json.dumps(doc)
    assert json.loads(text) == doc
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "transcript.json"), Path(tmp, "estimate.json")
        path.write_text(text)
        assert main(["estimate-rho", "--transcript", str(path), "--out", str(out)]) == 0
        estimate = json.loads(out.read_text())
    expected = estimate_to_json(estimate_noise_rate(game, transcript=tr))
    assert estimate == json.loads(json.dumps(expected))
