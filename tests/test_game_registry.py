"""One game registry: games.GAMES maps each game name to its strategy class,
and every entry point resolves a strategy through games.game_of or a game
name through games.require_game.  So each entry point that takes a strategy
rejects one of no game alike, each that takes a name rejects a name of no
game (or no string) alike, and the two messages are raised in games alone."""

import argparse
from pathlib import Path

import numpy as np
import pytest

from noisygames.certificates import certify
from noisygames.cli import GAME_CHOICES, build_parser
from noisygames.extraction import selftest
from noisygames.games import GAMES, canonical_chsh_strategy, game_value, trace_error
from noisygames.pauli import ValidationError
from noisygames.protocols import (
    ProtocolParams,
    estimate_noise_rate,
    play_rounds,
    run_protocol,
    sample_round,
)
from noisygames.serialize import strategy_from_json, strategy_to_json

SRC = Path(__file__).resolve().parents[1] / "src"

# entry point -> a call of it with the strategy
STRATEGY_ENTRY_POINTS = {
    "game_value": lambda s: game_value(s, 0.8),
    "trace_error": trace_error,
    "selftest": lambda s: selftest(s, 0.8),
    "certify": lambda s: certify(s, 0.8),
    "sample_round": lambda s: sample_round(s, 0.8, (0, 0), np.random.default_rng(1)),
    "play_rounds": lambda s: play_rounds(s, 0.8, 10, 1),
    "strategy_to_json": strategy_to_json,
}

# entry point -> a call of it with the game name; every other argument is valid
NAME_ENTRY_POINTS = {
    "run_protocol": lambda g: run_protocol(ProtocolParams(g, 10, 0.05, 1, 0.8),
                                           canonical_chsh_strategy(1)),
    "estimate_noise_rate": lambda g: estimate_noise_rate(g, statistic=0.8, n_rounds=100),
    "strategy_from_json": lambda g: strategy_from_json({"game": g, "n": 1, "observables": {}}),
    "symbolic canonical": lambda g: strategy_from_json({"kind": "canonical", "game": g}),
    "symbolic canonical-perturbed": lambda g: strategy_from_json(
        {"kind": "canonical-perturbed", "game": g, "theta": 0.1}),
    "symbolic random": lambda g: strategy_from_json({"kind": "random", "game": g, "seed": 3}),
}


@pytest.mark.parametrize("entry", list(STRATEGY_ENTRY_POINTS))
def test_a_strategy_of_no_game_is_an_unknown_strategy_type(entry):
    with pytest.raises(ValidationError, match="^unknown strategy type str$"):
        STRATEGY_ENTRY_POINTS[entry]("x")


@pytest.mark.parametrize("name", ["ghz", ["chsh"], None], ids=["ghz", "list", "none"])
@pytest.mark.parametrize("entry", list(NAME_ENTRY_POINTS))
def test_a_name_of_no_game_is_an_unknown_game(entry, name):
    with pytest.raises(ValidationError) as exc:
        NAME_ENTRY_POINTS[entry](name)
    assert str(exc.value) == f"unknown game {name!r}"


def test_both_messages_are_raised_in_games_alone():
    raised = {message: sorted(path.stem for path in (SRC / "noisygames").glob("*.py")
                              if message in path.read_text())
              for message in ("unknown game", "unknown strategy type")}
    assert raised == {"unknown game": ["games"], "unknown strategy type": ["games"]}


def test_cli_game_choices_are_the_game_table():
    assert GAME_CHOICES == tuple(GAMES)
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    choices = {name: action.choices for name, parser in subparsers.choices.items()
               for action in parser._actions if "--game" in action.option_strings}
    assert set(choices) == {"eval", "certify", "selftest", "simulate", "estimate-rho"}
    assert all(c is GAME_CHOICES for c in choices.values())

