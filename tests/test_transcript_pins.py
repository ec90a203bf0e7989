"""Transcripts written without rounds, and the repr of both empirical rates,
pinned over a grid of games, t, seeds and noise rates (schema-v4 stream).
A change to how rates and counts are accumulated must leave them
unchanged."""

import hashlib
import json

import pytest

from noisygames.games import (
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
)
from noisygames.protocols import ProtocolParams, run_protocol
from noisygames.serialize import transcript_to_json

_BUILD = {"chsh": canonical_chsh_strategy,
          "magic_square": canonical_magic_square_strategy,
          "two_out_of_n": canonical_two_out_of_n_strategy}
_SEEDS = (0, 5, 2 ** 64 - 1)
_RHOS = (0.0, 0.37, 0.85, 1.0)

# (game, n, t) -> sha256 over the seeds and noise rates above, in that
# order, of json.dumps(transcript_to_json(tr)) followed by the repr of the
# win and consistency rates
PINS = {
    ("chsh", 1, 1): "5e361f3e99bf872815ffa4c9c3a96fd4de604ba306d512be75b69292a6f9fcf7",
    ("chsh", 1, 7): "3d38f10faf58548158c0169c9fdfd48ca27081630b4f726221173b41f41273fe",
    ("chsh", 1, 100): "a37f2a9a0dfcf98248893cf97d02f3f3f220166cbb4242bba76e92e0435bac21",
    ("chsh", 1, 3000): "dfc4ef300ff863291d48ae3aef5154bda7ecfecac5d7272daccc168db8042f71",
    ("chsh", 2, 1): "5e361f3e99bf872815ffa4c9c3a96fd4de604ba306d512be75b69292a6f9fcf7",
    ("chsh", 2, 7): "3d38f10faf58548158c0169c9fdfd48ca27081630b4f726221173b41f41273fe",
    ("chsh", 2, 100): "a37f2a9a0dfcf98248893cf97d02f3f3f220166cbb4242bba76e92e0435bac21",
    ("chsh", 2, 3000): "dfc4ef300ff863291d48ae3aef5154bda7ecfecac5d7272daccc168db8042f71",
    ("magic_square", 1, 1): "ef131e3d45fb2f2eefd4ce92848882f257b9c20d50fb9ed46394589270c324cd",
    ("magic_square", 1, 7): "768e115d33a15b617878499e2c17186736de85e0e048f31cb349196026106164",
    ("magic_square", 1, 100): "382e3509da96b88e4d1491883230a62c4dd307c9b1634bbb85e94cb0d0f52696",
    ("magic_square", 1, 3000): "08fe0323c66e6a6763d63f0b5fe9df0e750bbc15948b0dbb8ec58dd33edd219e",
    ("two_out_of_n", 2, 1): "5f29fd8bb80ba0347423feb56ff9ae4afcc192b3d4269ed100f9167169b2779b",
    ("two_out_of_n", 2, 7): "df44adac565d3adb3a07cf00c50a529cf7a2fb9b0d5a22c3a82dd7942581bdd2",
    ("two_out_of_n", 2, 100): "8130270a792907e44a2d465e6278aafcc33c4acd6cf622873582bf22a4d8c606",
    ("two_out_of_n", 2, 3000): "61c4da67e6d3841bb542358a66ffd4c9d0f1881ef63f4e9843fd8e4332581dab",
    ("two_out_of_n", 3, 1): "1a7505521275fdbd86c8c26c86f5b9c1f9dcd57ab0bc8ed15c8cc6c45882f65a",
    ("two_out_of_n", 3, 7): "e6037780d21bcf150a013918c3b4b4096e9f001ef43dfd39ecd0af65afd5fdca",
    ("two_out_of_n", 3, 100): "72a527dbad18249e59a309a1aa816b46c6ad2ac184399de0ddf1fe557a76eef4",
    ("two_out_of_n", 3, 3000): "b11951fd3526ecf9cc666a0a582c103206bdf14e21c14b0c84851674cf3435ad",
}


def _digest(game, n, t):
    strategy = _BUILD[game](n)
    h = hashlib.sha256()
    for seed in _SEEDS:
        for rho in _RHOS:
            tr = run_protocol(ProtocolParams(game, t, 0.01, seed=seed, rho=rho), strategy)
            h.update(json.dumps(transcript_to_json(tr)).encode())
            h.update(f"\n{tr.empirical_win_rate!r} {tr.empirical_consistency_rate!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("game, n, t", list(PINS))
def test_transcript_without_rounds_pinned(game, n, t):
    assert _digest(game, n, t) == PINS[(game, n, t)]

