"""Transcripts written without rounds, and the repr of both empirical rates,
pinned over a grid of games, t, seeds and noise rates.  The digests were
recorded from the runner that built every round column before computing the
rates; a change to how rates and counts are accumulated must leave them
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
    ("chsh", 1, 1): "d86e1db2b8a004f247d735237cfb2d0a50a8c0a372693968474dea14e1dea022",
    ("chsh", 1, 7): "480859822446f16d0c01f96e1ce9fb35a2401709cc081369da75824ea6860b0c",
    ("chsh", 1, 100): "8790fd39364854b3a16e9dca7378c0138fe865bcb26144cca383fc553c76a027",
    ("chsh", 1, 3000): "678a3cc72b4303fb37fd35ef2f9f6c8517bbb5add68d807da8305d2608c8f9a7",
    ("chsh", 2, 1): "d86e1db2b8a004f247d735237cfb2d0a50a8c0a372693968474dea14e1dea022",
    ("chsh", 2, 7): "480859822446f16d0c01f96e1ce9fb35a2401709cc081369da75824ea6860b0c",
    ("chsh", 2, 100): "8790fd39364854b3a16e9dca7378c0138fe865bcb26144cca383fc553c76a027",
    ("chsh", 2, 3000): "678a3cc72b4303fb37fd35ef2f9f6c8517bbb5add68d807da8305d2608c8f9a7",
    ("magic_square", 1, 1): "4e45fcef14627fe2e723ac147dc24d7eafb9643ba8431e1103c7accb18e52469",
    ("magic_square", 1, 7): "7ed5ea6487e262a0d6806a4997bcd1ab065b68d12677c8e1b8ed3f0132b152b5",
    ("magic_square", 1, 100): "ad15b8d2e39118ee85c13d9dd290a541acae4fb9af4784ddcb18e1d35b607261",
    ("magic_square", 1, 3000): "b29e169f680830714c5dd42e68c72bcbc013ede8eba1f5560caa8260bdc1672a",
    ("two_out_of_n", 2, 1): "c43d638d1b693af04a0f6926d19f5fbe63ca1e1c69651662505d6f8e3b14f160",
    ("two_out_of_n", 2, 7): "9ed1d044662c2ac9b13189dc6024613a259435ab9b494b8fb1cc2cdc4cd8a2c9",
    ("two_out_of_n", 2, 100): "9393a49568dc3a7316bb5f24f916163cde731673200bfe481964e677b26770b3",
    ("two_out_of_n", 2, 3000): "61f8dcea54af5f72ab2566749f1e0703711ab70112ae91c65b8f0601579daed7",
    ("two_out_of_n", 3, 1): "5035000eb84528eee8f9a71077f9e520162e1787342ef1bec7e7cc1b1ea359e4",
    ("two_out_of_n", 3, 7): "dc87460b6c95426bea8086d98a46c81bfbc8699a73f239232986aaa274c0a227",
    ("two_out_of_n", 3, 100): "484bb42c7c30b8f2de201796c02690e1f6b5a14297703e5015212fb437a46f71",
    ("two_out_of_n", 3, 3000): "7a1b358fb1d3e84818dcf65e4d02dfa4f675f82dfa1389f8121c5db22442c90a",
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

