"""Transcripts written without rounds, and the repr of both empirical rates,
pinned over a grid of games, t, seeds and noise rates (schema-v3 stream).
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
    ("chsh", 1, 1): "64a012187c4d05719aaf86275dc603d0fe6abe1fa414d6fb6c76344df066dcc7",
    ("chsh", 1, 7): "7f4b12bef769b83336617a3adaf20d742c0891acc793dafbe3d723fbb951e47e",
    ("chsh", 1, 100): "aa09c55ec3fe1a0194d65d9bfb2e8110056bca6a58e5bc843ee4d65cae856e98",
    ("chsh", 1, 3000): "81d179765b264fb9f9fdadd493e01ff27be4d29b66e43f91506ddd2fa44bd55a",
    ("chsh", 2, 1): "64a012187c4d05719aaf86275dc603d0fe6abe1fa414d6fb6c76344df066dcc7",
    ("chsh", 2, 7): "7f4b12bef769b83336617a3adaf20d742c0891acc793dafbe3d723fbb951e47e",
    ("chsh", 2, 100): "aa09c55ec3fe1a0194d65d9bfb2e8110056bca6a58e5bc843ee4d65cae856e98",
    ("chsh", 2, 3000): "81d179765b264fb9f9fdadd493e01ff27be4d29b66e43f91506ddd2fa44bd55a",
    ("magic_square", 1, 1): "2bed3d61cba55624516773804ac93fad15647cacdf07f5724605598564b44364",
    ("magic_square", 1, 7): "acef9d4aaa7d02a8535dc91e406bf6b4970fbc5d97fdace1dcc51f201decd9a1",
    ("magic_square", 1, 100): "b14054016c193c13c4de89598a016a9563b37a2cd69760b4b71ec18d45b0e712",
    ("magic_square", 1, 3000): "2beaeb677a9bf5bae6a878171462d4e0caea2470b02f82ed106c95ee0d7e9531",
    ("two_out_of_n", 2, 1): "056f5586dc0cc5f577b6970a58a1a08934f521ec2eaea420cdd6b935bae8e0d7",
    ("two_out_of_n", 2, 7): "0c1df02adb6491835d133738625dc272a0c594198fb7e93a92435d6f24a73008",
    ("two_out_of_n", 2, 100): "26f46c860623cd7aeff16ba10600c44442db9aad0967919a94d691eacfa86f36",
    ("two_out_of_n", 2, 3000): "5f676d2ff89c850a27f7c25782c882b402bad5ddc0e27954fd8452e9d7397917",
    ("two_out_of_n", 3, 1): "4eeac0ef8de4cc3d01784a38f768fae5017faccf4af5abda2683587a1d5ce332",
    ("two_out_of_n", 3, 7): "73a899a0b139d2d5751a95f860f2008faa32d88c9e87095212dbcb6857927744",
    ("two_out_of_n", 3, 100): "ab9c83e19cedb3852117f8427a8d341adff23c844b7e544d0b44b3fa7efcbf1a",
    ("two_out_of_n", 3, 3000): "fec54e557d5cbafdb7d149d21b39bee3c3adc1e2c17ff400828b6c571125d22d",
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

