"""Transcripts written without rounds, and the repr of both empirical rates,
pinned over a grid of games, t, seeds and noise rates (schema-v2 stream).
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
    ("chsh", 1, 1): "b083f6d2416716d4276fa697ec0128f95d99a74da2ff69ad37cca2832246e26c",
    ("chsh", 1, 7): "91d7a384468a3b13cb74909f75545571b2aa0e555c74cc7bdf15b6894b61ae15",
    ("chsh", 1, 100): "487e679ad2032f38b4bd68a6c2feac466e29531f1ec3ce93d11568b39b14c39a",
    ("chsh", 1, 3000): "e516ebf1109fac0b213f7172c0741077e979ceddf75127e3b4aa030aeed35373",
    ("chsh", 2, 1): "b083f6d2416716d4276fa697ec0128f95d99a74da2ff69ad37cca2832246e26c",
    ("chsh", 2, 7): "91d7a384468a3b13cb74909f75545571b2aa0e555c74cc7bdf15b6894b61ae15",
    ("chsh", 2, 100): "487e679ad2032f38b4bd68a6c2feac466e29531f1ec3ce93d11568b39b14c39a",
    ("chsh", 2, 3000): "e516ebf1109fac0b213f7172c0741077e979ceddf75127e3b4aa030aeed35373",
    ("magic_square", 1, 1): "c651de2435746b04935cb9b0fd9593fc9b9b3aecbdb005dfce50b7e3574160ac",
    ("magic_square", 1, 7): "c31d9827943973a1111d47c26236d6f0930ef021533116980be6ff3beb7b1287",
    ("magic_square", 1, 100): "ff4649984c446cd44af6afd59c10882001261d5eb2b23769c7fb931c4becb586",
    ("magic_square", 1, 3000): "b0f78a0a1de77912d4006ed6fce13175b976baa9d8ce9fc3c512df313de7e7e0",
    ("two_out_of_n", 2, 1): "645683e86bd9ffd10f453f96ea7b7c3529e8864edd091cef553de74c86d03e27",
    ("two_out_of_n", 2, 7): "c3773243d2c18e248a2703d1812e128706ea16fc56d7baf76eb9673aa09285b2",
    ("two_out_of_n", 2, 100): "eda92e717bb26c667b8263e642b12d69bc796caa6943cc10078f317073c96830",
    ("two_out_of_n", 2, 3000): "f0155570a836bbf933b59aaa0156bc81f3447b2304079f9a658c83e8500cb7da",
    ("two_out_of_n", 3, 1): "a97304097e4e42033703af8664bf5ce048a9c2459f8e3a388649ad8e3c859c00",
    ("two_out_of_n", 3, 7): "043bad796b7bc2d95a30a35bf49723f150cb9be0b5f9420f400af8607144c1d1",
    ("two_out_of_n", 3, 100): "c4c3759243b42bbc1598f284956cf34b8f335f7e48ddcf225b4f4f107b5da56d",
    ("two_out_of_n", 3, 3000): "d51fdc1d27acb4aa285cb231e4d3d890f364d2a0cb5010f788ca77c61734c4dc",
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

