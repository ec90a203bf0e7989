"""The protocol runner's rounds, stopping round, counts and first-t
histograms against a reference runner that draws every block by its own
integers() and random() calls and finds each key's rounds with one stable
sort over the run."""

import json

import numpy as np
import pytest

import noisygames.protocols as protocols
from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
)
from noisygames.protocols import _GAMES, _BLOCK, ProtocolParams, _rng_for_block, run_protocol
from noisygames.serialize import transcript_to_json


def _reference_play_blocks(params, game):
    """Whole blocks until every key's count reaches t, then one stable sort
    per key set over the run: each key's rounds in order, its t-th round,
    its count below the stopping round and the histogram of its first t
    outcomes."""
    t = params.t
    key_tables = [keys for keys, _ in game.key_sets]
    n_ctx = len(game.questions)
    ctxs, outs = [], []
    ctx_counts = np.zeros(n_ctx, dtype=np.int64)
    block = 0
    while True:
        rng = _rng_for_block(params.seed, block)
        ctx = rng.integers(0, n_ctx, size=_BLOCK, dtype=np.uint16)
        if n_ctx <= 256:
            ctx = ctx.astype(np.uint8)
        ctxs.append(ctx)
        outs.append(game.sampler.draw(ctx, rng.random(_BLOCK)))
        ctx_counts += np.bincount(ctx, minlength=len(ctx_counts))
        block += 1
        if all(np.bincount(keys, weights=ctx_counts).min() >= t for keys in key_tables):
            break
    ctx, out = np.concatenate(ctxs), np.concatenate(outs)
    positions = []
    for keys in key_tables:
        ids = keys.take(ctx)
        order = np.argsort(ids, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=int(keys.max()) + 1))))
        positions.append([order[bounds[k]: bounds[k + 1]] for k in range(len(bounds) - 1)])
    t_prime = max(int(p[t - 1]) for pos in positions for p in pos) + 1
    return ctx[:t_prime], out[:t_prime], [
        [(int(np.searchsorted(p, t_prime)), np.bincount(out[p[:t]])) for p in pos]
        for pos in positions]


def _reference_with_histogram(params, game):
    """The reference runner's results as the runner returns them: each
    round's (context, outcome) cell id ctx * n_out + out, the counts and
    first-t histograms, and the histogram of the cell ids."""
    ctx, out, seen = _reference_play_blocks(params, game)
    n_ctx, n_out = game.sampler.cum.shape
    assert out.dtype == np.uint8
    cells = ctx.astype(np.intp) * n_out + out
    joint = np.bincount(cells, minlength=n_ctx * n_out)
    return cells, seen, joint.reshape(n_ctx, n_out)


def _biased_povm(povm, weight):
    out = (1 - weight) * povm
    out[0] = out[0] + weight * np.eye(povm.shape[1])
    return out


def _trace_biased(game):
    """A strategy of the game with trace-biased answers on both sides."""
    if game == "chsh":
        base = canonical_chsh_strategy(1)
        return ChshStrategy(1, (add_trace_bias(base.alice[0], 0.3), base.alice[1]),
                            (base.bob[0], add_trace_bias(base.bob[1], -0.2)))
    if game == "magic_square":
        base = canonical_magic_square_strategy(1)
        povms, bob = dict(base.alice_povms), dict(base.bob_observables)
        povms["r3"] = _biased_povm(povms["r3"], 0.4)
        bob[(1, 2)] = add_trace_bias(bob[(1, 2)], 0.3)
        return MagicSquareStrategy(1, povms, bob)
    base = canonical_two_out_of_n_strategy(2)
    singles, pairs = dict(base.alice_singles), dict(base.bob_pair_povms)
    singles[(2, 1)] = add_trace_bias(singles[(2, 1)], 0.3)
    pairs[(1, 0, 2, 1)] = _biased_povm(pairs[(1, 0, 2, 1)], 0.4)
    return TwoOutOfNStrategy(2, 2, singles, base.bob_singles, pairs, base.bob_pair_povms)


_STRATEGIES = {
    ("chsh", "canonical"): lambda: canonical_chsh_strategy(1),
    ("chsh", "perturbed"): lambda: perturbed_chsh_strategy(1, 1, 0.3),
    ("chsh", "trace-biased"): lambda: _trace_biased("chsh"),
    ("magic_square", "canonical"): lambda: canonical_magic_square_strategy(1),
    ("magic_square", "perturbed"): lambda: perturbed_magic_square_strategy(1, 1, 0.3),
    ("magic_square", "trace-biased"): lambda: _trace_biased("magic_square"),
    ("two_out_of_n", "canonical"): lambda: canonical_two_out_of_n_strategy(2),
    ("two_out_of_n", "perturbed"): lambda: perturbed_two_out_of_n_strategy(2, 0.37),
    ("two_out_of_n", "trace-biased"): lambda: _trace_biased("two_out_of_n"),
    ("two_out_of_n", "canonical-n5"): lambda: canonical_two_out_of_n_strategy(5),
    ("two_out_of_n", "perturbed-n5"): lambda: perturbed_two_out_of_n_strategy(5, 0.37),
}

_SEEDS = (0, 5, 2 ** 64 - 1)
_RHOS = (0.0, 0.85, 1.0)
_TS = (1, 2, 7, 100, 3000, 40000)

# every game, strategy kind and t; per game, the seeds and noise rates cycle
# so that every t meets every seed and every (seed, rho) pair comes up twice
_GRID = [(game, kind, t, _SEEDS[(c + j) % 3], _RHOS[(c + 2 * j + g) % 3])
         for g, game in enumerate(("chsh", "magic_square", "two_out_of_n"))
         for c, kind in enumerate(("canonical", "perturbed", "trace-biased"))
         for j, t in enumerate(_TS)]

# (game, kind, t, seed, rho) -> t': runs that stop in the last 256 rounds
# of block 0 or in the first rounds of block 1, and runs that stop on the
# last round of a block (t' = 32768 or 65536) or on the first round of the
# next (32769, 65537)
_PINNED = {
    ("magic_square", "canonical", 3561, 1, 0.85): 32512,
    ("magic_square", "trace-biased", 3522, 2, 1.0): 32529,
    ("two_out_of_n", "canonical-n5", 368, 1, 0.85): 32662,
    ("two_out_of_n", "perturbed-n5", 362, 3, 0.0): 32550,
    ("chsh", "canonical", 16290, 0, 0.85): 32883,
    ("chsh", "trace-biased", 16331, 6, 0.0): 32771,
    ("magic_square", "perturbed", 3571, 20, 1.0): 32774,
    ("magic_square", "canonical", 3603, 27, 0.85): 32770,
    ("chsh", "canonical", 16341, 27, 0.85): 32768,
    ("chsh", "trace-biased", 16306, 8, 0.0): 32769,
    ("magic_square", "perturbed", 7206, 12, 1.0): 65536,
    ("magic_square", "canonical", 7017, 9, 0.85): 65537,
    ("two_out_of_n", "canonical-n5", 350, 270, 0.85): 32768,
    ("two_out_of_n", "perturbed-n5", 756, 141, 0.0): 65537,
}


def _check_against_reference(monkeypatch, game, kind, t, seed, rho):
    strategy = _STRATEGIES[(game, kind)]()
    params = ProtocolParams(game, t, 0.01, seed=seed, rho=rho)
    played = {}

    def recording(name, play):
        def wrapper(p, g):
            played[name] = (play(p, g), g.sampler.cum.shape[1])
            return played[name][0]
        return wrapper

    runner = protocols._play_blocks
    monkeypatch.setattr(protocols, "_play_blocks", recording("runner", runner))
    tr = run_protocol(params, strategy)
    monkeypatch.setattr(protocols, "_play_blocks",
                        recording("reference", _reference_with_histogram))
    ref = run_protocol(params, strategy)
    monkeypatch.setattr(protocols, "_play_blocks", runner)

    (cells, seen, joint), n_out = played["runner"]
    (ref_cells, ref_seen, ref_joint), _ = played["reference"]
    assert tr.t_prime == ref.t_prime == len(ref_cells)
    # one or two bytes a round, the narrowest that holds every cell id
    assert cells.dtype == np.min_scalar_type(joint.size - 1)
    assert np.array_equal(cells, ref_cells)
    assert joint.shape == ref_joint.shape and np.array_equal(joint, ref_joint)
    assert len(seen) == len(ref_seen)
    for key_seen, ref_key_seen in zip(seen, ref_seen):
        assert len(key_seen) == len(ref_key_seen)
        for (count, hist), (ref_count, ref_hist) in zip(key_seen, ref_key_seen):
            assert count == ref_count
            padded = np.zeros(n_out, dtype=np.int64)
            padded[:len(ref_hist)] = ref_hist
            assert np.array_equal(np.pad(hist, (0, n_out - len(hist))), padded)
            assert hist.sum() == t
    assert (json.dumps(transcript_to_json(tr, include_rounds=True))
            == json.dumps(transcript_to_json(ref, include_rounds=True)))
    return tr


@pytest.mark.parametrize("game, kind, t, seed, rho", _GRID)
def test_runner_matches_reference(monkeypatch, game, kind, t, seed, rho):
    _check_against_reference(monkeypatch, game, kind, t, seed, rho)


@pytest.mark.parametrize("game, kind, t, seed, rho", list(_PINNED))
def test_runner_matches_reference_at_pinned_stops(monkeypatch, game, kind, t, seed, rho):
    # the runner draws the blocks up to the one that holds the stopping
    # round, and none after it
    drawn = []

    def counting(seed, block):
        drawn.append(block)
        return _rng_for_block(seed, block)

    monkeypatch.setattr(protocols, "_rng_for_block", counting)
    tr = _check_against_reference(monkeypatch, game, kind, t, seed, rho)
    t_prime = _PINNED[(game, kind, t, seed, rho)]
    assert tr.t_prime == t_prime
    assert drawn == list(range((t_prime - 1) // _BLOCK + 1))


@pytest.mark.parametrize("game, n, t", [
    ("chsh", 1, 200_000), ("magic_square", 1, 30_000), ("two_out_of_n", 3, 3000)])
def test_run_keeps_a_few_bytes_a_round_until_rounds_are_read(game, n, t):
    # a transcript written without rounds needs no round column: the run
    # keeps one cell id a round, and builds a column each time it is read
    import tracemalloc

    strategy = {"chsh": canonical_chsh_strategy,
                "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    params = ProtocolParams(game, t, 0.01, seed=3, rho=0.85)
    run_protocol(ProtocolParams(game, 5, 0.01, seed=3, rho=0.85), strategy)  # warm caches
    tracemalloc.start()
    try:
        tr = run_protocol(params, strategy)
        transcript_to_json(tr)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 8 * tr.t_prime

    tables = _GAMES[game][1](strategy, params.rho)
    ctx, out, _ = _reference_play_blocks(params, tables)
    cells = ctx.astype(np.intp) * tables.sampler.cum.shape[1] + out
    expected = {name: table.ravel()[cells] for name, table in tables.columns.items()
                if name not in ("win", "consistent")}
    assert list(tr.rounds) == list(expected)
    for name, column in tr.rounds.items():
        assert column.dtype == np.int64 and column.shape == (tr.t_prime,), name
        assert np.array_equal(column, expected[name]), name
