"""The protocol runner's rounds, stopping round, counts and first-t
histograms against a reference runner that draws every block by its own
random() call, finds every round's (context, outcome) cell by one
np.searchsorted over the whole run on the joint CDF it builds from the
sampler's row CDFs, and finds each key's rounds with one stable sort over
the run."""

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


def _joint_cdf(cum):
    """The round rule's joint CDF: cell c * n_out + k of the row CDFs cum
    has the bound (c + cum[c, k]) / n_ctx."""
    n_ctx, n_out = cum.shape
    return np.array([(c + cum[c, k]) / n_ctx for c in range(n_ctx) for k in range(n_out)])


def _reference_play_blocks(params, game):
    """Whole blocks until every key's count reaches t, every round's cell the
    number of joint bounds at most its uniform, then one stable sort per key
    set over the run: each key's rounds in order, its t-th round, its count
    below the stopping round and the histogram of its first t outcomes."""
    t = params.t
    key_tables = [keys for keys, _ in game.key_sets]
    n_ctx, n_out = game.sampler.cum.shape
    joint = _joint_cdf(game.sampler.cum)
    u = np.empty(0)
    while True:
        u = np.concatenate([u, _rng_for_block(params.seed, len(u) // _BLOCK).random(_BLOCK)])
        cells = np.searchsorted(joint, u, side="right")
        ctx_counts = np.bincount(cells // n_out, minlength=n_ctx)
        if all(np.bincount(keys, weights=ctx_counts).min() >= t for keys in key_tables):
            break
    assert ((u >= 0.0) & (u < 1.0)).all()
    ctx, out = np.divmod(cells, n_out)
    positions = []
    for keys in key_tables:
        ids = keys.take(ctx)
        order = np.argsort(ids, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=int(keys.max()) + 1))))
        positions.append([order[bounds[k]: bounds[k + 1]] for k in range(len(bounds) - 1)])
    t_prime = max(int(p[t - 1]) for pos in positions for p in pos) + 1
    return cells[:t_prime], [
        [(int(np.searchsorted(p, t_prime)), np.bincount(out[p[:t]], minlength=n_out)) for p in pos]
        for pos in positions]


def _reference_with_histogram(params, game):
    """The reference runner's results as the runner returns them: each
    round's cell id, per key set its keys' counts and first-t histograms,
    and the histogram of the cell ids."""
    cells, seen = _reference_play_blocks(params, game)
    n_ctx, n_out = game.sampler.cum.shape
    joint = np.bincount(cells, minlength=n_ctx * n_out)
    return cells, [(np.array([count for count, _ in key_seen]),
                    np.array([hist for _, hist in key_seen])) for key_seen in seen], \
        joint.reshape(n_ctx, n_out)


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
    ("magic_square", "canonical", 3508, 1, 0.85): 32519,
    ("magic_square", "trace-biased", 3524, 2, 1.0): 32540,
    ("two_out_of_n", "canonical-n5", 363, 1, 0.85): 32521,
    ("two_out_of_n", "perturbed-n5", 368, 3, 0.0): 32586,
    ("chsh", "canonical", 16216, 0, 0.85): 32771,
    ("chsh", "trace-biased", 16338, 6, 0.0): 32769,
    ("magic_square", "perturbed", 3513, 21, 1.0): 32771,
    ("magic_square", "canonical", 3525, 27, 0.85): 32769,
    ("chsh", "canonical", 16267, 28, 0.85): 32768,
    ("chsh", "trace-biased", 16270, 8, 0.0): 32769,
    ("magic_square", "perturbed", 7179, 15, 1.0): 65536,
    ("magic_square", "canonical", 7180, 29, 0.85): 65537,
    ("two_out_of_n", "canonical-n5", 347, 322, 0.85): 32768,
    ("two_out_of_n", "perturbed-n5", 742, 142, 0.0): 65537,
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
    for (counts, hists), (ref_counts, ref_hists) in zip(seen, ref_seen):
        assert np.array_equal(counts, ref_counts)
        assert hists.shape == ref_hists.shape == (len(counts), n_out)
        assert np.array_equal(hists, ref_hists)
        assert (hists.sum(axis=1) == t).all()
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
    cells, _ = _reference_play_blocks(params, tables)
    expected = {name: table.ravel()[cells] for name, table in tables.columns.items()
                if name not in ("win", "consistent")}
    assert list(tr.rounds) == list(expected)
    for name, column in tr.rounds.items():
        assert column.dtype == np.int64 and column.shape == (tr.t_prime,), name
        assert np.array_equal(column, expected[name]), name
