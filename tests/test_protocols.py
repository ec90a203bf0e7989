import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    pair_key,
    perturbed_two_out_of_n_strategy,
    two_out_of_n_value,
)
from noisygames.pauli import (
    SIGMA_X,
    SIGMA_Z,
    ValidationError,
    default_basis,
    noisy_epr_expectation,
    normalized_trace,
    pauli_expand,
)
from noisygames.protocols import (
    _GAMES,
    _SENTINEL,
    ChshSampler,
    ProtocolParams,
    TwoOutOfNSampler,
    _cumulative_table,
    _GuideTable,
    _rng_for_block,
    _sample_categories,
    _two_out_of_n_game,
    derive_delta,
    estimate_noise_rate,
    play_chsh_rounds,
    play_ms_rounds,
    run_protocol,
    sample_round,
    trace_soundness_bound,
    transcript_rounds_csv,
)
from noisygames.serialize import transcript_to_json
from noisygames.states import make_depolarized_epr

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_derive_delta_examples():
    assert derive_delta(20000, 0.01) == pytest.approx(0.023018, abs=1e-6)
    assert derive_delta(5000, 0.01) == pytest.approx(2 * derive_delta(20000, 0.01), abs=1e-12)
    with pytest.raises(ValidationError):
        derive_delta(0, 0.01)
    with pytest.raises(ValidationError):
        derive_delta(100, 2.0)


def test_trace_soundness_bound():
    assert trace_soundness_bound(20000, 0.01) == pytest.approx(0.069055, abs=1e-6)
    assert trace_soundness_bound(10 ** 8, 0.01) < 0.001


def test_params_delta_invariant():
    params = ProtocolParams("chsh", 400, 0.05, seed=0, rho=0.9)
    assert params.delta == pytest.approx(np.sqrt(2 * np.log(2 / 0.05) / 400), abs=1e-12)


def test_sampler_matches_dense_distribution():
    # closed-form two-outcome tables equal the explicit POVM-trace
    # distribution on the joint state
    rng = np.random.default_rng(0)
    for n in (1, 2):
        strat = canonical_chsh_strategy(n)
        rho = 0.63
        sampler = ChshSampler(strat, rho)
        table = sampler.exact_table()
        state = make_depolarized_epr(rho, n).density
        d = 2 ** n
        for x in (0, 1):
            for y in (0, 1):
                for ai, a in enumerate((1, -1)):
                    for bi, b in enumerate((1, -1)):
                        e = (np.eye(d) + a * strat.alice[x]) / 2
                        f = (np.eye(d) + b * strat.bob[y]) / 2
                        p = np.trace(np.kron(e, f) @ state).real
                        assert abs(table[2 * x + y, 2 * ai + bi] - p) < 1e-9


def test_sample_round_interface():
    rng = np.random.default_rng(1)
    a, b = sample_round(canonical_chsh_strategy(1), 0.8, (0, 1), rng)
    assert a in (-1, 1) and b in (-1, 1)
    a, b = sample_round(canonical_magic_square_strategy(1), 0.8, ("r2", 3), rng)
    assert len(a) == 3 and np.prod(a) == 1 and b in (-1, 1)
    a, bs = sample_round(canonical_two_out_of_n_strategy(2), 0.8,
                         (0, 2, 1, 0, 1, 1), rng)
    assert a in (-1, 1) and len(bs) == 2


def test_empirical_frequencies_converge():
    # canonical players at rho=1: P(a=b | x, y) = (2+sqrt(2))/4 except on the
    # (1,1) question; checked within 3 sigma over 1e5 draws
    strat = canonical_chsh_strategy(1)
    sampler = ChshSampler(strat, 1.0)
    rng = np.random.default_rng(2)
    n = 100000
    target = (2 + np.sqrt(2)) / 4
    for ctx, sign in ((0, 1), (3, -1)):
        out = sampler.draw(np.full(n, ctx), rng.random(n))
        a = 1 - 2 * (out // 2)
        b = 1 - 2 * (out % 2)
        agree = (a == b).mean()
        expected = target if sign > 0 else 1 - target
        assert abs(agree - expected) < 3 * np.sqrt(0.25 / n) * 3


def test_sampler_chi_square():
    strat = canonical_chsh_strategy(1)
    sampler = ChshSampler(strat, 0.8)
    rng = np.random.default_rng(3)
    n = 100000
    table = sampler.exact_table()
    stat = 0.0
    dof = 0
    for ctx in range(4):
        out = sampler.draw(np.full(n, ctx), rng.random(n))
        observed = np.bincount(out, minlength=4)
        expected = n * table[ctx]
        stat += ((observed - expected) ** 2 / expected).sum()
        dof += 3
    assert stats.chi2.sf(stat, dof) > 0.001


def test_rho_zero_uniform_answers():
    strat = canonical_chsh_strategy(1)
    table = ChshSampler(strat, 0.0).exact_table()
    assert np.abs(table - 0.25).max() < 1e-12


def test_protocol_deterministic():
    params = ProtocolParams("chsh", 1500, 0.01, seed=11, rho=0.8)
    strat = canonical_chsh_strategy(1)
    t1 = run_protocol(params, strat)
    t2 = run_protocol(ProtocolParams("chsh", 1500, 0.01, seed=11, rho=0.8), strat)
    assert t1.t_prime == t2.t_prime
    for key in t1.rounds:
        assert np.array_equal(t1.rounds[key], t2.rounds[key])
    assert t1.trace_frequencies == t2.trace_frequencies
    t3 = run_protocol(ProtocolParams("chsh", 1500, 0.01, seed=12, rho=0.8), strat)
    assert any(not np.array_equal(t1.rounds[k], t3.rounds[k]) for k in t1.rounds)


def test_protocol_counts_reach_t():
    params = ProtocolParams("chsh", 800, 0.01, seed=4, rho=0.7)
    tr = run_protocol(params, canonical_chsh_strategy(1))
    assert all(v >= 800 for v in tr.counts.values())
    assert tr.accept


def test_trace_test_uses_first_t_only():
    params = ProtocolParams("chsh", 600, 0.01, seed=5, rho=0.7)
    tr = run_protocol(params, canonical_chsh_strategy(1))
    x, a = tr.rounds["x"], tr.rounds["a"]
    pos = np.flatnonzero(x == 0)[:600]
    assert tr.trace_frequencies["A0"] == pytest.approx((a[pos] == 1).mean())
    # appending more rounds cannot change the first-t frequency
    extended = np.concatenate([a, np.ones(1000, dtype=a.dtype)])
    x_ext = np.concatenate([x, np.zeros(1000, dtype=x.dtype)])
    pos2 = np.flatnonzero(x_ext == 0)[:600]
    assert (extended[pos2] == 1).mean() == pytest.approx(tr.trace_frequencies["A0"])


def test_protocol_rejects_biased_player():
    # bias 0.2 vs delta(4000, 0.01) ~ 0.051: acceptance needs a ~6 sigma
    # downward fluctuation, so all runs reject
    biased = ChshStrategy(
        1,
        (add_trace_bias(SIGMA_Z, 0.2), SIGMA_X),
        canonical_chsh_strategy(1).bob,
    )
    rejections = 0
    for seed in range(20):
        tr = run_protocol(ProtocolParams("chsh", 4000, 0.01, seed=seed, rho=0.8), biased)
        rejections += not tr.accept
    assert rejections == 20


def test_protocol_t_equal_one_runs():
    tr = run_protocol(ProtocolParams("chsh", 1, 0.5, seed=6, rho=0.5),
                      canonical_chsh_strategy(1))
    assert tr.t_prime >= 1
    assert isinstance(tr.accept, bool)


def test_strategy_above_bound_fails_often():
    # bias at 4 delta passes with empirical probability below p
    t, p = 400, 0.05
    delta = derive_delta(t, p)
    biased = ChshStrategy(
        1,
        (add_trace_bias(SIGMA_Z, min(4 * delta, 0.9)), SIGMA_X),
        canonical_chsh_strategy(1).bob,
    )
    accepts = sum(run_protocol(ProtocolParams("chsh", t, p, seed=s, rho=0.8), biased).accept
                  for s in range(40))
    assert accepts / 40 < p


def test_ms_protocol_runs_and_is_deterministic():
    params = ProtocolParams("magic_square", 120, 0.01, seed=7, rho=0.7)
    strat = canonical_magic_square_strategy(1)
    tr = run_protocol(params, strat)
    assert tr.accept
    assert tr.empirical_consistency_rate is not None
    assert abs(tr.empirical_win_rate - 0.85) < 0.05
    tr2 = run_protocol(ProtocolParams("magic_square", 120, 0.01, seed=7, rho=0.7), strat)
    assert np.array_equal(tr.rounds["alice_outcome"], tr2.rounds["alice_outcome"])


def test_two_out_of_n_protocol_runs():
    params = ProtocolParams("two_out_of_n", 25, 0.01, seed=8, rho=0.7)
    tr = run_protocol(params, canonical_two_out_of_n_strategy(2))
    assert tr.accept
    assert abs(tr.empirical_win_rate - (0.5 + np.sqrt(2) * 0.7 / 4)) < 0.08
    assert all(v >= 25 for v in tr.counts.values())


def test_two_out_of_n_protocol_rejects_biased_singles():
    base = canonical_two_out_of_n_strategy(2)
    singles = dict(base.bob_singles)
    singles[(1, 0)] = add_trace_bias(singles[(1, 0)], 0.3)
    from noisygames.games import TwoOutOfNStrategy

    biased = TwoOutOfNStrategy(2, 2, base.alice_singles, singles,
                               base.alice_pair_povms, base.bob_pair_povms)
    # answer bias is trace/2 = 0.15 against delta(2000, 0.01) ~ 0.073
    tr = run_protocol(ProtocolParams("two_out_of_n", 2000, 0.01, seed=3, rho=0.8), biased)
    assert not tr.accept
    assert any("B single question (1,0)" in r for r in tr.reject_reasons)


def test_two_out_of_n_rounds_scaling():
    # expected stopping time grows like t * n^2 * ln n: regressing the
    # measured means against that law gives slope near 1
    t = 20
    means = []
    ns = [2, 3, 4, 5, 6]
    for n in ns:
        strat = canonical_two_out_of_n_strategy(n)
        tprimes = [run_protocol(ProtocolParams("two_out_of_n", t, 0.01, seed=s, rho=0.8),
                                strat).t_prime
                   for s in (0, 1)]
        means.append(np.mean(tprimes))
        assert means[-1] >= 4 * n * (n - 1) * t  # hard lower bound
    law = [t * n ** 2 * np.log(n) for n in ns]
    slope = np.polyfit(np.log(law), np.log(means), 1)[0]
    assert 0.8 <= slope <= 1.3


def test_estimate_examples():
    est = estimate_noise_rate("chsh", statistic=0.5 + np.sqrt(2) * 0.7 / 4, n_rounds=10)
    assert est.rho_hat == pytest.approx(0.7, abs=1e-12)
    est = estimate_noise_rate("two_out_of_n", statistic=0.5 + np.sqrt(2) * 0.4 / 4,
                              n_rounds=10)
    assert est.rho_hat == pytest.approx(0.4, abs=1e-12)
    est = estimate_noise_rate("magic_square", statistic=0.85, n_rounds=10)
    assert est.rho_hat == pytest.approx(0.7, abs=1e-12)
    # below the classical-consistent range: clamped to 0 with a warning
    est = estimate_noise_rate("chsh", statistic=0.45, n_rounds=100)
    assert est.rho_hat == 0.0 and est.clamped
    with pytest.raises(ValidationError):
        estimate_noise_rate("chsh", statistic=None, n_rounds=None)


def test_estimate_from_transcript():
    params = ProtocolParams("chsh", 2000, 0.01, seed=13, rho=0.7)
    tr = run_protocol(params, canonical_chsh_strategy(1))
    est = estimate_noise_rate("chsh", transcript=tr)
    assert abs(est.rho_hat - 0.7) < 0.1
    assert est.n_rounds == tr.t_prime


def test_play_rounds_deterministic_and_close():
    w1 = play_chsh_rounds(canonical_chsh_strategy(1), 0.7, 100000, seed=21)
    w2 = play_chsh_rounds(canonical_chsh_strategy(1), 0.7, 100000, seed=21)
    assert w1 == w2
    assert abs(w1 - (0.5 + np.sqrt(2) * 0.7 / 4)) < 0.01
    win, cons = play_ms_rounds(canonical_magic_square_strategy(1), 0.7, 50000, seed=22)
    assert abs(win - 0.85) < 0.01
    assert abs(cons - 0.85) < 0.01


def test_transcript_csv():
    tr = run_protocol(ProtocolParams("chsh", 50, 0.1, seed=14, rho=0.9),
                      canonical_chsh_strategy(1))
    text = transcript_rounds_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "round,x,y,a,b"
    assert len(lines) == tr.t_prime + 1
    # reference: one Python-formatted line per round
    cols = tr.rounds
    expected = ["round," + ",".join(cols)] + [
        ",".join([str(r)] + [str(int(v[r])) for v in cols.values()])
        for r in range(tr.t_prime)]
    assert text == "\n".join(expected) + "\n"


# sha256 of transcript_rounds_csv for one (game, seed, t) fixture per game.
# A change that moves one of these changes transcripts: bump the transcript
# schema version and say so in CHANGES.md.
GOLDEN_CSV = {
    ("chsh", 1, 500, 0.8): "be9e79b0d90f9d255ccb4e1f5c11dd76ce5fe52d8dbe63ee2e1a26b7cf3e2f80",
    ("magic_square", 1, 200, 0.9):
        "911dbfeff583f506acf3126bef33db30478f925d03b2962a2a65b2eeba82c176",
    ("two_out_of_n", 3, 40, 0.9):
        "4d1da5aebfbe06af6372742003119985f5e0b9c1beccd19f42be5532025a0cb6",
}


@pytest.mark.parametrize("game, n, t, rho", list(GOLDEN_CSV))
def test_transcript_csv_golden_digest(game, n, t, rho):
    strategy = {"chsh": canonical_chsh_strategy,
                "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=11, rho=rho), strategy)
    text = transcript_rounds_csv(tr)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CSV[(game, n, t, rho)]


# Runs whose rounds span more than the first block (t' is above the first
# block's size), recorded before the sampling and stopping layers were
# rewritten: (game, n, t, seed, rho) -> (t', sha256 of transcript_rounds_csv).
GOLDEN_CSV_MULTI_BLOCK = {
    ("two_out_of_n", 5, 100, 3, 0.9):
        (10756, "fcef04e23b18397210ec40222a7552917e564efb8c02afbf370f748d47d5f435"),
    ("magic_square", 1, 1000, 1, 0.9):
        (9648, "26d0501248aa279144de1b2ee08709861f1c8941e542dd8a244fa436558f0337"),
}


@pytest.mark.parametrize("game, n, t, seed, rho", list(GOLDEN_CSV_MULTI_BLOCK))
def test_transcript_csv_golden_digest_multi_block(game, n, t, seed, rho):
    strategy = {"magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=seed, rho=rho), strategy)
    first_block = {"magic_square": int(9.3 * t) + 128,
                   "two_out_of_n": int(4 * n * (n - 1) * t * 1.25) + 256}[game]
    t_prime, digest = GOLDEN_CSV_MULTI_BLOCK[(game, n, t, seed, rho)]
    assert tr.t_prime == t_prime > first_block
    assert hashlib.sha256(transcript_rounds_csv(tr).encode()).hexdigest() == digest


@pytest.mark.parametrize("game, n", [("chsh", 1), ("magic_square", 1), ("two_out_of_n", 3)])
def test_round_columns_are_int64(game, n):
    strategy = {"chsh": canonical_chsh_strategy,
                "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, 30, 0.05, seed=2, rho=0.8), strategy)
    for name, column in tr.rounds.items():
        assert column.dtype == np.int64, name
        assert column.shape == (tr.t_prime,), name


@pytest.mark.parametrize("n_cat", [4, 8, 16])
def test_sample_categories_matches_full_gather(n_cat):
    rng = np.random.default_rng(n_cat)
    n_ctx, rounds = 7, 5000
    tables = rng.random((n_ctx, n_cat))
    tables[rng.random((n_ctx, n_cat)) < 0.3] = 0.0  # zero-mass categories
    tables[:, 0] = 0.0
    tables[1, :] = 0.0
    tables[1, -1] = 1.0
    tables /= tables.sum(axis=1, keepdims=True)
    cum = np.cumsum(tables, axis=1)
    ctx = rng.integers(0, n_ctx, size=rounds).astype(np.uint8)
    u = rng.random(rounds)
    u[:200] = cum[ctx[:200], rng.integers(0, n_cat, size=200)]  # ties with a bound
    u[200:300] = np.nextafter(cum[ctx[200:300], -1], 2.0)       # above the last bound
    u[300:310] = 0.0
    out = _sample_categories(cum, ctx, u)
    assert out.dtype == np.uint8
    assert np.array_equal(out, (u[:, None] > cum[ctx]).sum(axis=1))
    assert (out[200:300] == n_cat).all()


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), n_ctx=st.integers(1, 40), n_cat=st.integers(1, 16))
def test_guided_draw_equals_the_exact_draw(seed, n_ctx, n_cat):
    rng = np.random.default_rng(seed)
    probs = rng.random((n_ctx, n_cat)) * (rng.random((n_ctx, n_cat)) < 0.7)  # zero-mass categories
    probs[np.arange(n_ctx), rng.integers(0, n_cat, n_ctx)] += 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    for row in np.flatnonzero(rng.random(n_ctx) < 0.5):
        # bounds k / 2**j lie on bucket edges of every table of 2**j buckets or more
        j = int(rng.integers(1, 17))
        edges = np.sort(rng.integers(0, 2 ** j + 1, n_cat - 1)) / 2 ** j
        probs[row] = np.diff(edges, prepend=0.0, append=1.0)
    cum = _cumulative_table(probs)
    guide = _GuideTable(cum)
    rounds = 4000
    ctx = rng.integers(0, n_ctx, size=rounds).astype(np.uint8)
    u = rng.random(rounds)
    bound = cum[ctx, rng.integers(0, n_cat, rounds)]
    bound[bound >= 1.0] = 1 - 2 ** -53
    edge = np.floor(bound * guide.scale)
    u[:500] = bound[:500]                                          # ties with a bound
    u[500:1000] = np.nextafter(bound[500:1000], 0.0)               # just below one
    u[1000:1500] = edge[1000:1500] / guide.scale                   # a bound's bucket edges
    u[1500:2000] = np.minimum(edge[1500:2000] + 1, guide.scale - 1) / guide.scale
    u[2000:2500] = rng.integers(0, guide.scale, 500) / guide.scale
    u[2500:2510] = 0.0
    u[2510:2520] = 1 - 2 ** -53
    assert ((u >= 0.0) & (u < 1.0)).all()
    out = guide.draw(ctx, u)
    assert out.dtype == np.uint8
    assert np.array_equal(out, _sample_categories(cum, ctx, u))
    # a uniform outside [0, 1) has no bucket in its row: it gets the exact
    # count, never an entry of the next row's buckets
    for value in (1.0, 1.5, 2.0, np.inf, -0.5, -2 ** -60, -np.inf, np.nan):
        bad = u.copy()
        bad[rounds // 2] = value
        out = guide.draw(ctx, bad)
        assert np.array_equal(out, _sample_categories(cum, ctx, bad))
        if value > 1.0:
            assert out[rounds // 2] == n_cat


@pytest.mark.parametrize("game, strategy, bits", [
    ("chsh", canonical_chsh_strategy(1), 14),
    ("magic_square", canonical_magic_square_strategy(1), 11),
    ("two_out_of_n", canonical_two_out_of_n_strategy(5), 8)])
def test_guide_tables_stay_small(game, strategy, bits):
    guide = _GAMES[game][1](strategy, 0.85).sampler._guide
    assert guide.bits == bits
    assert guide.table.dtype == np.uint8 and guide.table.nbytes <= 100_000
    # few buckets hold a bound, so few rounds take the exact count
    assert (guide.table == _SENTINEL).mean() < 0.05


def _int64_contexts(name, strategy, game, rng, size):
    """A frozen copy of the int64 context draws that the transcript pins were
    recorded with."""
    if name == "chsh":
        return rng.integers(0, 4, size=size).astype(np.uint8)
    if name == "magic_square":
        q = rng.integers(0, 6, size=size).astype(np.uint8)
        slot = rng.integers(1, 4, size=size).astype(np.uint8)
        return 3 * q + slot - 1
    n = strategy.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    index = {ctx: k for k, ctx in enumerate(game.questions)}
    ctx_of = np.array([[[index[(role, i, j, xyz // 4, (xyz // 2) % 2, xyz % 2)]
                         for xyz in range(8)] for i, j in pairs] for role in (0, 1)])
    ctx_of = ctx_of.astype(np.min_scalar_type(ctx_of.max()))
    role = rng.integers(0, 2, size=size)
    pr = rng.integers(0, len(pairs), size=size)
    xyz = rng.integers(0, 8, size=size)
    return ctx_of[role, pr, xyz]


@pytest.mark.parametrize("name, strategy", [
    ("chsh", canonical_chsh_strategy(1)),
    ("magic_square", canonical_magic_square_strategy(1)),
    ("two_out_of_n", canonical_two_out_of_n_strategy(3)),
    ("two_out_of_n", canonical_two_out_of_n_strategy(5))],
    ids=["chsh", "magic_square", "two_out_of_3", "two_out_of_5"])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
@pytest.mark.parametrize("block", [0, 3])
def test_context_draws_match_the_int64_stream(name, strategy, seed, block):
    game = _GAMES[name][1](strategy, 0.8)
    for size in (2 ** 15 + 1, 3 * 2 ** 15 + 12345):
        rng, ref_rng = _rng_for_block(seed, block), _rng_for_block(seed, block)
        ids = game.draw_contexts(rng, size)
        ref = _int64_contexts(name, strategy, game, ref_rng, size)
        assert ids.dtype == ref.dtype and np.array_equal(ids, ref)
        # the outcomes' uniforms start where they did
        assert np.array_equal(rng.random(size), ref_rng.random(size))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_out_of_n_context_ids_are_the_flat_question_index(n):
    # contexts are numbered in (role, i, j, x, y, z) order, so the drawn
    # flat index (role * n(n-1) + ordered pair) * 8 + xyz is the context id
    game = _two_out_of_n_game(canonical_two_out_of_n_strategy(n), 0.8)
    product = [ctx for ctx in itertools.product((0, 1), range(1, n + 1), range(1, n + 1),
                                                (0, 1), (0, 1), (0, 1)) if ctx[1] != ctx[2]]
    assert list(game.sampler.context_index.items()) == [(ctx, k) for k, ctx in enumerate(product)]
    assert game.questions == product
    size, n_pairs = 5000, n * (n - 1)
    rng, ref_rng = _rng_for_block(n, 0), _rng_for_block(n, 0)
    ids = game.draw_contexts(rng, size)
    role = ref_rng.integers(0, 2, size=size)
    pair = ref_rng.integers(0, n_pairs, size=size)
    xyz = ref_rng.integers(0, 8, size=size)
    assert ids.dtype == (np.uint8 if n < 5 else np.uint16)
    assert np.array_equal(ids, (role * n_pairs + pair) * 8 + xyz)


def test_two_out_of_n_needs_two_indices():
    strategy = canonical_two_out_of_n_strategy(1)
    with pytest.raises(ValidationError, match="n >= 2"):
        run_protocol(ProtocolParams("two_out_of_n", 5, 0.05, seed=0, rho=0.8), strategy)
    with pytest.raises(ValidationError, match="n >= 2"):
        TwoOutOfNSampler(strategy, 0.8)


@pytest.mark.parametrize("n_rounds", [0, -5, 2.5, True])
def test_play_rounds_reject_bad_round_counts(n_rounds):
    with pytest.raises(ValidationError, match="round count"):
        play_chsh_rounds(canonical_chsh_strategy(1), 0.7, n_rounds, seed=1)
    with pytest.raises(ValidationError, match="round count"):
        play_ms_rounds(canonical_magic_square_strategy(1), 0.7, n_rounds, seed=1)


def test_block_streams_independent_of_order():
    # block b's draws depend only on (seed, b), so trial generation could be
    # farmed out in any order without changing the transcript
    from noisygames.protocols import _rng_for_block

    forward = [_rng_for_block(7, b).random(16) for b in range(4)]
    backward = [_rng_for_block(7, b).random(16) for b in reversed(range(4))]
    for b in range(4):
        assert np.array_equal(forward[b], backward[3 - b])
    assert not np.array_equal(forward[0], forward[1])


def test_unknown_game_rejected():
    with pytest.raises(ValidationError):
        run_protocol(ProtocolParams("ghz", 10, 0.1, seed=0, rho=0.5),
                     canonical_chsh_strategy(1))


# Values recorded before the three games shared one runner and one player:
# (seed, rounds) -> play_chsh_rounds and play_ms_rounds at rho 0.7.
GOLDEN_PLAY = {
    (21, 1000): (0.746, (0.839, 0.839)),
    (21, 100000): (0.74379, (0.84865, 0.84865)),
    (5, 1000): (0.759, (0.826, 0.826)),
    (5, 100000): (0.7478, (0.85026, 0.85026)),
}


@pytest.mark.parametrize("seed, n_rounds", list(GOLDEN_PLAY))
def test_play_rounds_golden_values(seed, n_rounds):
    chsh, ms = GOLDEN_PLAY[(seed, n_rounds)]
    assert play_chsh_rounds(canonical_chsh_strategy(1), 0.7, n_rounds, seed) == chsh
    assert play_ms_rounds(canonical_magic_square_strategy(1), 0.7, n_rounds, seed) == ms


def _signs(answer) -> str:
    """A sample_round answer flattened to '+'/'-', one per Python int."""
    if isinstance(answer, tuple):
        return "".join(_signs(v) for v in answer)
    assert type(answer) is int
    return "+" if answer == 1 else "-"


def test_sample_round_golden_answers():
    # one rng over every context of each game, in this order; recorded before
    # sample_round decoded answers from the runner's column tables
    rng = np.random.default_rng(17)
    chsh = [sample_round(canonical_chsh_strategy(1), 0.8, (x, y), rng)
            for x in (0, 1) for y in (0, 1)]
    ms = [sample_round(canonical_magic_square_strategy(1), 0.8, (q, slot), rng)
          for q in ("r1", "r2", "r3", "c1", "c2", "c3") for slot in (1, 2, 3)]
    two = canonical_two_out_of_n_strategy(2)
    pairs = [sample_round(two, 0.8, (role, i, j, x, y, z), rng)
             for role in (0, 1) for i, j in ((1, 2), (2, 1))
             for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert " ".join(map(_signs, chsh)) == "-- ++ -+ +-"
    assert " ".join(map(_signs, ms)) == (
        "++++ +--- +--- -+-- -+-- ++++ +--+ -+-+ ++++ --+- --+- ++++ -+-- -+-+ ++++ "
        "++-+ ++-+ +-++")
    assert " ".join(map(_signs, pairs)) == (
        "-+- +-- --- --- +-+ ++- +-- -+- ++- --- --+ +-+ --+ --+ -++ ++- "
        "--+ +-- --+ -++ +++ --- +++ +-- +++ ++- --+ -++ --+ +-- -+- +--")


def _biased_povm(povm, weight):
    """The POVM mixed toward answering outcome 0 (every answer +1)."""
    out = (1 - weight) * povm
    out[0] = out[0] + weight * np.eye(povm.shape[1])
    return out


def _rejected_strategy(game):
    if game == "chsh":
        base = canonical_chsh_strategy(1)
        return ChshStrategy(1, (add_trace_bias(base.alice[0], 0.2), base.alice[1]),
                            (base.bob[0], add_trace_bias(base.bob[1], -0.2)))
    if game == "magic_square":
        base = canonical_magic_square_strategy(1)
        povms, bob = dict(base.alice_povms), dict(base.bob_observables)
        povms["c2"] = _biased_povm(povms["c2"], 0.5)
        bob[(2, 3)] = add_trace_bias(bob[(2, 3)], 0.5)
        return MagicSquareStrategy(1, povms, bob)
    base = canonical_two_out_of_n_strategy(2)
    singles, pairs = dict(base.bob_singles), dict(base.alice_pair_povms)
    singles[(1, 0)] = add_trace_bias(singles[(1, 0)], 0.5)
    pairs[(1, 1, 2, 0)] = _biased_povm(pairs[(1, 1, 2, 0)], 0.5)
    return TwoOutOfNStrategy(2, 2, base.alice_singles, singles, pairs, base.bob_pair_povms)


# Rejecting runs, recorded before the three runners became one:
# (game, t, seed) -> (reject reasons, sha256 of json.dumps(transcript_to_json)
# with rounds).  These pin the reason strings and the order of the counts and
# trace frequencies as well as the rounds.
GOLDEN_REJECTED = {
    ("chsh", 2000, 0): (
        ["player A question 0: |0.6015 - 1/2| >= delta",
         "player B question 1: |0.4185 - 1/2| >= delta"],
        "254f5abf53a45cc15a36c23ea4a63bfc2762f2b9383ffa8e14a61210a78184cf"),
    ("magic_square", 800, 1): (
        ["Alice c2 variable s12: bias 0.7188", "Alice c2 variable s22: bias 0.7412",
         "Alice c2 variable s32: bias 0.7600", "Bob variable s23: bias 0.7662"],
        "115b39388929456b49e8805788a55052d33e26f4860c9cb4d73197a061d12325"),
    ("two_out_of_n", 800, 3): (
        ["player B single question (1,0): bias 0.7188",
         "player A pair (1,1,2,0) slot (1,1): bias 0.7450",
         "player A pair (1,1,2,0) slot (2,0): bias 0.7625"],
        "8443cff226cf17cb492310f668f74852473229b0e1fa8cf95339667e375ac310"),
}


@pytest.mark.parametrize("game, t, seed", list(GOLDEN_REJECTED))
def test_rejecting_transcript_golden_digest(game, t, seed):
    tr = run_protocol(ProtocolParams(game, t, 0.01, seed=seed, rho=0.8), _rejected_strategy(game))
    reasons, digest = GOLDEN_REJECTED[(game, t, seed)]
    assert not tr.accept
    assert tr.reject_reasons == reasons
    text = json.dumps(transcript_to_json(tr, include_rounds=True))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("game, statistic, n_rounds, message", [
    ("ghz", 0.8, 10, "unknown game 'ghz'"),
    (["chsh"], 0.8, 10, "unknown game"),
    ("chsh", 0.8, "abc", "round count"),
    ("magic_square", 0.8, 2.5, "round count"),
    ("chsh", "x", 10, "finite real"),
    ("chsh", float("nan"), 10, "finite real"),
    ("two_out_of_n", float("inf"), 10, "finite real"),
    ("chsh", True, 10, "finite real"),
])
def test_estimate_rejects_bad_inputs(game, statistic, n_rounds, message):
    with pytest.raises(ValidationError, match=message):
        estimate_noise_rate(game, statistic=statistic, n_rounds=n_rounds)


# ---------------------------------------------------------------------------
# 2-out-of-n sampler tables against a reference that expands one operator at
# a time


_TWO_STRATEGIES = {
    "canonical": canonical_two_out_of_n_strategy,
    "theta0.37": lambda n: perturbed_two_out_of_n_strategy(n, 0.37),
    "theta1.1-index2": lambda n: perturbed_two_out_of_n_strategy(n, 1.1, index=2),
}
_TWO_CASES = [(name, n) for name in _TWO_STRATEGIES for n in (2, 3, 4, 5)]


@functools.cache
def _two_strategy(name, n):
    return _TWO_STRATEGIES[name](n)


@functools.cache
def _reference_expansions(name, n):
    """Every single and every pair-POVM element of both players, expanded
    one operator at a time: Alice's in the default basis, Bob's in its
    transpose."""
    s = _two_strategy(name, n)
    base = default_basis(2)
    sides = []
    for singles, povms, basis in ((s.alice_singles, s.alice_pair_povms, base),
                                  (s.bob_singles, s.bob_pair_povms, base.transposed())):
        sides.append(({k: pauli_expand(op, basis) for k, op in singles.items()},
                      {k: [pauli_expand(e, basis) for e in povm] for k, povm in povms.items()}))
    return sides


def _reference_two_out_of_n_cum(name, n, rho):
    s = _two_strategy(name, n)
    (a_singles, a_pairs), (b_singles, b_pairs) = _reference_expansions(name, n)
    weights = np.array([1.0, rho, rho, rho])
    index, rows = {}, []
    for role in (0, 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for x, y, z in itertools.product((0, 1), repeat=3):
                    key = pair_key(i, y, j, z)
                    if role == 0:
                        povm = s.bob_pair_povms[key]
                        single, elems = a_singles[(i, x)], b_pairs[key]
                        corrs = [noisy_epr_expectation(single, e, weights) for e in elems]
                    else:
                        povm = s.alice_pair_povms[key]
                        single, elems = b_singles[(i, x)], a_pairs[key]
                        corrs = [noisy_epr_expectation(e, single, weights) for e in elems]
                    masses = [normalized_trace(e) for e in povm]
                    index[(role, i, j, x, y, z)] = len(rows)
                    rows.append([(m + c) / 2 for m, c in zip(masses, corrs)]
                                + [(m - c) / 2 for m, c in zip(masses, corrs)])
    return index, _cumulative_table(rows)


@pytest.mark.parametrize("rho", [0.0, 0.55, 0.9, 1.0])
@pytest.mark.parametrize("name, n", _TWO_CASES)
def test_two_out_of_n_sampler_matches_per_operator_reference(name, n, rho):
    sampler = TwoOutOfNSampler(_two_strategy(name, n), rho)
    index, cum = _reference_two_out_of_n_cum(name, n, rho)
    assert list(sampler.context_index.items()) == list(index.items())
    assert sampler.cum.shape == cum.shape
    assert np.abs(sampler.cum - cum).max() <= 1e-15


@pytest.mark.parametrize("rho", [0.0, 0.55, 0.9, 1.0])
@pytest.mark.parametrize("name, n", _TWO_CASES)
def test_two_out_of_n_tables_win_at_the_game_value(name, n, rho):
    # every context is equally likely, so the table's win rate is the
    # mean over contexts of each context's winning probability mass
    s = _two_strategy(name, n)
    game = _two_out_of_n_game(s, rho)
    probs = np.diff(game.sampler.cum, axis=1, prepend=0.0)
    win_rate = (probs * game.columns["win"]).sum(axis=1).mean()
    assert abs(win_rate - two_out_of_n_value(s, rho).win_prob) <= 1e-12


def test_two_out_of_n_sampler_expands_each_player_once(monkeypatch):
    import noisygames.games as games

    calls = []

    def counting(mat, basis, **kwargs):
        calls.append(np.shape(mat))
        return pauli_expand(mat, basis, **kwargs)

    monkeypatch.setattr(games, "pauli_expand", counting)
    TwoOutOfNSampler(canonical_two_out_of_n_strategy(4), 0.8)
    # one stack per player: 8 singles and 24 pair POVMs of 4 elements
    assert calls == [(8 + 4 * 24, 16, 16)] * 2


# ---------------------------------------------------------------------------
# chunked rounds: what is drawn, and the tables rounds are drawn from


_CHUNK_GAMES = {
    "chsh": canonical_chsh_strategy(1),
    "magic_square": canonical_magic_square_strategy(1),
    "two_out_of_n": canonical_two_out_of_n_strategy(3),
}


@pytest.mark.parametrize("game, t, seed", [
    ("chsh", 200_000, 3), ("magic_square", 200_000, 4), ("two_out_of_n", 10_000, 5)])
def test_draws_stop_within_a_chunk_of_the_stopping_round(monkeypatch, game, t, seed):
    # t is large enough that the first block outlasts the stopping round by
    # more than a chunk, so drawing it whole would break the bound
    import noisygames.protocols as protocols

    strategy = _CHUNK_GAMES[game]
    tables = protocols._GAMES[game][1](strategy, 0.8)
    sampler = type(tables.sampler)
    draw, drawn = sampler.draw, []

    def counting(self, ctx, u):
        drawn.append(len(u))
        return draw(self, ctx, u)

    monkeypatch.setattr(sampler, "draw", counting)
    tr = run_protocol(ProtocolParams(game, t, 0.01, seed=seed, rho=0.8), strategy)
    assert tables.first_block(t) > tr.t_prime + protocols._CHUNK
    assert tr.t_prime <= sum(drawn) <= tr.t_prime + protocols._CHUNK
    assert max(drawn) <= protocols._CHUNK


@pytest.mark.parametrize("game", list(_CHUNK_GAMES))
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_uniforms_drawn_in_chunks_match_one_call(game, seed):
    # a block's context ids are drawn whole; its uniforms drawn a chunk at a
    # time after them are the doubles one call would give
    from noisygames.protocols import _CHUNK, _GAMES, _rng_for_block

    contexts = _GAMES[game][1](_CHUNK_GAMES[game], 0.8).draw_contexts
    size = 2 * _CHUNK + 1234
    whole, chunked = _rng_for_block(seed, 0), _rng_for_block(seed, 0)
    assert np.array_equal(contexts(whole, size), contexts(chunked, size))
    parts = [chunked.random(len(range(lo, min(lo + _CHUNK, size))))
             for lo in range(0, size, _CHUNK)]
    assert np.array_equal(np.concatenate(parts), whole.random(size))


def test_draw_above_a_row_sum_below_one_stays_in_range():
    # this strategy's rows 8-13 sum to 1 - 2**-52 before the last entry is
    # pinned; a uniform above that drew category 8 of 8
    sampler = TwoOutOfNSampler(perturbed_two_out_of_n_strategy(2, 0.1), 0.83)
    u = np.full(6, 1 - 2 ** -53)
    out = sampler.draw(np.arange(8, 14, dtype=np.uint8), u)
    probs = np.diff(sampler.cum, axis=1, prepend=0.0)
    assert np.array_equal(out, [np.flatnonzero(probs[c])[-1] for c in range(8, 14)])


@pytest.mark.parametrize("rho", [0.0, 0.37, 0.83, 1.0])
def test_sampler_rows_end_at_exactly_one(rho):
    from noisygames.games import (perturbed_chsh_strategy, perturbed_magic_square_strategy,
                                  random_chsh_strategy, random_magic_square_strategy)
    from noisygames.protocols import MagicSquareSampler

    rng = np.random.default_rng([803, int(100 * rho)])
    samplers = [TwoOutOfNSampler(perturbed_two_out_of_n_strategy(n, theta), rho)
                for n in (2, 3, 4) for theta in (0.1, 0.37, 1.1)]
    samplers += [ChshSampler(perturbed_chsh_strategy(n, 1, theta), rho)
                 for n in (1, 2) for theta in (0.1, 0.37, 1.1)]
    samplers += [MagicSquareSampler(perturbed_magic_square_strategy(1, 1, theta), rho)
                 for theta in (0.1, 0.37, 1.1)]
    samplers += [ChshSampler(random_chsh_strategy(n, rng, kind, bias), rho)
                 for n in (1, 2) for kind in ("binary", "bounded") for bias in (0.0, 0.3)]
    samplers += [MagicSquareSampler(random_magic_square_strategy(1, rng, kind, bias), rho)
                 for kind in ("projective", "mixed", "raw") for bias in (0.0, 0.3)]
    for sampler in samplers:
        assert (sampler.cum[:, -1] == 1.0).all()
        assert (np.diff(sampler.cum, axis=1) >= 0).all()


def _perturbed_and_biased(game, n, theta, bias):
    """A perturbed strategy of the game with one operator per player given a
    trace bias (observables) or mixed toward answering +1 (POVMs)."""
    from noisygames.games import perturbed_chsh_strategy, perturbed_magic_square_strategy

    if game == "chsh":
        base = perturbed_chsh_strategy(n, 1, theta)
        return ChshStrategy(n, (add_trace_bias(base.alice[0], bias), base.alice[1]),
                            (base.bob[0], add_trace_bias(base.bob[1], -bias)))
    if game == "magic_square":
        base = perturbed_magic_square_strategy(1, 1, theta)
        povms, bob = dict(base.alice_povms), dict(base.bob_observables)
        povms["r2"] = _biased_povm(povms["r2"], abs(bias))
        bob[(3, 1)] = add_trace_bias(bob[(3, 1)], bias)
        return MagicSquareStrategy(1, povms, bob)
    base = perturbed_two_out_of_n_strategy(n + 1, theta)
    singles, pairs = dict(base.alice_singles), dict(base.bob_pair_povms)
    singles[(1, 0)] = add_trace_bias(singles[(1, 0)], bias)
    pairs[(1, 1, 2, 0)] = _biased_povm(pairs[(1, 1, 2, 0)], abs(bias))
    return TwoOutOfNStrategy(base.n, base.n_prime, singles, base.bob_singles,
                             base.alice_pair_povms, pairs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(game=st.sampled_from(["chsh", "magic_square", "two_out_of_n"]), n=st.integers(1, 2),
       theta=st.floats(-np.pi, np.pi), bias=st.floats(-1.0, 1.0), rho=st.floats(0.0, 1.0))
def test_sampler_rows_are_cumulative_distributions(game, n, theta, bias, rho):
    from noisygames.protocols import _GAMES

    cum = _GAMES[game][1](_perturbed_and_biased(game, n, theta, bias), rho).sampler.cum
    assert ((cum >= 0.0) & (cum <= 1.0)).all()
    assert (np.diff(cum, axis=1) >= 0.0).all()
    assert (cum[:, -1] == 1.0).all()


def test_oversized_first_block_rejected_before_drawing(monkeypatch):
    import noisygames.protocols as protocols

    def no_draws(seed, block):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(protocols, "_rng_for_block", no_draws)
    t = protocols._MAX_FIRST_BLOCK // 2
    with pytest.raises(ValidationError, match=rf"t = {t} needs a first block of {int(2.2 * t) + 64} "
                                              rf"rounds, above the limit of 33554432"):
        run_protocol(ProtocolParams("chsh", t, 0.01, seed=1, rho=0.9), canonical_chsh_strategy(1))
    # CHSH at t = 10**7 stays within the limit
    assert protocols._chsh_game(canonical_chsh_strategy(1), 0.9).first_block(10 ** 7) \
        <= protocols._MAX_FIRST_BLOCK
