import hashlib

import numpy as np
import pytest
from scipy import stats

from noisygames.games import (
    ChshStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
)
from noisygames.pauli import SIGMA_X, SIGMA_Z, ValidationError
from noisygames.protocols import (
    ChshSampler,
    ProtocolParams,
    TwoOutOfNSampler,
    _sample_categories,
    derive_delta,
    estimate_noise_rate,
    play_chsh_rounds,
    play_ms_rounds,
    run_protocol,
    sample_round,
    trace_soundness_bound,
    transcript_rounds_csv,
)
from noisygames.states import make_depolarized_epr


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
