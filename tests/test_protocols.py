import functools
import hashlib
import itertools
import json
import tracemalloc
from types import SimpleNamespace

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
    _BLOCK,
    _GAMES,
    _SENTINEL,
    ChshSampler,
    ProtocolParams,
    RoundColumns,
    TwoOutOfNSampler,
    _cumulative_table,
    _GuideTable,
    _blocks,
    _render_rows,
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


def _reference_csv(tr) -> str:
    """One Python-formatted line per round, each column read once."""
    cols = tr.rounds
    values = [cols[name] for name in cols]
    expected = ["round," + ",".join(cols)] + [
        ",".join([str(r)] + [str(int(v[r])) for v in values])
        for r in range(len(values[0]))]
    return "\n".join(expected) + "\n"


def test_transcript_csv():
    tr = run_protocol(ProtocolParams("chsh", 50, 0.1, seed=14, rho=0.9),
                      canonical_chsh_strategy(1))
    text = transcript_rounds_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "round,x,y,a,b"
    assert len(lines) == tr.t_prime + 1
    assert text == _reference_csv(tr)


_CANONICAL = {"chsh": canonical_chsh_strategy,
              "magic_square": canonical_magic_square_strategy,
              "two_out_of_n": canonical_two_out_of_n_strategy}


# per game, runs whose round numbers stay below 10 or 100 and runs whose
# t' passes 10**5, which span several render blocks of _BLOCK rows
@pytest.mark.parametrize("game, n, t, seed", [
    ("chsh", 1, 1, 0), ("chsh", 1, 30, 1), ("chsh", 1, 60_000, 2),
    ("magic_square", 1, 1, 0), ("magic_square", 1, 12_000, 3),
    ("two_out_of_n", 3, 1, 0), ("two_out_of_n", 3, 5_000, 4)])
def test_csv_equals_the_reference_formatter(game, n, t, seed):
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=seed, rho=0.8), _CANONICAL[game](n))
    assert tr.t_prime < 100 or tr.t_prime > 10 ** 5 > 3 * _BLOCK
    assert transcript_rounds_csv(tr) == _reference_csv(tr)


def test_csv_renders_negative_and_multi_digit_values():
    # per (context, outcome) cell, values of either sign and several widths
    tables = {"v": np.array([[-1234567, 0], [5, -9]]), "w": np.array([[-1, 20], [-300, 4]])}
    cells = np.random.default_rng(0).integers(0, 4, size=2 * _BLOCK + 7).astype(np.uint8)
    tr = SimpleNamespace(rounds=RoundColumns(cells, tables))
    assert transcript_rounds_csv(tr) == _reference_csv(tr)


@pytest.mark.parametrize("numbered", [False, True])
@pytest.mark.parametrize("rows", [0, 1, 10, 11, _BLOCK, 3 * _BLOCK + 5])
def test_render_rows_is_the_python_join(numbered, rows):
    texts = [b",-42\n", b"", b",7,-1", b"x" * 40]
    cells = np.random.default_rng(rows).integers(0, len(texts), size=rows).astype(np.uint16)
    want = b"".join((str(r).encode() if numbered else b"") + texts[c]
                    for r, c in enumerate(cells.tolist()))
    assert _render_rows(cells, texts, numbered) == want


@pytest.mark.parametrize("game, n, t", [
    ("chsh", 1, 100_000), ("magic_square", 1, 12_000), ("two_out_of_n", 3, 4_000)])
def test_reading_a_column_allocates_only_that_column(game, n, t):
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=6, rho=0.8), _CANONICAL[game](n))
    assert len(tr.rounds) >= 4
    tracemalloc.start()
    try:
        column = tr.rounds[next(iter(tr.rounds))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert column.shape == (tr.t_prime,)
    # the column itself, plus one block of ids widened to intp
    assert peak <= 8 * tr.t_prime + 16 * _BLOCK


def test_csv_peak_memory_is_a_small_multiple_of_its_text():
    tr = run_protocol(ProtocolParams("chsh", 500_000, 0.05, seed=7, rho=0.8),
                      canonical_chsh_strategy(1))
    transcript_rounds_csv(run_protocol(ProtocolParams("chsh", 5, 0.05, seed=7, rho=0.8),
                                       canonical_chsh_strategy(1)))  # warm caches
    tracemalloc.start()
    try:
        text = transcript_rounds_csv(tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 10 ** 7
    assert peak <= 3 * len(text)


# sha256 of transcript_rounds_csv for one (game, seed, t) fixture per game.
# A change that moves one of these changes transcripts: bump the transcript
# schema version and say so in CHANGES.md.
GOLDEN_CSV = {
    ("chsh", 1, 500, 0.8): "d33604234cccd23cd08df4036313326d40571f81cf5eefe09dc9dec23fa3a4ce",
    ("magic_square", 1, 200, 0.9):
        "74a5daa30a112e4f287ab29f4743e8f7b05812db5741f80d7e83e57d5111c511",
    ("two_out_of_n", 3, 40, 0.9):
        "d2fd98bf2784e6a93c0a6d99475b838984141cb9e60e0e3ca80417d564a160bc",
}


@pytest.mark.parametrize("game, n, t, rho", list(GOLDEN_CSV))
def test_transcript_csv_golden_digest(game, n, t, rho):
    strategy = {"chsh": canonical_chsh_strategy,
                "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=11, rho=rho), strategy)
    text = transcript_rounds_csv(tr)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CSV[(game, n, t, rho)]


# Runs whose rounds span more than one block (t' is above _BLOCK):
# (game, n, t, seed, rho) -> (t', sha256 of transcript_rounds_csv).
GOLDEN_CSV_MULTI_BLOCK = {
    ("two_out_of_n", 5, 400, 3, 0.9):
        (35363, "5af201bd997913aac8f9dacbff6687aae48983a98670f05ba05d2fbda15e0428"),
    ("magic_square", 1, 4000, 1, 0.9):
        (36589, "f3f51bd80df472dacbebfa956bdb0b75f8aee7be4fd8ae9628e316983c3eb46c"),
}


@pytest.mark.parametrize("game, n, t, seed, rho", list(GOLDEN_CSV_MULTI_BLOCK))
def test_transcript_csv_golden_digest_multi_block(game, n, t, seed, rho):
    strategy = {"magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed=seed, rho=rho), strategy)
    t_prime, digest = GOLDEN_CSV_MULTI_BLOCK[(game, n, t, seed, rho)]
    assert tr.t_prime == t_prime > _BLOCK
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
        assert not column.flags.writeable, name


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


def _rounds_per_t(game):
    """The rounds a run is expected to need per unit of t: the contexts per
    context of the game's rarest tracked question."""
    return len(game.questions) // min(int(np.bincount(keys).min()) for keys, _ in game.key_sets)


@pytest.mark.parametrize("name, strategy", [
    ("chsh", canonical_chsh_strategy(1)),
    ("magic_square", canonical_magic_square_strategy(1)),
    ("two_out_of_n", canonical_two_out_of_n_strategy(3)),
    ("two_out_of_n", canonical_two_out_of_n_strategy(5))],
    ids=["chsh", "magic_square", "two_out_of_3", "two_out_of_5"])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
@pytest.mark.parametrize("block", [0, 3])
def test_context_draws_match_the_int64_stream(name, strategy, seed, block):
    # the int64 question columns of a run's rounds in block `block` are the
    # questions of that block's context ids, drawn by one uint16 integers()
    # call of the block's own stream
    game = _GAMES[name][1](strategy, 0.8)
    n_ctx = len(game.questions)
    lo = block * _BLOCK
    t = (lo + 1000) // _rounds_per_t(game)
    tr = run_protocol(ProtocolParams(name, t, 0.05, seed=seed, rho=0.8), strategy)
    assert lo + 100 <= tr.t_prime <= lo + _BLOCK
    ids = _rng_for_block(seed, block).integers(0, n_ctx, size=_BLOCK, dtype=np.uint16)
    ids = ids[: tr.t_prime - lo].astype(np.intp)
    questions = [column for column, table in game.columns.items()
                 if column in tr.rounds and (table == table[:, :1]).all()]
    assert len(questions) == len(game.questions[0])
    for column in questions:
        assert tr.rounds[column].dtype == np.int64
        assert np.array_equal(tr.rounds[column][lo:], game.columns[column][ids, 0]), column


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_two_out_of_n_context_ids_are_the_flat_question_index(n):
    # contexts are numbered in (role, i, j, x, y, z) order, so a drawn id is
    # the flat index (role * n(n-1) + ordered pair) * 8 + xyz
    game = _two_out_of_n_game(canonical_two_out_of_n_strategy(n), 0.8)
    product = [ctx for ctx in itertools.product((0, 1), range(1, n + 1), range(1, n + 1),
                                                (0, 1), (0, 1), (0, 1)) if ctx[1] != ctx[2]]
    assert list(game.sampler.context_index.items()) == [(ctx, k) for k, ctx in enumerate(product)]
    assert game.questions == product
    n_pairs = n * (n - 1)
    ids, _ = next(_blocks(n, len(product)))
    assert ids.dtype == (np.uint8 if n < 5 else np.uint16)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    role, rest = np.divmod(ids.astype(np.intp), 8 * n_pairs)
    pair, xyz = np.divmod(rest, 8)
    flat = [(int(r), *pairs[p], int(q) >> 2, (int(q) >> 1) & 1, int(q) & 1)
            for r, p, q in zip(role[:2000], pair[:2000], xyz[:2000])]
    assert flat == [game.questions[k] for k in ids[:2000]]
    assert set(np.unique(ids)) == set(range(len(product)))


# (seed, block, contexts) -> the first six context ids and the first two
# uniforms of the block
STREAM_PINS = {
    (0, 0, 4): ([2, 0, 0, 2, 2, 0], [0.6027700690052553, 0.45581420648697524]),
    (0, 0, 18): ([10, 0, 3, 9, 9, 2], [0.08600004597893873, 0.47572220090949846]),
    (0, 0, 96): ([58, 0, 16, 52, 52, 15], [0.09424292687759417, 0.4407048846998105]),
    (0, 0, 320): ([194, 1, 56, 175, 173, 50], [0.16783002422370563, 0.5827581675762906]),
    (0, 3, 4): ([3, 2, 3, 3, 1, 0], [0.798659400880905, 0.6144924075209378]),
    (0, 3, 18): ([15, 9, 16, 17, 4, 3], [0.9615803556007968, 0.06861777328442553]),
    (0, 3, 96): ([84, 51, 87, 93, 24, 17], [0.4410335711841523, 0.4277024318022359]),
    (0, 3, 320): ([280, 170, 292, 311, 80, 56], [0.616663316132788, 0.6415500725259592]),
    (2 ** 64 - 1, 0, 4): ([2, 3, 2, 0, 1, 0], [0.9567117299598976, 0.8539166853074771]),
    (2 ** 64 - 1, 0, 18): ([12, 15, 9, 3, 8, 2], [0.8539166853074771, 0.8483611984601951]),
    (2 ** 64 - 1, 0, 96): ([68, 83, 52, 19, 47, 15], [0.05483290457816958, 0.9172955861979328]),
    (2 ** 64 - 1, 0, 320): ([226, 277, 174, 64, 158, 52],
                            [0.7323509475465722, 0.11407177091729348]),
    (2 ** 64 - 1, 3, 4): ([3, 0, 0, 3, 0, 1], [0.5049790590962755, 0.8138512504165873]),
    (2 ** 64 - 1, 3, 18): ([14, 3, 2, 13, 2, 5], [0.3047131880625301, 0.3247783229415585]),
    (2 ** 64 - 1, 3, 96): ([75, 16, 13, 72, 12, 28], [0.4037267966263678, 0.03169903074313485]),
    (2 ** 64 - 1, 3, 320): ([251, 54, 43, 242, 40, 93],
                            [0.18718055007936552, 0.4828431234479509]),
}


def test_round_stream_is_sfc64_keyed_by_seed_sequence_spawn():
    # the one rule every game's rounds follow: block k of a seed holds
    # _BLOCK ids from one uint16 integers() call of the SFC64 stream seeded
    # by SeedSequence(seed, spawn_key=(k,)), the k-th child that
    # SeedSequence(seed).spawn() gives, then _BLOCK uniforms.  A numpy change
    # to SeedSequence, SFC64, integers() or random() fails here
    assert _BLOCK == 2 ** 15
    for (seed, block, n_ctx), (first_ids, first_u) in STREAM_PINS.items():
        child = np.random.SeedSequence(seed).spawn(block + 1)[block]
        rng = np.random.Generator(np.random.SFC64(child))
        ids = rng.integers(0, n_ctx, size=_BLOCK, dtype=np.uint16)
        u = rng.random(_BLOCK)
        ctx, runner_u = next(itertools.islice(_blocks(seed, n_ctx), block, None))
        assert ctx.dtype == (np.uint8 if n_ctx <= 256 else np.uint16)
        assert np.array_equal(ctx, ids) and np.array_equal(runner_u, u)
        assert ids[:6].tolist() == first_ids and u[:2].tolist() == first_u
    # seed 2**64 - 1 is not folded onto another seed
    assert not np.array_equal(_rng_for_block(2 ** 64 - 1, 0).random(8),
                              _rng_for_block(0, 0).random(8))


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


# Rejecting runs: (game, t, seed) -> (reject reasons, sha256 of json.dumps(transcript_to_json)
# with rounds).  These pin the reason strings and the order of the counts and
# trace frequencies as well as the rounds.
GOLDEN_REJECTED = {
    ("chsh", 2000, 0): (
        ["player A question 0: |0.5875 - 1/2| >= delta",
         "player B question 1: |0.3800 - 1/2| >= delta"],
        "2873d3417446190115814fbd54705580090730e4dda991da1923b59dfb3ad700"),
    ("magic_square", 800, 1): (
        ["Alice c2 variable s12: bias 0.7350", "Alice c2 variable s22: bias 0.7538",
         "Alice c2 variable s32: bias 0.7712", "Bob variable s23: bias 0.7512"],
        "d0af3a2c34c3f4072a1b7e3f5c776e86111020a758501f2f656135556ffbd438"),
    ("two_out_of_n", 800, 3): (
        ["player B single question (1,0): bias 0.7762",
         "player A pair (1,1,2,0) slot (1,1): bias 0.7500",
         "player A pair (1,1,2,0) slot (2,0): bias 0.7475"],
        "a48372a82e099997bd73d9e835e74c51bbe492896c9f0bdd644e7ace667c760c"),
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
    ("chsh", 1.5, 100, r"must lie in \[0, 1\], got 1\.5$"),
    ("magic_square", -0.3, 100, r"must lie in \[0, 1\], got -0\.3$"),
    ("two_out_of_n", np.float64(1.0 + 1e-9), 100, r"must lie in \[0, 1\], got 1\.000000001$"),
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
    # one call per role, of that role's 8 singles; the 24 pair POVMs of 4
    # elements each are paired as they are, and no element is expanded
    assert calls == [(8, 16, 16)] * 2


# ---------------------------------------------------------------------------
# rounds drawn a block at a time: what is drawn, and the tables rounds are
# drawn from


_BLOCK_GAMES = {
    "chsh": canonical_chsh_strategy(1),
    "magic_square": canonical_magic_square_strategy(1),
    "two_out_of_n": canonical_two_out_of_n_strategy(3),
}


def _recording_draws(monkeypatch, game):
    """The (context ids, uniforms) of every sampler draw of a game's runs."""
    sampler = type(_GAMES[game][1](_BLOCK_GAMES[game], 0.8).sampler)
    draw, drawn = sampler.draw, []

    def recording(self, ctx, u):
        drawn.append((ctx, u))
        return draw(self, ctx, u)

    monkeypatch.setattr(sampler, "draw", recording)
    return drawn


@pytest.mark.parametrize("game, t, seed", [
    ("chsh", 200_000, 3), ("magic_square", 200_000, 4), ("two_out_of_n", 10_000, 5)])
def test_draws_stop_within_a_chunk_of_the_stopping_round(monkeypatch, game, t, seed):
    # rounds are drawn and counted a block at a time, and no block after
    # the one holding the stopping round is drawn
    drawn = _recording_draws(monkeypatch, game)
    tr = run_protocol(ProtocolParams(game, t, 0.01, seed=seed, rho=0.8), _BLOCK_GAMES[game])
    sizes = [len(u) for _, u in drawn]
    assert tr.t_prime > 2 * _BLOCK and sizes == [_BLOCK] * len(sizes)
    assert tr.t_prime <= sum(sizes) < tr.t_prime + _BLOCK


@pytest.mark.parametrize("game", list(_BLOCK_GAMES))
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_uniforms_drawn_in_chunks_match_one_call(monkeypatch, game, seed):
    # the sampler gets each block whole: its context ids from one integers()
    # call of the block's stream, and its uniforms from the one random()
    # call after it
    drawn = _recording_draws(monkeypatch, game)
    tables = _GAMES[game][1](_BLOCK_GAMES[game], 0.8)
    t = 3 * _BLOCK // _rounds_per_t(tables)
    run_protocol(ProtocolParams(game, t, 0.01, seed=seed, rho=0.8), _BLOCK_GAMES[game])
    assert len(drawn) >= 3
    n_ctx = len(tables.questions)
    for block, (ctx, u) in enumerate(drawn):
        rng = _rng_for_block(seed, block)
        assert np.array_equal(ctx, rng.integers(0, n_ctx, size=_BLOCK, dtype=np.uint16))
        assert np.array_equal(u, rng.random(_BLOCK))


@pytest.mark.parametrize("game", list(_BLOCK_GAMES))
def test_a_run_is_a_prefix_of_a_run_with_a_larger_t(game):
    # round r of a seed does not depend on t
    strategy = _BLOCK_GAMES[game]
    short, long = (run_protocol(ProtocolParams(game, t, 0.01, seed=9, rho=0.8), strategy)
                   for t in (40, 40 + _BLOCK // _rounds_per_t(_GAMES[game][1](strategy, 0.8))))
    assert short.t_prime < _BLOCK < long.t_prime
    assert list(short.rounds) == list(long.rounds)
    for name, column in short.rounds.items():
        assert np.array_equal(column, long.rounds[name][: short.t_prime]), name


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


def test_oversized_run_rejected_before_drawing(monkeypatch):
    import noisygames.protocols as protocols

    def no_draws(seed, block):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(protocols, "_rng_for_block", no_draws)
    # a run is expected to need t times the contexts per context of the
    # rarest key: 2t rounds for CHSH, 9t for the magic square and 4n(n-1)t
    # for 2-out-of-n
    cases = [("chsh", canonical_chsh_strategy(1), 2),
             ("magic_square", canonical_magic_square_strategy(1), 9),
             ("two_out_of_n", canonical_two_out_of_n_strategy(3), 24),
             ("two_out_of_n", canonical_two_out_of_n_strategy(5), 80)]
    for game, strategy, per_t in cases:
        t = 2 ** 25 // per_t + 1
        with pytest.raises(ValidationError, match=rf"^t = {t} is expected to need {per_t * t} "
                                                  rf"rounds, above the limit of 33554432$"):
            run_protocol(ProtocolParams(game, t, 0.01, seed=1, rho=0.9), strategy)
    # CHSH at t = 2**24 stays within the limit, so its first block is drawn
    with pytest.raises(AssertionError, match="a block was drawn"):
        run_protocol(ProtocolParams("chsh", 2 ** 24, 0.01, seed=1, rho=0.9),
                     canonical_chsh_strategy(1))
