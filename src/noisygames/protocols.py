"""Monte-Carlo simulation of the game-repetition + trace-test protocols under
the i.i.d. assumption, plus Hoeffding-based noise-rate estimation.

Determinism: rounds are generated in fixed-size blocks, each from a Philox
bit generator keyed by (master seed, block index).  Blocks are independent
streams, so transcripts are reproducible byte-for-byte and trial generation
could be farmed out block-parallel without changing results.

Interpretation note: trace-test counts reuse the game rounds themselves (the
protocol counts answers "when asked question x" within the same repetitions);
transcripts carry this note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    TwoOutOfNStrategy,
    MS_QUESTIONS,
    ms_outcomes,
    ms_parity_target,
    ms_question_variables,
    pair_key,
)
from .pauli import ValidationError, normalized_trace

TRACE_TEST_NOTE = ("trace-test frequencies are computed from the first t game rounds "
                   "of each tracked question; no separate trace rounds are played")

_BLOCK = 8192


def derive_delta(t: int, p: float) -> float:
    """Bias threshold delta = sqrt(2 ln(2/p) / t)."""
    if t < 1:
        raise ValidationError("need at least one repetition per question")
    if not 0.0 < p < 1.0:
        raise ValidationError("the minimum passing probability must lie in (0, 1)")
    return float(np.sqrt(2.0 * np.log(2.0 / p) / t))


def trace_soundness_bound(t: int, p: float) -> float:
    """Trace bound guaranteed by passing the trace test with probability p."""
    return 3.0 * derive_delta(t, p)


@dataclass
class ProtocolParams:
    game: str
    t: int
    p: float
    seed: int
    rho: float

    def __post_init__(self):
        self.delta = derive_delta(self.t, self.p)


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(block))))


def _sample_categories(cum: np.ndarray, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF draw: per round, the number of cumulative bounds
    of row ctx[r] of cum that u[r] exceeds, counted one category at a time
    into uint8 (no rounds x categories array is formed)."""
    idx = ctx.astype(np.intp)  # take() would convert narrow ids once per column
    out = np.zeros(len(u), dtype=np.uint8)
    for col in cum.T:
        out += u > col.take(idx)
    return out


def _cumulative_table(tables) -> np.ndarray:
    """Row-wise CDFs of per-context answer distributions.  Each row must be a
    probability vector to 1e-9; round-off negatives are clipped and the row
    renormalized before the cumulative sum."""
    tables = np.asarray(tables, dtype=float)
    if tables.min() < -1e-9 or np.abs(tables.sum(axis=1) - 1).max() > 1e-9:
        raise ValidationError("answer distribution is not a probability vector")
    np.clip(tables, 0.0, None, out=tables)
    tables /= tables.sum(axis=1, keepdims=True)
    return np.cumsum(tables, axis=1)


@dataclass
class ProtocolTranscript:
    game: str
    params: ProtocolParams
    t_prime: int
    rounds: dict
    counts: dict
    trace_frequencies: dict
    accept: bool
    reject_reasons: list
    empirical_win_rate: float
    empirical_consistency_rate: float | None = None
    note: str = TRACE_TEST_NOTE


# ---------------------------------------------------------------------------
# samplers (joint outcome tables per question context); draw(ctx, u) returns
# uint8 outcome categories


class ChshSampler:
    """Closed-form joint answer distribution per question pair:
    p(a, b) = (1 + a tr P + b tr Q + ab corr) / 4."""

    def __init__(self, strategy: ChshStrategy, rho: float):
        ev = PairEvaluator(rho)
        tr_p = [normalized_trace(op) for op in strategy.alice]
        tr_q = [normalized_trace(op) for op in strategy.bob]
        tables = np.empty((4, 4))
        for x in (0, 1):
            for y in (0, 1):
                corr = ev.pair(strategy.alice[x], strategy.bob[y])
                row = []
                for a in (1, -1):
                    for b in (1, -1):
                        row.append((1 + a * tr_p[x] + b * tr_q[y] + a * b * corr) / 4)
                tables[2 * x + y] = row
        self.cum = _cumulative_table(tables)

    def exact_table(self) -> np.ndarray:
        """(4 contexts, 4 outcomes); context 2x+y, outcome 2 bit(a)+bit(b)."""
        out = np.diff(np.concatenate([np.zeros((4, 1)), self.cum], axis=1), axis=1)
        return out

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum, ctx, u)


class MagicSquareSampler:
    """Joint distribution over (alice outcome, bob answer) per (question,
    variable) context; 18 contexts, 16 categories each."""

    def __init__(self, strategy: MagicSquareStrategy, rho: float):
        ev = PairEvaluator(rho, m=4)
        self.contexts = []  # (question index, slot)
        tables = []
        for xi, q in enumerate(MS_QUESTIONS):
            povm = strategy.alice_povms[q]
            masses = [normalized_trace(e) for e in povm]
            for slot, (i, j) in enumerate(ms_question_variables(q), start=1):
                bob = strategy.bob_observables[(i, j)]
                row = np.empty(16)
                for ai in range(8):
                    corr = ev.pair(povm[ai], bob)
                    row[2 * ai] = (masses[ai] + corr) / 2      # b = +1
                    row[2 * ai + 1] = (masses[ai] - corr) / 2  # b = -1
                self.contexts.append((xi, slot))
                tables.append(row)
        self.cum = _cumulative_table(tables)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum, ctx, u)


class TwoOutOfNSampler:
    """Joint distribution over (single answer, pair outcome) per context
    (role, ordered index pair, questions); 8 categories each."""

    def __init__(self, strategy: TwoOutOfNStrategy, rho: float):
        if strategy.n < 2:
            raise ValidationError(f"2-out-of-n rounds need n >= 2 indices, got n = {strategy.n}")
        ev = PairEvaluator(rho)
        self.n = strategy.n
        self.strategy = strategy
        self.context_index = {}
        tables = []
        for role in (0, 1):
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    if i == j:
                        continue
                    for x in (0, 1):
                        for y in (0, 1):
                            for z in (0, 1):
                                if role == 0:
                                    single = strategy.alice_singles[(i, x)]
                                    povm = strategy.pair_povm("bob", i, y, j, z)
                                    pair = lambda s, e: ev.pair(s, e)
                                else:
                                    single = strategy.bob_singles[(i, x)]
                                    povm = strategy.pair_povm("alice", i, y, j, z)
                                    pair = lambda s, e: ev.pair(e, s)
                                row = np.empty(8)
                                for ei in range(4):
                                    mass = normalized_trace(povm[ei])
                                    corr = pair(single, povm[ei])
                                    row[ei] = (mass + corr) / 2      # a = +1
                                    row[4 + ei] = (mass - corr) / 2  # a = -1
                                self.context_index[(role, i, j, x, y, z)] = len(tables)
                                tables.append(row)
        self.cum = _cumulative_table(tables)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum, ctx, u)


def sample_round(strategy, noise, questions, rng: np.random.Generator):
    """Draw one round of joint answers for the given questions.

    CHSH: questions (x, y), answers (a, b) in {-1, 1}; the closed-form
    two-outcome distribution is used and matches the explicit POVM-trace
    distribution exactly.  Magic square: questions (question string, slot),
    answers ((a1, a2, a3), b).  2-out-of-n: questions
    (role, i, j, x, y, z) with role 0 when the first player holds the single
    index; answers (a, (b_shared, b_other)).
    """
    rho = float(noise)
    if isinstance(strategy, ChshStrategy):
        sampler = ChshSampler(strategy, rho)
        x, y = questions
        out = int(sampler.draw(np.array([2 * x + y]), rng.random(1))[0])
        return 1 - 2 * (out // 2), 1 - 2 * (out % 2)
    if isinstance(strategy, MagicSquareStrategy):
        sampler = MagicSquareSampler(strategy, rho)
        question, slot = questions
        ctx = 3 * MS_QUESTIONS.index(question) + (slot - 1)
        out = int(sampler.draw(np.array([ctx]), rng.random(1))[0])
        return ms_outcomes()[out // 2], 1 - 2 * (out % 2)
    if isinstance(strategy, TwoOutOfNStrategy):
        sampler = TwoOutOfNSampler(strategy, rho)
        role, i, j, x, y, z = questions
        ctx = sampler.context_index[(role, i, j, x, y, z)]
        out = int(sampler.draw(np.array([ctx]), rng.random(1))[0])
        a = 1 - 2 * (out // 4)
        eidx = out % 4
        b_first, b_second = 1 - 2 * (eidx // 2), 1 - 2 * (eidx % 2)
        return a, ((b_first, b_second) if i < j else (b_second, b_first))
    raise ValidationError(f"unknown strategy type {type(strategy).__name__}")


# ---------------------------------------------------------------------------
# protocol runners: blocks of (context, outcome) rounds, one stable sort per
# player's key set for the stopping round, the counts and first-t histograms


def _key_positions(ids: np.ndarray, n_keys: int) -> list:
    """Round indices per key id, in round order, via one stable sort (a radix
    sort for ids of 16 bits or fewer)."""
    order = np.argsort(ids, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=n_keys))))
    return [order[bounds[k]: bounds[k + 1]] for k in range(n_keys)]


def _play_blocks(params: ProtocolParams, est: int, draw_block, key_tables: list):
    """Draw blocks of rounds until every key of every table has come up t times.

    draw_block(rng, size) returns one block's context ids and outcome
    categories; each key table maps a context id to one player's key id.
    Returns the context ids and outcomes up to the exact stopping round and,
    per table and key, the number of its rounds up to that round and the
    histogram of outcome categories over its first t rounds."""
    t = params.t
    ctxs, outs = [], []
    ctx_counts = np.zeros(len(key_tables[0]), dtype=np.int64)
    block = 0
    while True:
        size = max(est, _BLOCK) if block == 0 else _BLOCK
        ctx, out = draw_block(_rng_for_block(params.seed, block), size)
        ctxs.append(ctx)
        outs.append(out)
        ctx_counts += np.bincount(ctx, minlength=len(ctx_counts))
        block += 1
        if all(np.bincount(keys, weights=ctx_counts).min() >= t for keys in key_tables):
            break
    ctx, out = np.concatenate(ctxs), np.concatenate(outs)
    positions = [_key_positions(keys.take(ctx), int(keys.max()) + 1) for keys in key_tables]
    t_prime = max(int(p[t - 1]) for pos in positions for p in pos) + 1
    return ctx[:t_prime], out[:t_prime], [
        [(int(np.searchsorted(p, t_prime)), np.bincount(out[p[:t]])) for p in pos]
        for pos in positions]


def _plus_frequency(hist: np.ndarray, bit: int) -> float:
    """Share of +1 answers among a key's first t rounds, given the histogram
    of their outcome categories; the answer held in `bit` of a category is -1
    where that bit is set."""
    t = int(hist.sum())
    return (t - int(hist[np.arange(len(hist)) & bit != 0].sum())) / t


def _transcript(game, params, ctx, out, tables, counts, tests):
    """Assemble a transcript.  tables: per (context, outcome) values of each
    round column, plus a bool "win" table and, for the magic square, a bool
    "consistent" one; tests: (label, first-t frequency of +1, reject reason)
    per tracked answer."""
    flat = ctx.astype(np.intp) * tables["win"].shape[1] + out
    rounds = {name: table.ravel().take(flat) for name, table in tables.items()}
    wins = rounds.pop("win").mean()
    consistent = rounds.pop("consistent", None)
    freqs = {label: f for label, f, _ in tests}
    reasons = [reason for _, f, reason in tests if abs(f - 0.5) >= params.delta]
    return ProtocolTranscript(
        game, params, len(out), rounds, counts, freqs, not reasons, reasons, float(wins),
        empirical_consistency_rate=None if consistent is None else float(consistent.mean()))


def _id_table(values) -> np.ndarray:
    """Integer ids in the narrowest dtype that holds them: a stable argsort
    over 16-bit or narrower ids is a radix sort."""
    values = np.asarray(values)
    return values.astype(np.min_scalar_type(values.max()))


def _run_chsh_protocol(params: ProtocolParams, strategy: ChshStrategy) -> ProtocolTranscript:
    sampler = ChshSampler(strategy, params.rho)
    t = params.t

    def draw_block(rng, size):
        q = rng.integers(0, 4, size=size).astype(np.uint8)
        return q, sampler.draw(q, rng.random(size))

    # context q = 2x + y; Alice's key is x, Bob's is y
    q, out, (alice, bob) = _play_blocks(params, int(2.2 * t) + 64, draw_block,
                                        [_id_table([0, 0, 1, 1]), _id_table([0, 1, 0, 1])])
    counts, tests = {}, []
    for label, keys, bit in (("A", alice, 2), ("B", bob, 1)):
        for question, (count, hist) in enumerate(keys):
            counts[f"{label}{question}"] = count
            f = _plus_frequency(hist, bit)
            tests.append((f"{label}{question}", f,
                          f"player {label} question {question}: |{f:.4f} - 1/2| >= delta"))
    qq, oo = np.indices((4, 4))
    x, y = qq // 2, qq % 2
    a = 1 - 2 * (oo // 2)
    b = 1 - 2 * (oo % 2)
    tables = {"x": x, "y": y, "a": a, "b": b, "win": (a != b).astype(int) == (x & y)}
    return _transcript("chsh", params, q, out, tables, counts, tests)


_MS_OUTCOME_SIGNS = np.array(ms_outcomes())  # (8, 3) of +-1
_MS_PARITY = np.array([int(np.prod(a)) for a in ms_outcomes()])
_MS_PARITY_TARGET = np.array([ms_parity_target(q) for q in MS_QUESTIONS])
_MS_VARIABLES = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
# context 3 * question + slot - 1 -> index of its variable in _MS_VARIABLES
_MS_CTX_VARIABLE = _id_table([_MS_VARIABLES.index(v) for q in MS_QUESTIONS
                              for v in ms_question_variables(q)])


def _run_ms_protocol(params: ProtocolParams, strategy: MagicSquareStrategy) -> ProtocolTranscript:
    sampler = MagicSquareSampler(strategy, params.rho)
    t = params.t

    def draw_block(rng, size):
        q = rng.integers(0, 6, size=size).astype(np.uint8)
        slot = rng.integers(1, 4, size=size).astype(np.uint8)
        ctx = 3 * q + slot - 1
        return ctx, sampler.draw(ctx, rng.random(size))

    # Alice's key is the question, Bob's the variable of (question, slot)
    ctx, out, (alice, bob) = _play_blocks(params, int(9.3 * t) + 128, draw_block,
                                          [_id_table(np.arange(18) // 3), _MS_CTX_VARIABLE])
    counts, tests = {}, []
    for question, (count, hist) in zip(MS_QUESTIONS, alice):
        counts[f"A:{question}"] = count
        for sl, (i, j) in enumerate(ms_question_variables(question), start=1):
            # outcome = 2 a_idx + bit(b), and a_idx holds Alice's answer bits in
            # slot order (ms_outcomes): slot sl is the bit 16 >> sl
            f = _plus_frequency(hist, 16 >> sl)
            tests.append((f"A:{question}:s{i}{j}", f,
                          f"Alice {question} variable s{i}{j}: bias {f:.4f}"))
    for (i, j), (count, hist) in zip(_MS_VARIABLES, bob):
        counts[f"B:s{i}{j}"] = count
        f = _plus_frequency(hist, 1)
        tests.append((f"B:s{i}{j}", f, f"Bob variable s{i}{j}: bias {f:.4f}"))
    cc, oo = np.indices((18, 16))
    q, slot = cc // 3, cc % 3 + 1
    a_idx = oo // 2
    b = 1 - 2 * (oo % 2)
    consistent = _MS_OUTCOME_SIGNS[a_idx, slot - 1] == b
    tables = {"question": q, "slot": slot, "alice_outcome": a_idx, "b": b,
              "win": (_MS_PARITY[a_idx] == _MS_PARITY_TARGET[q]) & consistent,
              "consistent": consistent}
    return _transcript("magic_square", params, ctx, out, tables, counts, tests)


def _run_two_out_of_n_protocol(params: ProtocolParams,
                               strategy: TwoOutOfNStrategy) -> ProtocolTranscript:
    sampler = TwoOutOfNSampler(strategy, params.rho)
    n = strategy.n
    t = params.t
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    # tracked keys per player: single (i, x) and pair questions in canonical form
    single_keys = [(pl, i, x) for pl in "AB" for i in range(1, n + 1) for x in (0, 1)]
    pair_keys = [(pl, *pair_key(i, y, j, z)) for pl in "AB"
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 for y in (0, 1) for z in (0, 1)]
    single_index = {key: k for k, key in enumerate(single_keys)}
    pair_index = {key: k for k, key in enumerate(pair_keys)}
    # per context: its (role, i, j, x, y, z) and the tracked key ids (the
    # single player holds (i, x); the other the canonical pair question)
    ctx_keys = sorted(sampler.context_index, key=sampler.context_index.get)
    ctx_single = _id_table([single_index[("AB"[rl], ii, xx)]
                            for rl, ii, _, xx, _, _ in ctx_keys])
    ctx_pair = _id_table([pair_index[("BA"[rl], *pair_key(ii, yy, jj, zz))]
                          for rl, ii, jj, _, yy, zz in ctx_keys])
    ctx_of = _id_table([[[sampler.context_index[(role, i, j, xyz // 4, (xyz // 2) % 2, xyz % 2)]
                          for xyz in range(8)] for i, j in pairs] for role in (0, 1)])

    def draw_block(rng, size):
        role = rng.integers(0, 2, size=size)
        pr = rng.integers(0, len(pairs), size=size)
        xyz = rng.integers(0, 8, size=size)
        ctx = ctx_of[role, pr, xyz]
        return ctx, sampler.draw(ctx, rng.random(size))

    ctx, out, (single_seen, pair_seen) = _play_blocks(
        params, int(4 * len(pairs) * t * 1.25) + 256, draw_block, [ctx_single, ctx_pair])
    counts, tests = {}, []
    for (pl, idx, xx), (count, hist) in zip(single_keys, single_seen):
        counts[f"{pl}:single({idx},{xx})"] = count
        f = _plus_frequency(hist, 4)
        tests.append((f"{pl}:single({idx},{xx})", f,
                      f"player {pl} single question ({idx},{xx}): bias {f:.4f}"))
    for (pl, i1, y1, j1, z1), (count, hist) in zip(pair_keys, pair_seen):
        counts[f"{pl}:pair({i1},{y1},{j1},{z1})"] = count
        # outcome & 2 holds the answer for index i1, outcome & 1 the one for j1
        for slot_label, bit in ((f"({i1},{y1})", 2), (f"({j1},{z1})", 1)):
            f = _plus_frequency(hist, bit)
            tests.append((f"{pl}:pair{i1}{y1}{j1}{z1}:{slot_label}", f,
                          f"player {pl} pair ({i1},{y1},{j1},{z1}) slot {slot_label}: "
                          f"bias {f:.4f}"))
    cc, oo = np.indices((len(ctx_keys), 8))
    role, i, j, x, y, z = np.moveaxis(np.array(ctx_keys)[cc], -1, 0)
    a = 1 - 2 * (oo // 4)           # single player's answer
    eidx = oo % 4
    b_first = 1 - 2 * (eidx // 2)   # pair player's answer for the first key slot
    b_second = 1 - 2 * (eidx % 2)
    # answer of the pair player for the SHARED index i (keys are i<j canonical)
    b_shared = np.where(i < j, b_first, b_second)
    b_other = np.where(i < j, b_second, b_first)
    tables = {"role": role, "i": i, "j": j, "x": x, "y": y, "z": z,
              "a": a, "b_shared": b_shared, "b_other": b_other,
              "win": (a != b_shared).astype(int) == (x & y)}
    return _transcript("two_out_of_n", params, ctx, out, tables, counts, tests)


def run_protocol(params: ProtocolParams, strategy) -> ProtocolTranscript:
    """Play game rounds until every tracked (player, question) count reaches
    t, then apply the bias test over the first t trials of each question."""
    if params.game == "chsh":
        if not isinstance(strategy, ChshStrategy):
            raise ValidationError("chsh protocol needs a ChshStrategy")
        return _run_chsh_protocol(params, strategy)
    if params.game == "magic_square":
        if not isinstance(strategy, MagicSquareStrategy):
            raise ValidationError("magic_square protocol needs a MagicSquareStrategy")
        return _run_ms_protocol(params, strategy)
    if params.game == "two_out_of_n":
        if not isinstance(strategy, TwoOutOfNStrategy):
            raise ValidationError("two_out_of_n protocol needs a TwoOutOfNStrategy")
        return _run_two_out_of_n_protocol(params, strategy)
    raise ValidationError(f"unknown game {params.game!r}")


# ---------------------------------------------------------------------------
# lean fixed-round statistics (for estimation experiments)


def _check_round_count(n_rounds) -> None:
    if isinstance(n_rounds, bool) or not isinstance(n_rounds, (int, np.integer)) or n_rounds < 1:
        raise ValidationError(f"the round count must be an integer >= 1, got {n_rounds!r}")


def play_chsh_rounds(strategy: ChshStrategy, rho: float, n_rounds: int,
                     seed: int) -> float:
    """Empirical CHSH win rate over a fixed number of rounds (vectorized:
    multinomial question counts, then multinomial outcomes per context)."""
    _check_round_count(n_rounds)
    sampler = ChshSampler(strategy, rho)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    per_q = rng.multinomial(n_rounds, np.full(4, 0.25))
    table = sampler.exact_table()
    wins = 0
    for ctx in range(4):
        x, y = ctx // 2, ctx % 2
        outcome_counts = rng.multinomial(per_q[ctx], table[ctx])
        for out, cnt in enumerate(outcome_counts):
            a, b = 1 - 2 * (out // 2), 1 - 2 * (out % 2)
            if int(a != b) == (x & y):
                wins += cnt
    return wins / n_rounds


def play_ms_rounds(strategy: MagicSquareStrategy, rho: float, n_rounds: int,
                   seed: int) -> tuple[float, float]:
    """(win rate, consistency rate) over a fixed number of rounds."""
    _check_round_count(n_rounds)
    sampler = MagicSquareSampler(strategy, rho)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    per_ctx = rng.multinomial(n_rounds, np.full(18, 1.0 / 18))
    cum = sampler.cum
    table = np.diff(np.concatenate([np.zeros((18, 1)), cum], axis=1), axis=1)
    wins = 0
    consistent = 0
    for ctx in range(18):
        xi, slot = ctx // 3, ctx % 3 + 1
        target = ms_parity_target(MS_QUESTIONS[xi])
        outcome_counts = rng.multinomial(per_ctx[ctx], table[ctx])
        for out, cnt in enumerate(outcome_counts):
            a_idx, b = out // 2, 1 - 2 * (out % 2)
            agree = _MS_OUTCOME_SIGNS[a_idx, slot - 1] == b
            consistent += cnt * agree
            wins += cnt * (agree and _MS_PARITY[a_idx] == target)
    return wins / n_rounds, consistent / n_rounds


# ---------------------------------------------------------------------------
# noise-rate estimation


@dataclass
class NoiseEstimate:
    rho_hat: float
    interval: tuple
    statistic: float
    n_rounds: int
    confidence: float
    clamped: bool = False


def _invert_chsh(win_rate: float) -> float:
    return 2 * np.sqrt(2) * (win_rate - 0.5)


def _invert_ms(consistency_rate: float) -> float:
    return 2 * consistency_rate - 1


def estimate_noise_rate(game: str, statistic: float | None = None,
                        n_rounds: int | None = None,
                        transcript: ProtocolTranscript | None = None,
                        confidence: float = 0.95) -> NoiseEstimate:
    """Device-independent fidelity estimate with a two-sided Hoeffding interval.

    CHSH-family games invert the win rate (rho = 2 sqrt(2) (w - 1/2)); the
    magic square game inverts the consistency rate (rho = 2 w_c - 1).  The
    interval maps the Hoeffding band on the statistic through the inversion
    and clamps to [0, 1]; it is conservative by construction.
    """
    if transcript is not None:
        n_rounds = transcript.t_prime
        if transcript.game == "magic_square":
            statistic = transcript.empirical_consistency_rate
        else:
            statistic = transcript.empirical_win_rate
        game = transcript.game
    if statistic is None or n_rounds is None or n_rounds < 1:
        raise ValidationError("need a statistic and a positive round count")
    if not 0.0 < confidence < 1.0:
        raise ValidationError("confidence must lie in (0, 1)")
    invert = _invert_ms if game == "magic_square" else _invert_chsh
    half = np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * n_rounds))
    raw = invert(statistic)
    lo, hi = sorted((invert(statistic - half), invert(statistic + half)))
    clamped = bool(raw < 0.0 or raw > 1.0)
    return NoiseEstimate(
        float(np.clip(raw, 0.0, 1.0)),
        (float(np.clip(lo, 0.0, 1.0)), float(np.clip(hi, 0.0, 1.0))),
        float(statistic), int(n_rounds), confidence, clamped)


# ---------------------------------------------------------------------------
# CSV export


def transcript_rounds_csv(transcript: ProtocolTranscript) -> str:
    """Per-round records as CSV text (header + one line per round)."""
    cols = transcript.rounds
    length = len(next(iter(cols.values())))
    table = np.column_stack([np.arange(length)] + list(cols.values())).astype(np.int64)
    row = ",".join(["%d"] * table.shape[1]) + "\n"
    return ",".join(["round", *cols]) + "\n" + (row * length) % tuple(table.ravel().tolist())
