"""Monte-Carlo simulation of the game-repetition + trace-test protocols under
the i.i.d. assumption, plus Hoeffding-based noise-rate estimation.

Determinism: rounds are generated in blocks, each from a Philox bit
generator keyed by (master seed, block index).  The first block of a run
holds max(est(t), 8192) rounds, where est(t) is the game's estimate of the
rounds needed for every tracked question to come up t times; each later
block holds 8192.  Blocks are independent streams, so transcripts are
reproducible byte-for-byte and blocks could be drawn in parallel without
changing results.  Because the first block's size depends on t, the rounds
drawn for one seed change with t.

Within a block, all context ids are drawn first, by 32-bit integers()
calls; drawing them in pieces would give the same ids, but interleaving
them with the block's uniforms would move the uniforms in the stream.  The
uniforms and outcomes are then drawn in chunks of 2**15 rounds, so that
each chunk's arrays stay in cache, and the run ends with the chunk in which
the last tracked question comes up for the t-th time: nothing after that
chunk is drawn.  Drawing a block's uniforms a chunk at a time gives the
same doubles as one call, so the chunk size changes no transcript.

A round's outcome is the inverse-CDF draw of its uniform in its context's
row.  A guide table of 2**bits buckets per row gives it with one gather;
only a uniform in a bucket that holds a bound of its row is counted against
the row's bounds, and the outcomes are bit-for-bit those of the full count.

Each chunk is counted once, into a run-level (context, outcome) histogram;
per-question counts and first-t histograms follow from it through 0/1
question x context matrices, and the win and consistency rates from its
sums over each game's win and consistency tables.  A run keeps its context
ids and outcome categories (one or two bytes a round); the per-round
columns of a transcript are built only when they are read.

Interpretation note: trace-test counts reuse the game rounds themselves (the
protocol counts answers "when asked question x" within the same repetitions);
transcripts carry this note.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .games import (
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    TwoOutOfNStrategy,
    MS_QUESTIONS,
    ms_outcomes,
    ms_question_variables,
    _MS_PARITY,
    _MS_SIGNS,
    _MS_SLOT_VARIABLE,
    _MS_VARIABLES,
    _normalized_traces,
    _pair_keys,
    _two_out_of_n_contexts,
    _two_out_of_n_stacks,
)
from .pauli import ValidationError

TRACE_TEST_NOTE = ("trace-test frequencies are computed from the first t game rounds "
                   "of each tracked question; no separate trace rounds are played")

_BLOCK = 8192
# rounds sampled and counted at a time: a chunk's uniforms (256 KB) and its
# outcome and key arrays stay in a 4 MiB L2 cache across every category and
# key pass
_CHUNK = 2 ** 15
# the largest first block a run may draw (CHSH at t = 1.5e7): its context
# draws alone take 8 bytes a round, and the int64 round columns of a run
# that long, built only when read, take several GB
_MAX_FIRST_BLOCK = 2 ** 25


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


# guide-table draws: the uint8 entry of a bucket whose rounds must take the
# exact count, and the most bytes a table may take (at least 2**8 buckets a
# row, which is 80 KB for 2-out-of-5's 320 contexts)
_SENTINEL = 255
_GUIDE_BYTES = 2 ** 16


class _GuideTable:
    """Exact guide-table ("indexed search") inverse-CDF draws over a
    cumulative table (Chen & Asau, AIIE Trans. 6(2), 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4).

    Each row's [0, 1) is cut into 2**bits equal buckets.  Bucket q holds the
    outcome every uniform in it draws when no bound of the row has
    floor(bound * 2**bits) == q, and _SENTINEL otherwise; only a sentinel
    round takes the exact count of _sample_categories.  Scaling a double by
    2**bits is exact, so the outcomes equal _sample_categories' bit for bit,
    ties with a bound and zero-mass categories included.  bits is the
    largest that keeps the table within _GUIDE_BYTES, and at least 8."""

    def __init__(self, cum: np.ndarray):
        n_ctx = len(cum)
        self.cum = cum
        self.bits = max(8, (_GUIDE_BYTES // n_ctx).bit_length() - 1)
        scale = self.scale = 1 << self.bits
        # per row and bucket, the bounds in it (a bound of 1.0 or more falls
        # in column scale, past the last) and the bounds below it
        bucket = np.minimum(np.floor(cum * scale), scale).astype(np.intp)
        hits = np.bincount((np.arange(n_ctx)[:, None] * (scale + 1) + bucket).ravel(),
                           minlength=n_ctx * (scale + 1)).reshape(n_ctx, scale + 1)[:, :scale]
        below = np.cumsum(hits, axis=1) - hits
        self.table = np.where(hits > 0, _SENTINEL, below).astype(np.uint8).ravel()

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per round, the outcome category of u[r] in row ctx[r] of cum, as
        _sample_categories gives it."""
        if len(u) and not (u.min() >= 0.0 and u.max() < 1.0):
            # a uniform outside [0, 1), or NaN, has no bucket in its row
            return _sample_categories(self.cum, ctx, u)
        # int32 indices cast and gather faster than intp ones
        idx = ctx.astype(np.int32)
        idx <<= self.bits
        idx += (u * self.scale).astype(np.int32)  # floor, as u >= 0
        out = self.table.take(idx)
        slow = np.flatnonzero(out == _SENTINEL)
        if len(slow):
            out[slow] = _sample_categories(self.cum, ctx[slow], u[slow])
        return out


def _cumulative_table(tables) -> np.ndarray:
    """Row-wise CDFs of per-context answer distributions.  Each row must be a
    probability vector to 1e-9; round-off negatives are clipped and the row
    renormalized before the cumulative sum.  Every entry equal to its row's
    last is set to exactly 1.0: a row whose sum rounds to just below 1 would
    otherwise let a uniform above it draw the category past the last one."""
    tables = np.asarray(tables, dtype=float)
    if tables.min() < -1e-9 or np.abs(tables.sum(axis=1) - 1).max() > 1e-9:
        raise ValidationError("answer distribution is not a probability vector")
    np.clip(tables, 0.0, None, out=tables)
    tables /= tables.sum(axis=1, keepdims=True)
    cum = np.cumsum(tables, axis=1)
    cum[cum == cum[:, -1:]] = 1.0
    return cum


class RoundColumns(Mapping):
    """A run's per-round columns, read-only: column name -> int64 array of
    shape (t',), each round's entry of the game's (context, outcome) table of
    that name.  Only the run's context ids and outcome categories are kept
    until the first read, which builds every column together into one
    (columns, t') block, a chunk of rounds at a time, and drops them."""

    def __init__(self, ctx: np.ndarray, out: np.ndarray, tables: dict):
        self._ctx, self._out, self._tables = ctx, out, tables
        self._rows = {name: row for row, name in enumerate(tables)}
        self._block = None

    def __getitem__(self, name):
        row = self._rows[name]
        if self._block is None:
            self._build()
        return self._block[row]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def _build(self):
        flat = [np.asarray(table, dtype=np.int64).ravel() for table in self._tables.values()]
        n_out = next(iter(self._tables.values())).shape[1]
        block = np.empty((len(flat), len(self._ctx)), dtype=np.int64)
        for lo in range(0, len(self._ctx), _CHUNK):
            cells = self._ctx[lo: lo + _CHUNK].astype(np.intp) * n_out + self._out[lo: lo + _CHUNK]
            for table, row in zip(flat, block):
                table.take(cells, out=row[lo: lo + _CHUNK], mode="clip")
        block.flags.writeable = False
        self._block, self._ctx, self._out = block, None, None


@dataclass
class ProtocolTranscript:
    game: str
    params: ProtocolParams
    t_prime: int
    rounds: RoundColumns
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
        tr_p, tr_q = (_normalized_traces(stack) for stack in strategy.stacks)
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
        self._guide = _GuideTable(self.cum)

    def exact_table(self) -> np.ndarray:
        """(4 contexts, 4 outcomes); context 2x+y, outcome 2 bit(a)+bit(b)."""
        return np.diff(self.cum, axis=1, prepend=0.0)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(ctx, u)


class MagicSquareSampler:
    """Joint distribution over (alice outcome, bob answer) per (question,
    variable) context; 18 contexts, 16 categories each."""

    def __init__(self, strategy: MagicSquareStrategy, rho: float):
        ev = PairEvaluator(rho, m=4)
        masses = _normalized_traces(strategy.stacks[0]).reshape(len(MS_QUESTIONS), 8)
        tables = []
        for q, mass in zip(MS_QUESTIONS, masses):
            povm = strategy.alice_povms[q]
            for slot, (i, j) in enumerate(ms_question_variables(q), start=1):
                bob = strategy.bob_observables[(i, j)]
                row = np.empty(16)
                for ai in range(8):
                    corr = ev.pair(povm[ai], bob)
                    row[2 * ai] = (mass[ai] + corr) / 2      # b = +1
                    row[2 * ai + 1] = (mass[ai] - corr) / 2  # b = -1
                tables.append(row)
        self.cum = _cumulative_table(tables)
        self._guide = _GuideTable(self.cum)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(ctx, u)


class TwoOutOfNSampler:
    """Joint distribution over (single answer, pair outcome) per context
    (role, then a row of games._two_out_of_n_contexts); 8 categories each,
    gathered from one product per role over each player's stacked
    expansion."""

    def __init__(self, strategy: TwoOutOfNStrategy, rho: float):
        if strategy.n < 2:
            raise ValidationError(f"2-out-of-n rounds need n >= 2 indices, got n = {strategy.n}")
        n = strategy.n
        ns = 2 * n
        a, b, w = _two_out_of_n_stacks(strategy, rho)
        table = _two_out_of_n_contexts(n)
        self.context_index = {(role, *row): k for k, (role, row) in enumerate(
            itertools.product((0, 1), table[:, :5].tolist()))}
        single, elems = table[:, 5, None], 4 * table[:, 6, None] + np.arange(4)
        # per role: the single player's singles against the other player's
        # elements, and those elements' masses (identity coefficients)
        corr = np.concatenate([((own[:ns] * w) @ other[ns:].T)[single, elems]
                               for own, other in ((a, b), (b, a))])
        mass = np.concatenate([other[ns:, 0][elems] for other in (b, a)])
        # outcome ei: a = +1, element ei; outcome 4 + ei: a = -1
        self.cum = _cumulative_table(np.hstack([(mass + corr) / 2, (mass - corr) / 2]))
        self._guide = _GuideTable(self.cum)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(ctx, u)


# ---------------------------------------------------------------------------
# per-game tables: each game defines here, once, what its contexts and
# outcomes mean to the runner, the fixed-round player and sample_round


def _id_table(values) -> np.ndarray:
    """Integer ids in the narrowest dtype that holds them: a run's context
    ids take one byte a round, and a chunk's key ids are compared narrow."""
    values = np.asarray(values)
    return values.astype(np.min_scalar_type(values.max()))


@dataclass
class _Game:
    """One game's protocol tables, over the sampler's contexts (rows of its
    table) and outcome categories.

    questions: per context, its questions in the form sample_round takes.
    draw_contexts(rng, size): one block's context ids; the outcomes' uniforms
    are drawn after them.  Its integers() calls ask for uint32: numpy's
    default int64 call takes the same 32-bit bounded path for ranges below
    2**32, so the ids and the stream position after them are unchanged, and
    the ids are built without int64 arrays.
    columns: per (context, outcome), the value of each transcript round
    column, plus a bool "win" table and, for the magic square, "consistent".
    key_sets: per key set, a context -> key id table and, per key, its count
    label and its trace tests (label, the outcome bit set where the answer is
    -1, reject reason with an {f} field for the frequency of +1).
    first_block(t): the size of the first block of a run.
    answer(values): sample_round's answers from the column values of one
    (context, outcome).
    """

    sampler: object
    questions: list
    draw_contexts: Callable
    columns: dict
    key_sets: list
    first_block: Callable
    answer: Callable


def _chsh_game(strategy: ChshStrategy, rho: float) -> _Game:
    def draw_contexts(rng, size):
        return rng.integers(0, 4, size=size, dtype=np.uint32).astype(np.uint8)

    # context 2x + y, outcome 2 bit(a) + bit(b); Alice's key is x, Bob's y
    qq, oo = np.indices((4, 4))
    x, y = qq // 2, qq % 2
    a, b = 1 - 2 * (oo // 2), 1 - 2 * (oo % 2)
    key_sets = [(_id_table(keys), [
        (f"{pl}{q}", [(f"{pl}{q}", bit, f"player {pl} question {q}: |{{f:.4f}} - 1/2| >= delta")])
        for q in (0, 1)]) for pl, keys, bit in (("A", [0, 0, 1, 1], 2), ("B", [0, 1, 0, 1], 1))]
    return _Game(ChshSampler(strategy, rho), [divmod(c, 2) for c in range(4)], draw_contexts,
                 {"x": x, "y": y, "a": a, "b": b, "win": (a != b).astype(int) == (x & y)},
                 key_sets, lambda t: int(2.2 * t) + 64, lambda v: (v["a"], v["b"]))


def _ms_game(strategy: MagicSquareStrategy, rho: float) -> _Game:
    def draw_contexts(rng, size):
        ids = rng.integers(0, 6, size=size, dtype=np.uint32)  # question
        ids *= 3
        # slot - 1: the stream's integers(1, 4) is integers(0, 3) + 1
        ids += rng.integers(0, 3, size=size, dtype=np.uint32)
        return ids.astype(np.uint8)

    # context 3 question + slot - 1, outcome 2 a_idx + bit(b)
    cc, oo = np.indices((18, 16))
    q, slot = cc // 3, cc % 3 + 1
    a_idx = oo // 2
    b = 1 - 2 * (oo % 2)
    consistent = _MS_SIGNS[a_idx, slot - 1] == b
    # Alice's key is the question, Bob's the variable of (question, slot).
    # a_idx holds Alice's answer bits in slot order (ms_outcomes): slot sl is
    # the outcome bit 16 >> sl
    alice = [(f"A:{question}", [
        (f"A:{question}:s{i}{j}", 16 >> sl, f"Alice {question} variable s{i}{j}: bias {{f:.4f}}")
        for sl, (i, j) in enumerate(ms_question_variables(question), start=1)])
        for question in MS_QUESTIONS]
    bob = [(f"B:s{i}{j}", [(f"B:s{i}{j}", 1, f"Bob variable s{i}{j}: bias {{f:.4f}}")])
           for i, j in _MS_VARIABLES]
    return _Game(MagicSquareSampler(strategy, rho),
                 [(question, sl) for question in MS_QUESTIONS for sl in (1, 2, 3)], draw_contexts,
                 {"question": q, "slot": slot, "alice_outcome": a_idx, "b": b,
                  "win": (_MS_PARITY[q, a_idx] == 1) & consistent,
                  "consistent": consistent},
                 [(_id_table(np.arange(18) // 3), alice),
                  (_id_table(_MS_SLOT_VARIABLE.ravel()), bob)],
                 lambda t: int(9.3 * t) + 128,
                 lambda v: (ms_outcomes()[v["alice_outcome"]], v["b"]))


def _two_out_of_n_game(strategy: TwoOutOfNStrategy, rho: float) -> _Game:
    sampler = TwoOutOfNSampler(strategy, rho)
    n = strategy.n
    n_pairs = n * (n - 1)
    keys = _pair_keys(n)
    # tracked keys per player: single (i, x) and pair questions in canonical form
    single_keys = [(pl, i, x) for pl in "AB" for i in range(1, n + 1) for x in (0, 1)]
    pair_keys = [(pl, *key) for pl in "AB" for key in keys]
    # per context (in id order): its (role, i, j, x, y, z) and the tracked key
    # ids: role 0's single player is A, and its pair player B
    contexts = list(sampler.context_index)
    table = _two_out_of_n_contexts(n)
    ctx_single = _id_table(np.concatenate([table[:, 5], 2 * n + table[:, 5]]))
    ctx_pair = _id_table(np.concatenate([len(keys) + table[:, 6], table[:, 6]]))
    ctx_dtype = np.min_scalar_type(len(contexts) - 1)

    def draw_contexts(rng, size):
        # the flat index (role * n(n-1) + ordered pair) * 8 + xyz is the
        # context id, the sampler's context_index order
        ids = rng.integers(0, 2, size=size, dtype=np.uint32)
        ids *= n_pairs
        ids += rng.integers(0, n_pairs, size=size, dtype=np.uint32)
        ids <<= 3
        ids += rng.integers(0, 8, size=size, dtype=np.uint32)  # xyz
        return ids.astype(ctx_dtype)

    singles = [(f"{pl}:single({i},{x})", [
        (f"{pl}:single({i},{x})", 4, f"player {pl} single question ({i},{x}): bias {{f:.4f}}")])
        for pl, i, x in single_keys]
    # outcome & 2 holds the answer for index i1, outcome & 1 the one for j1
    pair_tests = [(f"{pl}:pair({i1},{y1},{j1},{z1})", [
        (f"{pl}:pair{i1}{y1}{j1}{z1}:{slot}", bit,
         f"player {pl} pair ({i1},{y1},{j1},{z1}) slot {slot}: bias {{f:.4f}}")
        for slot, bit in ((f"({i1},{y1})", 2), (f"({j1},{z1})", 1))])
        for pl, i1, y1, j1, z1 in pair_keys]
    cc, oo = np.indices((len(contexts), 8))
    role, i, j, x, y, z = np.moveaxis(np.array(contexts)[cc], -1, 0)
    a = 1 - 2 * (oo // 4)           # single player's answer
    eidx = oo % 4
    b_first = 1 - 2 * (eidx // 2)   # pair player's answer for the first key slot
    b_second = 1 - 2 * (eidx % 2)
    # answer of the pair player for the SHARED index i (keys are i<j canonical)
    b_shared = np.where(i < j, b_first, b_second)
    b_other = np.where(i < j, b_second, b_first)
    return _Game(sampler, contexts, draw_contexts,
                 {"role": role, "i": i, "j": j, "x": x, "y": y, "z": z,
                  "a": a, "b_shared": b_shared, "b_other": b_other,
                  "win": (a != b_shared).astype(int) == (x & y)},
                 [(ctx_single, singles), (ctx_pair, pair_tests)],
                 lambda t: int(4 * n_pairs * t * 1.25) + 256,
                 lambda v: (v["a"], (v["b_shared"], v["b_other"])))


# game name -> (strategy class, table builder)
_GAMES = {"chsh": (ChshStrategy, _chsh_game),
          "magic_square": (MagicSquareStrategy, _ms_game),
          "two_out_of_n": (TwoOutOfNStrategy, _two_out_of_n_game)}


def sample_round(strategy, noise, questions, rng: np.random.Generator):
    """Draw one round of joint answers for the given questions.

    CHSH: questions (x, y), answers (a, b) in {-1, 1}; the closed-form
    two-outcome distribution is used and matches the explicit POVM-trace
    distribution exactly.  Magic square: questions (question string, slot),
    answers ((a1, a2, a3), b).  2-out-of-n: questions
    (role, i, j, x, y, z) with role 0 when the first player holds the single
    index; answers (a, (b_shared, b_other)).
    """
    build = next((build for cls, build in _GAMES.values() if isinstance(strategy, cls)), None)
    if build is None:
        raise ValidationError(f"unknown strategy type {type(strategy).__name__}")
    game = build(strategy, float(noise))
    if tuple(questions) not in game.questions:
        raise ValidationError(f"no question context {questions!r} in this game")
    ctx = game.questions.index(tuple(questions))
    out = int(game.sampler.draw(np.array([ctx]), rng.random(1))[0])
    return game.answer({name: int(table[ctx, out]) for name, table in game.columns.items()})


# ---------------------------------------------------------------------------
# protocol runner: per block, its context ids; per chunk of a block, its
# uniforms, outcomes, per-key counts and first-t histograms, up to the chunk
# in which the last key reaches t


def _chunks(seed: int, game: _Game, first: int):
    """Successive chunks of rounds as (context ids, uniforms).  Each block's
    context ids are drawn before its uniforms, since interleaving the two
    would change the stream (splitting the 32-bit id draws alone would not);
    its uniforms are then drawn a chunk at a time, which gives the same
    doubles as one call.  Nothing is drawn for a chunk that is not asked
    for."""
    block = 0
    while True:
        rng = _rng_for_block(seed, block)
        ctx = game.draw_contexts(rng, first if block == 0 else _BLOCK)
        for lo in range(0, len(ctx), _CHUNK):
            chunk = ctx[lo: lo + _CHUNK]
            yield chunk, rng.random(len(chunk))
        block += 1


def _play_blocks(params: ProtocolParams, game: _Game):
    """Play chunks of rounds until every key of every key set has come up t
    times.

    Returns the context ids and outcomes up to the exact stopping round;
    per key set and key, the number of its rounds up to that round and the
    histogram of outcome categories over its first t rounds; and the
    (context, outcome) histogram of the rounds up to that round."""
    t = params.t
    first = max(game.first_block(t), _BLOCK)
    if first > _MAX_FIRST_BLOCK:
        raise ValidationError(f"t = {t} needs a first block of {first} rounds, "
                              f"above the limit of {_MAX_FIRST_BLOCK}")
    n_ctx, n_out = game.sampler.cum.shape
    # cell ids in the narrowest dtype that holds them, built in place
    cell_type = np.min_scalar_type(n_ctx * n_out - 1)

    def histogram(ctx, out):
        cells = ctx.astype(cell_type)
        cells *= n_out
        cells += out
        return np.bincount(cells, minlength=n_ctx * n_out).reshape(n_ctx, n_out)

    # per key set: its context -> key id table and its key x context 0/1
    # matrix, and per key its count and its first-t histogram; joint holds
    # the run's rounds so far, and last is the latest round at which a key
    # came up for the t-th time
    tables = [(keys, (np.arange(int(keys.max()) + 1)[:, None] == keys).astype(np.int64))
              for keys, _ in game.key_sets]
    counts = [np.zeros(len(member), dtype=np.int64) for _, member in tables]
    hists = [np.zeros((len(c), n_out), dtype=np.int64) for c in counts]
    joint = np.zeros((n_ctx, n_out), dtype=np.int64)
    ctxs, outs = [], []
    start = last = 0
    for ctx, u in _chunks(params.seed, game, first):
        out = game.sampler.draw(ctx, u)
        ctxs.append(ctx)
        outs.append(out)
        chunk = histogram(ctx, out)
        per_ctx = chunk.sum(axis=1)
        for (keys, member), count, hist in zip(tables, counts, hists):
            after = count + member @ per_ctx
            # a key's first t rounds are its rounds before this chunk, all in
            # joint, and its first t - count rounds in this chunk
            crossing = np.flatnonzero((count < t) & (after >= t))
            if len(crossing):
                ids = keys.take(ctx)
                for k in crossing:
                    rounds = np.flatnonzero(ids == k)[: t - count[k]]
                    last = max(last, start + int(rounds[-1]))
                    hist[k] = member[k] @ joint + np.bincount(out[rounds], minlength=n_out)
            count[:] = after
        joint += chunk
        if all(count.min() >= t for count in counts):
            break
        start += len(ctx)
    t_prime = last + 1
    # drop the stopping chunk's rounds after the stopping round
    cut = t_prime - start
    joint -= histogram(ctx[cut:], out[cut:])
    ctxs[-1], outs[-1] = ctx[:cut], out[:cut]
    per_ctx = joint.sum(axis=1)
    return np.concatenate(ctxs), np.concatenate(outs), [
        [(int(c), h) for c, h in zip(member @ per_ctx, hist)]
        for (_, member), hist in zip(tables, hists)], joint


# the game tables that give rates, not round columns
_RATES = ("win", "consistent")


def _rates(game: _Game, joint: np.ndarray, n_rounds: int) -> list:
    """Rates of the game's "win" and (magic square) "consistent" tables over
    rounds with the given (context, outcome) histogram."""
    return [int((joint * game.columns[name]).sum()) / n_rounds
            for name in _RATES if name in game.columns]


def _plus_frequency(hist: np.ndarray, bit: int) -> float:
    """Share of +1 answers among a key's first t rounds, given the histogram
    of their outcome categories; the answer held in `bit` of a category is -1
    where that bit is set."""
    t = int(hist.sum())
    return (t - int(hist[np.arange(len(hist)) & bit != 0].sum())) / t


def run_protocol(params: ProtocolParams, strategy) -> ProtocolTranscript:
    """Play game rounds until every tracked (player, question) count reaches
    t, then apply the bias test over the first t trials of each question."""
    if params.game not in _GAMES:
        raise ValidationError(f"unknown game {params.game!r}")
    cls, build = _GAMES[params.game]
    if not isinstance(strategy, cls):
        raise ValidationError(f"{params.game} protocol needs a {cls.__name__}")
    game = build(strategy, params.rho)
    ctx, out, seen, joint = _play_blocks(params, game)
    counts, freqs, reasons = {}, {}, []
    for (_, keys), key_seen in zip(game.key_sets, seen):
        for (label, tests), (count, hist) in zip(keys, key_seen):
            counts[label] = count
            for test, bit, reason in tests:
                f = freqs[test] = _plus_frequency(hist, bit)
                if abs(f - 0.5) >= params.delta:
                    reasons.append(reason.format(f=f))
    rounds = RoundColumns(ctx, out, {name: table for name, table in game.columns.items()
                                     if name not in _RATES})
    wins, *consistent = _rates(game, joint, len(out))
    return ProtocolTranscript(
        params.game, params, len(out), rounds, counts, freqs, not reasons, reasons, wins,
        empirical_consistency_rate=consistent[0] if consistent else None)


# ---------------------------------------------------------------------------
# lean fixed-round statistics (for estimation experiments)


def _check_round_count(n_rounds) -> None:
    if isinstance(n_rounds, bool) or not isinstance(n_rounds, (int, np.integer)) or n_rounds < 1:
        raise ValidationError(f"the round count must be an integer >= 1, got {n_rounds!r}")


def _fixed_round_rates(game: _Game, n_rounds: int, seed: int) -> list:
    """Rates over a fixed number of rounds (vectorized: multinomial context
    counts, then multinomial outcomes per context)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n_ctx = len(game.questions)
    per_ctx = rng.multinomial(n_rounds, np.full(n_ctx, 1.0 / n_ctx))
    probs = np.diff(game.sampler.cum, axis=1, prepend=0.0)
    return _rates(game, np.array([rng.multinomial(k, row) for k, row in zip(per_ctx, probs)]),
                  n_rounds)


def play_chsh_rounds(strategy: ChshStrategy, rho: float, n_rounds: int,
                     seed: int) -> float:
    """Empirical CHSH win rate over a fixed number of rounds."""
    _check_round_count(n_rounds)
    return _fixed_round_rates(_chsh_game(strategy, rho), n_rounds, seed)[0]


def play_ms_rounds(strategy: MagicSquareStrategy, rho: float, n_rounds: int,
                   seed: int) -> tuple[float, float]:
    """(win rate, consistency rate) over a fixed number of rounds."""
    _check_round_count(n_rounds)
    return tuple(_fixed_round_rates(_ms_game(strategy, rho), n_rounds, seed))


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
    if not isinstance(game, str) or game not in _GAMES:
        raise ValidationError(f"unknown game {game!r}")
    if statistic is None or n_rounds is None:
        raise ValidationError("need a statistic and a positive round count")
    _check_round_count(n_rounds)
    if (isinstance(statistic, bool)
            or not isinstance(statistic, (int, float, np.integer, np.floating))
            or not np.isfinite(statistic)):
        raise ValidationError(f"the statistic must be a finite real number, got {statistic!r}")
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
