"""Monte-Carlo simulation of the game-repetition + trace-test protocols under
the i.i.d. assumption, plus Hoeffding-based noise-rate estimation.

Determinism: every game draws its rounds by one rule.  Block k of a run
holds rounds k * 2**15 to (k + 1) * 2**15 - 1 and comes from its own SFC64
bit generator seeded by SeedSequence(seed, spawn_key=(k,)), whose one
random() call gives the block's uniforms, one a round.  Round r of a seed
is thus the same for every t, and a run is a prefix of any run of the same
seed with a larger t.  Spawn keys make blocks independent streams:
transcripts are reproducible byte-for-byte, and blocks could be drawn in any
order without changing results.  A run ends with the block in which the
last tracked question comes up for the t-th time; nothing after that block
is drawn.  A run expected to need more than 2**25 rounds, t times the
number of contexts over the contexts of the game's rarest tracked question,
is rejected before any draw.  The fixed-round player, play_rounds (behind
estimate-rho --rho-true), instead draws a game's context and outcome counts
from a Philox stream keyed by the seed.

A round is the inverse-CDF draw of its uniform over the game's joint
(context, outcome) table, as one cell id, context * n_out + outcome (one or
two bytes): cell c * n_out + k has the bound (c + cum[c, k]) / n_ctx, with
cum the row CDFs of the contexts' outcome distributions, and a uniform
draws the number of bounds at most it.  Every context comes up with
probability 1/n_ctx, and a zero-mass cell is never drawn.  A guide table
gives the cell with one gather; only a uniform in a bucket that holds a
bound is searched among the bounds, and the cells are bit-for-bit the
rule's.

Each block's cell ids are counted once into a run-level (context, outcome)
histogram; per-question counts and first-t histograms follow from it
through 0/1 question x context matrices, and the win and consistency rates
from its sums over each game's win and consistency tables.  The run keeps
its cell ids; each per-round column of a transcript is built from them when
it is read, and the CSV and JSON round exports render their text from them
a block of rounds at a time.

Interpretation note: trace-test counts reuse the game rounds themselves (the
protocol counts answers "when asked question x" within the same repetitions);
transcripts carry this note.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .games import (
    GAMES,
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
    _two_out_of_n_grams,
    game_of,
    require_game,
)
from .pauli import ValidationError

TRACE_TEST_NOTE = ("trace-test frequencies are computed from the first t game rounds "
                   "of each tracked question; no separate trace rounds are played")

# rounds a block holds, each drawn and counted at a time: a block's uniforms
# (256 KB), the guide table (at most 256 KB) and the block's cell and key
# arrays stay in a 4 MiB L2 cache across every key pass
_BLOCK = 2 ** 15
# the most rounds a run may be expected to need (CHSH at t = 2**24): the int64
# round columns of a run that long, built only when read, take several GB
_MAX_ROUNDS = 2 ** 25


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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))


# the most bytes a guide table may take: 2**17 two-byte buckets keep the
# share of buckets that hold a bound below 2 % for 2-out-of-5's 2560 cells
_GUIDE_BYTES = 2 ** 18


class _GuideTable:
    """Exact guide-table ("indexed search") inverse-CDF draws of (context,
    outcome) cells (Chen & Asau, AIIE Trans. 6(2), 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2.4).

    The rule: cell c * n_out + k of the row CDFs cum (n_ctx rows, each
    ending at exactly 1.0) has the joint bound (c + cum[c, k]) / n_ctx, and
    a uniform u in [0, 1) draws np.searchsorted(joint, u, side="right"),
    the number of bounds at most u.  Each context has mass 1/n_ctx, the last
    bound is 1.0, and a zero-mass cell has the empty interval
    [joint[i - 1], joint[i]), so it is never drawn.

    [0, 1) is cut into 2**bits equal buckets.  Bucket q holds the cell every
    uniform in it draws when no bound has floor(bound * 2**bits) == q, and
    the sentinel n_cells otherwise; only a sentinel round is searched.
    Scaling a double by 2**bits is exact, so the cells are the rule's bit
    for bit.  bits is the largest that keeps the table within _GUIDE_BYTES."""

    def __init__(self, cum: np.ndarray):
        n_ctx, n_out = cum.shape
        n_cells = n_ctx * n_out
        self.joint = ((np.arange(n_ctx)[:, None] + cum) / n_ctx).ravel()
        # cell ids in the narrowest dtype; table entries also hold the sentinel
        self.dtype = np.min_scalar_type(n_cells - 1)
        entry = np.min_scalar_type(n_cells)
        self.bits = (_GUIDE_BYTES // entry.itemsize).bit_length() - 1
        scale = self.scale = 1 << self.bits
        # each bound's bucket (the last bound, 1.0, falls in bucket scale, past
        # the last): bucket q holds the number of bounds below it, the run of
        # buckets (bucket[i - 1], bucket[i]] holds i, unless a bound is in it
        bucket = np.minimum(np.floor(self.joint * scale), scale).astype(np.intp)
        self.table = np.repeat(np.arange(n_cells, dtype=entry),
                               np.diff(bucket, prepend=-1))[:scale]
        self.table[bucket[bucket < scale]] = n_cells

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Per round, the cell id that u[r] draws by the rule."""
        if len(u) and not (u.min() >= 0.0 and u.max() < 1.0):
            # a uniform outside [0, 1), or NaN, has no bucket
            raise ValidationError("a round's uniform must lie in [0, 1)")
        cells = self.table.take((u * self.scale).astype(np.int32))  # floor, as u >= 0
        slow = np.flatnonzero(cells == len(self.joint))
        if len(slow):
            cells[slow] = np.searchsorted(self.joint, u[slow], side="right")
        return cells.astype(self.dtype, copy=False)


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
    that name.  The run keeps one cell id a round (cells, context * n_out +
    outcome) and each column's flat table (tables); each read takes that one
    column from its table, a block of rounds at a time, and neither builds
    nor keeps the others."""

    def __init__(self, cells: np.ndarray, tables: dict):
        self.cells = cells
        self.tables = {name: np.asarray(table, dtype=np.int64).ravel()
                       for name, table in tables.items()}

    def __getitem__(self, name):
        table = self.tables[name]
        column = np.empty(len(self.cells), dtype=np.int64)
        # a block at a time, so that take() widens only a block of ids to intp
        for lo in range(0, len(column), _BLOCK):
            table.take(self.cells[lo: lo + _BLOCK], out=column[lo: lo + _BLOCK], mode="clip")
        column.flags.writeable = False
        return column

    def __iter__(self):
        return iter(self.tables)

    def __len__(self):
        return len(self.tables)


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
# samplers (joint outcome tables per question context); draw(u) returns one
# (context, outcome) cell id a uniform


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

    def draw(self, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(u)


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

    def draw(self, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(u)


class TwoOutOfNSampler:
    """Joint distribution over (single answer, pair outcome) per context
    (role, then a row of games._two_out_of_n_contexts); 8 categories each,
    from the noise-moved singles paired with the raw pair-POVM elements
    (games._two_out_of_n_grams) and the elements' traces."""

    def __init__(self, strategy: TwoOutOfNStrategy, rho: float):
        if strategy.n < 2:
            raise ValidationError(f"2-out-of-n rounds need n >= 2 indices, got n = {strategy.n}")
        n = strategy.n
        table = _two_out_of_n_contexts(n)
        self.context_index = {(role, *row): k for k, (role, row) in enumerate(
            itertools.product((0, 1), table[:, :5].tolist()))}
        single, elems = table[:, 5, None], 4 * table[:, 6, None] + np.arange(4)
        # per role: the single player's singles against the other player's
        # elements, and those elements' masses
        corr = np.concatenate([gram[single, elems]
                               for gram in _two_out_of_n_grams(strategy, rho)])
        mass = np.concatenate([_normalized_traces(other[2 * n:])[elems]
                               for other in strategy.stacks[::-1]])
        # outcome ei: a = +1, element ei; outcome 4 + ei: a = -1
        self.cum = _cumulative_table(np.hstack([(mass + corr) / 2, (mass - corr) / 2]))
        self._guide = _GuideTable(self.cum)

    def draw(self, u: np.ndarray) -> np.ndarray:
        return self._guide.draw(u)


# ---------------------------------------------------------------------------
# per-game tables: each game defines here, once, what its contexts and
# outcomes mean to the runner, the fixed-round player and sample_round


def _id_table(values) -> np.ndarray:
    """Integer ids in the narrowest dtype that holds them: a block's key ids
    are compared narrow."""
    values = np.asarray(values)
    return values.astype(np.min_scalar_type(values.max()))


@dataclass
class _Game:
    """One game's protocol tables, over the sampler's contexts (rows of its
    table) and outcome categories.

    questions: per context, its questions in the form sample_round takes.
    columns: per (context, outcome), the value of each transcript round
    column, plus a bool "win" table and, for the magic square, "consistent".
    key_sets: per key set, a context -> key id table and, per key, its count
    label and its trace tests (label, the outcome bit set where the answer is
    -1, reject reason with an {f} field for the frequency of +1).
    answer(values): sample_round's answers from the column values of one
    (context, outcome).
    """

    sampler: object
    questions: list
    columns: dict
    key_sets: list
    answer: Callable


def _chsh_game(strategy: ChshStrategy, rho: float) -> _Game:
    # context 2x + y, outcome 2 bit(a) + bit(b); Alice's key is x, Bob's y
    qq, oo = np.indices((4, 4))
    x, y = qq // 2, qq % 2
    a, b = 1 - 2 * (oo // 2), 1 - 2 * (oo % 2)
    key_sets = [(_id_table(keys), [
        (f"{pl}{q}", [(f"{pl}{q}", bit, f"player {pl} question {q}: |{{f:.4f}} - 1/2| >= delta")])
        for q in (0, 1)]) for pl, keys, bit in (("A", [0, 0, 1, 1], 2), ("B", [0, 1, 0, 1], 1))]
    return _Game(ChshSampler(strategy, rho), [divmod(c, 2) for c in range(4)],
                 {"x": x, "y": y, "a": a, "b": b, "win": (a != b).astype(int) == (x & y)},
                 key_sets, lambda v: (v["a"], v["b"]))


def _ms_game(strategy: MagicSquareStrategy, rho: float) -> _Game:
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
                 [(question, sl) for question in MS_QUESTIONS for sl in (1, 2, 3)],
                 {"question": q, "slot": slot, "alice_outcome": a_idx, "b": b,
                  "win": (_MS_PARITY[q, a_idx] == 1) & consistent,
                  "consistent": consistent},
                 [(_id_table(np.arange(18) // 3), alice),
                  (_id_table(_MS_SLOT_VARIABLE.ravel()), bob)],
                 lambda v: (ms_outcomes()[v["alice_outcome"]], v["b"]))


def _two_out_of_n_game(strategy: TwoOutOfNStrategy, rho: float) -> _Game:
    sampler = TwoOutOfNSampler(strategy, rho)
    n = strategy.n
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
    return _Game(sampler, contexts,
                 {"role": role, "i": i, "j": j, "x": x, "y": y, "z": z,
                  "a": a, "b_shared": b_shared, "b_other": b_other,
                  "win": (a != b_shared).astype(int) == (x & y)},
                 [(ctx_single, singles), (ctx_pair, pair_tests)],
                 lambda v: (v["a"], (v["b_shared"], v["b_other"])))


# game name (games.GAMES) -> table builder
_GAMES = {"chsh": _chsh_game, "magic_square": _ms_game, "two_out_of_n": _two_out_of_n_game}


def sample_round(strategy, noise, questions, rng: np.random.Generator):
    """Draw one round of joint answers for the given questions.

    CHSH: questions (x, y), answers (a, b) in {-1, 1}; the closed-form
    two-outcome distribution is used and matches the explicit POVM-trace
    distribution exactly.  Magic square: questions (question string, slot),
    answers ((a1, a2, a3), b).  2-out-of-n: questions
    (role, i, j, x, y, z) with role 0 when the first player holds the single
    index; answers (a, (b_shared, b_other)).
    """
    game = _GAMES[game_of(strategy)](strategy, float(noise))
    if tuple(questions) not in game.questions:
        raise ValidationError(f"no question context {questions!r} in this game")
    ctx = game.questions.index(tuple(questions))
    # the runner's rule: u draws the number of the context's bounds at most u
    out = int(np.searchsorted(game.sampler.cum[ctx], rng.random(1), side="right")[0])
    return game.answer({name: int(table[ctx, out]) for name, table in game.columns.items()})


# ---------------------------------------------------------------------------
# protocol runner: per block, its uniforms, cell ids, per-key counts and
# first-t histograms, up to the block in which the last key reaches t


def _blocks(seed: int):
    """Successive blocks of a run's uniforms: block k's stream gives _BLOCK
    uniforms from one random() call.  Nothing is drawn for a block that is
    not asked for."""
    for block in itertools.count():
        yield _rng_for_block(seed, block).random(_BLOCK)


def _play_blocks(params: ProtocolParams, game: _Game):
    """Play blocks of rounds until every key of every key set has come up t
    times.

    Returns the cell ids of the rounds up to the exact stopping round; per
    key set, the number of each key's rounds up to that round and the
    (keys, outcomes) histograms of their first t rounds; and the (context,
    outcome) histogram of the rounds up to that round."""
    t = params.t
    n_ctx, n_out = game.sampler.cum.shape
    # the rounds a run is expected to need: t times the contexts per context
    # of the rarest key (2t for CHSH, 9t for the magic square, 4n(n-1)t for
    # 2-out-of-n)
    need = t * n_ctx // min(int(np.bincount(keys).min()) for keys, _ in game.key_sets)
    if need > _MAX_ROUNDS:
        raise ValidationError(f"t = {t} is expected to need {need} rounds, "
                              f"above the limit of {_MAX_ROUNDS}")

    def histogram(cells):
        return np.bincount(cells, minlength=n_ctx * n_out).reshape(n_ctx, n_out)

    # per key set: its cell -> key id table and its key x context 0/1
    # matrix, and per key its count and its first-t histogram; joint holds
    # the run's rounds so far, and last is the latest round at which a key
    # came up for the t-th time
    tables = [(np.repeat(keys, n_out),
               (np.arange(int(keys.max()) + 1)[:, None] == keys).astype(np.int64))
              for keys, _ in game.key_sets]
    counts = [np.zeros(len(member), dtype=np.int64) for _, member in tables]
    hists = [np.zeros((len(c), n_out), dtype=np.int64) for c in counts]
    joint = np.zeros((n_ctx, n_out), dtype=np.int64)
    drawn = []
    start = last = 0
    for u in _blocks(params.seed):
        cells = game.sampler.draw(u)
        drawn.append(cells)
        counted = histogram(cells)
        per_ctx = counted.sum(axis=1)
        for (keys, member), count, hist in zip(tables, counts, hists):
            after = count + member @ per_ctx
            # a key's first t rounds are its rounds before this block, all in
            # joint, and its first t - count rounds in this block
            crossing = np.flatnonzero((count < t) & (after >= t))
            if len(crossing):
                # a stable sort by key puts key k's rounds, in order, from slot first[k]
                order = np.argsort(keys.take(cells), kind="stable")
                first = (np.cumsum(after - count) - (after - count))[crossing]
                need = t - count[crossing]
                which = np.repeat(np.arange(len(crossing)), need)
                rounds = order[np.arange(len(which)) + (first - np.cumsum(need) + need)[which]]
                last = max(last, start + int(order[first + need - 1].max()))
                outs = np.bincount(which * n_out + cells[rounds] % n_out,
                                   minlength=len(crossing) * n_out)
                hist[crossing] = member[crossing] @ joint + outs.reshape(-1, n_out)
            count[:] = after
        joint += counted
        if all(count.min() >= t for count in counts):
            break
        start += len(cells)
    # drop the stopping block's rounds after the stopping round
    cut = last + 1 - start
    joint -= histogram(cells[cut:])
    drawn[-1] = cells[:cut]
    per_ctx = joint.sum(axis=1)
    return np.concatenate(drawn), [(member @ per_ctx, hist)
                                  for (_, member), hist in zip(tables, hists)], joint


# the game tables that give rates, not round columns
_RATES = ("win", "consistent")


def _rates(game: _Game, joint: np.ndarray, n_rounds: int) -> list:
    """Rates of the game's "win" and (magic square) "consistent" tables over
    rounds with the given (context, outcome) histogram."""
    return [int((joint * game.columns[name]).sum()) / n_rounds
            for name in _RATES if name in game.columns]


def _plus_frequencies(hists: np.ndarray) -> np.ndarray:
    """Per key (a row of hists, the histogram of the outcome categories of
    its first t rounds) and outcome bit j, the share (t - minus) / t of +1
    answers, where minus counts the rounds whose category has bit j set
    (answer -1): one product with the 0/1 (bit x outcome) table."""
    n_out = hists.shape[1]
    bits = (np.arange(n_out) >> np.arange(n_out.bit_length() - 1)[:, None]) & 1
    t = hists.sum(axis=1, keepdims=True)
    return (t - hists @ bits.T) / t


def run_protocol(params: ProtocolParams, strategy) -> ProtocolTranscript:
    """Play game rounds until every tracked (player, question) count reaches
    t, then apply the bias test over the first t trials of each question."""
    cls = GAMES[require_game(params.game)]
    if not isinstance(strategy, cls):
        raise ValidationError(f"{params.game} protocol needs a {cls.__name__}")
    game = _GAMES[params.game](strategy, params.rho)
    cells, seen, joint = _play_blocks(params, game)
    counts, freqs, reasons = {}, {}, []
    for (_, keys), (key_counts, hists) in zip(game.key_sets, seen):
        for (label, tests), count, plus in zip(keys, key_counts.tolist(),
                                               _plus_frequencies(hists).tolist()):
            counts[label] = count
            for test, bit, reason in tests:
                f = freqs[test] = plus[bit.bit_length() - 1]
                if abs(f - 0.5) >= params.delta:
                    reasons.append(reason.format(f=f))
    rounds = RoundColumns(cells, {name: table for name, table in game.columns.items()
                                  if name not in _RATES})
    wins, *consistent = _rates(game, joint, len(cells))
    return ProtocolTranscript(
        params.game, params, len(cells), rounds, counts, freqs, not reasons, reasons, wins,
        empirical_consistency_rate=consistent[0] if consistent else None)


# ---------------------------------------------------------------------------
# lean fixed-round statistics (for estimation experiments)


def _check_round_count(n_rounds) -> None:
    if isinstance(n_rounds, bool) or not isinstance(n_rounds, (int, np.integer)) or n_rounds < 1:
        raise ValidationError(f"the round count must be an integer >= 1, got {n_rounds!r}")


def play_rounds(strategy, rho: float, n_rounds: int, seed: int) -> tuple:
    """The rates of a fixed number of rounds of the game that the strategy's
    class plays: (win rate,), and for the magic square (win rate,
    consistency rate).  Vectorized: multinomial context counts, then
    multinomial outcomes per context, from a Philox stream keyed by seed."""
    _check_round_count(n_rounds)
    game = _GAMES[game_of(strategy)](strategy, float(rho))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n_ctx = len(game.questions)
    per_ctx = rng.multinomial(n_rounds, np.full(n_ctx, 1.0 / n_ctx))
    probs = np.diff(game.sampler.cum, axis=1, prepend=0.0)
    return tuple(_rates(game, np.array([rng.multinomial(k, row)
                                        for k, row in zip(per_ctx, probs)]), n_rounds))


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


# the rate a game's noise estimate inverts, the magic square's consistency
# rate and other games' win rate: its index in _RATES, its ProtocolTranscript
# attribute and transcript key, and its inversion to rho
_EstimatedRate = namedtuple("_EstimatedRate", "index attribute key invert")
_WIN_RATE = _EstimatedRate(0, "empirical_win_rate", "empiricalWinRate",
                           lambda rate: 2 * np.sqrt(2) * (rate - 0.5))
_CONSISTENCY_RATE = _EstimatedRate(1, "empirical_consistency_rate", "empiricalConsistencyRate",
                                   lambda rate: 2 * rate - 1)


def _estimated_rate(game) -> _EstimatedRate:
    return _CONSISTENCY_RATE if game == "magic_square" else _WIN_RATE


def estimate_noise_rate(game: str, statistic: float | None = None,
                        n_rounds: int | None = None,
                        transcript: ProtocolTranscript | None = None,
                        confidence: float = 0.95) -> NoiseEstimate:
    """Device-independent fidelity estimate with a two-sided Hoeffding interval.

    CHSH-family games invert the win rate (rho = 2 sqrt(2) (w - 1/2)); the
    magic square game inverts the consistency rate (rho = 2 w_c - 1).  The
    interval maps the Hoeffding band on the statistic through the inversion
    and clamps to [0, 1]; it is conservative by construction.  The statistic
    is a rate: one outside [0, 1] is rejected, while a rate whose estimate
    falls outside [0, 1] is clamped and flagged.
    """
    if transcript is not None:
        game, n_rounds = transcript.game, transcript.t_prime
        statistic = getattr(transcript, _estimated_rate(game).attribute)
    require_game(game)
    if statistic is None or n_rounds is None:
        raise ValidationError("need a statistic and a positive round count")
    _check_round_count(n_rounds)
    if (isinstance(statistic, bool)
            or not isinstance(statistic, (int, float, np.integer, np.floating))
            or not np.isfinite(statistic)):
        raise ValidationError(f"the statistic must be a finite real number, got {statistic!r}")
    if not 0.0 <= statistic <= 1.0:
        raise ValidationError(f"the statistic is a rate and must lie in [0, 1], "
                              f"got {float(statistic)!r}")
    if not 0.0 < confidence < 1.0:
        raise ValidationError("confidence must lie in (0, 1)")
    invert = _estimated_rate(game).invert
    half = np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * n_rounds))
    raw = invert(statistic)
    lo, hi = sorted((invert(statistic - half), invert(statistic + half)))
    clamped = bool(raw < 0.0 or raw > 1.0)
    return NoiseEstimate(
        float(np.clip(raw, 0.0, 1.0)),
        (float(np.clip(lo, 0.0, 1.0)), float(np.clip(hi, 0.0, 1.0))),
        float(statistic), int(n_rounds), confidence, clamped)


# ---------------------------------------------------------------------------
# round exports


def _render_blocks(cells: np.ndarray, texts: list, numbered: bool):
    """One row of text a round, yielded a block of rows at a time: row r is
    the decimal r when numbered, then texts[cells[r]] (bytes).

    A numpy byte kernel, so that what it holds besides the block it yields
    is O(block): each row is laid out left-aligned in a padded (rows, width)
    uint8 array, the digits of r by integer division over each range of
    rows whose numbers have the same digit count, and a mask of each row's
    length gathers the rows in order."""
    lengths = np.array([len(text) for text in texts], dtype=np.intp)
    pad = np.zeros((len(texts), lengths.max()), dtype=np.uint8)
    for row, text in zip(pad, texts):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    for lo in range(0, len(cells), _BLOCK):
        ids = cells[lo: lo + _BLOCK]
        hi = lo + len(ids)
        # (digits, first row, end row) per digit count; no digits unnumbered
        spans = [(0, lo, hi)]
        if numbered:
            spans = [(d, max(lo, 10 ** (d - 1) if d > 1 else 0), min(hi, 10 ** d))
                     for d in range(len(str(lo)), len(str(hi - 1)) + 1)]
        grid = np.zeros((len(ids), spans[-1][0] + pad.shape[1]), dtype=np.uint8)
        size = lengths[ids]
        for d, first, end in spans:
            rows = slice(first - lo, end - lo)
            r = np.arange(first, end)
            for k in range(d):
                grid[rows, k] = r // 10 ** (d - 1 - k) % 10 + ord("0")
            grid[rows, d: d + pad.shape[1]] = pad[ids[rows]]
            size[rows] += d
        yield grid[np.arange(grid.shape[1]) < size[:, None]].tobytes()


def transcript_rounds_csv(transcript: ProtocolTranscript) -> str:
    """Per-round records as CSV text (header + one line per round)."""
    return "".join(transcript_rounds_csv_pieces(transcript))


def transcript_rounds_csv_pieces(transcript: ProtocolTranscript):
    """The text of transcript_rounds_csv: the header, then each rendered
    block of rows."""
    cols = transcript.rounds
    yield ",".join(["round", *cols]) + "\n"
    texts = ["".join(f",{v}" for v in cell).encode() + b"\n"
             for cell in zip(*(table.tolist() for table in cols.tables.values()))]
    yield from (str(block, "ascii") for block in _render_blocks(cols.cells, texts, numbered=True))
