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


def _sample_categories(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF draw: cum_rows is (rounds, categories)."""
    return (u[:, None] > cum_rows).sum(axis=1)


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


def _first_t_frequency(mask: np.ndarray, plus: np.ndarray, t: int) -> float:
    """Frequency of +1 answers over the first t rounds matching the mask."""
    pos = np.flatnonzero(mask)[:t]
    return float(plus[pos].mean())


# ---------------------------------------------------------------------------
# samplers (joint outcome tables per question context)


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
        self._check(tables)
        self.cum = np.cumsum(tables, axis=1)

    @staticmethod
    def _check(tables):
        if tables.min() < -1e-9 or np.abs(tables.sum(axis=1) - 1).max() > 1e-9:
            raise ValidationError("answer distribution is not a probability vector")
        np.clip(tables, 0.0, None, out=tables)
        tables /= tables.sum(axis=1, keepdims=True)

    def exact_table(self) -> np.ndarray:
        """(4 contexts, 4 outcomes); context 2x+y, outcome 2 bit(a)+bit(b)."""
        out = np.diff(np.concatenate([np.zeros((4, 1)), self.cum], axis=1), axis=1)
        return out

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum[ctx], u)


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
        out = sampler.draw(np.array([2 * x + y]), rng.random(1))[0]
        return 1 - 2 * (out // 2), 1 - 2 * (out % 2)
    if isinstance(strategy, MagicSquareStrategy):
        sampler = MagicSquareSampler(strategy, rho)
        question, slot = questions
        ctx = 3 * MS_QUESTIONS.index(question) + (slot - 1)
        out = sampler.draw(np.array([ctx]), rng.random(1))[0]
        return ms_outcomes()[out // 2], 1 - 2 * (out % 2)
    if isinstance(strategy, TwoOutOfNStrategy):
        sampler = TwoOutOfNSampler(strategy, rho)
        role, i, j, x, y, z = questions
        ctx = sampler.context_index[(role, i, j, x, y, z)]
        out = sampler.draw(np.array([ctx]), rng.random(1))[0]
        a = 1 - 2 * (out // 4)
        eidx = out % 4
        b_first, b_second = 1 - 2 * (eidx // 2), 1 - 2 * (eidx % 2)
        return a, ((b_first, b_second) if i < j else (b_second, b_first))
    raise ValidationError(f"unknown strategy type {type(strategy).__name__}")


def _run_chsh_protocol(params: ProtocolParams, strategy: ChshStrategy) -> ProtocolTranscript:
    sampler = ChshSampler(strategy, params.rho)
    t = params.t
    keys = [("A", 0), ("A", 1), ("B", 0), ("B", 1)]
    xs, ys, outs = [], [], []
    counts = np.zeros(4, dtype=np.int64)  # A0 A1 B0 B1
    block = 0
    est = int(2.2 * t) + 64
    while True:
        size = max(est, _BLOCK) if block == 0 else _BLOCK
        rng = _rng_for_block(params.seed, block)
        q = rng.integers(0, 4, size=size)
        u = rng.random(size)
        x, y = q // 2, q % 2
        out = sampler.draw(q, u)
        xs.append(x)
        ys.append(y)
        outs.append(out)
        counts += np.array([(x == 0).sum(), (x == 1).sum(), (y == 0).sum(), (y == 1).sum()])
        block += 1
        if counts.min() >= t:
            break
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    out = np.concatenate(outs)
    key_masks = [x == 0, x == 1, y == 0, y == 1]
    stop = max(int(np.flatnonzero(mask)[t - 1]) for mask in key_masks)
    x, y, out = x[: stop + 1], y[: stop + 1], out[: stop + 1]
    a = 1 - 2 * (out // 2)
    b = 1 - 2 * (out % 2)
    freqs, reasons = {}, []
    for (label, question), mask, plus in zip(
            keys, [x == 0, x == 1, y == 0, y == 1],
            [a == 1, a == 1, b == 1, b == 1]):
        f = _first_t_frequency(mask, plus, t)
        freqs[f"{label}{question}"] = f
        if abs(f - 0.5) >= params.delta:
            reasons.append(f"player {label} question {question}: |{f:.4f} - 1/2| >= delta")
    wins = ((a != b).astype(int) == (x & y)).mean()
    return ProtocolTranscript(
        "chsh", params, len(x),
        {"x": x, "y": y, "a": a, "b": b},
        {f"{l}{q}": int(m.sum()) for (l, q), m in zip(keys, [x == 0, x == 1, y == 0, y == 1])},
        freqs, not reasons, reasons, float(wins))


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
        tables = np.array(tables)
        if tables.min() < -1e-9 or np.abs(tables.sum(axis=1) - 1).max() > 1e-9:
            raise ValidationError("answer distribution is not a probability vector")
        np.clip(tables, 0.0, None, out=tables)
        tables /= tables.sum(axis=1, keepdims=True)
        self.cum = np.cumsum(tables, axis=1)

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum[ctx], u)


_MS_OUTCOME_SIGNS = np.array(ms_outcomes())  # (8, 3) of +-1
_MS_PARITY = np.array([int(np.prod(a)) for a in ms_outcomes()])


def _run_ms_protocol(params: ProtocolParams, strategy: MagicSquareStrategy) -> ProtocolTranscript:
    sampler = MagicSquareSampler(strategy, params.rho)
    t = params.t
    var_of = {}  # (question index, slot) -> variable label
    for xi, q in enumerate(MS_QUESTIONS):
        for slot, (i, j) in enumerate(ms_question_variables(q), start=1):
            var_of[(xi, slot)] = f"s{i}{j}"
    qs, slots, outs = [], [], []
    alice_counts = np.zeros(6, dtype=np.int64)
    bob_counts = np.zeros(18, dtype=np.int64)  # per (question, slot) context
    block = 0
    est = int(9.3 * t) + 128
    while True:
        size = max(est, _BLOCK) if block == 0 else _BLOCK
        rng = _rng_for_block(params.seed, block)
        q = rng.integers(0, 6, size=size)
        slot = rng.integers(1, 4, size=size)
        ctx = 3 * q + (slot - 1)
        out = sampler.draw(ctx, rng.random(size))
        qs.append(q)
        slots.append(slot)
        outs.append(out)
        alice_counts += np.bincount(q, minlength=6)
        bob_counts += np.bincount(ctx, minlength=18)
        block += 1
        # Bob's per-variable counts aggregate the two contexts of a variable
        bob_var = _ms_bob_variable_counts(bob_counts, var_of)
        if alice_counts.min() >= t and min(bob_var.values()) >= t:
            break
    q = np.concatenate(qs)
    slot = np.concatenate(slots)
    out = np.concatenate(outs)
    ctx = 3 * q + (slot - 1)
    # exact stopping round: alice per question, bob per variable
    stops = [int(np.flatnonzero(q == xi)[t - 1]) for xi in range(6)]
    for label in set(var_of.values()):
        mask = np.zeros(len(q), dtype=bool)
        for (xi, sl), lab in var_of.items():
            if lab == label:
                mask |= ctx == 3 * xi + (sl - 1)
        stops.append(int(np.flatnonzero(mask)[t - 1]))
    stop = max(stops)
    q, slot, out, ctx = q[: stop + 1], slot[: stop + 1], out[: stop + 1], ctx[: stop + 1]
    a_idx = out // 2
    b = 1 - 2 * (out % 2)
    a_slot = _MS_OUTCOME_SIGNS[a_idx, slot - 1]
    parity_target = np.array([ms_parity_target(x) for x in MS_QUESTIONS])[q]
    parity_ok = _MS_PARITY[a_idx] == parity_target
    consistent = a_slot == b
    wins = (parity_ok & consistent).mean()

    freqs, reasons = {}, []
    for xi, question in enumerate(MS_QUESTIONS):
        mask = q == xi
        pos = np.flatnonzero(mask)[:t]
        for sl in (1, 2, 3):
            i, j = ms_question_variables(question)[sl - 1]
            f = float((_MS_OUTCOME_SIGNS[a_idx[pos], sl - 1] == 1).mean())
            freqs[f"A:{question}:s{i}{j}"] = f
            if abs(f - 0.5) >= params.delta:
                reasons.append(f"Alice {question} variable s{i}{j}: bias {f:.4f}")
    for (i, j) in [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]:
        mask = np.zeros(len(q), dtype=bool)
        for (xi, sl), lab in var_of.items():
            if lab == f"s{i}{j}":
                mask |= ctx == 3 * xi + (sl - 1)
        f = _first_t_frequency(mask, b == 1, t)
        freqs[f"B:s{i}{j}"] = f
        if abs(f - 0.5) >= params.delta:
            reasons.append(f"Bob variable s{i}{j}: bias {f:.4f}")
    counts = {f"A:{question}": int((q == xi).sum()) for xi, question in enumerate(MS_QUESTIONS)}
    for (i, j) in [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]:
        mask = np.zeros(len(q), dtype=bool)
        for (xi, sl), lab in var_of.items():
            if lab == f"s{i}{j}":
                mask |= ctx == 3 * xi + (sl - 1)
        counts[f"B:s{i}{j}"] = int(mask.sum())
    return ProtocolTranscript(
        "magic_square", params, len(q),
        {"question": q, "slot": slot, "alice_outcome": a_idx, "b": b},
        counts, freqs, not reasons, reasons, float(wins),
        empirical_consistency_rate=float(consistent.mean()))


def _ms_bob_variable_counts(bob_counts: np.ndarray, var_of: dict) -> dict:
    agg: dict[str, int] = {}
    for (xi, sl), lab in var_of.items():
        agg[lab] = agg.get(lab, 0) + int(bob_counts[3 * xi + (sl - 1)])
    return agg


class TwoOutOfNSampler:
    """Joint distribution over (single answer, pair outcome) per context
    (role, ordered index pair, questions); 8 categories each."""

    def __init__(self, strategy: TwoOutOfNStrategy, rho: float):
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
        tables = np.array(tables)
        if tables.min() < -1e-9 or np.abs(tables.sum(axis=1) - 1).max() > 1e-9:
            raise ValidationError("answer distribution is not a probability vector")
        np.clip(tables, 0.0, None, out=tables)
        tables /= tables.sum(axis=1, keepdims=True)
        self.cum = np.cumsum(tables, axis=1)
        self.ctx_map = np.full((2, self.n + 1, self.n + 1, 2, 2, 2), -1, dtype=np.int64)
        for key, idx in self.context_index.items():
            self.ctx_map[key] = idx

    def contexts_for(self, role, i, j, x, y, z) -> np.ndarray:
        return self.ctx_map[role, i, j, x, y, z]

    def draw(self, ctx: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _sample_categories(self.cum[ctx], u)


def _key_positions(ids: np.ndarray, n_keys: int) -> list:
    """Round indices per key id, in round order, via one stable sort."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    bounds = np.searchsorted(sorted_ids, np.arange(n_keys + 1))
    return [order[bounds[k]: bounds[k + 1]] for k in range(n_keys)]


def _run_two_out_of_n_protocol(params: ProtocolParams,
                               strategy: TwoOutOfNStrategy) -> ProtocolTranscript:
    sampler = TwoOutOfNSampler(strategy, params.rho)
    n = strategy.n
    t = params.t
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    npairs = len(pairs)
    # tracked keys per player: single (i, x) and pair questions in canonical form
    single_keys = [(pl, i, x) for pl in "AB" for i in range(1, n + 1) for x in (0, 1)]
    pair_keys = [(pl, *pair_key(i, y, j, z)) for pl in "AB"
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 for y in (0, 1) for z in (0, 1)]
    single_index = {key: k for k, key in enumerate(single_keys)}
    pair_index = {key: k for k, key in enumerate(pair_keys)}
    # context -> tracked key ids (the single player holds (i, x); the other
    # player holds the canonical pair question)
    n_ctx = len(sampler.context_index)
    ctx_single = np.empty(n_ctx, dtype=np.int64)
    ctx_pair = np.empty(n_ctx, dtype=np.int64)
    for (rl, ii, jj, xx, yy, zz), cidx in sampler.context_index.items():
        single_pl, pair_pl = ("A", "B") if rl == 0 else ("B", "A")
        ctx_single[cidx] = single_index[(single_pl, ii, xx)]
        ctx_pair[cidx] = pair_index[(pair_pl, *pair_key(ii, yy, jj, zz))]

    blocks = []
    single_counts = np.zeros(len(single_keys), dtype=np.int64)
    pair_counts = np.zeros(len(pair_keys), dtype=np.int64)
    block = 0
    est = int(4 * npairs * t * 1.25) + 256
    while True:
        size = max(est, _BLOCK) if block == 0 else _BLOCK
        rng = _rng_for_block(params.seed, block)
        role = rng.integers(0, 2, size=size)
        pr = rng.integers(0, npairs, size=size)
        xyz = rng.integers(0, 8, size=size)
        u = rng.random(size)
        i = np.array([p[0] for p in pairs])[pr]
        j = np.array([p[1] for p in pairs])[pr]
        x, y, z = xyz // 4, (xyz // 2) % 2, xyz % 2
        ctx = sampler.contexts_for(role, i, j, x, y, z)
        out = sampler.draw(ctx, u)
        blocks.append((role, i, j, x, y, z, out, ctx))
        single_counts += np.bincount(ctx_single[ctx], minlength=len(single_keys))
        pair_counts += np.bincount(ctx_pair[ctx], minlength=len(pair_keys))
        block += 1
        if single_counts.min() >= t and pair_counts.min() >= t:
            break
    role, i, j, x, y, z, out, ctx = (np.concatenate([b[k] for b in blocks])
                                     for k in range(8))
    single_pos = _key_positions(ctx_single[ctx], len(single_keys))
    pair_pos = _key_positions(ctx_pair[ctx], len(pair_keys))
    stop = max(max(int(p[t - 1]) for p in single_pos),
               max(int(p[t - 1]) for p in pair_pos))
    keep = slice(0, stop + 1)
    role, i, j, x, y, z, out, ctx = (arr[keep] for arr in (role, i, j, x, y, z, out, ctx))
    single_pos = [p[p <= stop] for p in single_pos]
    pair_pos = [p[p <= stop] for p in pair_pos]

    a = 1 - 2 * (out // 4)          # single player's answer
    eidx = out % 4
    b_first = 1 - 2 * (eidx // 2)   # pair player's answer for the first key slot
    b_second = 1 - 2 * (eidx % 2)
    # answer of the pair player for the SHARED index i (keys are i<j canonical)
    b_shared = np.where(i < j, b_first, b_second)
    b_other = np.where(i < j, b_second, b_first)
    wins = ((a != b_shared).astype(int) == (x & y)).mean()

    freqs, reasons = {}, []
    counts = {}
    for k, (pl, idx, xx) in enumerate(single_keys):
        pos = single_pos[k][:t]
        f = float((a[pos] == 1).mean())
        freqs[f"{pl}:single({idx},{xx})"] = f
        counts[f"{pl}:single({idx},{xx})"] = len(single_pos[k])
        if abs(f - 0.5) >= params.delta:
            reasons.append(f"player {pl} single question ({idx},{xx}): bias {f:.4f}")
    for k, (pl, i1, y1, j1, z1) in enumerate(pair_keys):
        pos = pair_pos[k][:t]
        shared_is_first = i[pos] == i1
        counts[f"{pl}:pair({i1},{y1},{j1},{z1})"] = len(pair_pos[k])
        for slot_label, ans in (
                (f"({i1},{y1})", np.where(shared_is_first, b_shared[pos], b_other[pos])),
                (f"({j1},{z1})", np.where(shared_is_first, b_other[pos], b_shared[pos]))):
            f = float((ans == 1).mean())
            freqs[f"{pl}:pair{i1}{y1}{j1}{z1}:{slot_label}"] = f
            if abs(f - 0.5) >= params.delta:
                reasons.append(f"player {pl} pair ({i1},{y1},{j1},{z1}) slot {slot_label}: "
                               f"bias {f:.4f}")
    return ProtocolTranscript(
        "two_out_of_n", params, len(role),
        {"role": role, "i": i, "j": j, "x": x, "y": y, "z": z,
         "a": a, "b_shared": b_shared, "b_other": b_other},
        counts, freqs, not reasons, reasons, float(wins))


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


def play_chsh_rounds(strategy: ChshStrategy, rho: float, n_rounds: int,
                     seed: int) -> float:
    """Empirical CHSH win rate over a fixed number of rounds (vectorized:
    multinomial question counts, then multinomial outcomes per context)."""
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
