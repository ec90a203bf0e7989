"""Each strategy holds one read-only operator stack per player, in the row
layout its class documents, and its named fields are views of those rows.
The trace error and the CHSH and magic-square sampler tables read the
stacks; the references below take one normalized trace per member."""

import numpy as np
import pytest

from noisygames.games import (
    MS_QUESTIONS,
    PairEvaluator,
    TwoOutOfNStrategy,
    _MS_SIGNS,
    _MS_VARIABLES,
    _PAIR_SIDE_SIGNS,
    _pair_keys,
    add_trace_bias,
    canonical_two_out_of_n_strategy,
    ms_question_variables,
    random_chsh_strategy,
    random_magic_square_strategy,
    trace_error,
)
from noisygames.pauli import normalized_trace
from noisygames.protocols import ChshSampler, MagicSquareSampler, _cumulative_table


def _biased_two_out_of_n(n: int, n_prime: int, seed: int) -> TwoOutOfNStrategy:
    """Canonical operators on permuted registers with per-member identity
    components, so that every member differs between the players and
    every single and pair marginal has its own trace."""
    rng = np.random.default_rng(seed)
    base = canonical_two_out_of_n_strategy(n, n_prime, registers=list(range(n_prime, 1, -1))[:n])
    eye = np.eye(base.dim)

    def singles():
        return {k: add_trace_bias(op, rng.uniform(-0.3, 0.3))
                for k, op in base.alice_singles.items()}

    def povms():
        return {k: 0.8 * povm + 0.2 * rng.dirichlet(np.ones(4))[:, None, None] * eye
                for k, povm in base.alice_pair_povms.items()}

    return TwoOutOfNStrategy(n, n_prime, singles(), singles(), povms(), povms())


def _chsh(seed: int):
    return random_chsh_strategy(2, np.random.default_rng(seed), trace_bias=0.3)


def _ms(seed: int, kind: str = "raw"):
    return random_magic_square_strategy(1, np.random.default_rng(seed), kind=kind, trace_bias=0.2)


def _layout(strategy) -> list:
    """Per player, (field member, its rows in the player's stack) in the
    documented order."""
    if hasattr(strategy, "alice"):
        return [[(op, slice(r, r + 1)) for r, op in enumerate(ops)]
                for ops in (strategy.alice, strategy.bob)]
    if hasattr(strategy, "alice_povms"):
        return [[(strategy.alice_povms[q], slice(8 * k, 8 * k + 8))
                 for k, q in enumerate(MS_QUESTIONS)],
                [(strategy.bob_observables[v], slice(r, r + 1))
                 for r, v in enumerate(_MS_VARIABLES)]]
    n = strategy.n
    return [[*((singles[(i, x)], slice(2 * (i - 1) + x, 2 * (i - 1) + x + 1))
               for i in range(1, n + 1) for x in (0, 1)),
             *((povms[key], slice(2 * n + 4 * k, 2 * n + 4 * k + 4))
               for k, key in enumerate(_pair_keys(n)))]
            for singles, povms in ((strategy.alice_singles, strategy.alice_pair_povms),
                                   (strategy.bob_singles, strategy.bob_pair_povms))]


STRATEGIES = [lambda: _chsh(1), lambda: _ms(2), lambda: _ms(3, "projective"),
              *(lambda n=n: _biased_two_out_of_n(n, n + 1, n) for n in (2, 3, 4))]
IDS = ["chsh", "ms-raw", "ms-projective", "two-out-of-2", "two-out-of-3", "two-out-of-4"]


@pytest.mark.parametrize("build", STRATEGIES, ids=IDS)
def test_fields_are_read_only_views_of_the_stack_rows(build):
    strategy = build()
    assert len(strategy.stacks) == 2
    for stack, members in zip(strategy.stacks, _layout(strategy)):
        assert stack.shape[1:] == (strategy.dim, strategy.dim) and stack.dtype == complex
        assert not stack.flags.writeable
        assert len(stack) == sum(rows.stop - rows.start for _, rows in members)
        for member, rows in members:
            rows_of = stack[rows] if member.ndim == 3 else stack[rows][0]
            assert np.array_equal(member, rows_of)
            assert np.shares_memory(member, stack[rows])
            assert not member.flags.writeable


def _trace_error_reference(strategy) -> float:
    tr = normalized_trace
    if hasattr(strategy, "alice"):
        values = [tr(op) for op in (*strategy.alice, *strategy.bob)]
    elif hasattr(strategy, "alice_povms"):
        values = [sum(_MS_SIGNS[a, s] * tr(povm[a]) for a in range(8))
                  for povm in strategy.alice_povms.values() for s in range(3)]
        values += [tr(op) for op in strategy.bob_observables.values()]
    else:
        values = []
        for singles, povms in ((strategy.alice_singles, strategy.alice_pair_povms),
                               (strategy.bob_singles, strategy.bob_pair_povms)):
            values += [tr(op) for op in singles.values()]
            values += [sum(_PAIR_SIDE_SIGNS[side, e] * tr(povm[e]) for e in range(4))
                       for povm in povms.values() for side in (0, 1)]
    return max(abs(v) for v in values)


@pytest.mark.parametrize("build", STRATEGIES, ids=IDS)
def test_trace_error_matches_a_per_member_reference(build):
    strategy = build()
    reference = _trace_error_reference(strategy)
    assert reference > 0.01
    # the signed sums may add in another order
    assert trace_error(strategy) == pytest.approx(reference, rel=0, abs=1e-14)


def _chsh_cum_reference(strategy, rho):
    ev = PairEvaluator(rho)
    tr_p = [normalized_trace(op) for op in strategy.alice]
    tr_q = [normalized_trace(op) for op in strategy.bob]
    tables = np.empty((4, 4))
    for x in (0, 1):
        for y in (0, 1):
            corr = ev.pair(strategy.alice[x], strategy.bob[y])
            tables[2 * x + y] = [(1 + a * tr_p[x] + b * tr_q[y] + a * b * corr) / 4
                                 for a in (1, -1) for b in (1, -1)]
    return _cumulative_table(tables)


def _ms_cum_reference(strategy, rho):
    ev = PairEvaluator(rho, m=4)
    tables = []
    for q in MS_QUESTIONS:
        povm = strategy.alice_povms[q]
        masses = [normalized_trace(e) for e in povm]
        for i, j in ms_question_variables(q):
            bob = strategy.bob_observables[(i, j)]
            row = np.empty(16)
            for ai in range(8):
                corr = ev.pair(povm[ai], bob)
                row[2 * ai] = (masses[ai] + corr) / 2
                row[2 * ai + 1] = (masses[ai] - corr) / 2
            tables.append(row)
    return _cumulative_table(tables)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rho", [0.55, 0.9])
def test_sampler_tables_match_per_member_traces_bit_for_bit(seed, rho):
    chsh = _chsh(seed)
    assert np.array_equal(ChshSampler(chsh, rho).cum, _chsh_cum_reference(chsh, rho))
    for kind in ("raw", "projective"):
        ms = _ms(seed, kind)
        assert np.array_equal(MagicSquareSampler(ms, rho).cum, _ms_cum_reference(ms, rho))
