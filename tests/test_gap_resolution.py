"""Self-test gaps at small rho.  For perturbed strategies the value is
linear in rho, so eps/rho is a constant; it must hold to a relative 1e-6
down to rho = 1e-12, against an mpmath evaluation at 50 digits of the game's
win probability from the same coefficient rows the self-test reads
(`PairEvaluator.expand_stacks`).  A gap formed from win probabilities near
1/2 carries an absolute error near 1e-16, which at rho = 1e-12 is larger
than the gap itself."""

import itertools

import mpmath
import numpy as np
import pytest

from noisygames.extraction import chsh_selftest, ms_selftest, two_out_of_n_selftest
from noisygames.games import (
    CHSH_SIGNS,
    MS_QUESTIONS,
    PairEvaluator,
    ms_outcomes,
    ms_parity_target,
    ms_question_variables,
    pair_key,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
)
from noisygames.pauli import degree_vector

RHOS = (1e-3, 1e-6, 1e-9, 1e-12)
THETAS = (1e-2, 1e-3, 1e-4)


class Pairings:
    """<A (x) B> of rows a and b as a polynomial in rho: the sums of
    a(x) b(x) over the multi-indices x of each degree, at mpmath's working
    precision (a product of two doubles is exact at 50 digits)."""

    def __init__(self, m, n):
        self.deg = degree_vector(m, n)

    def __call__(self, a, b):
        return [mpmath.fsum(mpmath.mpf(float(u)) * mpmath.mpf(float(v))
                            for u, v in zip(a[self.deg == d], b[self.deg == d]))
                for d in range(int(self.deg.max()) + 1)]


def _at(poly, rho):
    return mpmath.fsum(c * rho ** d for d, c in enumerate(poly))


def _chsh(strategy):
    a, b, _ = PairEvaluator(0.5).expand_stacks(*strategy.stacks)
    pair = Pairings(2, strategy.n)
    corr = {(x, y): pair(a[x], b[y]) for x, y in CHSH_SIGNS}

    def eps(rho):
        violation = mpmath.fsum(s * _at(corr[k], rho) for k, s in CHSH_SIGNS.items())
        return 2 * mpmath.sqrt(2) * rho - violation
    return lambda rho: chsh_selftest(strategy, rho)["epsV"], eps


def _magic_square(strategy):
    # Alice's element a of question q is row 8q + a; Bob's variable (i, j)
    # is row 3(i - 1) + (j - 1)
    elems, obs, _ = PairEvaluator(0.5, m=4).expand_stacks(*strategy.stacks)
    pair = Pairings(4, strategy.n)
    terms = []  # (mass or None, pairing, answer) per (question, slot, outcome)
    for q, question in enumerate(MS_QUESTIONS):
        for s, (i, j) in enumerate(ms_question_variables(question)):
            for a, answers in enumerate(ms_outcomes()):
                if np.prod(answers) == ms_parity_target(question):
                    row = elems[8 * q + a]
                    terms.append((mpmath.mpf(float(row[0])),
                                  pair(row, obs[3 * (i - 1) + (j - 1)]), answers[s]))

    def eps(rho):
        # win(q, s) = sum over outcomes of the right parity of
        # (mass + answer * <E (x) Q>) / 2, averaged over the 18 (q, s)
        overall = mpmath.fsum((mass + answer * _at(p, rho)) / 2
                              for mass, p, answer in terms) / 18
        return (1 + rho) / 2 - overall
    return lambda rho: ms_selftest(strategy, rho)["epsWin"], eps


def _two_out_of_n(strategy):
    # a player's single (i, x) is row 2(i - 1) + x and element e of pair key
    # k (keys (i, y, j, z), i < j, ordered by i, j, y, z) is row 2n + 4k + e;
    # outcome e answers (+,+), (+,-), (-,+), (-,-) for i and j
    n = strategy.n
    a, b, _ = PairEvaluator(0.5).expand_stacks(*strategy.stacks)
    keys = [(i, y, j, z) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for y in (0, 1) for z in (0, 1)]
    side_signs = ((1, 1, -1, -1), (1, -1, 1, -1))
    pair = Pairings(2, n)
    terms = []  # (CHSH sign, pairing) per context and role
    for i, j in itertools.permutations(range(1, n + 1), 2):
        for x, y, z in itertools.product((0, 1), repeat=3):
            key = pair_key(i, y, j, z)
            signs = side_signs[key[0] != i]
            first = 2 * n + 4 * keys.index(key)
            for single, pairs in ((a, b), (b, a)):
                corr = [sum(s * c for s, c in zip(signs, p)) for p in zip(*(
                    pair(single[2 * (i - 1) + x], pairs[first + e]) for e in range(4)))]
                terms.append((CHSH_SIGNS[(x, y)], corr))

    def eps(rho):
        win = mpmath.fsum((1 + s * _at(c, rho)) / 2 for s, c in terms) / len(terms)
        return 2 * mpmath.sqrt(2) * rho - 8 * (win - mpmath.mpf(1) / 2)
    return lambda rho: two_out_of_n_selftest(strategy, rho)["epsV"], eps


GAMES = {
    "chsh": lambda theta: _chsh(perturbed_chsh_strategy(1, 1, theta)),
    "magic_square": lambda theta: _magic_square(perturbed_magic_square_strategy(1, 1, theta)),
    "two_out_of_3": lambda theta: _two_out_of_n(perturbed_two_out_of_n_strategy(3, theta)),
}


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("game", GAMES)
def test_gap_over_rho_matches_fifty_digits_down_to_rho_1e_12(game, theta):
    with mpmath.workdps(50):
        gap, exact = GAMES[game](theta)
        for rho in RHOS:
            want = exact(mpmath.mpf(rho)) / mpmath.mpf(rho)
            got = gap(rho) / rho
            assert want > 0
            assert abs(got - want) <= 1e-6 * abs(want), (rho, got, float(want))
