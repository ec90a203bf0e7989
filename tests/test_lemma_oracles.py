"""The oracles behind `lemma-check`.

The appendix LP lemma is linked three ways: its closed form
(`lp_min_closed_form`), the exact enumeration of basic feasible solutions
(`lp_min_bruteforce`) and HiGHS through `scipy.optimize.linprog`, which only
the tests import.  The random candidates of the nearest-binary check are
drawn as one stack that equals the sequential single draws.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from noisygames.extraction import lp_min_bruteforce, lp_min_closed_form
from noisygames.games import random_traceless_binary
from noisygames.pauli import ValidationError


def _highs(a, t1, t2):
    """The LP's optimum by HiGHS, or None when HiGHS finds it infeasible."""
    a = np.asarray(a, dtype=float)
    res = linprog(c=a, A_eq=np.vstack([np.ones_like(a), a ** 2]), b_eq=[t1, t2],
                  bounds=[(0, None)] * a.size, method="highs")
    if res.status == 2:
        return None
    assert res.success, res.message
    return float(res.fun)


def _coefficients(k, tie, rng):
    """k coefficients in random order; `tie` copies the least or the largest
    onto another position, or makes all k equal."""
    a = rng.uniform(0.1, 3.0, size=k)
    if tie == "all":
        a[:] = a[0]
    elif tie is not None:
        src = int(np.argmin(a) if tie == "least" else np.argmax(a))
        a[(src + int(rng.integers(1, k))) % k] = a[src]
    return a


def _instances(seed):
    """(a, t1, t2) for k = 1..8, with and without ties, and t2 at both ends
    of the feasible interval [a_n^2 t1, a_1^2 t1] and inside it."""
    rng = np.random.default_rng(seed)
    for k in range(1, 9):
        for tie in (None, "least", "largest", "all") if k > 1 else (None,):
            for where in ("low", "high", "inside"):
                for _ in range(4):
                    a = _coefficients(k, tie, rng)
                    t1 = float(rng.uniform(0.2, 2.0))
                    lo, hi = a.min() ** 2 * t1, a.max() ** 2 * t1
                    t2 = {"low": lo, "high": hi, "inside": lo + rng.uniform() * (hi - lo)}[where]
                    yield a, t1, t2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_vertex_oracle_matches_highs_and_the_closed_form(seed):
    count = 0
    for a, t1, t2 in _instances(seed):
        value = lp_min_bruteforce(a, t1, t2)
        assert value == pytest.approx(_highs(a, t1, t2), abs=1e-9), (a, t1, t2)
        assert value == pytest.approx(lp_min_closed_form(np.sort(a)[::-1], t1, t2),
                                      abs=1e-9), (a, t1, t2)
        count += 1
    assert count == 3 * 4 * (1 + 7 * 4)


@pytest.mark.parametrize("a, t1, t2", [
    ([2.0, 1.0], 1.0, 5.0),
    ([2.0, 1.0], 1.0, 0.5),
    ([1.5], 2.0, 4.0),
    ([2.0, 2.0, 2.0], 1.0, 3.0),
    ([0.5, 3.0, 1.0], 1.0, 9.5),
    ([1.0, 2.0], -1.0, -2.0),
], ids=["above", "below", "one-coefficient", "all-tied", "unsorted-above", "negative-t1"])
def test_infeasible_t2_is_a_one_line_validation_error(a, t1, t2):
    assert _highs(a, t1, t2) is None
    with pytest.raises(ValidationError, match="infeasible") as exc:
        lp_min_bruteforce(a, t1, t2)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("seed", [4, 5])
def test_t2_outside_the_interval_is_infeasible(seed):
    rng = np.random.default_rng(seed)
    for k in range(1, 9):
        a = rng.uniform(0.1, 3.0, size=k)
        t1 = float(rng.uniform(0.2, 2.0))
        for t2 in (a.min() ** 2 * t1 * 0.99 - 1e-3, a.max() ** 2 * t1 * 1.01 + 1e-3):
            assert _highs(a, t1, t2) is None
            with pytest.raises(ValidationError, match="infeasible"):
                lp_min_bruteforce(a, t1, t2)


@pytest.mark.parametrize("d, count", [(2, 1), (2, 100), (4, 7), (8, 3)])
def test_stacked_binary_draws_equal_sequential_draws(d, count):
    stacked_rng, single_rng = np.random.default_rng(20), np.random.default_rng(20)
    stack = random_traceless_binary(d, stacked_rng, count=count)
    singles = np.stack([random_traceless_binary(d, single_rng) for _ in range(count)])
    assert stack.shape == (count, d, d)
    np.testing.assert_allclose(stack, singles, rtol=0, atol=1e-14)
    assert stacked_rng.random() == single_rng.random()
    np.testing.assert_allclose(np.trace(stack, axis1=1, axis2=2), 0, atol=1e-12)
    np.testing.assert_allclose(stack, stack.conj().transpose(0, 2, 1), atol=1e-14)
    np.testing.assert_allclose(stack @ stack, np.broadcast_to(np.eye(d), stack.shape),
                               atol=1e-12)


def test_single_binary_draw_keeps_its_stream():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    want = u @ np.diag([1.0, 1.0, -1.0, -1.0]) @ u.conj().T
    got_rng = np.random.default_rng(3)
    np.testing.assert_allclose(random_traceless_binary(4, got_rng), want, rtol=0, atol=1e-14)
    assert got_rng.random() == rng.random()


@pytest.mark.parametrize("count", [0, -3, 2.5, True, "4"])
def test_stacked_binary_draws_reject_a_bad_count(count):
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError, match="count must be a positive integer"):
        random_traceless_binary(2, rng, count=count)
    assert rng.bit_generator.state == before
