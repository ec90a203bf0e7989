import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisygames.pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    degree_vector,
    normalized_trace,
    pauli_expand,
    register_weight_vector,
)
from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    TwoOutOfNStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    chsh_violation_dense,
    derived_observable,
    embed_on_register,
    haar_unitary,
    magic_square_table,
    magic_square_value,
    marginal_pair_observable,
    ms_outcomes,
    pair_key,
    perturbed_chsh_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
    trace_error,
    two_out_of_n_value,
)
from noisygames.states import (
    BipartiteState,
    bit_phase_flip_epr,
    diagonalize_correlation,
    make_depolarized_epr,
    tensor_bipartite,
)


def test_canonical_chsh_observables():
    s = canonical_chsh_strategy(1)
    s2 = np.sqrt(2)
    assert np.allclose(s.alice[0], SIGMA_Z)
    assert np.allclose(s.alice[1], SIGMA_X)
    assert np.allclose(s.bob[0], (SIGMA_Z + SIGMA_X) / s2)
    assert np.allclose(s.bob[1], (SIGMA_Z - SIGMA_X) / s2)
    for op in (*s.alice, *s.bob):
        assert normalized_trace(op) == pytest.approx(0.0)


def test_canonical_embedding_degree_profile():
    from noisygames.pauli import pauli_basis

    s = canonical_chsh_strategy(3, register=2)
    for op in (*s.alice, *s.bob):
        exp = pauli_expand(op, pauli_basis())
        degree_one = degree_vector(exp.m, exp.n) == 1
        assert (exp.coeffs[degree_one] ** 2).sum() == pytest.approx(1.0)


@pytest.mark.parametrize("rho", [0.3, 0.7, 0.9, 1.0])
def test_canonical_chsh_value(rho):
    rep = chsh_violation(canonical_chsh_strategy(1), rho)
    assert rep.violation == pytest.approx(2 * np.sqrt(2) * rho, abs=1e-12)
    assert rep.win_prob == pytest.approx(0.5 + rep.violation / 8, abs=1e-12)


def test_chsh_tsirelson_win_probability():
    rep = chsh_violation(canonical_chsh_strategy(1), 1.0)
    assert rep.win_prob == pytest.approx((2 + np.sqrt(2)) / 4)


def test_degenerate_strategy_value():
    z = SIGMA_Z
    s = ChshStrategy(1, (z, z), (z, z))
    assert chsh_violation(s, 0.5).violation == pytest.approx(1.0)
    # dense oracle agrees
    assert chsh_violation_dense(s, 0.5).violation == pytest.approx(1.0)


def test_coefficient_vs_dense_random():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        state = make_depolarized_epr(0.77, n)
        for _ in range(5):
            s = random_chsh_strategy(n, rng, kind="bounded")
            a = chsh_violation(s, 0.77).violation
            b = chsh_violation_dense(s, state).violation
            assert a == pytest.approx(b, abs=1e-9)


def test_win_prob_identity_always():
    rng = np.random.default_rng(7)
    s = random_chsh_strategy(2, rng)
    rep = chsh_violation(s, 0.42)
    assert rep.win_prob == pytest.approx(0.5 + rep.violation / 8, abs=1e-12)


def test_explicit_state_evaluation_path():
    s = canonical_chsh_strategy(1)
    state = make_depolarized_epr(0.5, 1)
    rep = chsh_violation_dense(s, state)
    assert rep.violation == pytest.approx(np.sqrt(2), abs=1e-12)
    # the coefficient path takes only the noise PairEvaluator takes
    with pytest.raises(ValidationError,
                       match="^unsupported noise specification: a BipartiteState, not a"):
        chsh_violation(s, state)


def test_chsh_strategy_rejects_non_contraction():
    with pytest.raises(ValidationError):
        ChshStrategy(1, (2 * SIGMA_Z, SIGMA_X), (SIGMA_Z, SIGMA_X))


def test_magic_square_table_structure():
    tab = magic_square_table()
    eye = np.eye(4)
    assert np.allclose(tab[2, 2], np.kron(np.array([[0, -1j], [1j, 0]]),
                                          np.array([[0, -1j], [1j, 0]])))
    for i in range(3):
        assert np.abs(tab[i, 0] @ tab[i, 1] @ tab[i, 2] - eye).max() < 1e-12
    for j in range(2):
        assert np.abs(tab[0, j] @ tab[1, j] @ tab[2, j] - eye).max() < 1e-12
    assert np.abs(tab[0, 2] @ tab[1, 2] @ tab[2, 2] + eye).max() < 1e-12
    for i in range(3):
        for j in range(3):
            assert normalized_trace(tab[i, j]) == pytest.approx(0.0)
            assert np.abs(tab[i, j] @ tab[i, j] - eye).max() < 1e-12


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.99])
def test_canonical_magic_square_value(rho):
    rep = magic_square_value(canonical_magic_square_strategy(1), rho)
    assert rep.overall == pytest.approx((1 + rho) / 2, abs=1e-12)
    assert rep.parity_pass == pytest.approx(1.0, abs=1e-12)
    assert rep.consistency_pass == pytest.approx((1 + rho) / 2, abs=1e-12)


def test_magic_square_register_invariance():
    a = magic_square_value(canonical_magic_square_strategy(2, register=1), 0.6).overall
    b = magic_square_value(canonical_magic_square_strategy(2, register=2), 0.6).overall
    assert a == pytest.approx(b, abs=1e-12)


def test_magic_square_dense_cross_check():
    strat = canonical_magic_square_strategy(1)
    state = make_depolarized_epr(0.6, 1, pair_registers=True)
    dense = magic_square_value(strat, 0.6, dense_state=state)
    fast = magic_square_value(strat, 0.6)
    assert dense.overall == pytest.approx(fast.overall, abs=1e-10)


def test_magic_square_dense_cross_check_random():
    rng = np.random.default_rng(17)
    state = make_depolarized_epr(0.45, 1, pair_registers=True)
    for kind in ("projective", "raw"):
        strat = random_magic_square_strategy(1, rng, kind=kind)
        dense = magic_square_value(strat, 0.45, dense_state=state)
        fast = magic_square_value(strat, 0.45)
        assert dense.overall == pytest.approx(fast.overall, abs=1e-9)
        assert dense.parity_pass == pytest.approx(fast.parity_pass, abs=1e-9)
        assert dense.consistency_pass == pytest.approx(fast.consistency_pass, abs=1e-9)


def test_magic_square_zero_bob():
    strat = canonical_magic_square_strategy(1)
    zero = {k: np.zeros((4, 4)) for k in strat.bob_observables}
    rep = magic_square_value(MagicSquareStrategy(1, strat.alice_povms, zero), 0.7)
    assert rep.consistency_pass == pytest.approx(0.5, abs=1e-12)


def test_derived_observable_examples():
    strat = canonical_magic_square_strategy(1)
    tab = magic_square_table()
    assert np.abs(derived_observable(strat.alice_povms["r1"], 1) - tab[0, 0]).max() < 1e-12
    uniform = np.stack([np.eye(4) / 8] * 8)
    assert np.abs(derived_observable(uniform, 2)).max() < 1e-12
    with pytest.raises(ValidationError):
        derived_observable(strat.alice_povms["r1"], 4)


def test_ms_outcome_order():
    outs = ms_outcomes()
    assert outs[0] == (1, 1, 1)
    assert outs[-1] == (-1, -1, -1)
    assert len(set(outs)) == 8


def test_marginal_pair_observable_examples():
    a = SIGMA_Z
    b = SIGMA_X
    elems = []
    for av in (1, -1):
        for bv in (1, -1):
            elems.append(np.kron((np.eye(2) + av * a) / 2, (np.eye(2) + bv * b) / 2))
    povm = np.stack(elems)
    assert np.abs(marginal_pair_observable(povm, "first") - np.kron(a, np.eye(2))).max() < 1e-12
    assert np.abs(marginal_pair_observable(povm, "second") - np.kron(np.eye(2), b)).max() < 1e-12
    uniform = np.stack([np.eye(4) / 4] * 4)
    assert np.abs(marginal_pair_observable(uniform, "first")).max() < 1e-12
    with pytest.raises(ValidationError):
        marginal_pair_observable(povm, "third")


@pytest.mark.parametrize("n", [2, 3])
def test_canonical_two_out_of_n_value(n):
    rep = two_out_of_n_value(canonical_two_out_of_n_strategy(n), 0.7)
    assert rep.win_prob == pytest.approx(0.5 + np.sqrt(2) * 0.7 / 4, abs=1e-12)
    assert rep.violation == pytest.approx(2 * np.sqrt(2) * 0.7, abs=1e-12)


def test_two_out_of_n_with_spare_registers():
    rep = two_out_of_n_value(canonical_two_out_of_n_strategy(2, n_prime=3), 0.7)
    assert rep.win_prob == pytest.approx(0.5 + np.sqrt(2) * 0.7 / 4, abs=1e-12)


def test_two_out_of_n_zero_noise():
    rep = two_out_of_n_value(canonical_two_out_of_n_strategy(2), 0.0)
    assert rep.win_prob == pytest.approx(0.5, abs=1e-12)


def test_two_out_of_n_value_depends_only_on_marginals():
    # two strategies whose pair POVMs differ but share both signed marginals
    # must evaluate identically: smooth toward the uniform POVM (scales both
    # marginals), then add the correlation pattern ab*K which preserves
    # completeness and both marginals and stays PSD inside the smoothing slack
    base = canonical_two_out_of_n_strategy(2)
    mu, nu = 0.4, 0.2
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def smooth(povms):
        return {key: np.stack([(1 - mu) * e + mu * np.eye(e.shape[0]) / 4 for e in povm])
                for key, povm in povms.items()}

    def tweak(povms):
        out = {}
        for key, povm in povms.items():
            o1 = marginal_pair_observable(povm, "first")
            o2 = marginal_pair_observable(povm, "second")
            k = nu / 4 * (np.eye(povm.shape[1]) - o1 @ o2 / (1 - mu) ** 2)
            out[key] = np.stack([povm[idx] + av * bv * k
                                 for idx, (av, bv) in enumerate(signs)])
        return out

    smoothed = TwoOutOfNStrategy(2, 2, base.alice_singles, base.bob_singles,
                                 smooth(base.alice_pair_povms),
                                 smooth(base.bob_pair_povms))
    tweaked = TwoOutOfNStrategy(2, 2, base.alice_singles, base.bob_singles,
                                tweak(smoothed.alice_pair_povms),
                                tweak(smoothed.bob_pair_povms))
    a = two_out_of_n_value(smoothed, 0.7)
    b = two_out_of_n_value(tweaked, 0.7)
    assert b.win_prob == pytest.approx(a.win_prob, abs=1e-12)
    assert any(np.abs(tweaked.bob_pair_povms[k] - smoothed.bob_pair_povms[k]).max() > 1e-3
               for k in smoothed.bob_pair_povms)


def test_pair_key_canonicalization():
    assert pair_key(2, 1, 1, 0) == (1, 0, 2, 1)
    assert pair_key(1, 0, 2, 1) == (1, 0, 2, 1)
    with pytest.raises(ValidationError):
        pair_key(1, 0, 1, 1)


def test_trace_error_examples():
    assert trace_error(canonical_chsh_strategy(1)) == pytest.approx(0.0)
    assert trace_error(canonical_magic_square_strategy(1)) == pytest.approx(0.0)
    assert trace_error(canonical_two_out_of_n_strategy(2)) == pytest.approx(0.0)
    biased = ChshStrategy(
        1, (np.diag([1.0, 0.0]), SIGMA_X),
        ((SIGMA_Z + SIGMA_X) / np.sqrt(2), (SIGMA_Z - SIGMA_X) / np.sqrt(2)))
    assert trace_error(biased) == pytest.approx(0.5)


def test_add_trace_bias():
    op = add_trace_bias(SIGMA_Z, 0.2)
    assert normalized_trace(op) == pytest.approx(0.2)
    assert np.linalg.norm(op, 2) <= 1 + 1e-12


def test_perturbed_strategy_value_drop():
    rho = 0.7
    for theta in (0.1, 0.3):
        rep = chsh_violation(perturbed_chsh_strategy(1, 1, theta), rho)
        assert rep.violation == pytest.approx(2 * np.sqrt(2) * rho * np.cos(theta), abs=1e-9)


def test_random_ms_strategies_valid():
    rng = np.random.default_rng(11)
    for kind in ("projective", "mixed", "raw"):
        strat = random_magic_square_strategy(1, rng, kind=kind)
        rep = magic_square_value(strat, 0.5)
        assert 0.0 <= rep.overall <= 1.0


def test_embed_on_register_bounds():
    with pytest.raises(ValidationError):
        embed_on_register(SIGMA_Z, 2, 3)


def test_pair_evaluator_noise_forms():
    # a fidelity reuses one validated (basis, transposed basis) pair per
    # local dimension; a correlation spectrum brings its own bases and values
    low, high = PairEvaluator(0.3), PairEvaluator(0.9)
    assert low.basis_a is high.basis_a and low.basis_b is high.basis_b
    assert np.array_equal(low.basis_b.elements, low.basis_a.elements.transpose(0, 2, 1))
    assert PairEvaluator(0.5, m=4).basis_a.m == 4
    spectrum = diagonalize_correlation(make_depolarized_epr(0.6, 1))
    ev = PairEvaluator(spectrum)
    assert ev.basis_a is spectrum.basis_a and ev.basis_b is spectrum.basis_b
    strat = canonical_chsh_strategy(1)
    assert ev.pair(strat.alice[0], strat.bob[0]) == pytest.approx(
        PairEvaluator(0.6).pair(strat.alice[0], strat.bob[0]), abs=1e-12)
    with pytest.raises(ValidationError, match="fidelity parameter"):
        PairEvaluator(1.5)
    with pytest.raises(ValidationError, match="unsupported noise"):
        PairEvaluator([0.5, 0.5])


# ---------------------------------------------------------------------------
# stacked evaluation against the dense path

SEEDS = st.integers(0, 2 ** 32 - 1)
RHOS = st.floats(0.0, 1.0)


def random_correlated_state(rng) -> BipartiteState:
    """A Bell-diagonal two-qubit state turned by local unitaries: its
    marginals are maximally mixed, so it has a correlation spectrum."""
    bell = [np.array([1, 0, 0, 1]), np.array([1, 0, 0, -1]),
            np.array([0, 1, 1, 0]), np.array([0, 1, -1, 0])]
    weights = rng.dirichlet(np.ones(4))
    density = sum(p * np.outer(v, v) / 2 for p, v in zip(weights, bell))
    local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return BipartiteState(2, 2, local @ density @ local.conj().T)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 2), kind=st.sampled_from(["binary", "bounded"]),
       bias=st.sampled_from([0.0, 0.3]), rho=RHOS, seed=SEEDS)
def test_chsh_value_matches_dense_for_rho(n, kind, bias, rho, seed):
    strat = random_chsh_strategy(n, np.random.default_rng(seed), kind=kind, trace_bias=bias)
    fast = chsh_violation(strat, rho)
    dense = chsh_violation_dense(strat, make_depolarized_epr(rho, n))
    assert fast.violation == pytest.approx(dense.violation, abs=1e-12)
    for key in fast.per_question:
        assert fast.per_question[key] == pytest.approx(dense.per_question[key], abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 2), seed=SEEDS)
def test_chsh_value_matches_dense_for_a_correlation_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    state = random_correlated_state(rng)
    strat = random_chsh_strategy(n, rng, kind="bounded", trace_bias=0.2)
    # the spectrum's weights act register by register: the n-fold product state
    fast = chsh_violation(strat, diagonalize_correlation(state)).violation
    dense = chsh_violation_dense(strat, tensor_bipartite([state] * n)).violation
    assert fast == pytest.approx(dense, abs=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 2), kind=st.sampled_from(["projective", "mixed", "raw"]),
       rho=RHOS, seed=SEEDS)
def test_magic_square_value_matches_dense(n, kind, rho, seed):
    strat = random_magic_square_strategy(n, np.random.default_rng(seed), kind=kind,
                                         trace_bias=0.2)
    fast = magic_square_value(strat, rho)
    state = make_depolarized_epr(rho, n, pair_registers=True)
    dense = magic_square_value(strat, rho, dense_state=state)
    for attr in ("overall", "parity_pass", "consistency_pass"):
        assert getattr(fast, attr) == pytest.approx(getattr(dense, attr), abs=1e-12)
    assert list(fast.per_variable) == list(dense.per_variable)
    for key, entry in fast.per_variable.items():
        for name, value in entry.items():
            assert value == pytest.approx(dense.per_variable[key][name], abs=1e-12)


def random_pair_povm(d, rng):
    raw = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    raw = np.einsum("kij,klj->kil", raw, raw.conj())
    vals, vecs = np.linalg.eigh(raw.sum(axis=0))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.stack([inv_sqrt @ e @ inv_sqrt for e in raw])


def random_two_out_of_n_strategy(n, rng) -> TwoOutOfNStrategy:
    d = 2 ** n
    singles = [{(i, x): random_traceless_binary(d, rng) for i in range(1, n + 1)
                for x in (0, 1)} for _ in range(2)]
    keys = [(i, y, j, z) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for y in (0, 1) for z in (0, 1)]
    pairs = [{key: random_pair_povm(d, rng) for key in keys} for _ in range(2)]
    return TwoOutOfNStrategy(n, n, singles[0], singles[1], pairs[0], pairs[1])


def two_out_of_n_value_dense(strategy, state) -> float:
    """The game's win probability from explicit joint-density traces, one
    operator pair at a time."""
    def expect(a, b):
        return float(np.trace(np.kron(a, b) @ state.density).real)

    n = strategy.n
    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            acc = 0.0
            for y in (0, 1):
                for z in (0, 1):
                    r_bob = strategy.pair_marginal("bob", i, y, j, z)
                    t_alice = strategy.pair_marginal("alice", i, y, j, z)
                    for x in (0, 1):
                        sign = -1.0 if (x, y) == (1, 1) else 1.0
                        acc += (1 + sign * expect(strategy.alice_singles[(i, x)], r_bob)) / 4
                        acc += (1 + sign * expect(t_alice, strategy.bob_singles[(i, x)])) / 4
            total += acc / 8.0
    return total / (n * (n - 1))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3), rho=RHOS, seed=SEEDS)
def test_two_out_of_n_value_matches_dense(n, rho, seed):
    strat = random_two_out_of_n_strategy(n, np.random.default_rng(seed))
    dense = two_out_of_n_value_dense(strat, make_depolarized_epr(rho, n))
    assert two_out_of_n_value(strat, rho).win_prob == pytest.approx(dense, abs=1e-12)


def two_out_of_n_report_loop(n, a, b, w):
    """The value from expand_stacks rows by one nested loop over the
    contexts: a frozen copy of the per-context report that the context
    table's gather replaced."""
    from noisygames.games import CHSH_SIGNS, _pair_keys, _pair_marginal_rows

    ns = 2 * n
    single_alice = (a[:ns] * w) @ _pair_marginal_rows(n, b).T
    single_bob = (b[:ns] * w) @ _pair_marginal_rows(n, a).T
    pair_totals = {}
    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            acc = 0.0
            for y in (0, 1):
                for z in (0, 1):
                    key = pair_key(i, y, j, z)
                    col = 2 * _pair_keys(n).index(key) + (key[0] != i)
                    for x in (0, 1):
                        sign = CHSH_SIGNS[(x, y)]
                        row = 2 * (i - 1) + x
                        acc += 0.5 * (1 + sign * single_alice[row, col]) / 2
                        acc += 0.5 * (1 + sign * single_bob[row, col]) / 2
            value = acc / 8.0
            pair_totals[f"{i},{j}"] = value
            total += value
    win = total / (n * (n - 1))
    return 8 * (win - 0.5), win, pair_totals


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind, noise", [
    ("perturbed", "depolarizing"), ("random", "depolarizing"),
    ("perturbed", "bit-phase-flip"), ("random", "bit-phase-flip"),
], ids=["perturbed", "random", "perturbed-bit-phase-flip", "random-bit-phase-flip"])
def test_two_out_of_n_report_matches_the_context_loop(n, kind, noise):
    # the report reads the Gram pair of the noise-moved singles against the
    # raw elements; the loop reads both players' expanded rows, so the two
    # also cross-check the transfer against the rows
    from noisygames.games import PairEvaluator, _two_out_of_n_grams, _two_out_of_n_report

    rng = np.random.default_rng([1414, n])
    rho = float(rng.uniform(0.3, 1.0))
    if kind == "perturbed":
        strat = perturbed_two_out_of_n_strategy(n, float(rng.uniform(-np.pi, np.pi)),
                                                index=int(rng.integers(1, n + 1)))
    else:
        strat = random_two_out_of_n_strategy(n, rng)
    if noise == "bit-phase-flip":
        rho = diagonalize_correlation(bit_phase_flip_epr(0.5 + rho / 2))
    report = _two_out_of_n_report(n, *_two_out_of_n_grams(strat, rho))
    violation, win, per_pair = two_out_of_n_report_loop(
        n, *PairEvaluator(rho).expand_stacks(*strat.stacks))
    assert abs(report.violation - violation) <= 1e-12
    assert abs(report.win_prob - win) <= 1e-12
    assert list(report.per_question) == list(per_pair)
    for key, value in per_pair.items():
        assert abs(report.per_question[key] - value) <= 1e-12


def test_two_out_of_n_value_names_n_below_two():
    with pytest.raises(ValidationError, match="need n >= 2 indices, got n = 1"):
        two_out_of_n_value(canonical_two_out_of_n_strategy(1), 0.9)


def test_infinite_observable_is_rejected():
    # an inf entry used to pass validation and make chsh_violation NaN
    base = canonical_chsh_strategy(1)
    op = base.alice[0].astype(complex)
    op[0, 0] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        ChshStrategy(1, (op, base.alice[1]), base.bob)


def test_pair_evaluator_builds_one_weight_vector_per_register_count():
    ev = PairEvaluator(0.7)
    assert ev.weight_vector(3) is ev.weight_vector(3)
    assert np.array_equal(ev.weight_vector(3), register_weight_vector(ev.weights, 3))
    strat = random_chsh_strategy(2, np.random.default_rng(4), kind="bounded")
    a, b = ev.expand_a(strat.alice[0]), ev.expand_b(strat.bob[1])
    # the cached vector feeds the same expression as before
    assert ev.pair(strat.alice[0], strat.bob[1]) == float(
        np.sum(register_weight_vector(ev.weights, 2) * a.coeffs * b.coeffs))


# ---------------------------------------------------------------------------
# the noise channel, PairEvaluator.move, on qubit and 4-dimensional registers


def _random_hermitians(k, d, rng):
    g = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    return (g + g.conj().swapaxes(1, 2)) / 2


def _move(rho, m, ops, first=True):
    """A stack of one player's operators moved through depolarizing noise of
    fidelity rho into the other player's basis."""
    ev = PairEvaluator(rho, m=m)
    return ev.move(pauli_expand(ops, ev.basis_a if first else ev.basis_b).coeffs, first)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("first", [True, False])
def test_move_scales_each_coefficient_by_rho_to_its_degree(m, n, first):
    ev = PairEvaluator(0.6, m=m)
    own, other = (ev.basis_a, ev.basis_b) if first else (ev.basis_b, ev.basis_a)
    coeffs = pauli_expand(_random_hermitians(3, m ** n, np.random.default_rng([11, m, n])),
                          own).coeffs
    moved = pauli_expand(ev.move(coeffs, first), other).coeffs
    assert np.abs(moved - coeffs * 0.6 ** degree_vector(m, n)).max() < 1e-12


_XZ = np.kron(SIGMA_X, SIGMA_Z)


@pytest.mark.parametrize("m, op, rho, expected", [
    (2, SIGMA_X, 1.0, SIGMA_X),
    (2, SIGMA_X, 0.6, 0.6 * SIGMA_X),
    (2, SIGMA_Y, 0.6, 0.6 * SIGMA_Y.T),  # into the transposed basis
    (2, _XZ, 0.5, 0.25 * _XZ),
    (2, np.kron(SIGMA_Z, SIGMA_Z), 0.5, 0.25 * np.kron(SIGMA_Z, SIGMA_Z)),
    (2, np.eye(2), 0.3, np.eye(2)),
    (4, _XZ, 0.6, 0.6 * _XZ),  # one 4-dimensional register: degree one
    (4, np.kron(_XZ, _XZ), 0.5, 0.25 * np.kron(_XZ, _XZ)),
    (4, np.eye(4), 0.3, np.eye(4)),
])
def test_move_examples(m, op, rho, expected):
    assert np.abs(_move(rho, m, op[None])[0] - expected).max() < 1e-12


@pytest.mark.parametrize("m, n", [(2, 3), (4, 1)])
def test_move_composes(m, n):
    # there at 0.9 and back at 0.7 is one move at 0.63, transposed; a move at
    # fidelity 1 is the transpose
    ops = _random_hermitians(2, m ** n, np.random.default_rng([5, m]))
    back = _move(0.7, m, _move(0.9, m, ops), first=False)
    assert np.abs(back - _move(0.63, m, ops).swapaxes(1, 2)).max() < 1e-12
    assert np.abs(_move(1.0, m, ops) - ops.swapaxes(1, 2)).max() < 1e-12


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("rho", [-0.1, 1.5, np.nan])
def test_move_rejects_a_bad_fidelity(m, rho):
    with pytest.raises(ValidationError, match="fidelity parameter must lie in"):
        PairEvaluator(rho, m=m)


@pytest.mark.parametrize("m", [2, 4])
def test_move_scales_traceless_degree_one_exactly(m):
    # a traceless operator on register 1 of 2: every coefficient it has is of
    # degree one, and its weight is rho itself
    ev = PairEvaluator(0.37, m=m)
    vec = np.random.default_rng(8).normal(size=m * m - 1)
    op = np.kron(np.tensordot(vec / np.linalg.norm(vec), ev.basis_a.elements[1:], axes=1),
                 np.eye(m))
    coeffs = pauli_expand(op, ev.basis_a).coeffs
    assert np.array_equal(coeffs * ev.weight_vector(2), 0.37 * coeffs)
    assert np.abs(ev.move(coeffs[None])[0] - 0.37 * op.T).max() < 1e-15


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (4, 1)])
def test_move_matches_the_dense_channel(m, n):
    # tr(F~ M) / d is <F (x) M> on depolarized pairs, whichever player holds F
    f, g = _random_hermitians(2, m ** n, np.random.default_rng([9, m, n]))
    state = make_depolarized_epr(0.42, n, pair_registers=m == 4).density
    dense = np.trace(np.kron(f, g) @ state).real
    for moved, other in ((_move(0.42, m, f[None]), g), (_move(0.42, m, g[None], False), f)):
        assert np.trace(moved[0] @ other).real / m ** n == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("kind", ["projective", "mixed", "raw"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bias", [0.0, 0.2])
def test_magic_square_gram_value_matches_dense(kind, n, bias):
    rng = np.random.default_rng([7, n, int(10 * bias)])
    for _ in range(2):
        strat = random_magic_square_strategy(n, rng, kind=kind, trace_bias=bias)
        rho = float(rng.uniform(0.2, 1.0))
        fast = magic_square_value(strat, rho)
        state = make_depolarized_epr(rho, n, pair_registers=True)
        dense = magic_square_value(strat, rho, dense_state=state)
        for attr in ("overall", "parity_pass", "consistency_pass"):
            assert getattr(fast, attr) == pytest.approx(getattr(dense, attr), abs=1e-12)
        assert list(fast.per_variable) == list(dense.per_variable)
        for key, entry in fast.per_variable.items():
            assert list(entry) == ["consistency", "win"]
            for name, value in entry.items():
                assert value == pytest.approx(dense.per_variable[key][name], abs=1e-12)


def test_gram_rejects_a_nan_reaching_the_product():
    # the raw elements are never expanded, so a NaN among them first meets
    # the Gram product, whose discarded imaginary part is checked as an
    # expansion's residue is
    alice, bob = canonical_two_out_of_n_strategy(2).stacks
    elems = bob[4:].copy()
    elems[3, 1, 0] = np.nan
    ev = PairEvaluator(0.8)
    assert np.isfinite(ev.gram(alice[:4], bob[4:])).all()
    with pytest.raises(ValidationError, match="pairings have imaginary residue nan"):
        ev.gram(alice[:4], elems)


@pytest.mark.parametrize("build", [random_chsh_strategy, random_magic_square_strategy])
@pytest.mark.parametrize("bias", [np.nan, np.inf, -0.5, 1.5])
def test_random_constructors_reject_a_bad_trace_bias_before_drawing(build, bias):
    rng = np.random.default_rng(5)
    with pytest.raises(ValidationError, match=r"trace_bias must be a finite number in \[0, 1\]"):
        build(1, rng, trace_bias=bias)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("build, kind, kinds", [
    (random_chsh_strategy, "typo", "binary, bounded"),
    (random_chsh_strategy, "projective", "binary, bounded"),
    (random_magic_square_strategy, "typo", "projective, mixed, raw"),
    (random_magic_square_strategy, "bounded", "projective, mixed, raw")])
def test_random_constructors_reject_an_unknown_kind_before_drawing(build, kind, kinds):
    rng = np.random.default_rng(5)
    with pytest.raises(ValidationError, match=rf"kind '{kind}'; expected one of {kinds}$"):
        build(1, rng, kind=kind)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("build", [random_chsh_strategy, random_magic_square_strategy])
def test_random_constructors_accept_full_trace_bias(build):
    assert trace_error(build(1, np.random.default_rng(5), trace_bias=1.0)) <= 1.0 + 1e-12


@pytest.mark.parametrize("run, expected", [
    (lambda: chsh_violation(random_chsh_strategy(2, np.random.default_rng(0)), 0.8), 2),
    # the magic square expands only Bob's nine observables (PairEvaluator.gram)
    (lambda: magic_square_value(canonical_magic_square_strategy(1), 0.8), 1),
    (lambda: trace_error(canonical_two_out_of_n_strategy(3)), 0),
], ids=["chsh-value", "magic-square-value", "trace-error"])
def test_values_expand_each_player_once_and_trace_error_expands_nothing(monkeypatch, run,
                                                                       expected):
    import sys

    calls = []

    def counting(mat, basis, **kwargs):
        calls.append(kwargs)
        return pauli_expand(mat, basis, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("noisygames") and getattr(module, "pauli_expand", None) is pauli_expand:
            monkeypatch.setattr(module, "pauli_expand", counting)
    run()
    # strategy members were checked by the constructor and are not re-checked
    assert calls == [{"validated": True}] * expected
