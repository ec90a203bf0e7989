"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here exactly as stated.
"""

import time

import numpy as np
import pytest

from noisygames.certificates import (
    chsh_sos_certificate,
    chsh_upper_bound,
    classical_chsh_max_enumerated,
    classical_ms_max_enumerated,
    magic_square_upper_bound,
    ms_consistency_certificate,
)
from noisygames.extraction import (
    chsh_selftest,
    loglog_slope,
    lp_min_bruteforce,
    lp_min_closed_form,
    ms_selftest,
    nearest_binary_observable,
    two_out_of_n_selftest,
)
from noisygames.games import (
    ChshStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    chsh_violation,
    chsh_violation_dense,
    magic_square_value,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
    trace_error,
    two_out_of_n_value,
)
from noisygames.optimizer import grid_bruteforce_chsh_qubit, seesaw_chsh
from noisygames.pauli import (
    SIGMA_X,
    SIGMA_Z,
    hs_distance,
    pauli_basis,
    pauli_expand,
    pauli_expand_naive,
)
from noisygames.protocols import (
    ProtocolParams,
    derive_delta,
    estimate_noise_rate,
    play_chsh_rounds,
    run_protocol,
)
from noisygames.states import (
    bit_phase_flip_epr,
    diagonalize_correlation,
    make_depolarized_epr,
    maximal_correlation,
    ppt_separability_2x2,
)
from noisygames.extraction import general_noise_selftest

ROOT2 = np.sqrt(2.0)
THETAS = (0.02, 0.05, 0.1, 0.2, 0.3)


def report(number: int, ok: bool, detail: str):
    print(f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_acceptance_1_closed_form_optima():
    start = time.time()
    worst = 0.0
    for rho in (0.3, 0.7, 0.9):
        for n in (1, 3):
            v = chsh_violation(canonical_chsh_strategy(n, register=min(n, 2)), rho).violation
            worst = max(worst, abs(v - 2 * ROOT2 * rho))
        for n in (1, 2):
            rep = magic_square_value(canonical_magic_square_strategy(n), rho)
            worst = max(worst, abs(rep.overall - (1 + rho) / 2))
            worst = max(worst, abs(rep.parity_pass - 1.0))
        for n, npr in ((2, 3), (3, 3)):
            w = two_out_of_n_value(canonical_two_out_of_n_strategy(n, npr), rho).win_prob
            worst = max(worst, abs(w - (0.5 + ROOT2 * rho / 4)))
    elapsed = time.time() - start
    report(1, worst < 1e-9 and elapsed < 10,
           f"max deviation {worst:.2e} from closed forms, {elapsed:.1f}s")


def test_acceptance_2_bound_soundness():
    start = time.time()
    rng = np.random.default_rng(2024)
    rhos = (0.3, 0.6, 0.9)
    worst_traceless = -np.inf
    for k in range(10_000):
        n = 1 + k % 3
        rho = rhos[(k // 3) % 3]
        strat = random_chsh_strategy(n, rng, kind=("binary", "bounded")[k % 2])
        v = chsh_violation(strat, rho).violation
        worst_traceless = max(worst_traceless, v - 2 * ROOT2 * rho)
    worst_biased = -np.inf
    for k in range(10_000):
        n = 1 + k % 3
        rho = rhos[(k // 3) % 3]
        strat = random_chsh_strategy(n, rng, kind=("binary", "bounded")[k % 2],
                                     trace_bias=0.2)
        eps_tr = trace_error(strat)
        v = chsh_violation(strat, rho).violation
        worst_biased = max(worst_biased, v - chsh_upper_bound(rho, eps_tr))
    worst_ms = -np.inf
    for k in range(2500):
        n = 1 if k % 5 else 2
        rho = rhos[k % 3]
        bias = 0.0 if k % 2 else 0.2
        strat = random_magic_square_strategy(n, rng,
                                             kind=("projective", "mixed", "raw")[k % 3],
                                             trace_bias=bias)
        value = magic_square_value(strat, rho).overall
        worst_ms = max(worst_ms, value - magic_square_upper_bound(rho, trace_error(strat)))
    elapsed = time.time() - start
    ok = worst_traceless <= 1e-9 and worst_biased <= 1e-9 and worst_ms <= 1e-9
    report(2, ok and elapsed < 120,
           f"max bound excess: traceless {worst_traceless:.2e}, trace-bounded "
           f"{worst_biased:.2e}, magic square {worst_ms:.2e}; {elapsed:.0f}s")


def test_acceptance_3_sos_identity():
    rng = np.random.default_rng(3)
    worst_residual = 0.0
    worst_square = np.inf
    for k in range(700):
        n = 1 + k % 2
        strat = random_chsh_strategy(n, rng, kind=("binary", "bounded")[k % 2],
                                     trace_bias=(0.0, 0.15)[k % 2])
        cert = chsh_sos_certificate(strat, (0.4, 0.7, 0.95)[k % 3])
        worst_residual = max(worst_residual, abs(cert.residual))
        worst_square = min(worst_square,
                           min(v for _, v in cert.square_terms()))
    for k in range(300):
        strat = random_magic_square_strategy(1, rng, kind=("projective", "raw")[k % 2])
        cert = ms_consistency_certificate(strat, 0.6, ((1, 1), (2, 3), (3, 2))[k % 3])
        worst_residual = max(worst_residual, abs(cert.residual))
        worst_square = min(worst_square, cert.terms[0][1])
    ok = worst_residual < 1e-9 and worst_square >= -1e-9
    report(3, ok, f"max identity residual {worst_residual:.2e}, "
                  f"min square expectation {worst_square:.2e} over 1000 strategies")


def test_acceptance_4_transform_oracle():
    rng = np.random.default_rng(4)
    basis = pauli_basis()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(100):
            g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            h = (g + g.conj().T) / 2
            dev = np.abs(pauli_expand(h, basis).coeffs
                         - pauli_expand_naive(h, basis).coeffs).max()
            worst = max(worst, float(dev))
    worst_value = 0.0
    for n in (1, 2):
        state = make_depolarized_epr(0.58, n)
        for _ in range(25):
            strat = random_chsh_strategy(n, rng, kind="bounded")
            dev = abs(chsh_violation(strat, 0.58).violation
                      - chsh_violation_dense(strat, state).violation)
            worst_value = max(worst_value, dev)
    ok = worst < 1e-10 and worst_value < 1e-9
    report(4, ok, f"transform max deviation {worst:.2e}; "
                  f"coefficient-vs-dense value deviation {worst_value:.2e}")


def test_acceptance_5_selftest_scaling():
    start = time.time()
    rho = 0.7
    # CHSH: rotation family on register 2 of n=3
    eps, dists = [], []
    k_ok = True
    for theta in THETAS:
        rep = chsh_selftest(perturbed_chsh_strategy(3, 2, theta), rho)
        k_ok &= rep["register"] == 2
        eps.append(rep["epsV"])
        dists.append(rep.max_distance)
    base = chsh_selftest(canonical_chsh_strategy(3, register=2), rho)
    chsh_ok = (k_ok and base.max_distance < 1e-6
               and all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
               and 0.4 <= loglog_slope(eps, dists) <= 0.6)
    chsh_slope = loglog_slope(eps, dists)

    eps, dists = [], []
    l_ok = True
    for theta in THETAS:
        rep = ms_selftest(perturbed_magic_square_strategy(2, 1, theta), rho)
        l_ok &= rep["register"] == 1
        eps.append(rep["epsWin"])
        dists.append(rep.max_distance)
    base = ms_selftest(canonical_magic_square_strategy(2), rho)
    ms_ok = (l_ok and base.max_distance < 1e-6
             and all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
             and 0.4 <= loglog_slope(eps, dists) <= 0.6)
    ms_slope = loglog_slope(eps, dists)

    eps, dists = [], []
    s_ok = True
    for theta in THETAS:
        rep = two_out_of_n_selftest(perturbed_two_out_of_n_strategy(3, theta), rho)
        s_ok &= rep["distinct"]
        eps.append(rep["epsV"])
        dists.append(rep.max_distance)
    base = two_out_of_n_selftest(canonical_two_out_of_n_strategy(3), rho)
    toon_ok = (s_ok and base.max_distance < 1e-6
               and all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
               and 0.4 <= loglog_slope(eps, dists) <= 0.6)
    toon_slope = loglog_slope(eps, dists)
    elapsed = time.time() - start
    ok = chsh_ok and ms_ok and toon_ok and elapsed < 60
    report(5, ok, f"slopes: chsh {chsh_slope:.3f}, magic square {ms_slope:.3f}, "
                  f"2-out-of-n {toon_slope:.3f}; {elapsed:.0f}s")


def test_acceptance_6_protocol_statistics():
    honest = canonical_chsh_strategy(1)
    biased = ChshStrategy(1, (add_trace_bias(SIGMA_Z, 0.2), SIGMA_X), honest.bob)
    accepts = sum(
        run_protocol(ProtocolParams("chsh", 10_000, 0.01, seed=s, rho=0.8), honest).accept
        for s in range(200))
    rejects = sum(
        not run_protocol(ProtocolParams("chsh", 10_000, 0.01, seed=s, rho=0.8), biased).accept
        for s in range(200))
    ok = accepts >= 190 and rejects >= 198
    report(6, ok, f"honest accepted {accepts}/200 (need >= 190), "
                  f"biased rejected {rejects}/200 (need >= 198); "
                  f"3*delta = {3 * derive_delta(10_000, 0.01):.4f}")


def test_acceptance_7_noise_estimation():
    strat = canonical_chsh_strategy(1)
    hits = 0
    covered = 0
    confidence = 0.95
    for s in range(100):
        w = play_chsh_rounds(strat, 0.7, 100_000, seed=1000 + s)
        est = estimate_noise_rate("chsh", statistic=w, n_rounds=100_000,
                                  confidence=confidence)
        hits += abs(est.rho_hat - 0.7) <= 0.02
        covered += est.interval[0] <= 0.7 <= est.interval[1]
    # Hoeffding intervals are conservative: coverage must reach at least the
    # nominal rate minus 3% (it will in fact sit near 100%; see ledger)
    ok = hits >= 95 and covered >= 100 * (confidence - 0.03)
    report(7, ok, f"|rho_hat - 0.7| <= 0.02 in {hits}/100 runs (need >= 95); "
                  f"interval covered the truth in {covered}/100 "
                  f"(nominal {confidence:.0%})")


def test_acceptance_8_general_noise():
    state = bit_phase_flip_epr(0.8)
    spectrum = diagonalize_correlation(state)
    spec_ok = np.allclose(spectrum.values, [1.0, 0.8, 0.8, 0.6], atol=1e-9)
    corr_ok = abs(maximal_correlation(state) - 0.8) < 1e-9
    rep = general_noise_selftest(canonical_chsh_strategy(1), spectrum)
    value_ok = abs(rep["violation"] - 2 * ROOT2 * 0.8) < 1e-9
    dist_ok = rep.max_distance < 1e-9
    ok = spec_ok and corr_ok and value_ok and dist_ok
    report(8, ok, f"spectrum {np.round(spectrum.values, 6).tolist()}, "
                  f"violation {rep['violation']:.9f}, max distance {rep.max_distance:.2e}")


def test_acceptance_9_appendix_lemma_oracles():
    rng = np.random.default_rng(9)
    worst_lp = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        a = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
        t1 = float(rng.uniform(0.2, 2.0))
        t2 = float(rng.uniform(a[-1] ** 2, a[0] ** 2)) * t1
        worst_lp = max(worst_lp, abs(lp_min_closed_form(a, t1, t2)
                                     - lp_min_bruteforce(a, t1, t2)))
    nearest_ok = True
    for _ in range(20):
        d = int(rng.choice([2, 4]))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        best = nearest_binary_observable(h).distance
        nearest_ok &= all(hs_distance(h, random_traceless_binary(d, rng)) >= best - 1e-12
                          for _ in range(100))
    flip = None
    for rho in np.arange(1 / 3 - 0.005, 1 / 3 + 0.005, 1e-3):
        if not ppt_separability_2x2(make_depolarized_epr(float(rho), 1)).separable:
            flip = float(rho)
            break
    ppt_ok = flip is not None and abs(flip - 1 / 3) <= 2e-3
    classical_ok = (abs(classical_chsh_max_enumerated() - 0.75) < 1e-12
                    and abs(classical_ms_max_enumerated() - 17 / 18) < 1e-12)
    ok = worst_lp < 1e-6 and nearest_ok and ppt_ok and classical_ok
    report(9, ok, f"lp deviation {worst_lp:.2e}; nearest-binary minimal: {nearest_ok}; "
                  f"ppt flip at {flip}; classical baselines exact: {classical_ok}")


def test_acceptance_10_optimizer_tightness():
    ok = True
    details = []
    for rho in (0.5, 0.9):
        best = max(seesaw_chsh(rho, 1, init="random", seed=s).best_value
                   for s in range(50))
        grid = grid_bruteforce_chsh_qubit(rho, 64)
        target = 2 * ROOT2 * rho
        ok &= best >= target - 1e-6 and abs(grid - target) < 0.01
        details.append(f"rho={rho}: seesaw gap {target - best:.2e}, "
                       f"grid gap {abs(grid - target):.2e}")
    report(10, ok, "; ".join(details))
