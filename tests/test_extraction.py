import numpy as np
import pytest

from noisygames.certificates import chsh_sos_certificate, ms_consistency_certificate
from noisygames.extraction import (
    _relation_norms,
    chsh_selftest,
    general_noise_selftest,
    loglog_slope,
    lp_min_bruteforce,
    lp_min_closed_form,
    ms_local_unitary,
    ms_selftest,
    nearest_binary_observable,
    pauli_pair_unitary,
    register_concentration,
    selftest,
    two_out_of_n_selftest,
)
from noisygames.games import (
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    embed_on_register,
    haar_unitary,
    magic_square_table,
    magic_square_value,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_traceless_binary,
)
from noisygames.pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    hs_distance,
    normalized_trace,
    pauli_basis,
    pauli_expand,
)
from noisygames.states import (
    bit_phase_flip_epr,
    canonicalize_to_epr,
    diagonalize_correlation,
    make_depolarized_epr,
)

THETAS = (0.02, 0.05, 0.1, 0.2, 0.3)


def test_commutation_norms():
    z, x = SIGMA_Z, SIGMA_X
    anti = _relation_norms(np.stack([z, z]), np.stack([x, (z + x) / np.sqrt(2)]), 1)
    assert anti == pytest.approx([0.0, np.sqrt(2)])
    assert _relation_norms(z[None], x[None], -1) == pytest.approx([2.0])
    assert _relation_norms(np.kron(z, np.eye(2))[None],
                           np.kron(np.eye(2), x)[None], -1) == pytest.approx([0.0])


def test_nearest_binary_examples():
    rep = nearest_binary_observable(np.diag([0.9, -1.1]))
    assert np.abs(rep.observable - SIGMA_Z).max() < 1e-12
    assert rep.distance == pytest.approx(0.1)
    rng = np.random.default_rng(0)
    binary = random_traceless_binary(4, rng)
    rep = nearest_binary_observable(binary)
    assert rep.distance == pytest.approx(0.0, abs=1e-12)
    rep = nearest_binary_observable(np.zeros((2, 2)))
    assert np.abs(rep.observable - np.eye(2)).max() == 0.0
    assert rep.distance == pytest.approx(1.0)


def test_nearest_binary_is_minimal():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    best = nearest_binary_observable(h).distance
    for _ in range(100):
        cand = random_traceless_binary(4, rng)
        assert hs_distance(h, cand) >= best - 1e-12


def test_pauli_pair_unitary_examples():
    ext = pauli_pair_unitary(SIGMA_Z, SIGMA_X)
    assert ext.dist_z < 1e-12 and ext.dist_x < 1e-12
    ext = pauli_pair_unitary(SIGMA_X, SIGMA_Z)
    assert ext.dist_z < 1e-12 and ext.dist_x < 1e-12
    ext = pauli_pair_unitary(SIGMA_Z, (SIGMA_X + SIGMA_Y) / np.sqrt(2))
    assert ext.dist_z < 1e-12 and ext.dist_x < 1e-12
    assert ext.theta == pytest.approx(np.pi / 4)


def test_pauli_pair_unitary_properties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_traceless_binary(2, rng)
        b = random_traceless_binary(2, rng)
        ext = pauli_pair_unitary(a, b)
        u = ext.unitary
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-10
        # conjugation preserves distances
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h1, h2 = (m1 + m1.conj().T) / 2, (m2 + m2.conj().T) / 2
        assert hs_distance(u @ h1 @ u.conj().T, u @ h2 @ u.conj().T) == pytest.approx(
            hs_distance(h1, h2), abs=1e-12)


def test_pauli_pair_unitary_degenerate_flag():
    ext = pauli_pair_unitary(SIGMA_Z, SIGMA_Z)
    assert ext.degenerate
    assert ext.theta == 0.0


def test_pauli_pair_unitary_theta_does_not_follow_the_eigenvector_phase():
    # two operators 3e-17 apart, for which LAPACK returns eigenvectors of
    # opposite sign; without a fixed phase theta read 2.6034 and 0.5382
    exts = []
    for imag in (-0.24357828932064116, -0.24357828932064113):
        off = -0.48616994787881346 + 1j * imag
        a = np.array([[0.8392308375835232, off], [np.conj(off), -0.8392308375835232]])
        exts.append(pauli_pair_unitary(a, SIGMA_X))
    assert exts[0].theta == pytest.approx(exts[1].theta, abs=1e-12)
    assert exts[0].theta == pytest.approx(0.5382053282911031, abs=1e-12)
    assert exts[0].dist_x == pytest.approx(exts[1].dist_x, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.4, -1.1, 2.5, np.pi])
def test_pauli_pair_unitary_theta_is_the_equatorial_angle(t):
    # SIGMA_Z's lower eigenvector (0, 1) has a zero first component, so its
    # second component sets the phase
    ext = pauli_pair_unitary(SIGMA_Z, np.cos(t) * SIGMA_X + np.sin(t) * SIGMA_Y)
    assert ext.theta == pytest.approx(abs(t), abs=1e-12)
    assert ext.dist_z < 1e-12 and ext.dist_x < 1e-12


def test_canonicalization_uses_the_pair_extraction_frame():
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    canon = canonicalize_to_epr(spectrum.basis_a, spectrum.basis_b)
    for basis, u in ((spectrum.basis_a, canon.u), (spectrum.basis_b, canon.v)):
        ext = pauli_pair_unitary(basis.elements[3], basis.elements[1])
        assert np.abs(ext.unitary - u).max() < 1e-12


def test_register_concentration_examples():
    op = embed_on_register(SIGMA_Z, 3, 1)
    rc = register_concentration(op)
    assert rc.register == 1
    assert np.allclose(rc.weights, [1.0, 0.0, 0.0])
    assert rc.residual == pytest.approx(0.0)

    mix = 0.99 * embed_on_register(SIGMA_Z, 2, 2) + 0.1 * np.kron(SIGMA_Z, SIGMA_Z)
    rc = register_concentration(mix / np.linalg.norm(mix, 2))
    assert rc.register == 2
    assert 0.05 < rc.residual < 0.15

    sym = (embed_on_register(SIGMA_Z, 2, 1) + embed_on_register(SIGMA_Z, 2, 2)) / np.sqrt(2)
    rc = register_concentration(sym)
    assert rc.tie
    assert rc.margin == pytest.approx(0.0)
    assert np.allclose(rc.weights, [1 / np.sqrt(2)] * 2)

    rc = register_concentration(np.eye(4))
    assert rc.register is None


def test_register_concentration_weight_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (g + g.conj().T) / 2
        rc = register_concentration(h)
        assert (rc.weights ** 2).sum() <= normalized_trace(h @ h) + 1e-9
    # equality for traceless degree-one operators
    op = 0.6 * embed_on_register(SIGMA_X, 2, 1) + 0.8 * embed_on_register(SIGMA_Z, 2, 2)
    rc = register_concentration(op)
    assert (rc.weights ** 2).sum() == pytest.approx(normalized_trace(op @ op), abs=1e-12)


def test_local_operator_normalization():
    rc = register_concentration(0.5 * embed_on_register(SIGMA_X, 2, 1))
    local = rc.local_operators[0]
    assert normalized_trace(local @ local) == pytest.approx(1.0)
    assert np.abs(local - SIGMA_X).max() < 1e-12


def test_ms_local_unitary_examples():
    tab = magic_square_table()
    ext = ms_local_unitary(tab[1, 1], tab[0, 0], tab[0, 1])
    assert max(ext.dist_zi, ext.dist_xi, ext.dist_ix) < 1e-12
    rng = np.random.default_rng(4)
    w = haar_unitary(4, rng)
    rot = [w @ tab[k] @ w.conj().T for k in ((1, 1), (0, 0), (0, 1))]
    ext = ms_local_unitary(*rot)
    assert max(ext.dist_zi, ext.dist_xi, ext.dist_ix) < 1e-9
    u = ext.unitary
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10


def test_ms_local_unitary_perturbation_monotone():
    tab = magic_square_table()
    dists = []
    for delta in (0.02, 0.05, 0.1):
        w = np.kron(np.cos(delta) * np.eye(2) - 1j * np.sin(delta) * SIGMA_Y, np.eye(2))
        a = w @ tab[1, 1] @ w.conj().T
        ext = ms_local_unitary(a, tab[0, 0], tab[0, 1])
        dists.append(max(ext.dist_zi, ext.dist_xi, ext.dist_ix))
    assert dists[0] < dists[1] < dists[2]


def test_lp_examples_and_oracle():
    assert lp_min_closed_form([2, 1], 1, 2) == pytest.approx(4 / 3)
    assert lp_min_closed_form([2, 1], 1, 4) == pytest.approx(2.0)  # all mass on first
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        a = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
        t1 = float(rng.uniform(0.2, 2.0))
        t2 = float(rng.uniform(a[-1] ** 2, a[0] ** 2)) * t1
        assert lp_min_closed_form(a, t1, t2) == pytest.approx(
            lp_min_bruteforce(a, t1, t2), abs=1e-6)
    with pytest.raises(ValidationError):
        lp_min_closed_form([2, 1], 1.0, 5.0)
    with pytest.raises(ValidationError):
        lp_min_closed_form([1, 2], 1.0, 1.0)


# ---------------------------------------------------------------------------
# full game self-tests


def test_chsh_selftest_canonical():
    rep = chsh_selftest(canonical_chsh_strategy(3, register=2), 0.7)
    assert rep["register"] == 2
    assert not rep["registerAmbiguous"]
    assert rep.max_distance < 1e-9
    assert rep["epsV"] == pytest.approx(0.0, abs=1e-9)
    assert rep["epsTr"] == pytest.approx(0.0, abs=1e-12)


def test_chsh_selftest_scaling_sweep():
    eps, dists = [], []
    for theta in THETAS:
        rep = chsh_selftest(perturbed_chsh_strategy(3, 2, theta), 0.7)
        assert rep["register"] == 2
        eps.append(rep["epsV"])
        dists.append(rep.max_distance)
    assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
    assert 0.4 <= loglog_slope(eps, dists) <= 0.6


def test_chsh_selftest_recovers_rotated_strategy():
    # a unitarily disguised optimum (Bob rotated by the conjugate so exact
    # optimality is preserved) must come back with all distances at noise level
    from noisygames.games import ChshStrategy, chsh_violation, conjugate_on_register

    rng = np.random.default_rng(66)
    w = haar_unitary(2, rng)
    base = canonical_chsh_strategy(2, register=2)
    alice = tuple(conjugate_on_register(p, w, 2, 2) for p in base.alice)
    bob = tuple(conjugate_on_register(q, w.conj(), 2, 2) for q in base.bob)
    rotated = ChshStrategy(2, alice, bob)
    assert chsh_violation(rotated, 0.7).violation == pytest.approx(
        2 * np.sqrt(2) * 0.7, abs=1e-12)
    rep = chsh_selftest(rotated, 0.7)
    assert rep["register"] == 2
    assert rep.max_distance < 1e-9


def test_chsh_selftest_rho_independence_of_raw_distances():
    strat = perturbed_chsh_strategy(2, 1, 0.15)
    r1 = chsh_selftest(strat, 0.7)
    r2 = chsh_selftest(strat, 0.95)
    assert r1["relationDistances"] == r2["relationDistances"]
    assert r1["antiCommutators"] == r2["antiCommutators"]


def test_ms_selftest_canonical():
    rep = ms_selftest(canonical_magic_square_strategy(2, register=1), 0.7)
    assert rep["register"] == 1
    assert rep.max_distance < 1e-9
    assert max(rep["pauliDistances"].values()) < 1e-9
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in rep["wrongParityMass"].values())


def test_ms_selftest_sweep():
    eps, dists = [], []
    for theta in THETAS:
        rep = ms_selftest(perturbed_magic_square_strategy(2, 1, theta), 0.7)
        assert rep["register"] == 1
        eps.append(rep["epsWin"])
        dists.append(rep.max_distance)
    assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
    assert 0.4 <= loglog_slope(eps, dists) <= 0.6


def test_ms_selftest_single_rotated_observable():
    rep0 = ms_selftest(perturbed_magic_square_strategy(1, 1, 0.05,
                                                       only_variable=(1, 1)), 0.7)
    rep1 = ms_selftest(perturbed_magic_square_strategy(1, 1, 0.15,
                                                       only_variable=(1, 1)), 0.7)
    assert 0 < rep0["pVsQtDistances"]["s11"] < rep1["pVsQtDistances"]["s11"]
    assert rep0["pVsQtDistances"]["s12"] < 1e-9


def test_ms_selftest_recovers_rotated_strategy():
    # canonical strategy conjugated by a random local unitary on the active
    # register (Bob by the conjugate, preserving exact consistency) must be
    # pulled back onto the measurement table by the extracted unitary
    from noisygames.games import MagicSquareStrategy

    rng = np.random.default_rng(55)
    w = haar_unitary(4, rng)
    base = canonical_magic_square_strategy(1)
    povms = {q: np.stack([w @ e @ w.conj().T for e in base.alice_povms[q]])
             for q in base.alice_povms}
    bob = {k: w.conj() @ v @ w.T for k, v in base.bob_observables.items()}
    rotated = MagicSquareStrategy(1, povms, bob)
    value = magic_square_value(rotated, 0.7)
    assert value.overall == pytest.approx(0.85, abs=1e-12)  # still exactly optimal
    rep = ms_selftest(rotated, 0.7)
    assert rep.max_distance < 1e-9
    assert max(rep["pauliDistances"].values()) < 1e-9


def test_ms_selftest_uniform_povm_flags_parity():
    strat = canonical_magic_square_strategy(1)
    povms = dict(strat.alice_povms)
    povms["r1"] = np.stack([np.eye(4) / 8] * 8)
    from noisygames.games import MagicSquareStrategy

    rep = ms_selftest(MagicSquareStrategy(1, povms, strat.bob_observables), 0.7)
    assert rep["wrongParityMass"]["r1"] == pytest.approx(0.5)


def test_two_out_of_n_selftest_canonical():
    rep = two_out_of_n_selftest(canonical_two_out_of_n_strategy(3), 0.7)
    assert rep["registers"] == {"1": 1, "2": 2, "3": 3}
    assert rep["distinct"]
    assert rep.max_distance < 1e-9


def test_two_out_of_n_selftest_sweep():
    eps, dists = [], []
    for theta in THETAS:
        rep = two_out_of_n_selftest(perturbed_two_out_of_n_strategy(3, theta), 0.7)
        assert rep["distinct"]
        eps.append(rep["epsV"])
        dists.append(rep.max_distance)
    assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))
    assert 0.4 <= loglog_slope(eps, dists) <= 0.6


def test_two_out_of_n_collision_detected():
    base = canonical_two_out_of_n_strategy(2)
    singles = dict(base.alice_singles)
    singles[(2, 0)] = base.alice_singles[(1, 0)]
    singles[(2, 1)] = base.alice_singles[(1, 1)]
    conflicted = TwoOutOfNStrategy(2, 2, singles, dict(base.bob_singles),
                                   dict(base.alice_pair_povms),
                                   dict(base.bob_pair_povms))
    rep = two_out_of_n_selftest(conflicted, 0.7)
    assert not rep["distinct"]
    assert rep["collisions"] and rep["collisions"][0]["contradiction"] == pytest.approx(1.0)


def test_selftest_dispatch():
    assert selftest(canonical_chsh_strategy(1), 0.5)["register"] == 1
    assert selftest(canonical_magic_square_strategy(1), 0.5)["register"] == 1
    assert selftest(canonical_two_out_of_n_strategy(2), 0.5)["distinct"]
    with pytest.raises(ValidationError):
        selftest(canonical_chsh_strategy(1), 1.0)


def test_general_noise_selftest_bit_phase_flip():
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    rep = general_noise_selftest(canonical_chsh_strategy(1), spectrum)
    assert rep["r"] == pytest.approx(0.8, abs=1e-9)
    assert rep["c"] == pytest.approx(0.6, abs=1e-9)
    assert rep["violation"] == pytest.approx(2 * np.sqrt(2) * 0.8, abs=1e-9)
    assert rep.max_distance < 1e-9
    assert not rep["nonlocalityWarning"]


def test_general_noise_matches_depolarizing_selftest():
    spectrum = diagonalize_correlation(make_depolarized_epr(0.7, 1))
    strat = canonical_chsh_strategy(1)
    gen = general_noise_selftest(strat, spectrum)
    dep = chsh_selftest(strat, 0.7)
    assert gen["violation"] == pytest.approx(dep["violation"], abs=1e-9)
    assert gen["registerAlice"] == dep["register"]
    assert gen.max_distance < 1e-9


def test_general_noise_rejects_unequal_correlations():
    from noisygames.states import CorrelationSpectrum
    from noisygames.pauli import pauli_basis

    spec = CorrelationSpectrum(pauli_basis(), pauli_basis().transposed(),
                               np.array([1.0, 0.9, 0.5, 0.4]))
    with pytest.raises(ValidationError):
        general_noise_selftest(canonical_chsh_strategy(1), spec)


def test_general_noise_warns_without_nonlocality():
    spectrum = diagonalize_correlation(make_depolarized_epr(0.55, 1))
    rep = general_noise_selftest(canonical_chsh_strategy(1), spectrum)
    assert rep["nonlocalityWarning"]  # 2 sqrt(2) * 0.55 < 2


def test_general_noise_selftest_multiregister():
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    rep = general_noise_selftest(canonical_chsh_strategy(2, register=2), spectrum)
    assert rep["violation"] == pytest.approx(2 * np.sqrt(2) * 0.8, abs=1e-9)
    assert rep["registerAlice"] == 2 and rep["registerBob"] == 2
    assert rep.max_distance < 1e-9


def test_general_noise_bound_soundness():
    # the value bound 2 sqrt(2) r also holds for traceless strategies under
    # diagonal-correlation noise with leading correlation r
    from noisygames.games import chsh_violation, random_chsh_strategy

    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    rng = np.random.default_rng(41)
    worst = -np.inf
    for k in range(300):
        strat = random_chsh_strategy(1 + k % 2, rng, kind=("binary", "bounded")[k % 2])
        worst = max(worst, chsh_violation(strat, spectrum).violation)
    assert worst <= 2 * np.sqrt(2) * 0.8 + 1e-9


def test_general_noise_rejects_other_games():
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    for strat in (canonical_magic_square_strategy(1), canonical_two_out_of_n_strategy(2)):
        with pytest.raises(ValidationError, match="no general-noise self-test for strategy type"):
            general_noise_selftest(strat, spectrum)


@pytest.mark.parametrize("run, expected", [
    (lambda: chsh_sos_certificate(perturbed_chsh_strategy(2, 1, 0.2), 0.8), 2),
    (lambda: ms_consistency_certificate(perturbed_magic_square_strategy(1, 1, 0.2), 0.8,
                                        (2, 3)), 2),
    (lambda: chsh_selftest(perturbed_chsh_strategy(2, 1, 0.2), 0.7), 2),
    (lambda: ms_selftest(perturbed_magic_square_strategy(1, 1, 0.2), 0.7), 2),
    (lambda: two_out_of_n_selftest(perturbed_two_out_of_n_strategy(5, 0.2), 0.7), 2),
    (lambda: general_noise_selftest(perturbed_chsh_strategy(2, 1, 0.2),
                                    diagonalize_correlation(bit_phase_flip_epr(0.8))), 3),
], ids=["chsh-certificate", "ms-certificate", "chsh-selftest", "ms-selftest",
        "two-out-of-5-selftest", "general-noise-selftest"])
def test_reports_expand_each_player_once(monkeypatch, run, expected):
    # one stacked expansion per player (general noise adds one of its four
    # transported observables); building the strategies expands nothing
    import sys

    calls = []

    def counting(mat, basis, **kwargs):
        calls.append(np.shape(mat))
        return pauli_expand(mat, basis, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("noisygames") and getattr(module, "pauli_expand", None) is pauli_expand:
            monkeypatch.setattr(module, "pauli_expand", counting)
    run()
    assert len(calls) == expected, calls
