import numpy as np
import pytest

from noisygames.certificates import (
    SoSCertificate,
    certify,
    chsh_sos_certificate,
    chsh_upper_bound,
    classical_chsh_max_enumerated,
    classical_ms_max_enumerated,
    magic_square_upper_bound,
    ms_consistency_certificate,
)
from noisygames.games import (
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    chsh_violation_dense,
    perturbed_chsh_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
)
from noisygames.pauli import ValidationError


def test_bound_examples():
    assert chsh_upper_bound(0.8, 0.0) == pytest.approx(2.262742, abs=1e-6)
    assert chsh_upper_bound(0.5, 0.1) == pytest.approx(
        2 * np.sqrt(2) * 0.5 + np.sqrt(2) * 0.01 / 0.5, abs=1e-12)
    assert chsh_upper_bound(0.5, 0.1) == pytest.approx(1.442498, abs=1e-6)
    assert magic_square_upper_bound(0.6, 0.0) == pytest.approx(0.8)
    assert magic_square_upper_bound(0.6, 0.2) == pytest.approx(0.8 + 0.04 / 2.4, abs=1e-12)
    with pytest.raises(ValidationError, match="diverges at rho = 0$"):
        chsh_upper_bound(0.0, 0.1)
    with pytest.raises(ValidationError, match="diverges at rho = 0$"):
        magic_square_upper_bound(0.0, 0.1)
    # rho = 1 and eps_tr = 0 are the domain's edges
    assert chsh_upper_bound(1.0, 0.0) == 2 * np.sqrt(2)
    assert magic_square_upper_bound(1.0, 0.0) == 1.0
    for bound in (chsh_upper_bound, magic_square_upper_bound):
        for rho, eps, named in [(np.nan, 0.1, "rho in \\(0, 1\\], got nan"),
                                (1.5, 0.1, "rho in \\(0, 1\\], got 1.5"),
                                (-0.5, 0.1, "rho in \\(0, 1\\], got -0.5"),
                                (np.inf, 0.1, "rho in \\(0, 1\\], got inf"),
                                (0.5, np.nan, "eps_tr >= 0, got nan"),
                                (0.5, np.inf, "eps_tr >= 0, got inf"),
                                (0.5, -0.1, "eps_tr >= 0, got -0.1")]:
            with pytest.raises(ValidationError, match=f"{named}$"):
                bound(rho, eps)


def test_bound_monotonicity():
    rhos = np.linspace(0.2, 1.0, 9)
    eps = np.linspace(0.0, 0.3, 7)
    for e1, e2 in zip(eps, eps[1:]):
        assert chsh_upper_bound(0.5, e2) >= chsh_upper_bound(0.5, e1)
    for r1, r2 in zip(rhos, rhos[1:]):
        assert chsh_upper_bound(r2, 0.2) >= chsh_upper_bound(r1, 0.2) or r1 < 0.2


def test_canonical_certificate_is_tight():
    cert = chsh_sos_certificate(canonical_chsh_strategy(1), 0.8)
    assert cert.gap_expectation == pytest.approx(0.0, abs=1e-9)
    for label, value in cert.terms:
        assert value == pytest.approx(0.0, abs=1e-9), label
    assert abs(cert.residual) < 1e-9


def test_rotated_certificate_matches_dense_oracle():
    rho = 0.75
    for theta in (0.1, 0.35):
        strat = perturbed_chsh_strategy(1, 1, theta)
        cert = chsh_sos_certificate(strat, rho)
        dense_gap = chsh_upper_bound(rho, 0.0) - chsh_violation_dense(strat, rho).violation
        assert cert.gap_expectation == pytest.approx(dense_gap, abs=1e-9)
        assert cert.gap_expectation == pytest.approx(cert.term_sum(), abs=1e-9)
        assert cert.gap_expectation > 0


def test_alice_rotation_gap_closed_form():
    # rotating only the second Alice observable by theta costs
    # sqrt(2) rho (1 - cos theta) of violation; the certificate reproduces it
    rho, theta = 0.8, 0.1
    base = canonical_chsh_strategy(1)
    w = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array([[0, -1j], [1j, 0]])
    strat = type(base)(1, (base.alice[0], w @ base.alice[1] @ w.conj().T), base.bob)
    cert = chsh_sos_certificate(strat, rho)
    assert cert.gap_expectation == pytest.approx(
        np.sqrt(2) * rho * (1 - np.cos(theta)), abs=1e-12)
    assert cert.gap_expectation == pytest.approx(cert.term_sum(), abs=1e-9)


def test_certificate_identity_random_strategies():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        strat = random_chsh_strategy(n, rng, kind="bounded",
                                     trace_bias=float(rng.uniform(0, 0.2)))
        cert = chsh_sos_certificate(strat, 0.6)
        assert abs(cert.residual) < 1e-9
        for label, value in cert.square_terms():
            assert value >= -1e-9, label


def test_certificate_mirrored_decomposition():
    rng = np.random.default_rng(15)
    strat = random_chsh_strategy(2, rng)
    cert = chsh_sos_certificate(strat, 0.7, noise_on="alice")
    assert abs(cert.residual) < 1e-9
    with pytest.raises(ValidationError):
        chsh_sos_certificate(strat, 0.7, noise_on="elsewhere")


def test_certificate_rejects_zero_rho():
    with pytest.raises(ValidationError):
        chsh_sos_certificate(canonical_chsh_strategy(1), 0.0)


def test_ms_certificate_canonical():
    for ij in ((1, 1), (2, 3), (3, 2)):
        cert = ms_consistency_certificate(canonical_magic_square_strategy(1), 0.7, ij)
        assert cert.value == pytest.approx(0.7, abs=1e-12)
        assert cert.gap_expectation == pytest.approx(0.0, abs=1e-9)
        assert 0.5 + cert.value / 2 == pytest.approx((1 + 0.7) / 2, abs=1e-12)


def test_ms_certificate_zero_bob():
    strat = canonical_magic_square_strategy(1)
    zeroed = dict(strat.bob_observables)
    zeroed[(1, 2)] = np.zeros((4, 4))
    from noisygames.games import MagicSquareStrategy

    cert = ms_consistency_certificate(
        MagicSquareStrategy(1, strat.alice_povms, zeroed), 0.6, (1, 2))
    assert cert.value == pytest.approx(0.0, abs=1e-12)


def test_ms_certificate_random_strategies():
    rng = np.random.default_rng(16)
    for k in range(30):
        strat = random_magic_square_strategy(1, rng, kind=("projective", "raw")[k % 2])
        cert = ms_consistency_certificate(strat, 0.55, (2, 2))
        assert abs(cert.residual) < 1e-9
        assert cert.terms[0][1] >= -1e-9


@pytest.mark.parametrize("variable", [(0, 1), (4, 1), (1, 4), (1, 0), (-1, 2)])
def test_ms_certificate_names_an_out_of_range_variable(variable):
    # a row index outside 1..3 used to reach the POVM lookup as a KeyError
    with pytest.raises(ValidationError) as exc:
        ms_consistency_certificate(canonical_magic_square_strategy(1), 0.8, variable)
    assert str(exc.value) == ("variable must be (i, j) with i and j in 1..3, "
                              f"got ({variable[0]},{variable[1]})")


def test_certify_dispatch():
    cert = certify(canonical_chsh_strategy(1), 0.5)
    assert isinstance(cert, SoSCertificate) and cert.game == "chsh"
    cert = certify(canonical_magic_square_strategy(1), 0.5, (1, 3))
    assert cert.game == "magic_square"
    with pytest.raises(ValidationError):
        certify("not a strategy", 0.5)


def test_classical_enumeration_oracles():
    assert classical_chsh_max_enumerated() == pytest.approx(0.75)
    assert classical_ms_max_enumerated() == pytest.approx(17 / 18, abs=1e-12)
