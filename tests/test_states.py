import numpy as np
import pytest

from noisygames.pauli import StandardBasis, ValidationError, pauli_basis
from noisygames.states import (
    BipartiteState,
    bit_phase_flip_epr,
    canonicalize_to_epr,
    correlation_matrix,
    diagonalize_correlation,
    make_depolarized_epr,
    make_epr_power,
    maximal_correlation,
    ppt_separability_2x2,
    tensor_bipartite,
)


def test_epr_pair_entries():
    state = make_epr_power(1)
    rho = state.density
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert rho[i, j] == pytest.approx(0.5)
    assert np.abs(rho).sum() == pytest.approx(2.0)


def test_epr_marginals_maximally_mixed():
    state = make_epr_power(1)
    assert np.abs(state.marginal("a") - np.eye(2) / 2).max() < 1e-12
    assert np.abs(state.marginal("b") - np.eye(2) / 2).max() < 1e-12


def test_epr_power_purity():
    assert make_epr_power(2).purity() == pytest.approx(1.0)


def test_depolarized_limits():
    assert np.abs(make_depolarized_epr(1.0, 1).density
                  - make_epr_power(1).density).max() < 1e-12
    assert np.abs(make_depolarized_epr(0.0, 1).density - np.eye(4) / 4).max() < 1e-12


def test_depolarized_eigenvalues():
    eigs = np.sort(np.linalg.eigvalsh(make_depolarized_epr(0.7, 1).density))
    assert np.allclose(eigs, [0.075, 0.075, 0.075, 0.775])


def test_depolarized_marginals_all_n():
    state = make_depolarized_epr(0.6, 2)
    d = state.dim_a
    assert np.abs(state.marginal("a") - np.eye(d) / d).max() < 1e-12
    assert np.abs(state.marginal("b") - np.eye(d) / d).max() < 1e-12


def test_tensor_bipartite_register_reordering():
    # factors regroup as (A1 A2) x (B1 B2); marginals multiply accordingly
    s1 = make_depolarized_epr(0.9, 1)
    s2 = make_depolarized_epr(0.4, 1)
    joint = tensor_bipartite([s1, s2])
    assert joint.dim_a == 4 and joint.dim_b == 4
    assert np.abs(joint.marginal("a") - np.kron(s1.marginal("a"), s2.marginal("a"))).max() < 1e-12
    b = pauli_basis()
    corr1 = correlation_matrix(s1, b, b.transposed())
    corr2 = correlation_matrix(s2, b, b.transposed())
    # spot-check one product-index expectation against the factor correlations
    op_a = np.kron(b.elements[3], b.elements[1])
    op_b = np.kron(b.transposed().elements[3], b.transposed().elements[1])
    val = np.trace(joint.density @ np.kron(op_a, op_b)).real
    assert val == pytest.approx(corr1[3, 3] * corr2[1, 1], abs=1e-12)


def test_pair_register_depolarization_equivalence():
    # joint 4-dim depolarizing equals independent qubit channels with the
    # product of parameters
    both_sides = tensor_bipartite([make_depolarized_epr(0.9, 1)])
    b = pauli_basis()
    corr = correlation_matrix(both_sides, b, b.transposed())
    # applying the qubit channel on each side multiplies correlations once per side
    state_prod = BipartiteState(2, 2, _two_sided_qubit_channel(make_epr_power(1).density, 0.9, 0.9))
    corr_prod = correlation_matrix(state_prod, b, b.transposed())
    corr_joint = correlation_matrix(make_depolarized_epr(0.81, 1), b, b.transposed())
    assert np.abs(corr_prod - corr_joint).max() < 1e-12
    assert np.abs(state_prod.density - make_depolarized_epr(0.81, 1).density).max() < 1e-12


def _two_sided_qubit_channel(rho, p1, p2):
    out = p1 * rho + (1 - p1) * np.kron(np.eye(2) / 2, _partial_a(rho))
    out = p2 * out + (1 - p2) * np.kron(_partial_b(out), np.eye(2) / 2)
    return out


def _partial_a(rho):
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def _partial_b(rho):
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def test_correlation_matrix_depolarized():
    b = pauli_basis()
    corr = correlation_matrix(make_depolarized_epr(0.7, 1), b, b.transposed())
    assert np.allclose(corr, np.diag([1.0, 0.7, 0.7, 0.7]), atol=1e-12)


def test_correlation_matrix_product_state():
    b = pauli_basis()
    state = BipartiteState(2, 2, np.eye(4) / 4)
    corr = correlation_matrix(state, b, b.transposed())
    assert np.allclose(corr, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12)


def test_correlation_matrix_bit_phase_flip():
    b = pauli_basis()
    corr = correlation_matrix(bit_phase_flip_epr(0.8), b, b.transposed())
    assert np.allclose(corr, np.diag([1.0, 0.8, 0.6, 0.8]), atol=1e-12)


def test_tensor_product_correlation():
    # correlation of the two-copy state equals the tensor square of the
    # single-copy correlation on product indices
    b = pauli_basis()
    one = correlation_matrix(make_depolarized_epr(0.6, 1), b, b.transposed())
    state2 = make_depolarized_epr(0.6, 2)
    d = 4
    elems = b.elements
    elems_t = b.transposed().elements
    for xi in range(4):
        for xj in range(4):
            for yi in range(4):
                for yj in range(4):
                    val = np.trace(state2.density @ np.kron(
                        np.kron(elems[xi], elems[xj]),
                        np.kron(elems_t[yi], elems_t[yj]))).real
                    assert val == pytest.approx(one[xi, yi] * one[xj, yj], abs=1e-10)


def test_diagonalize_correlation_depolarized():
    spec = diagonalize_correlation(make_depolarized_epr(0.7, 1))
    assert np.allclose(spec.values, [1.0, 0.7, 0.7, 0.7], atol=1e-10)
    assert maximal_correlation(make_depolarized_epr(0.7, 1)) == pytest.approx(0.7)


def test_diagonalize_correlation_separable_and_pure():
    assert np.allclose(diagonalize_correlation(BipartiteState(2, 2, np.eye(4) / 4)).values,
                       [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert maximal_correlation(make_epr_power(1)) == pytest.approx(1.0)


def test_diagonalize_correlation_unitary_invariance():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    u = np.kron(q, np.eye(2))
    rotated = BipartiteState(2, 2, u @ make_depolarized_epr(0.7, 1).density @ u.conj().T)
    assert np.allclose(diagonalize_correlation(rotated).values, [1.0, 0.7, 0.7, 0.7],
                       atol=1e-9)


def test_diagonalize_correlation_random_diagonal_states():
    # states (1/4)(I + a XX' + b YY' + c ZZ') with primes through a transpose
    # have singular values (1, |a|, |b|, |c|); recovered up to sorting
    rng = np.random.default_rng(44)
    b = pauli_basis()
    elems_t = b.transposed().elements
    for _ in range(20):
        raw = rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3]
        coeffs = raw * rng.choice([-1.0, 1.0], size=3)
        rho = np.eye(4, dtype=complex) / 4
        for k in range(3):
            rho = rho + coeffs[k] / 4 * np.kron(b.elements[k + 1], elems_t[k + 1])
        spec = diagonalize_correlation(BipartiteState(2, 2, rho))
        expected = np.concatenate([[1.0], np.sort(np.abs(coeffs))[::-1]])
        assert np.allclose(spec.values, expected, atol=1e-10)


def test_diagonalize_rejects_biased_marginals():
    biased = BipartiteState(2, 2, np.diag([0.4, 0.3, 0.2, 0.1]))
    with pytest.raises(ValidationError):
        diagonalize_correlation(biased)


def test_ppt_examples():
    rep = ppt_separability_2x2(make_epr_power(1))
    assert not rep.separable
    assert rep.min_eigenvalue == pytest.approx(-0.5)
    boundary = ppt_separability_2x2(make_depolarized_epr(1 / 3, 1))
    assert boundary.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert boundary.separable
    assert ppt_separability_2x2(BipartiteState(2, 2, np.eye(4) / 4)).separable
    with pytest.raises(ValidationError):
        ppt_separability_2x2(make_epr_power(2))


def test_ppt_flip_point():
    flips = [rho for rho in np.arange(0.330, 0.340, 0.001)
             if not ppt_separability_2x2(make_depolarized_epr(float(rho), 1)).separable]
    assert flips and abs(flips[0] - 1 / 3) <= 2e-3


def test_canonicalize_pauli_pair():
    rep = canonicalize_to_epr(pauli_basis(), pauli_basis().transposed())
    assert rep.verified
    assert rep.y_sign_a * rep.y_sign_b == -1
    assert rep.epr_distance < 1e-9
    assert np.abs(rep.u @ rep.u.conj().T - np.eye(2)).max() < 1e-12


def test_canonicalize_rotated_basis_round_trip():
    rng = np.random.default_rng(33)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    elems = np.stack([np.eye(2)] + [q @ e @ q.conj().T for e in pauli_basis().elements[1:]])
    rep = canonicalize_to_epr(StandardBasis(2, elems), pauli_basis().transposed())
    assert rep.verified and rep.epr_distance < 1e-9


def test_canonicalize_sign_failure_reported():
    # the plain Pauli basis on both sides has sign product +1; the reassembled
    # operator is not a quantum state and verification must fail
    rep = canonicalize_to_epr(pauli_basis(), pauli_basis())
    assert rep.y_sign_a * rep.y_sign_b == 1
    assert not rep.verified
    assert rep.epr_distance > 0.1
    assert rep.min_eigenvalue < -1e-3


def test_state_validation():
    with pytest.raises(ValidationError):
        BipartiteState(2, 2, np.diag([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValidationError):
        BipartiteState(2, 2, np.eye(4))
    with pytest.raises(ValidationError):
        make_depolarized_epr(1.2, 1)
    with pytest.raises(ValidationError):
        make_epr_power(7)  # exceeds the joint-dimension cap


@pytest.mark.parametrize("n", [0, -1])
def test_depolarized_epr_needs_a_register(n):
    with pytest.raises(ValidationError, match=f"n = {n}"):
        make_depolarized_epr(0.5, n)


def test_tensor_of_no_states_is_refused():
    with pytest.raises(ValidationError, match="at least one state"):
        tensor_bipartite([])
