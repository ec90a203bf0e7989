import hashlib

import numpy as np
import pytest

from noisygames import states
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
    density = make_epr_power(2).density
    assert np.trace(density @ density).real == pytest.approx(1.0)


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


# sha256 of make_depolarized_epr(rho, n, pair_registers).density's bytes,
# recorded while the product was still eigen-checked: how the product is
# checked must not move a bit.  Pair registers stop at n = 2, since n = 3 is
# a (4096, 4096) density and n = 4 exceeds JOINT_DIM_CAP
GOLDEN_DEPOLARIZED_EPR = {
    (False, 1, 0.37): "8ec6ebe38fdc9a95da2a7b6393c8814832253f214fb2b71b574c1dc1551b6869",
    (False, 1, 0.8): "ff1abfef9a474857b82433b208ee8de8f85bb8dae2d7331e1ad053e660824f6f",
    (False, 2, 0.37): "feed14f24c22c00077c384076f008c0232d08305467d1e6fd54081f6600dbbe1",
    (False, 2, 0.8): "7bab280e27b6147f1c65ede75c168fc83420f08670ccf9f41afe5849af2931f1",
    (False, 3, 0.37): "39278a154df2e7e224522c21f762c0a857f6c9e2f896c0453a65c3b815a8a16d",
    (False, 3, 0.8): "b62ada40f7d35fa2e1f61ab7aaf24138acdf3ebe05c66cdcd34ab44f498fe8fb",
    (False, 4, 0.37): "fd5dde812b4902d2e76d923240b10f982c1edd7698998eb30b634ebe805e2454",
    (False, 4, 0.8): "39592aca4bb1c4c93e84fc720b02f822915bd7d54da55c2975c1b526dc75ffb5",
    (True, 1, 0.37): "84f0b1f0bec23a981c41174dfab0800809bb7ae4b0146bfb63ecf42e57900cdd",
    (True, 1, 0.8): "b610dc9e9788465968f5ceea1520b9fa0c8c4e9aab1a51cd05cdba39731eeb98",
    (True, 2, 0.37): "bf4ee2ee0900f15ac6697bf9146a80968e2d25910294b64f5a703052bd9ca9d3",
    (True, 2, 0.8): "5ce8fb07044df6f606493b188d3cdb080a72e6e1c5072af3bdaf6c22bcaf3066",
}


@pytest.mark.parametrize("pair_registers, n, rho", list(GOLDEN_DEPOLARIZED_EPR))
def test_depolarized_epr_density_bits_are_kept(pair_registers, n, rho):
    density = make_depolarized_epr(rho, n, pair_registers).density
    assert density.dtype == complex and density.flags.c_contiguous
    assert hashlib.sha256(density.tobytes()).hexdigest() == \
        GOLDEN_DEPOLARIZED_EPR[(pair_registers, n, rho)]


@pytest.mark.parametrize("n, pair_registers", [(1, False), (4, False), (1, True), (2, True)])
def test_depolarized_epr_checks_eigenvalues_once(monkeypatch, n, pair_registers):
    # the register factor is checked; the tensor power of it, a product of
    # valid densities, is checked for its shape and trace only
    calls = []
    check = states._check_operators
    monkeypatch.setattr(states, "_check_operators",
                        lambda stack, *args: calls.append(stack.shape) or check(stack, *args))
    state = make_depolarized_epr(0.6, n, pair_registers)
    d = 4 if pair_registers else 2
    assert calls == [(1, d * d, d * d)]
    assert state.dim_a == state.dim_b == d ** n


def test_tensor_product_keeps_the_trace_check():
    half = BipartiteState(2, 2, np.eye(4) / 4)
    half.density = half.density / 2  # no longer a state, bypassing the check
    with pytest.raises(ValidationError, match="^density trace is 0.500000000000, not 1$"):
        tensor_bipartite([half, make_depolarized_epr(0.5, 1)])
