import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisygames.pauli import (
    DENSE_MAX_COEFFS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    default_basis,
    degree_vector,
    hs_distance,
    matrix_from_json,
    matrix_to_json,
    noisy_epr_expectation,
    normalized_trace,
    pauli_basis,
    pauli_expand,
    pauli_expand_naive,
    pauli_reconstruct,
    require_hermitian,
    two_qubit_pauli_basis,
)
from noisygames.pauli import PauliExpansion, StandardBasis, _contract
from noisygames.states import bit_phase_flip_epr, diagonalize_correlation


def random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def test_normalized_trace_examples():
    assert normalized_trace(np.eye(4)) == pytest.approx(1.0)
    assert normalized_trace(SIGMA_Z) == pytest.approx(0.0)
    assert normalized_trace(np.diag([0.3, 0.3, -0.1, -0.1])) == pytest.approx(0.1)


def test_normalized_trace_rejects_bad_input():
    with pytest.raises(ValidationError):
        normalized_trace(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        normalized_trace(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expand_basis_element():
    exp = pauli_expand(np.kron(SIGMA_Z, np.eye(2)), pauli_basis())
    expected = np.zeros(16)
    expected[3 * 4 + 0] = 1.0  # index (3, 0)
    assert np.allclose(exp.coeffs, expected)


def test_expand_z_plus_x():
    exp = pauli_expand((SIGMA_Z + SIGMA_X) / np.sqrt(2), pauli_basis())
    assert exp.coeffs[1] == pytest.approx(1 / np.sqrt(2))
    assert exp.coeffs[3] == pytest.approx(1 / np.sqrt(2))
    assert exp.coeffs[0] == pytest.approx(0.0)
    assert exp.coeffs[2] == pytest.approx(0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fast_transform_matches_trace_oracle(n):
    rng = np.random.default_rng(10 + n)
    basis = pauli_basis()
    for _ in range(5):
        h = random_hermitian(2 ** n, rng)
        fast = pauli_expand(h, basis).coeffs
        naive = pauli_expand_naive(h, basis).coeffs
        assert np.abs(fast - naive).max() < 1e-10


def test_fast_transform_matches_oracle_two_qubit_registers():
    rng = np.random.default_rng(77)
    basis = two_qubit_pauli_basis()
    for n in (1, 2):
        h = random_hermitian(4 ** n, rng)
        assert np.abs(pauli_expand(h, basis).coeffs
                      - pauli_expand_naive(h, basis).coeffs).max() < 1e-10


def test_reconstruct_round_trip():
    rng = np.random.default_rng(3)
    for basis, n in ((pauli_basis(), 3), (two_qubit_pauli_basis(), 2)):
        h = random_hermitian(basis.m ** n, rng)
        exp = pauli_expand(h, basis)
        assert np.abs(pauli_reconstruct(exp) - h).max() < 1e-10
    # a (k, m^(2n)) stack rebuilds each member bit for bit as one matrix
    for basis, n in ((pauli_basis(), 1), (pauli_basis(), 3),
                     (two_qubit_pauli_basis(), 1), (two_qubit_pauli_basis(), 2)):
        hs = np.stack([random_hermitian(basis.m ** n, rng) for _ in range(5)])
        exp = pauli_expand(hs, basis)
        stack = pauli_reconstruct(exp)
        assert stack.shape == hs.shape
        assert np.abs(stack - hs).max() < 1e-10
        for row, member in zip(exp.coeffs, stack):
            one = PauliExpansion(exp.m, exp.n, row, exp.basis)
            assert np.array_equal(member, pauli_reconstruct(one))


def test_reconstruct_trivial_cases():
    basis = pauli_basis()
    zero = pauli_expand(np.zeros((4, 4)), basis)
    assert np.abs(pauli_reconstruct(zero)).max() == 0.0
    ident = pauli_expand(np.eye(4), basis)
    assert ident.coeffs[0] == pytest.approx(1.0)
    assert np.abs(pauli_reconstruct(ident) - np.eye(4)).max() < 1e-12


def test_parseval():
    rng = np.random.default_rng(4)
    h = random_hermitian(8, rng)
    exp = pauli_expand(h, pauli_basis())
    assert exp.coeffs @ exp.coeffs == pytest.approx(normalized_trace(h @ h), abs=1e-9)


def test_hs_distance_examples():
    assert hs_distance(SIGMA_Z, SIGMA_Z) == 0.0
    assert hs_distance(SIGMA_Z, SIGMA_X) == pytest.approx(np.sqrt(2))
    assert hs_distance(SIGMA_Z, 0.9 * SIGMA_Z) == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        hs_distance(SIGMA_Z, np.eye(4))


def test_noisy_epr_expectation_matches_dense():
    # coefficient pairing equals Tr((A x B) state) for the depolarized pair
    from noisygames.states import make_depolarized_epr

    rng = np.random.default_rng(9)
    a = random_hermitian(2, rng)
    b = random_hermitian(2, rng)
    rho = 0.42
    ea = pauli_expand(a, pauli_basis())
    eb = pauli_expand(b, pauli_basis().transposed())
    dense = np.trace(np.kron(a, b) @ make_depolarized_epr(rho, 1).density).real
    w = rho ** degree_vector(2, 1)
    assert noisy_epr_expectation(ea, eb, w) == pytest.approx(dense, abs=1e-12)


def test_degree_vector():
    deg = degree_vector(2, 2)
    assert deg[0] == 0 and deg[5] == 2 and deg[4] == 1


def test_basis_validation():
    bad = np.stack([np.eye(2), SIGMA_X, SIGMA_X, SIGMA_Z])
    with pytest.raises(ValidationError):
        StandardBasis(2, bad)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(11)
    m = random_hermitian(4, rng)
    assert np.abs(matrix_from_json(matrix_to_json(m)) - m).max() < 1e-15


# ---------------------------------------------------------------------------
# stacked expansion and non-finite input


def random_hermitian_stack(k, d, rng):
    g = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    return (g + g.conj().transpose(0, 2, 1)) / 2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([2, 4]), n=st.integers(1, 3), k=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_stacked_expand_rows_match_single_and_naive(m, n, k, seed, data):
    rng = np.random.default_rng(seed)
    basis = default_basis(m)
    if data.draw(st.booleans(), label="transposed basis"):
        basis = basis.transposed()
    stack = random_hermitian_stack(k, m ** n, rng)
    exp = pauli_expand(stack, basis)
    assert exp.coeffs.shape == (k, m ** (2 * n)) and (exp.m, exp.n) == (m, n)
    for r in range(k):
        assert np.abs(exp.coeffs[r] - pauli_expand(stack[r], basis).coeffs).max() < 1e-12
    # the per-coefficient oracle costs O(m^(4n)): one drawn row per example
    r = data.draw(st.integers(0, k - 1), label="row checked against the oracle")
    assert np.abs(exp.coeffs[r] - pauli_expand_naive(stack[r], basis).coeffs).max() < 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([2, 4]), n=st.integers(1, 2), k=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_stack_with_one_non_hermitian_member_raises(m, n, k, seed, data):
    rng = np.random.default_rng(seed)
    stack = random_hermitian_stack(k, m ** n, rng)
    bad = data.draw(st.integers(0, k - 1), label="bad member")
    i, j = data.draw(st.tuples(st.integers(0, m ** n - 1), st.integers(0, m ** n - 1))
                     .filter(lambda ij: ij[0] != ij[1]), label="entry")
    stack[bad, i, j] += data.draw(st.floats(1e-6, 1.0), label="skew")
    with pytest.raises(ValidationError, match=f"stack member {bad} is not Hermitian"):
        pauli_expand(stack, default_basis(m))


def test_single_matrix_expansion_keeps_its_shape():
    exp = pauli_expand(SIGMA_Z, pauli_basis())
    assert exp.coeffs.shape == (4,)
    stacked = pauli_expand(SIGMA_Z[None], pauli_basis())
    assert stacked.coeffs.shape == (1, 4)
    assert np.array_equal(stacked.coeffs[0], exp.coeffs)
    with pytest.raises(ValidationError, match="square matrix or a stack"):
        pauli_expand(np.zeros((2, 2, 2, 2)), pauli_basis())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_entries_are_rejected(bad):
    # inf - inf is NaN and NaN exceeds no tolerance, so these used to pass
    # the Hermiticity check
    op = SIGMA_Z.astype(complex)
    op[0, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        require_hermitian(op)
    with pytest.raises(ValidationError, match="non-finite"):
        pauli_expand(np.stack([SIGMA_X, op]), pauli_basis())
    with pytest.raises(ValidationError, match="non-finite"):
        matrix_from_json([[[float(np.real(bad)), float(np.imag(bad))], [0.0, 0.0]],
                          [[0.0, 0.0], [1.0, 0.0]]])


# ---------------------------------------------------------------------------
# the dense small-dimension path against the register-by-register contraction


def _bases(m):
    """The default basis, its transpose and, for qubits, both bases of a
    correlation spectrum."""
    base = default_basis(m)
    bases = [base, base.transposed()]
    if m == 2:
        spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
        bases += [spectrum.basis_a, spectrum.basis_b]
    return bases


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (2, 3), (4, 1)])
def test_dense_expansion_matches_the_contraction(m, n):
    assert m ** (2 * n) <= DENSE_MAX_COEFFS
    rng = np.random.default_rng([m, n])
    for basis in _bases(m):
        stack = random_hermitian_stack(5, m ** n, rng)
        for mat in (stack, stack[2]):
            dense = pauli_expand(mat, basis).coeffs
            contracted = _contract(mat, basis, n).real.reshape(dense.shape)
            assert np.abs(dense - contracted).max() <= 1e-15 * np.abs(mat).max()


@pytest.mark.parametrize("m, n", [(2, 4), (4, 2)])
def test_larger_operators_take_the_contraction(m, n):
    assert m ** (2 * n) > DENSE_MAX_COEFFS
    basis = default_basis(m)
    pauli_expand(random_hermitian_stack(2, m ** n, np.random.default_rng(0)), basis)
    assert n not in basis._transforms


def test_dense_transform_is_built_on_first_use_and_read_only():
    # a fresh instance: the built-in bases are shared, so other tests may
    # have built their transforms already
    basis = StandardBasis(2, pauli_basis().elements, name="pauli")
    assert basis._transforms == {}
    first = pauli_expand(np.kron(SIGMA_X, SIGMA_Z), basis)
    t = basis.dense_transform(2)
    assert list(basis._transforms) == [2] and t.shape == (16, 16)
    assert basis.dense_transform(2) is t and not t.flags.writeable
    assert np.array_equal(pauli_expand(np.kron(SIGMA_X, SIGMA_Z), basis).coeffs, first.coeffs)
    # one transform per basis instance: a transposed basis builds its own
    assert basis.transposed()._transforms == {}


def test_default_basis_is_built_once_and_immutable():
    for m in (2, 4):
        basis = default_basis(m)
        assert default_basis(m) is basis
        assert not basis.elements.flags.writeable
        with pytest.raises(AttributeError):
            basis.m = 3


def test_named_bases_are_the_shared_default_and_keep_their_transform():
    for named, m in ((pauli_basis, 2), (two_qubit_pauli_basis, 4)):
        assert named() is named() is default_basis(m)
    op = np.kron(np.kron(SIGMA_X, SIGMA_Y), SIGMA_Z)
    first = pauli_expand(op, pauli_basis())
    transform = pauli_basis().dense_transform(3)
    # a second expansion against a fresh call reuses the transform built once
    assert np.array_equal(pauli_expand(op, pauli_basis()).coeffs, first.coeffs)
    assert pauli_basis()._transforms[3] is transform


def test_validated_expansion_skips_only_the_hermitian_check():
    rng = np.random.default_rng(5)
    stack = random_hermitian_stack(3, 4, rng)
    basis = default_basis(2)
    assert np.array_equal(pauli_expand(stack, basis, validated=True).coeffs,
                          pauli_expand(stack, basis).coeffs)
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-3
    with pytest.raises(ValidationError, match="stack member 1 is not Hermitian"):
        pauli_expand(skewed, basis)
    # the anti-Hermitian part still surfaces as imaginary coefficients
    with pytest.raises(ValidationError, match="imaginary residue"):
        pauli_expand(skewed, basis, validated=True)
    with pytest.raises(ValidationError, match="square matrix or a stack"):
        pauli_expand(np.zeros((2, 2, 3)), basis, validated=True)


@pytest.mark.parametrize("m, n", [(2, 1), (4, 1), (2, 4)])
def test_validated_nan_stack_fails_the_residue_check(m, n):
    # NaN exceeds no tolerance, so the residue test is written to fail on it
    stack = random_hermitian_stack(2, m ** n, np.random.default_rng(1))
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="imaginary residue nan"):
        pauli_expand(stack, default_basis(m), validated=True)
    with pytest.raises(ValidationError, match="non-finite"):
        pauli_expand(stack, default_basis(m))
