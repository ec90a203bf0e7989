"""Shared bipartite states: EPR tensor powers, depolarized variants, general
diagonal-correlation noise, correlation matrices, and basis canonicalization.

Register ordering: the n-fold product of bipartite states is stored with all
first-player factors in front, (A_1..A_n) (x) (B_1..B_n).  Joint densities are
materialized only at small n; game values route through coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StandardBasis,
    ValidationError,
    _as_square,
    _check_operators,
    default_basis,
    hs_distance,
)

PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
MARGINAL_ATOL = 1e-8
JOINT_DIM_CAP = 4096


@dataclass
class BipartiteState:
    """Dense density matrix on C^dimA (x) C^dimB with PSD/trace validation."""

    dim_a: int
    dim_b: int
    density: np.ndarray

    def __post_init__(self):
        self._check(psd=True)

    def _check(self, psd: bool):
        """Check shape and trace and, with `psd`, finite Hermitian PSD entries."""
        rho = _as_square(self.density)
        if rho.shape[0] != self.dim_a * self.dim_b:
            raise ValidationError(
                f"density of shape {rho.shape} does not match dims ({self.dim_a},{self.dim_b})"
            )
        if psd:
            _check_operators(rho[None], ["density"], "psd", PSD_ATOL)
        trace = np.trace(rho).real
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density trace is {trace:.12f}, not 1")
        self.density = rho

    def marginal(self, side: str) -> np.ndarray:
        t = self.density.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        if side == "a":
            return np.einsum("ijkj->ik", t)
        if side == "b":
            return np.einsum("ijil->jl", t)
        raise ValidationError("side must be 'a' or 'b'")


def tensor_bipartite(states: list[BipartiteState]) -> BipartiteState:
    """Tensor bipartite states, regrouping factors into (all A) (x) (all B)."""
    if not states:
        raise ValidationError("need at least one state to tensor")
    das = [s.dim_a for s in states]
    dbs = [s.dim_b for s in states]
    da, db = int(np.prod(das)), int(np.prod(dbs))
    if da * db > JOINT_DIM_CAP:
        raise ValidationError(f"joint dimension {da * db} exceeds cap {JOINT_DIM_CAP}")
    rho = states[0].density
    for s in states[1:]:
        rho = np.kron(rho, s.density)
    k = len(states)
    dims = [d for pair in zip(das, dbs) for d in pair]
    t = rho.reshape(dims + dims)
    perm = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    perm = perm + [p + 2 * k for p in perm]
    # a product of valid densities is PSD: its eigenvalues are not checked again
    state = object.__new__(BipartiteState)
    state.dim_a, state.dim_b, state.density = da, db, t.transpose(perm).reshape(da * db, da * db)
    state._check(psd=False)
    return state


def epr_vector(n: int) -> np.ndarray:
    """State vector of n maximally-entangled qubit pairs in A-block/B-block order."""
    d = 2 ** n
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return v


def make_epr_power(n: int) -> BipartiteState:
    """Density matrix of n EPR pairs, ((|00>+|11>)/sqrt(2)) per pair."""
    if n < 1:
        raise ValidationError("need at least one register")
    d = 2 ** n
    if d * d > JOINT_DIM_CAP:
        raise ValidationError(f"joint dimension {d * d} exceeds cap {JOINT_DIM_CAP}")
    v = epr_vector(n)
    return BipartiteState(d, d, np.outer(v, v.conj()))


def make_depolarized_epr(rho: float, n: int, pair_registers: bool = False) -> BipartiteState:
    """n-fold product of depolarized EPR registers.

    With pair_registers=False each register is one depolarized EPR pair
    (rho * EPR + (1-rho)/4 * I); with True each register holds two EPR pairs
    depolarized jointly (rho * EPR2 + (1-rho)/16 * I) on 4-dim local factors.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"fidelity parameter must lie in [0, 1], got {rho}")
    if n < 1:
        raise ValidationError(f"need at least one register, got n = {n}")
    pairs = 2 if pair_registers else 1
    v = epr_vector(pairs)
    d = len(v)
    single = BipartiteState(2 ** pairs, 2 ** pairs,
                            rho * np.outer(v, v.conj()) + (1 - rho) * np.eye(d) / d)
    return tensor_bipartite([single] * n)


def bit_phase_flip_epr(rho: float) -> BipartiteState:
    """EPR pair through a channel mixing identity with equal-weight bit and
    phase flips; valid (PSD) for rho >= 1/2."""
    if not 0.5 <= rho <= 1.0:
        raise ValidationError(f"bit/phase-flip mixture needs rho in [1/2, 1], got {rho}")
    phi = make_epr_power(1).density
    fx = np.kron(SIGMA_X, np.eye(2))
    fz = np.kron(SIGMA_Z, np.eye(2))
    rho_m = rho * phi + (1 - rho) / 2 * (fx @ phi @ fx + fz @ phi @ fz)
    return BipartiteState(2, 2, rho_m)


# ---------------------------------------------------------------------------
# correlation matrices


def correlation_matrix(state: BipartiteState, basis_a: StandardBasis,
                       basis_b: StandardBasis) -> np.ndarray:
    """Real m^2 x m^2 matrix of expectations Tr(rho (A_i (x) B_j))."""
    if state.dim_a != basis_a.m or state.dim_b != basis_b.m:
        raise ValidationError("state local dimensions do not match the bases")
    da, db = state.dim_a, state.dim_b
    t = state.density.reshape(da, db, da, db)
    # corr[i, j] = sum_{pqrs} rho[p,q,r,s] A_i[r,p] B_j[s,q]
    out = np.einsum("pqrs,irp,jsq->ij", t, basis_a.elements, basis_b.elements)
    if np.abs(out.imag).max() > 1e-9:
        raise ValidationError("correlation matrix has imaginary residue")
    return out.real


@dataclass
class CorrelationSpectrum:
    """Bases diagonalizing the correlation matrix plus its singular values.

    values[0] = 1 corresponds to the identity components; values[1] is the
    maximal correlation of the state.
    """

    basis_a: StandardBasis
    basis_b: StandardBasis
    values: np.ndarray

    def maximal_correlation(self) -> float:
        return float(self.values[1])


def _require_mixed_marginals(state: BipartiteState):
    for side, dim in (("a", state.dim_a), ("b", state.dim_b)):
        dev = np.abs(state.marginal(side) - np.eye(dim) / dim).max()
        if dev > MARGINAL_ATOL:
            raise ValidationError(
                f"marginal on side {side} deviates from I/{dim} by {dev:.3e}"
            )


def diagonalize_correlation(state: BipartiteState) -> CorrelationSpectrum:
    """Rotate local orthonormal bases so the correlation matrix is diagonal.

    Requires maximally mixed marginals; the identity components then decouple
    and an SVD of the traceless block yields new orthonormal Hermitian bases
    with nonnegative diagonal correlations sorted in decreasing order.
    """
    if state.dim_a != state.dim_b:
        raise ValidationError("correlation diagonalization needs equal local dimensions")
    _require_mixed_marginals(state)
    m = state.dim_a
    base = default_basis(m)
    corr = correlation_matrix(state, base, base)
    block = corr[1:, 1:]
    u, s, vt = np.linalg.svd(block)
    elems_a = np.concatenate(
        [np.eye(m)[None], np.einsum("ki,kab->iab", u, base.elements[1:])]
    )
    elems_b = np.concatenate(
        [np.eye(m)[None], np.einsum("ik,kab->iab", vt, base.elements[1:])]
    )
    values = np.concatenate([[1.0], s])
    return CorrelationSpectrum(
        StandardBasis(m, elems_a), StandardBasis(m, elems_b), values
    )


def maximal_correlation(state: BipartiteState) -> float:
    """Second singular value of the diagonalized correlation matrix."""
    return diagonalize_correlation(state).maximal_correlation()


# ---------------------------------------------------------------------------
# separability at local dimension 2


def partial_transpose(state: BipartiteState) -> np.ndarray:
    da, db = state.dim_a, state.dim_b
    t = state.density.reshape(da, db, da, db)
    return t.transpose(0, 3, 2, 1).reshape(da * db, da * db)


@dataclass
class SeparabilityReport:
    separable: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray


def ppt_separability_2x2(state: BipartiteState) -> SeparabilityReport:
    """Exact separability test for two qubits: positivity of the partial
    transpose is necessary and sufficient at this dimension."""
    if state.dim_a != 2 or state.dim_b != 2:
        raise ValidationError("this criterion is exact only for 2x2 local dimensions")
    eigs = np.linalg.eigvalsh(partial_transpose(state))
    return SeparabilityReport(bool(eigs.min() >= -PSD_ATOL), float(eigs.min()), eigs)


# ---------------------------------------------------------------------------
# canonicalization of a qubit basis pair to the EPR form


def _qubit_pair_frame(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(u, c1, s) for Hermitian 2x2 (a, b): u diagonalizes a, largest
    eigenvalue first, then rotates about the z-axis so that u b u* has a
    real nonnegative off-diagonal entry, which was c1 - i c2 with
    s = |c1 + i c2| before the rotation (skipped while s < 1e-9).  Each
    eigenvector's phase is fixed first (its first component real and
    positive, or its second when the first is below 1e-8), so u does not
    follow the phase LAPACK happens to return."""
    _, vecs = np.linalg.eigh(a)
    anchor = vecs[(np.abs(vecs[0]) < 1e-8).astype(int), [0, 1]]
    vecs = vecs * (anchor.conj() / np.abs(anchor))
    u = vecs[:, ::-1].conj().T
    c = u @ b @ u.conj().T
    c1, c2 = float(c[0, 1].real), float(-c[0, 1].imag)
    s = float(np.hypot(c1, c2))
    if s >= 1e-9:
        phi = np.arctan2(c2, c1)
        u = (np.cos(phi / 2) * np.eye(2) + 1j * np.sin(phi / 2) * SIGMA_Z) @ u
    return u, c1, s


@dataclass
class EprCanonicalization:
    u: np.ndarray
    v: np.ndarray
    y_sign_a: int
    y_sign_b: int
    epr_distance: float
    purity: float
    min_eigenvalue: float
    verified: bool


def canonicalize_to_epr(basis_a: StandardBasis, basis_b: StandardBasis) -> EprCanonicalization:
    """Unitaries mapping each standard qubit basis onto (I, X, +-Y, Z).

    U maps A_1 -> X, A_3 -> Z and necessarily A_2 -> +-Y (sign reported);
    likewise V for the B side.  The reassembled operator (1/4) sum_i A_i (x) B_i
    equals the EPR projector exactly when the sign product is -1, which the
    report verifies via purity and distance.
    """
    if basis_a.m != 2 or basis_b.m != 2:
        raise ValidationError("canonicalization is defined for qubit bases")
    out = []
    for basis in (basis_a, basis_b):
        u = _qubit_pair_frame(basis.elements[3], basis.elements[1])[0]
        img2 = u @ basis.elements[2] @ u.conj().T
        sign = int(np.sign(np.trace(img2 @ SIGMA_Y).real / 2))
        if sign == 0:
            raise ValidationError("basis element 2 did not map to +-Y; basis not standard")
        out.append((u, sign))
    (u, sa), (v, sb) = out
    phi = sum(
        np.kron(basis_a.elements[i], basis_b.elements[i]) for i in range(4)
    ) / 4
    uv = np.kron(u, v)
    mapped = uv @ phi @ uv.conj().T
    epr = np.outer(epr_vector(1), epr_vector(1).conj())
    dist = hs_distance(mapped, epr)
    purity = float(np.trace(phi @ phi).real)
    min_eig = float(np.linalg.eigvalsh(phi).min())
    verified = bool(sa * sb == -1 and dist < 1e-9)
    return EprCanonicalization(u, v, sa, sb, dist, purity, min_eig, verified)
