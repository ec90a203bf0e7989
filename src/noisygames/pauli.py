"""Matrix Fourier analysis over standard orthonormal bases.

Hermitian operators on n registers of local dimension m are expanded as
real coefficient vectors over a tensor-product basis whose first element
is the identity.  Depolarizing (and more general diagonal-correlation)
noise acts diagonally on these coefficients, which is what makes every
game-value and certificate computation in this package cheap: nothing
ever materializes a joint (m^n)^2 x (m^n)^2 operator.

Index convention: a multi-index x in [m^2]^n is serialized row-major with
register 1 as the most significant base-m^2 digit.

Operator checks: every validator in the package, here and in `games` and
`states`, runs one stacked check, `_check_operators`, which names the first
bad member of a stack and the first check it fails.

Stacked input: `pauli_expand` takes a (k, d, d) stack as well as one d x d
matrix.  It checks every member with the tolerances used for one matrix and
returns a (k, m^(2n)) coefficient array whose row r is the expansion of
member r, so a game value expands each player's operators in one call and
pairs them with one matrix product.

Two paths compute the same coefficients.  While m^(2n) <= DENSE_MAX_COEFFS
(qubit registers up to n = 3, or one 4-dimensional register) an expansion
is one product of the (k, d^2) flattened stack with the basis's cached
(d^2, m^(2n)) transform of conj(B_x) / d; larger operators take the
register-by-register contraction.  Callers that pass members of a
strategy, whose constructor has already checked them, set
`validated=True` to skip the Hermitian re-check; the imaginary residue of
the coefficients is checked on every path, and a NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from math import prod

import numpy as np

HERMITIAN_ATOL = 1e-10
COEFF_IMAG_ATOL = 1e-10
# largest coefficient count m^(2n) expanded by one dense product.  On a
# 2-CPU Xeon with one BLAS thread, a stack of 48 at m = 4, n = 1 took 8 us
# dense against 29 us contracted, and at m = 4, n = 2 (256 coefficients, a
# 1 MB transform) 828 us against 205 us
DENSE_MAX_COEFFS = 64


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def _as_square(mat: np.ndarray, stack: bool = False) -> np.ndarray:
    """`mat` as complex, checked to be a square matrix (or, with `stack`, a
    square matrix or a (k, d, d) stack of them)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim not in ((2, 3) if stack else (2,)) or mat.shape[-1] != mat.shape[-2]:
        kind = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ValidationError(f"expected {kind}, got shape {mat.shape}")
    return mat


def hermitian_deviation(mats: np.ndarray) -> np.ndarray:
    """Largest entry of |M - M*| of one matrix, or of each matrix in a stack
    (NaN where M has a non-finite entry)."""
    dev = np.abs(mats - mats.conj().swapaxes(-1, -2))
    return dev.reshape(dev.shape[:-2] + (dev.shape[-1] ** 2,)).max(axis=-1, initial=0.0)


# the stacked check works over chunks of at most this many bytes, so that a
# large strategy's eigenvalue and deviation temporaries stay small
_CHECK_BYTES = 1 << 20


def _check_operators(stack: np.ndarray, labels, bound: str | None = None,
                     atol: float = 0.0) -> np.ndarray:
    """Check a (k, d, d) stack of operators, or with bound "povm" a (k,
    outcomes, d, d) stack of POVMs, a chunk of at most _CHECK_BYTES (and at
    least one row) at a time, and return it.

    Every matrix must be finite and Hermitian within HERMITIAN_ATOL; with
    bound "norm" its spectral norm must be at most 1 + atol, with "psd" or
    "povm" its least eigenvalue at least -atol, and with "povm" each POVM
    must sum to I within atol.  Without "povm", a (k, j, d, d) stack holds
    k j members in C order.  An error names the first bad member, labels[i],
    the first check it fails and, for a POVM's element checks, the first
    element that fails it."""
    povm = bound == "povm"
    per = 1 if povm else prod(stack.shape[1:-2])  # members per row
    step = max(1, _CHECK_BYTES // max(prod(stack.shape[1:]) * stack.itemsize, 1))
    for lo in range(0, len(stack), step):
        chunk = safe = stack[lo:lo + step]
        finite = np.True_
        if not np.isfinite(chunk).all():
            # a matrix with a non-finite entry is measured as zero: inf - inf
            # is NaN, and NaN exceeds no tolerance
            finite = np.isfinite(chunk).all(axis=(-2, -1))
            safe = np.where(finite[..., None, None], chunk, 0.0)
        # (value, failed, message) per check after finiteness, one entry a matrix
        dev = hermitian_deviation(safe)
        checks = [(dev, dev > HERMITIAN_ATOL, "is not Hermitian (max deviation {:.3e})")]
        if bound == "norm":
            norm = np.abs(np.linalg.eigvalsh(safe)).max(axis=-1)
            checks.append((norm, norm > 1.0 + atol, "has spectral norm {:.6f} > 1"))
        elif bound:
            low = np.linalg.eigvalsh(safe)[..., 0]  # ascending: the least
            checks.append((low, low < -atol, "is not PSD (min eigenvalue {:.3e})"))
        bad = reduce(np.logical_or, [failed for _, failed, _ in checks])
        if finite is not np.True_:
            bad = bad | ~finite
        if povm:
            off = np.abs(safe.sum(axis=1) - np.eye(stack.shape[-1])).max(axis=(-2, -1))
            bad = bad.any(axis=1) | (off > atol)
        if not bad.any():
            continue
        i = int(np.argmax(bad))
        at = np.unravel_index(i, bad.shape)
        label = labels[lo * per + i]
        if not np.broadcast_to(finite, dev.shape)[at].all():
            raise ValidationError(f"{label} has non-finite entries")
        for value, failed, message in checks:
            failed = np.atleast_1d(failed[at])
            if failed.any():
                e = int(np.argmax(failed))
                name = f"{label} element {e}" if povm else label
                raise ValidationError(f"{name} {message.format(np.atleast_1d(value[at])[e])}")
        raise ValidationError(f"{label} does not sum to identity (max deviation {off[i]:.3e})")
    return stack


def require_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate finiteness and Hermiticity within HERMITIAN_ATOL and return
    the matrix as complex."""
    mat = _as_square(mat)
    _check_operators(mat[None], ["matrix"])
    return mat


def normalized_trace(mat: np.ndarray) -> float:
    """Trace divided by dimension, validated to be real for Hermitian input."""
    mat = require_hermitian(mat)
    return float(np.trace(mat).real) / mat.shape[0]


def hs_norm(mat: np.ndarray) -> float:
    """Dimension-normalized Frobenius norm, sqrt(normalized_trace(M M*))."""
    mat = np.asarray(mat, dtype=complex)
    return float(np.linalg.norm(mat)) / np.sqrt(mat.shape[0])


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance (1/sqrt(d))*||A - B||_F, the metric behind every closeness
    statement in this package."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return hs_norm(a - b)


# ---------------------------------------------------------------------------
# standard orthonormal bases


@dataclass(frozen=True)
class StandardBasis:
    """An orthonormal Hermitian basis of m x m matrices with elements[0] = I.

    Orthonormality is with respect to the normalized Hilbert-Schmidt inner
    product, so every element except the identity is traceless.
    """

    m: int
    elements: np.ndarray  # (m*m, m, m) complex
    name: str = ""
    # dense transforms by register count, built on first use
    _transforms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=complex)
        if elems.shape != (self.m * self.m, self.m, self.m):
            raise ValidationError(
                f"basis needs shape {(self.m**2, self.m, self.m)}, got {elems.shape}"
            )
        if np.abs(elems[0] - np.eye(self.m)).max() > HERMITIAN_ATOL:
            raise ValidationError("basis element 0 must be the identity")
        _check_operators(elems, [f"basis element {i}" for i in range(len(elems))])
        gram = np.einsum("aij,bij->ab", elems.conj(), elems) / self.m
        if np.abs(gram - np.eye(self.m * self.m)).max() > HERMITIAN_ATOL:
            raise ValidationError("basis is not orthonormal under the normalized HS inner product")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    def dense_transform(self, n: int) -> np.ndarray:
        """The read-only (d^2, m^(2n)) matrix of conj(B_x) / d over n
        registers (d = m^n), so that the flattened d x d matrix times it
        holds every coefficient; built once per register count."""
        t = self._transforms.get(n)
        if t is None:
            m2 = self.m * self.m
            b = np.ones((1, 1, 1), dtype=complex)
            for _ in range(n):
                k, e = len(b), b.shape[-1]
                # kron of every element so far with every basis element
                b = (b[:, None, :, None, :, None] * self.elements[None, :, None, :, None, :]
                     ).reshape(k * m2, e * self.m, e * self.m)
            t = np.ascontiguousarray(b.conj().reshape(len(b), -1).T) / b.shape[-1]
            t.setflags(write=False)
            self._transforms[n] = t
        return t

    def transposed(self) -> "StandardBasis":
        """Element-wise transposed basis (used for the second player's side)."""
        return StandardBasis(self.m, self.elements.transpose(0, 2, 1).copy(),
                             name=self.name + "^T" if self.name else "")


_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z = (_SIGMA[i].copy() for i in range(4))


def pauli_basis() -> StandardBasis:
    """The qubit basis (I, X, Y, Z), the process-wide default_basis(2)."""
    return default_basis(2)


def two_qubit_pauli_basis() -> StandardBasis:
    """Sixteen products sigma_p (x) sigma_q, index 4*p + q, for 4-dim
    registers: the process-wide default_basis(4)."""
    return default_basis(4)


@lru_cache(maxsize=None)
def default_basis(m: int) -> StandardBasis:
    """The built-in basis of local dimension m (2 or 4), built and validated
    once per process: it is immutable, and its dense transforms are built
    once for every caller."""
    if m == 2:
        return StandardBasis(2, _SIGMA.copy(), name="pauli")
    if m == 4:
        elems = np.stack([np.kron(_SIGMA[p], _SIGMA[q]) for p in range(4) for q in range(4)])
        return StandardBasis(4, elems, name="pauli2")
    raise ValidationError(f"no built-in basis for local dimension {m}")


# ---------------------------------------------------------------------------
# expansions


@dataclass
class PauliExpansion:
    """Real coefficient vector of a Hermitian operator over a tensor basis.

    coeffs is flat of length m^(2n), row-major in the multi-index x with
    register 1 as the most significant digit; the expansion of a (k, d, d)
    stack holds a (k, m^(2n)) array, one row per member.  imag_residue
    records the largest imaginary part discarded when the coefficients were
    computed.
    """

    m: int
    n: int
    coeffs: np.ndarray
    basis: StandardBasis
    imag_residue: float = 0.0



def index_digits(x: int, m: int, n: int) -> tuple[int, ...]:
    """Base-m^2 digits of a flat index, register 1 first."""
    m2 = m * m
    out = []
    for _ in range(n):
        out.append(x % m2)
        x //= m2
    return tuple(reversed(out))


def infer_registers(dim: int, m: int) -> int:
    n, size = 0, 1
    while size < dim and m > 1:
        n, size = n + 1, size * m
    if size != dim:
        raise ValidationError(f"dimension {dim} is not a power of the local dimension {m}")
    return n


def pauli_expand(mat: np.ndarray, basis: StandardBasis, *,
                 validated: bool = False) -> PauliExpansion:
    """Expand a Hermitian matrix over the n-fold tensor power of `basis`.

    While m^(2n) <= DENSE_MAX_COEFFS this is one product with the basis's
    dense transform; otherwise a register-by-register tensor contraction,
    cost O(n m^2 m^(2n)), instead of the m^(4n) cost of taking m^(2n)
    individual traces.

    `mat` may also be a (k, d, d) stack: every member is validated, the
    expansion runs once over the whole stack, and the result's coeffs has
    shape (k, m^(2n)), one row per member.  `validated=True` skips the
    finiteness and Hermitian check, for stacks whose members a strategy has
    already checked; the imaginary residue is still checked.
    """
    mat = _as_square(mat, stack=True)
    lead = mat.ndim - 2  # 1 for a stack, 0 for one matrix
    if not validated:
        _check_operators(mat if lead else mat[None],
                         [f"stack member {i}" for i in range(len(mat))] if lead else ["matrix"])
    m = basis.m
    n = infer_registers(mat.shape[-1], m)
    if m ** (2 * n) <= DENSE_MAX_COEFFS:
        flat = mat.reshape(mat.shape[:lead] + (-1,)) @ basis.dense_transform(n)
    else:
        flat = _contract(mat, basis, n).reshape(mat.shape[:lead] + (-1,))
    residue = float(np.abs(flat.imag).max()) if flat.size else 0.0
    if not residue <= COEFF_IMAG_ATOL:  # also true for NaN
        raise ValidationError(f"coefficients have imaginary residue {residue:.3e}")
    return PauliExpansion(m, n, flat.real.copy(), basis, residue)


def _contract(mat: np.ndarray, basis: StandardBasis, n: int) -> np.ndarray:
    """The coefficients of one matrix or a stack by contracting one register
    at a time, with axes ([b,] a_1, ..., a_n)."""
    lead = mat.ndim - 2
    m = basis.m
    kern = basis.elements.conj() / m  # <B_k, .> per register
    t = mat.reshape(mat.shape[:lead] + (m,) * (2 * n))
    # interleave row/column axes and move a stack's batch axis last:
    # ([b,] i1..in, j1..jn) -> (i1, j1, i2, j2, ..., [b])
    t = t.transpose([lead + a for k in range(n) for a in (k, n + k)] + list(range(lead)))
    for k in range(n):
        t = np.tensordot(kern, t, axes=([1, 2], [k, k + 1]))
    # axes are now (a_n, ..., a_1, [b])
    return t.transpose(tuple(range(n, n + lead)) + tuple(reversed(range(n))))


def pauli_expand_naive(mat: np.ndarray, basis: StandardBasis) -> PauliExpansion:
    """Per-coefficient trace oracle; O(m^(4n)), retained for cross-checks."""
    mat = require_hermitian(mat)
    m = basis.m
    n = infer_registers(mat.shape[0], m)
    d = mat.shape[0]
    m2 = m * m
    coeffs = np.empty(m2 ** n)
    for x in range(m2 ** n):
        bx = np.ones((1, 1), dtype=complex)
        for digit in index_digits(x, m, n):
            bx = np.kron(bx, basis.elements[digit])
        val = np.trace(bx.conj().T @ mat) / d
        coeffs[x] = val.real
    return PauliExpansion(m, n, coeffs, basis)


def pauli_reconstruct(exp: PauliExpansion) -> np.ndarray:
    """Rebuild the matrix sum_x coeffs(x) B_x; inverse of pauli_expand.  A
    (k, m^(2n)) coeffs array rebuilds the (k, d, d) stack, each member bit for
    bit as its row alone: numpy takes a stacked product member by member."""
    m, n = exp.m, exp.n
    m2 = m * m
    entries = exp.basis.elements.reshape(m2, m2).T  # entry (i, j) x digit
    t = exp.coeffs.reshape(-1, m2 ** n).astype(complex)  # (k, a_1 ... a_n)
    for _ in range(n):
        # contract the leading digit and rotate its entries to the end
        t = (entries @ t.reshape(len(t), m2, -1)).transpose(0, 2, 1)
    # axes are now (k, i_1, j_1, ..., i_n, j_n)
    perm = [0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]
    d = m ** n
    return t.reshape((-1,) + (m,) * (2 * n)).transpose(perm).reshape(exp.coeffs.shape[:-1] + (d, d))


# ---------------------------------------------------------------------------
# noise action in coefficient space: noise diagonal in the players' bases
# weights coefficient x by w(x) = prod_k w(x_k), at fidelity rho by rho^|x|
# for the degree |x| (the Pauli noise operator of arXiv:0810.2435).
# games.PairEvaluator applies it, to pairings and (move) to operators.


def degree_vector(m: int, n: int) -> np.ndarray:
    """degree[x] = number of nonzero base-m^2 digits of x, the registers on
    which B_x is not the identity, for all m^(2n) indices."""
    deg = np.zeros(1, dtype=np.int64)
    nz = np.arange(m * m) != 0
    for _ in range(n):
        deg = (deg[:, None] + nz[None, :]).reshape(-1)
    return deg


def register_weight_vector(per_index: np.ndarray, n: int) -> np.ndarray:
    """Flat weight vector w(x) = prod_k per_index[x_k] over all multi-indices."""
    per_index = np.asarray(per_index, dtype=float)
    w = np.ones(1)
    for _ in range(n):
        w = np.multiply.outer(w, per_index).reshape(-1)
    return w


def noisy_epr_expectation(exp_a: PauliExpansion, exp_b: PauliExpansion, w: np.ndarray) -> float:
    """Expectation of A (x) B on n shared noisy maximally-entangled registers.

    `exp_a` must be expanded in the first player's basis and `exp_b` in the
    second player's (transposed) basis; `w` is the flat length-m^(2n) noise
    weight vector (register_weight_vector).  The value is
    sum_x w(x) A_hat(x) B_hat(x).
    """
    if (exp_a.m, exp_a.n) != (exp_b.m, exp_b.n):
        raise ValidationError("operands live on different register structures")
    return float(np.sum(w * exp_a.coeffs * exp_b.coeffs))


# ---------------------------------------------------------------------------
# JSON forms (matrices as nested [re, im] pairs)


def matrix_to_json(mat: np.ndarray) -> list:
    """A matrix, or a stack of them, as nested [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """A matrix, or a stack of them, from nested [re, im] pairs, bit for bit.
    Every entry must be a JSON number, a Python int or float: numpy would
    read the strings "1" and "0.5" and the booleans as numbers too."""
    try:
        arr = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError):  # ragged nesting or a non-number
        arr = np.empty(0)
    if arr.ndim < 3 or arr.shape[-1] != 2:
        raise ValidationError("matrix JSON must be a nested array of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix JSON has non-finite entries")
    entries = data  # regular nesting, so ndim - 1 flattenings reach the entries
    for _ in range(arr.ndim - 1):
        entries = chain.from_iterable(entries)
    if not set(map(type, entries)) <= {int, float}:
        raise ValidationError("matrix JSON entries must be numbers, not strings or booleans")
    return arr.view(complex)[..., 0]
