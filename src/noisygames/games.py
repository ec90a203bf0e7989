"""Game definitions, strategy containers, canonical optima, and exact value
evaluation through the coefficient-space noise-transfer identity.

For players sharing n noisy maximally-entangled registers, the expectation of
A (x) B equals sum_x w(x) A_hat(x) B_hat(x), where A is expanded in the first
player's basis, B in the second player's transposed basis, and w(x) is the
per-index noise weight (rho^|x| for depolarizing).  All evaluations below use
this identity; dense joint-state evaluation is kept as a cross-check path.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    COEFF_IMAG_ATOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PauliExpansion,
    StandardBasis,
    ValidationError,
    _check_operators,
    default_basis,
    infer_registers,
    noisy_epr_expectation,
    pauli_expand,
    pauli_reconstruct,
    register_weight_vector,
)
from .states import (
    BipartiteState,
    CorrelationSpectrum,
    make_depolarized_epr,
)

SPECTRAL_NORM_SLACK = 1e-9
POVM_ATOL = 1e-9


# ---------------------------------------------------------------------------
# operator helpers


def embed_on_register(op: np.ndarray, n: int, register: int, m: int = 2) -> np.ndarray:
    """Place a single-register operator on register `register` (1-based) of n,
    identity elsewhere."""
    if not 1 <= register <= n:
        raise ValidationError(f"register {register} out of range 1..{n}")
    left = np.eye(m ** (register - 1))
    right = np.eye(m ** (n - register))
    return np.kron(np.kron(left, op), right)


def conjugate_on_register(op: np.ndarray, u: np.ndarray, n: int, register: int,
                          m: int = 2) -> np.ndarray:
    """Conjugate an n-register operator by a unitary acting on one register."""
    ufull = embed_on_register(u, n, register, m)
    return ufull @ op @ ufull.conj().T


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix in a stack."""
    return np.swapaxes(mats.conj(), -1, -2)


def _lookup(mapping, keys: list, names: list) -> list:
    """mapping[key] for each key in order; a missing key raises, naming what
    it should have held."""
    for key, name in zip(keys, names):
        if key not in mapping:
            raise ValidationError(f"missing {name}")
    return [mapping[key] for key in keys]


def _shaped(members, dim: int, labels: list, outcomes: int | None = None) -> list:
    """Members as arrays, each checked to be a dim x dim observable, or with
    `outcomes` a POVM of dim x dim elements, that many unless 0.  An error
    names the first misshapen member, labels[i]."""
    arrays = [np.asarray(member) for member in members]
    for arr, label in zip(arrays, labels):
        if outcomes is None:
            if arr.shape != (dim, dim):
                raise ValidationError(f"{label} must be a {dim}x{dim} matrix, got shape {arr.shape}")
        elif arr.ndim != 3 or arr.shape[1:] != (dim, dim):
            raise ValidationError(f"{label} must be a stack of {dim}x{dim} matrices")
        elif outcomes and len(arr) != outcomes:
            raise ValidationError(f"{label} must have {outcomes} outcomes")
    return arrays


def _owned(members, dim: int, labels: list, outcomes: int | None = None) -> np.ndarray:
    """The strategy's own read-only complex copy of observables, or with
    `outcomes` of POVMs (see _shaped), as one stack, checked by
    _check_operators: observables to spectral norm at most 1, POVMs to PSD
    elements summing to I.  The caller's arrays are left as they were."""
    stack = np.array(_shaped(members, dim, labels, outcomes), dtype=complex)
    stack.setflags(write=False)
    if outcomes is None:
        return _check_operators(stack, labels, "norm", SPECTRAL_NORM_SLACK)
    return _check_operators(stack, labels, "povm", POVM_ATOL)


def require_observable(op: np.ndarray, dim: int, label: str = "observable") -> np.ndarray:
    """One observable: finite, Hermitian, dim x dim, spectral norm at most 1."""
    return _owned([op], dim, [label])[0]


def require_povm(elements: np.ndarray, dim: int, label: str = "POVM") -> np.ndarray:
    """One POVM: finite, Hermitian, PSD dim x dim elements summing to I."""
    return _owned([elements], dim, [label], 0)[0]


def _gaussians(d: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """A d x d complex Gaussian matrix: real parts drawn first.  With a
    count, a (count, d, d) stack from one (count, 2, d, d) block, which
    holds the values of count such draws in turn."""
    g = rng.normal(size=(1 if count is None else count, 2, d, d))
    g = g[:, 0] + 1j * g[:, 1]
    return g[0] if count is None else g


def _haar_from_gaussians(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from one complex Gaussian matrix or a stack of them:
    QR, then the phases of R's diagonal moved into Q (Mezzadri,
    arXiv:math-ph/0609050)."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _balanced_signs(d: int) -> np.ndarray:
    if d % 2:
        raise ValidationError("traceless binary observables need even dimension")
    return np.concatenate([np.ones(d // 2), -np.ones(d // 2)])


def _conjugated_diagonals(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """u diag(diag) u* for each unitary (and diagonal) of a stack."""
    return (u * diag[..., None, :]) @ _dagger(u)


def _bounded_from_gaussians(g: np.ndarray) -> np.ndarray:
    """Traceless Hermitian parts of complex Gaussian matrices, each rescaled
    to unit spectral norm."""
    d = g.shape[-1]
    h = (g + _dagger(g)) / 2
    h -= np.trace(h, axis1=-2, axis2=-1).real[..., None, None] / d * np.eye(d)
    return h / np.linalg.norm(h, 2, axis=(-2, -1), keepdims=True)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_from_gaussians(_gaussians(d, rng))


def random_traceless_binary(d: int, rng: np.random.Generator,
                            count: int | None = None) -> np.ndarray:
    """Haar-conjugated balanced sign observable: traceless, squares to I.
    With a count, a (count, d, d) stack of them from one stacked QR and
    conjugation, equal to count single draws in turn and leaving rng where
    they would."""
    signs = _balanced_signs(d)
    if count is not None and (isinstance(count, bool) or not isinstance(count, numbers.Integral)
                              or count < 1):
        raise ValidationError(f"count must be a positive integer, got {count!r}")
    return _conjugated_diagonals(_haar_from_gaussians(_gaussians(d, rng, count)), signs)


def _require_kind(game: str, kind, kinds: tuple):
    """A random constructor's kind, one of `kinds`, checked before any draw."""
    if kind not in kinds:
        raise ValidationError(f"unknown random {game} strategy kind {kind!r}; "
                              f"expected one of {', '.join(kinds)}")


def _require_trace_bias(trace_bias: float):
    """The random constructors' trace bias: a finite number in [0, 1],
    checked before any draw."""
    if not 0.0 <= trace_bias <= 1.0:  # also false for NaN
        raise ValidationError(f"trace_bias must be a finite number in [0, 1], got {trace_bias}")


def add_trace_bias(op: np.ndarray, bias) -> np.ndarray:
    """Mix an identity component in: the result has normalized trace `bias`
    (for traceless input) and keeps spectral norm at most 1.  A stack of
    operators takes one bias per member."""
    bias = np.asarray(bias, dtype=float)[..., None, None]
    return (1 - np.abs(bias)) * op + bias * np.eye(op.shape[-1])


# ---------------------------------------------------------------------------
# strategies


@dataclass
class ChshStrategy:
    """Two observables per player on n qubit registers per side.  stacks
    holds each player's read-only (2, d, d) stack, (P0, P1) and (Q0, Q1);
    alice and bob are views of its rows."""

    n: int
    alice: tuple[np.ndarray, np.ndarray]
    bob: tuple[np.ndarray, np.ndarray]
    stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.alice) != 2 or len(self.bob) != 2:
            raise ValidationError("CHSH strategies need two observables per player")
        ops = _owned([*self.alice, *self.bob], 2 ** self.n, ["P0", "P1", "Q0", "Q1"])
        self.stacks = (ops[:2], ops[2:])
        self.alice, self.bob = (tuple(stack) for stack in self.stacks)

    @property
    def dim(self) -> int:
        return 2 ** self.n


def canonical_chsh_observables() -> tuple:
    s2 = np.sqrt(2.0)
    return (SIGMA_Z, SIGMA_X, (SIGMA_Z + SIGMA_X) / s2, (SIGMA_Z - SIGMA_X) / s2)


def canonical_chsh_strategy(n: int, register: int = 1) -> ChshStrategy:
    """The optimal observables embedded on one register, identity elsewhere."""
    p0, p1, q0, q1 = canonical_chsh_observables()
    emb = lambda op: embed_on_register(op, n, register)
    return ChshStrategy(n, (emb(p0), emb(p1)), (emb(q0), emb(q1)))


def _y_rotation(theta: float) -> np.ndarray:
    """exp(-i theta Y / 2), the Bloch y-axis rotation by a finite theta."""
    if not np.isfinite(theta):
        raise ValidationError(f"theta must be a finite angle, got {theta}")
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * SIGMA_Y


def perturbed_chsh_strategy(n: int, register: int, theta: float) -> ChshStrategy:
    """Canonical strategy with both of the second player's observables rotated
    about the Bloch y-axis by theta on the active register."""
    base = canonical_chsh_strategy(n, register)
    w = _y_rotation(theta)
    bob = tuple(conjugate_on_register(q, w, n, register) for q in base.bob)
    return ChshStrategy(n, base.alice, bob)


def random_chsh_strategy(n: int, rng: np.random.Generator, kind: str = "binary",
                         trace_bias: float = 0.0) -> ChshStrategy:
    """Random strategy; kind 'binary' gives traceless binary observables,
    'bounded' general traceless contractions.  trace_bias mixes in identity
    components with random signs bounded by the given value, which must lie
    in [0, 1]."""
    _require_kind("CHSH", kind, ("binary", "bounded"))
    _require_trace_bias(trace_bias)
    d = 2 ** n
    signs = _balanced_signs(d) if kind == "binary" else None
    gaussians, biases = [], []
    for _ in range(4):
        gaussians.append(_gaussians(d, rng))
        if trace_bias:
            biases.append(rng.uniform(-trace_bias, trace_bias))
    if kind == "binary":
        ops = _conjugated_diagonals(_haar_from_gaussians(np.stack(gaussians)), signs)
    else:
        ops = _bounded_from_gaussians(np.stack(gaussians))
    if trace_bias:
        ops = add_trace_bias(ops, biases)
    return ChshStrategy(n, (ops[0], ops[1]), (ops[2], ops[3]))


MS_QUESTIONS = ("r1", "r2", "r3", "c1", "c2", "c3")

# optimal measurement table: entry (i, j) for rows i, columns j (1-based)
_MS_TABLE = None


def magic_square_table() -> np.ndarray:
    """3x3 array of commuting-structure two-qubit observables; rows multiply
    to +I, the first two columns to +I, the third column to -I."""
    global _MS_TABLE
    if _MS_TABLE is None:
        I2 = np.eye(2)
        X, Y, Z = SIGMA_X, SIGMA_Y, SIGMA_Z
        _MS_TABLE = np.array([
            [np.kron(X, I2), np.kron(I2, X), np.kron(X, X)],
            [np.kron(I2, Z), np.kron(Z, I2), np.kron(Z, Z)],
            [np.kron(X, Z), np.kron(Z, X), np.kron(Y, Y)],
        ])
    return _MS_TABLE


def ms_outcomes() -> list[tuple[int, int, int]]:
    """Outcome order for 8-element POVMs: index bits b1 b2 b3, answer 1-2b."""
    return [tuple(1 - 2 * b for b in bits)
            for bits in itertools.product((0, 1), repeat=3)]


def ms_question_variables(question: str) -> list[tuple[int, int]]:
    """Variables (i, j) covered by a question, in answer-slot order."""
    kind, idx = question[0], int(question[1])
    if kind == "r":
        return [(idx, j) for j in (1, 2, 3)]
    return [(i, idx) for i in (1, 2, 3)]


def ms_parity_target(question: str) -> int:
    return -1 if question == "c3" else 1


# sign tables: _MS_SIGNS[a, s] is outcome a's answer in slot s + 1;
# _MS_PARITY[q, a] is 1 where outcome a has question q's target parity;
# _MS_SLOT_VARIABLE[q, s] indexes _MS_VARIABLES, the variable in slot s + 1
_MS_SIGNS = np.array(ms_outcomes(), dtype=float)
_MS_PARITY = np.array([[float(np.prod(a) == ms_parity_target(q)) for a in ms_outcomes()]
                       for q in MS_QUESTIONS])
_MS_VARIABLES = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
_MS_SLOT_VARIABLE = np.array([[_MS_VARIABLES.index(v) for v in ms_question_variables(q)]
                         for q in MS_QUESTIONS])
# (Bob's variable row, Alice's element row) of pairing (q, a, s), as indices
# into the (9, 48) Gram matrix of the two stacks
_MS_PAIR_INDEX = (_MS_SLOT_VARIABLE[:, None, :],
                  np.arange(8 * len(MS_QUESTIONS)).reshape(len(MS_QUESTIONS), 8, 1))
# the per-variable report keys, in (question, slot) order
_MS_REPORT_LABELS = [f"{q}:s{i}{j}" for q in MS_QUESTIONS for i, j in ms_question_variables(q)]


def variable_slot(question: str, i: int, j: int) -> int:
    """1-based answer slot of variable (i, j) within a question, or raise."""
    for slot, var in enumerate(ms_question_variables(question), start=1):
        if var == (i, j):
            return slot
    raise ValidationError(f"variable ({i},{j}) is not part of question {question}")


@dataclass
class MagicSquareStrategy:
    """Alice: one 8-outcome POVM per row/column question; Bob: nine observables
    on n four-dimensional registers per side.  stacks holds each player's
    read-only stack: Alice's 48 POVM elements, element a of question q at
    row 8q + a (MS_QUESTIONS and ms_outcomes order), and Bob's 9
    observables in _MS_VARIABLES order; the dict fields are views of its
    rows."""

    n: int
    alice_povms: dict
    bob_observables: dict
    stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = 4 ** self.n
        povms = _lookup(self.alice_povms, MS_QUESTIONS,
                        [f"POVM for question {q}" for q in MS_QUESTIONS])
        bob = _lookup(self.bob_observables, _MS_VARIABLES,
                      [f"observable for variable ({i},{j})" for i, j in _MS_VARIABLES])
        povms = _owned(povms, d, [f"POVM {q}" for q in MS_QUESTIONS], 8)
        bob = _owned(bob, d, [f"Q{i}{j}" for i, j in _MS_VARIABLES])
        self.stacks = (povms.reshape(-1, d, d), bob)
        self.alice_povms = dict(zip(MS_QUESTIONS, povms))
        self.bob_observables = dict(zip(_MS_VARIABLES, bob))

    @property
    def dim(self) -> int:
        return 4 ** self.n


def derived_observable(povm: np.ndarray, slot: int) -> np.ndarray:
    """Signed sum over outcomes of an 8-outcome POVM for one answer slot."""
    povm = np.asarray(povm)
    if povm.shape[0] != 8:
        raise ValidationError("derived observables are defined for 8-outcome POVMs")
    if slot not in (1, 2, 3):
        raise ValidationError(f"slot must be 1, 2 or 3, got {slot}")
    return np.tensordot(_MS_SIGNS[:, slot - 1], povm, axes=1)


def _commuting_projector_povm(observables: list[np.ndarray]) -> np.ndarray:
    """POVM from k commuting binary observables: the products of their
    spectral projectors (I + a_s O_s) / 2, one element per answer tuple a in
    itertools.product((1, -1), repeat=k) order (ms_outcomes order for k = 3,
    (+,+), (+,-), (-,+), (-,-) for k = 2)."""
    d = observables[0].shape[0]
    elems = []
    for a in itertools.product((1, -1), repeat=len(observables)):
        e = functools.reduce(np.matmul, [(np.eye(d) + val * obs) / 2
                                         for val, obs in zip(a, observables)])
        elems.append((e + e.conj().T) / 2)
    return np.stack(elems)


def canonical_magic_square_strategy(n: int, register: int = 1) -> MagicSquareStrategy:
    """Table observables on one register; Alice POVMs are joint projectors of
    the three commuting observables per question, Bob uses transposes."""
    table = magic_square_table()
    povms = {}
    for q in MS_QUESTIONS:
        obs = [table[i - 1, j - 1] for (i, j) in ms_question_variables(q)]
        local = _commuting_projector_povm(obs)
        povms[q] = np.stack([embed_on_register(e, n, register, m=4) for e in local])
    bob = {(i, j): embed_on_register(table[i - 1, j - 1].T, n, register, m=4)
           for i in (1, 2, 3) for j in (1, 2, 3)}
    return MagicSquareStrategy(n, povms, bob)


def perturbed_magic_square_strategy(n: int, register: int, theta: float,
                                    only_variable: tuple | None = None) -> MagicSquareStrategy:
    """Canonical strategy with Bob observables conjugated by a first-qubit
    rotation on the active register (all nine, or a single variable)."""
    base = canonical_magic_square_strategy(n, register)
    w = np.kron(_y_rotation(theta), np.eye(2))
    bob = {}
    for key, q in base.bob_observables.items():
        if only_variable is None or key == only_variable:
            bob[key] = conjugate_on_register(q, w, n, register, m=4)
        else:
            bob[key] = q
    return MagicSquareStrategy(n, base.alice_povms, bob)


def random_magic_square_strategy(n: int, rng: np.random.Generator,
                                 kind: str = "projective",
                                 trace_bias: float = 0.0) -> MagicSquareStrategy:
    """Random strategies for bound probing.

    'projective': per question, a Haar-conjugated commuting triple of sign
    observables (traceless unless trace_bias skews the sign patterns);
    'mixed': projective smoothed toward the uniform POVM;
    'raw': Gaussian PSD elements renormalized into a POVM.
    trace_bias, in [0, 1], skews the sign patterns toward +1 and mixes
    identity components into Bob's observables.
    """
    _require_kind("magic-square", kind, ("projective", "mixed", "raw"))
    _require_trace_bias(trace_bias)
    d = 4 ** n
    projective = kind in ("projective", "mixed")
    balanced = _balanced_signs(d)
    gaussians, signs, lams, raw, biases = [], [], [], [], []
    for _ in MS_QUESTIONS:
        if projective:
            gaussians.append(_gaussians(d, rng))
            for _ in range(3):
                sign = balanced.copy()
                rng.shuffle(sign)
                if trace_bias:
                    flip = rng.random(d) < trace_bias / 2
                    sign[flip] = 1.0
                signs.append(sign)
            if kind == "mixed":
                lams.append(rng.uniform(0.0, 0.5))
        else:
            raw.append(rng.normal(size=(8, d, d)) + 1j * rng.normal(size=(8, d, d)))
    for _ in _MS_VARIABLES:
        gaussians.append(_gaussians(d, rng))
        if trace_bias:
            biases.append(rng.uniform(-trace_bias, trace_bias))
    u = _haar_from_gaussians(np.stack(gaussians))
    if projective:
        # element a of question q is u_q diag(mask) u_q*, where the 0/1 mask
        # multiplies the spectral projectors (1 + a_s sign_s) / 2 of slots s
        signs = np.reshape(signs, (len(MS_QUESTIONS), 1, 3, d))
        masks = np.prod((1 + _MS_SIGNS[:, :, None] * signs) / 2, axis=2)
        povms = _conjugated_diagonals(u[:len(MS_QUESTIONS), None], masks)
        if kind == "mixed":
            lam = np.reshape(lams, (-1, 1, 1, 1))
            povms = (1 - lam) * povms + lam * np.eye(d) / 8
    else:
        raw = np.stack(raw)
        raw = raw @ _dagger(raw)
        vals, vecs = np.linalg.eigh(raw.sum(axis=1))
        inv_sqrt = (vecs * (1.0 / np.sqrt(vals))[..., None, :]) @ _dagger(vecs)
        povms = inv_sqrt[:, None] @ raw @ inv_sqrt[:, None]
    bob = _conjugated_diagonals(u[-len(_MS_VARIABLES):], balanced)
    if trace_bias:
        bob = add_trace_bias(bob, biases)
    return MagicSquareStrategy(n, dict(zip(MS_QUESTIONS, povms)), dict(zip(_MS_VARIABLES, bob)))


def pair_key(i: int, y: int, j: int, z: int) -> tuple:
    """Canonical unordered key for the pair question {(i,y),(j,z)}."""
    if i == j:
        raise ValidationError("pair questions need distinct indices")
    return (i, y, j, z) if i < j else (j, z, i, y)


def _pair_keys(n: int) -> list[tuple]:
    """Canonical pair-question keys (i, y, j, z), i < j."""
    return [(i, y, j, z) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for y in (0, 1) for z in (0, 1)]


# answer of each pair outcome, (+,+), (+,-), (-,+), (-,-), for the first
# and the second index of the pair
_PAIR_SIDE_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def marginal_pair_observable(povm: np.ndarray, side: str) -> np.ndarray:
    """Signed marginal of a 4-outcome pair POVM over one index slot."""
    povm = np.asarray(povm)
    if povm.shape[0] != 4:
        raise ValidationError("pair marginals are defined for 4-outcome POVMs")
    if side not in ("first", "second"):
        raise ValidationError("side must be 'first' or 'second'")
    return np.tensordot(_PAIR_SIDE_SIGNS[int(side == "second")], povm, axes=1)


@dataclass
class TwoOutOfNStrategy:
    """Per-index single observables plus pair POVMs for both players on
    n_prime qubit registers per side.  Pair POVMs are keyed by the canonical
    (i, y, j, z) form with i < j; outcome 2 bit(a) + bit(b) answers a for
    index i and b for index j, so (+,+), (+,-), (-,+), (-,-).

    stacks holds each player's read-only stack: the 2n singles, (i, x) at
    row 2(i-1) + x, then element e of the POVM of key k (in _pair_keys
    order) at row 2n + 4k + e; the dict fields are views of its rows."""

    n: int
    n_prime: int
    alice_singles: dict
    bob_singles: dict
    alice_pair_povms: dict
    bob_pair_povms: dict
    stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_prime < self.n:
            raise ValidationError("need at least as many registers as indices")
        d = 2 ** self.n_prime
        singles = [(i, x) for i in range(1, self.n + 1) for x in (0, 1)]
        keys = _pair_keys(self.n)
        p_labels, q_labels = ([f"{p}[{i},{x}]" for i, x in singles] for p in "PQ")
        pair_labels = [f"pair POVM {key}" for key in keys]
        alice = _lookup(self.alice_singles, singles, [f"single observable {s}" for s in p_labels])
        bob = _lookup(self.bob_singles, singles, [f"single observable {s}" for s in q_labels])
        ns, k = 2 * self.n, len(keys)
        # one copy: both players' stacks, each checked in row ranges.  P[i,x]
        # and Q[i,x] alternate, so an error names the same operator first
        # that a check of one operator at a time would have named
        owned = np.empty((2, ns + 4 * k, d, d), dtype=complex)
        both = owned[:, :ns].swapaxes(0, 1)
        labels = [s for pair in zip(p_labels, q_labels) for s in pair]
        for r, op in enumerate(_shaped([op for pair in zip(alice, bob) for op in pair], d, labels)):
            both[divmod(r, 2)] = op
        _check_operators(both, labels, "norm", SPECTRAL_NORM_SLACK)
        elems = owned[:, ns:].reshape(2, k, 4, d, d)
        for r, povm in enumerate(_shaped(_lookup(self.alice_pair_povms, keys, pair_labels)
                                         + _lookup(self.bob_pair_povms, keys, pair_labels),
                                         d, pair_labels * 2, 4)):
            elems[divmod(r, k)] = povm
        for player in elems:
            _check_operators(player, pair_labels, "povm", POVM_ATOL)
        owned.setflags(write=False)
        self.stacks = tuple(owned)
        self.alice_singles, self.bob_singles = (dict(zip(singles, s[:ns])) for s in self.stacks)
        self.alice_pair_povms, self.bob_pair_povms = (
            dict(zip(keys, s[ns:].reshape(-1, 4, d, d))) for s in self.stacks)

    @property
    def dim(self) -> int:
        return 2 ** self.n_prime

    def pair_marginal(self, player: str, i: int, y: int, j: int, z: int) -> np.ndarray:
        """Signed marginal observable for index i of pair question {(i,y),(j,z)}."""
        key = pair_key(i, y, j, z)
        povms = self.alice_pair_povms if player == "alice" else self.bob_pair_povms
        return marginal_pair_observable(povms[key], "first" if key[0] == i else "second")


def _pair_basis_observable(y: int) -> np.ndarray:
    return (SIGMA_Z + (1 if y == 0 else -1) * SIGMA_X) / np.sqrt(2.0)


def canonical_two_out_of_n_strategy(n: int, n_prime: int | None = None,
                                    registers: list[int] | None = None) -> TwoOutOfNStrategy:
    """Index i plays the canonical qubit strategy on register registers[i-1]."""
    n_prime = n if n_prime is None else n_prime
    if n_prime < n:
        raise ValidationError("need at least as many registers as indices")
    registers = list(range(1, n + 1)) if registers is None else list(registers)
    if len(registers) != n:
        raise ValidationError("need one register per index")
    singles = {}
    for i in range(1, n + 1):
        reg = registers[i - 1]
        singles[(i, 0)] = embed_on_register(SIGMA_Z, n_prime, reg)
        singles[(i, 1)] = embed_on_register(SIGMA_X, n_prime, reg)
    pair_povms = {(i, y, j, z): _commuting_projector_povm(
        [embed_on_register(_pair_basis_observable(u), n_prime, registers[k - 1])
         for k, u in ((i, y), (j, z))]) for i, y, j, z in _pair_keys(n)}
    return TwoOutOfNStrategy(n, n_prime, singles, singles, pair_povms, pair_povms)


def perturbed_two_out_of_n_strategy(n: int, theta: float,
                                    index: int = 1) -> TwoOutOfNStrategy:
    """Canonical strategy with everything the second player holds on the
    perturbed index's register conjugated by a y-axis rotation."""
    base = canonical_two_out_of_n_strategy(n)
    reg = index
    w = _y_rotation(theta)
    bob_singles = dict(base.bob_singles)
    for x in (0, 1):
        bob_singles[(index, x)] = conjugate_on_register(
            base.bob_singles[(index, x)], w, base.n_prime, reg)
    bob_pairs = {}
    for key, povm in base.bob_pair_povms.items():
        if key[0] == index or key[2] == index:
            bob_pairs[key] = np.stack([
                conjugate_on_register(e, w, base.n_prime, reg) for e in povm])
        else:
            bob_pairs[key] = povm
    return TwoOutOfNStrategy(n, base.n_prime, base.alice_singles, bob_singles,
                             base.alice_pair_povms, bob_pairs)


# ---------------------------------------------------------------------------
# evaluation


@functools.cache
def _basis_pair(m: int) -> tuple[StandardBasis, StandardBasis]:
    """The default basis of local dimension m and its transpose, built and
    validated once per process (both are immutable)."""
    base = default_basis(m)
    return base, base.transposed()


class PairEvaluator:
    """Pairs operators under a shared noisy state; the package's one noise
    channel.  The CHSH value and see-saw, both SoS certificates and the
    self-tests expand both players' stacks (expand_stacks; the magic-square
    certificate one question's elements and one variable's observable).
    move carries one player's coefficient rows through the noise into the
    other's basis: for the see-saw's best responses, and in gram, by which
    the magic-square and 2-out-of-n values and the 2-out-of-n sampler expand
    only the smaller side: Bob's nine observables against Alice's 48 raw
    POVM elements, and each player's 2n singles against the other's raw
    pair-POVM elements (_two_out_of_n_grams).  Only the CHSH and
    magic-square samplers use pair (and its id()-keyed expand_a and
    expand_b), on the strategy's fields.  They stay while the benchmark
    asserts that the protocol workload re-expands operators and wraps each
    sampler class by name, which stacking those samplers breaks.

    expand_stacks, gram, pair, expand_a and expand_b take a strategy's
    stacks and members only, which its constructor has checked and holds
    read-only, and never re-check them; operators derived from members are
    signed sums of their rows instead.  Small operators take the dense
    transform (see `pauli`).

    noise is a fidelity rho (depolarizing, in the default bases of local
    dimension m) or a CorrelationSpectrum (its bases and values)."""

    def __init__(self, noise, m: int = 2):
        if isinstance(noise, CorrelationSpectrum):
            self.basis_a, self.basis_b = noise.basis_a, noise.basis_b
            self.weights = np.asarray(noise.values, dtype=float)
        elif np.isscalar(noise):
            rho = float(noise)
            if not 0.0 <= rho <= 1.0:
                raise ValidationError(f"fidelity parameter must lie in [0, 1], got {rho}")
            self.basis_a, self.basis_b = _basis_pair(m)
            self.weights = np.full(m * m, rho)
            self.weights[0] = 1.0
        else:
            raise ValidationError(f"unsupported noise specification: a {type(noise).__name__}, "
                                  "not a fidelity or a CorrelationSpectrum")
        # keyed by id(); the cached entry keeps the array alive so ids are
        # never recycled under us
        self._cache_a: dict[int, tuple] = {}
        self._cache_b: dict[int, tuple] = {}
        self._weight_vectors: dict[int, np.ndarray] = {}

    def weight_vector(self, n: int) -> np.ndarray:
        """Flat noise weights w(x) over the multi-indices of n registers,
        built once per register count."""
        if n not in self._weight_vectors:
            self._weight_vectors[n] = register_weight_vector(self.weights, n)
        return self._weight_vectors[n]

    def expand_stacks(self, ops_a, ops_b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One stacked expansion per player: the (k_a, m^(2n)) and
        (k_b, m^(2n)) coefficient arrays of ops_a and ops_b and the weights
        w, so that (a * w) @ b.T holds every pairing's expectation."""
        exp_a = pauli_expand(np.asarray(ops_a), self.basis_a, validated=True)
        exp_b = pauli_expand(np.asarray(ops_b), self.basis_b, validated=True)
        if (exp_a.m, exp_a.n) != (exp_b.m, exp_b.n):
            raise ValidationError("operands live on different register structures")
        return exp_a.coeffs, exp_b.coeffs, self.weight_vector(exp_a.n)

    def move(self, coeffs: np.ndarray, first: bool = True) -> np.ndarray:
        """The (k, d, d) operators F~ = sum_x w(x) F_hat(x) B'_x of coefficient
        rows F_hat of the first player if first, else of the second, in the
        other player's basis B': tr(F~ M) / d = sum_x w(x) F_hat(x) M_hat(x)
        for the other's M.  At fidelity rho, F~ is F's depolarized transpose."""
        other = self.basis_b if first else self.basis_a
        n = infer_registers(coeffs.shape[-1], other.m ** 2)
        return pauli_reconstruct(PauliExpansion(other.m, n, coeffs * self.weight_vector(n), other))

    def gram(self, few, many, first: bool = True) -> np.ndarray:
        """The expectations of few[r] (x) many[c], few held by the first player
        if first, else by the second.  Only the few are expanded and moved
        (move); the discarded imaginary part is checked."""
        moved = self.move(pauli_expand(few, self.basis_a if first else self.basis_b,
                                       validated=True).coeffs, first)
        # tr(F~ M) / d = sum_ij F~^T[i, j] M[i, j] / d; d is a power of two,
        # so dividing last is exact
        d = moved.shape[-1]
        g = moved.transpose(0, 2, 1).reshape(len(moved), -1) @ many.reshape(-1, d * d).T / d
        residue = float(np.abs(g.imag).max()) if g.size else 0.0
        if not residue <= COEFF_IMAG_ATOL:  # also true for NaN
            raise ValidationError(f"pairings have imaginary residue {residue:.3e}")
        return g.real.copy()

    def expand_a(self, op: np.ndarray) -> PauliExpansion:
        key = id(op)
        if key not in self._cache_a:
            self._cache_a[key] = (op, pauli_expand(op, self.basis_a, validated=True))
        return self._cache_a[key][1]

    def expand_b(self, op: np.ndarray) -> PauliExpansion:
        key = id(op)
        if key not in self._cache_b:
            self._cache_b[key] = (op, pauli_expand(op, self.basis_b, validated=True))
        return self._cache_b[key][1]

    def pair(self, op_a: np.ndarray, op_b: np.ndarray) -> float:
        """Expectation of strategy members op_a (x) op_b under the shared
        noisy state."""
        exp_a = self.expand_a(op_a)
        return noisy_epr_expectation(exp_a, self.expand_b(op_b), self.weight_vector(exp_a.n))


@dataclass
class GameValueReport:
    violation: float
    win_prob: float
    per_question: dict = field(default_factory=dict)


CHSH_SIGNS = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
_CHSH_LABELS = tuple(f"{x}{y}" for x, y in CHSH_SIGNS)


def _chsh_report(corr: np.ndarray) -> GameValueReport:
    """CHSH functional from the 2 x 2 correlations <P_x (x) Q_y>."""
    values = corr.ravel().tolist()
    total = sum(sign * v for sign, v in zip(CHSH_SIGNS.values(), values))
    return GameValueReport(total, 0.5 + total / 8.0, dict(zip(_CHSH_LABELS, values)))


def _dense_joint(state: BipartiteState, d: int) -> np.ndarray:
    """The density as R[j, l, i, k] = rho[(j l), (i k)], so that
    Tr((A (x) B) rho) = sum A[i, j] B[k, l] R[j, l, i, k]."""
    if state.dim_a != d or state.dim_b != d:
        raise ValidationError(f"state dimensions ({state.dim_a},{state.dim_b}) do not "
                              f"match operators of dimension {d}")
    return state.density.reshape(d, d, d, d)


def chsh_violation(strategy: ChshStrategy, noise) -> GameValueReport:
    """Value of the CHSH functional under the noise PairEvaluator takes, a
    fidelity or a CorrelationSpectrum; win probability is 1/2 + violation/8.
    An explicit state is evaluated by chsh_violation_dense."""
    a, b, w = PairEvaluator(noise).expand_stacks(*strategy.stacks)
    return _chsh_report((a * w) @ b.T)


def chsh_violation_dense(strategy: ChshStrategy, state) -> GameValueReport:
    """Reference path: explicit joint-density-matrix evaluation."""
    if not isinstance(state, BipartiteState):
        state = make_depolarized_epr(float(state), strategy.n)
    joint = _dense_joint(state, strategy.dim)
    corr = np.einsum("xij,ykl,jlik->xy", *strategy.stacks, joint, optimize=True)
    return _chsh_report(corr.real)


@dataclass
class MagicSquareReport:
    overall: float
    parity_pass: float
    consistency_pass: float
    per_variable: dict = field(default_factory=dict)


def magic_square_value(strategy: MagicSquareStrategy, rho,
                       dense_state: BipartiteState | None = None) -> MagicSquareReport:
    """Winning probability of the noisy magic square game.

    The referee samples a row/column question uniformly, then one of its three
    variables; the players win if Alice's parity is correct and the shared
    variable's assignments agree.  With the first player's marginal maximally
    mixed, the joint pass probability per (question, variable) splits into a
    parity-mass term and a parity-restricted correlation term.

    Both are signed sums over POVM elements, so everything follows from each
    element's normalized trace and its pairing with the slot's observable:
    from the Gram matrix of Bob's nine observables, moved through the noise,
    with Alice's raw elements (PairEvaluator.gram expands only the nine), or
    from explicit traces against `dense_state`.
    """
    alice, bob = strategy.stacks
    masses = _normalized_traces(alice).reshape(len(MS_QUESTIONS), 8)
    if dense_state is None:
        pairs = PairEvaluator(rho, m=4).gram(bob, alice, first=False)[_MS_PAIR_INDEX]
    else:
        d = strategy.dim
        pairs = np.einsum("qaij,qskl,jlik->qas", alice.reshape(len(MS_QUESTIONS), 8, d, d),
                          bob[_MS_SLOT_VARIABLE], _dense_joint(dense_state, d),
                          optimize=True).real
    return _ms_report(masses, pairs)[0]


def _ms_coeff_report(elems: np.ndarray, obs: np.ndarray, w: np.ndarray) -> tuple:
    """_ms_report of PairEvaluator.expand_stacks rows: Alice's element rows
    as a (6, 8, m^(2n)) array in MS_QUESTIONS and ms_outcomes order, Bob's
    observable rows in _MS_VARIABLES order, and the weights w.  Element
    traces are identity coefficients and pairings are noise-weighted
    products of rows."""
    pairs = np.einsum("qax,qsx->qas", elems * w, obs[_MS_SLOT_VARIABLE])
    return _ms_report(elems[..., 0], pairs)


def _ms_report(masses: np.ndarray, pairs: np.ndarray) -> tuple:
    """Aggregate the (question, outcome) element traces and the (question,
    outcome, slot) pairings <E_qa (x) Q_v(q,s)> into the game's pass rates,
    and return them with the bias 2 overall - 1: the mean parity-restricted
    correlation less the mean wrong-parity mass.  The overall rate is
    derived from the bias, whose terms are small where the bound's bias rho
    is, so that a gap taken against it keeps its resolution at small rho."""
    parity = (_MS_PARITY * masses).sum(axis=1)  # per question
    derived = np.einsum("as,qas->qs", _MS_SIGNS, pairs)
    restricted = np.einsum("qa,as,qas->qs", _MS_PARITY, _MS_SIGNS, pairs)
    consistency = 0.5 + 0.5 * derived
    win = 0.5 * (parity[:, None] + restricted)
    per_variable = {label: {"consistency": c, "win": v} for label, c, v in zip(
        _MS_REPORT_LABELS, consistency.ravel().tolist(), win.ravel().tolist())}
    bias = float(restricted.sum() / 18.0 - (1.0 - parity).sum() / 6.0)
    return MagicSquareReport(0.5 + 0.5 * bias, float(parity.sum() / 6.0),
                             float(consistency.sum() / 18.0), per_variable), bias


def _two_out_of_n_grams(strategy: TwoOutOfNStrategy, rho) -> tuple:
    """PairEvaluator.gram of Alice's singles with Bob's pair-POVM elements and
    of Bob's with Alice's, in the stacks' row order (2(i-1) + x, 4k + e)."""
    ev, ns, (alice, bob) = PairEvaluator(rho), 2 * strategy.n, strategy.stacks
    return ev.gram(alice[:ns], bob[ns:]), ev.gram(bob[:ns], alice[ns:], first=False)


def two_out_of_n_value(strategy: TwoOutOfNStrategy, rho) -> GameValueReport:
    """Average CHSH pass probability over shared indices, role swap and
    questions; the violation 8 * (win - 1/2) is formed from the correlations
    and the win probability from it (_two_out_of_n_report).

    Each player's singles are moved through the noise and paired with the
    other player's raw pair-POVM elements (_two_out_of_n_grams); the pair
    marginals are signed sums of element pairings, and the contexts
    (_two_out_of_n_contexts) say which single meets which marginal."""
    return _two_out_of_n_report(strategy.n, *_two_out_of_n_grams(strategy, rho))


def _pair_marginal_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """The signed pair-marginal rows of one player's expanded stack, whose
    row 2(i-1) + x holds single (i, x) and row 2n + 4k + e element e of the
    POVM of key k (in _pair_keys order): row 2k + side is the marginal over
    that side of key k's POVM."""
    elems = rows[2 * n:].reshape(-1, 4, rows.shape[-1])
    return np.einsum("sa,kax->ksx", _PAIR_SIDE_SIGNS, elems).reshape(-1, rows.shape[-1])


@functools.cache
def _two_out_of_n_contexts(n: int) -> np.ndarray:
    """The game's question contexts, each a CHSH test between a single
    player holding (i, x) and a pair player holding {(i, y), (j, z)}: one
    read-only int row (i, j, x, y, z, single, key, side) per context with
    i != j, in i, j, x, y, z order.  single = 2(i-1) + x is the row of (i, x)
    in a player's stack, key the index of pair_key(i, y, j, z) in
    _pair_keys(n), and side = int(i > j), so that 2 key + side is the row of
    index i's marginal in _pair_marginal_rows.  The value, the sampler, the
    protocol's tracked keys and the self-test all read this table."""
    keys = {key: k for k, key in enumerate(_pair_keys(n))}
    table = np.array([(i, j, x, y, z, 2 * (i - 1) + x, keys[pair_key(i, y, j, z)], int(i > j))
                      for i, j, x, y, z in itertools.product(
                          range(1, n + 1), range(1, n + 1), (0, 1), (0, 1), (0, 1))
                      if i != j])
    table.setflags(write=False)
    return table


def _two_out_of_n_report(n: int, alice: np.ndarray, bob: np.ndarray) -> GameValueReport:
    """two_out_of_n_value from the Gram pair of _two_out_of_n_grams: per
    context, the CHSH pass probability averaged over the two roles; per
    ordered index pair (i, j), the average over its 8 contexts.  As for
    CHSH, the violation is the signed correlations' bias, 4 times their mean,
    and the win probability is derived from it, so that a gap taken against
    it keeps its resolution at small rho."""
    if n < 2:
        raise ValidationError(f"2-out-of-n values need n >= 2 indices, got n = {n}")
    i, j, x, y, _, single, key, side = _two_out_of_n_contexts(n).T
    # single player Alice against Bob's marginals (signed element sums), and back
    corr = np.stack([g.reshape(2 * n, -1, 4) @ _PAIR_SIDE_SIGNS.T
                     for g in (alice, bob)])[:, single, key, side]
    sign = 1 - 2 * (x & y)  # CHSH_SIGNS
    per_pair = ((1 + sign * corr) / 2).mean(axis=0).reshape(-1, 8).mean(axis=1)
    pair_totals = {f"{pi},{pj}": float(v) for pi, pj, v in zip(i[::8], j[::8], per_pair)}
    violation = float(4 * (sign * corr).mean())
    return GameValueReport(violation, 0.5 + violation / 8.0, pair_totals)


# ---------------------------------------------------------------------------
# trace error


def _normalized_traces(ops: np.ndarray) -> np.ndarray:
    """Normalized trace of every member of a (k, d, d) stack of a
    strategy's operators, which its constructor has checked."""
    return np.trace(ops, axis1=1, axis2=2).real / ops.shape[-1]


def trace_error(strategy) -> float:
    """Largest absolute normalized trace over the game's observable list,
    including derived row/column and pair-marginal observables (signed sums
    of their POVM elements' traces)."""
    if not isinstance(strategy, (ChshStrategy, MagicSquareStrategy, TwoOutOfNStrategy)):
        raise ValidationError(f"unknown strategy type {type(strategy).__name__}")
    if isinstance(strategy, ChshStrategy):
        # one trace over both players' observables
        values = [_normalized_traces(np.concatenate(strategy.stacks))]
    else:
        first, second = (_normalized_traces(stack) for stack in strategy.stacks)
        if isinstance(strategy, MagicSquareStrategy):
            values = [first.reshape(-1, 8) @ _MS_SIGNS, second]
        else:
            ns = 2 * strategy.n
            values = [part for traces in (first, second)
                      for part in (traces[:ns], traces[ns:].reshape(-1, 4) @ _PAIR_SIDE_SIGNS.T)]
    return float(max(np.abs(v).max(initial=0.0) for v in values))
