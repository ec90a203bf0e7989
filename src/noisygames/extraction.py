"""Self-testing engine: diagnostic distances, register-concentration
detection, and constructive unitary extraction for all three games, plus the
small matrix utilities the analysis rests on.

Every self-test returns one SelfTestReport: its game, its entries (JSON key
to JSON-ready value, in document order, read as report[key]) and
max_distance, so serialize writes every report with one loop.

Every relation norm of a self-test, the commutators and anticommutators of
all four self-tests and the 2-out-of-n collision contradictions, comes from
one stacked product pass, _relation_norms, over rows of the strategy's
validated stacks.

No pass/fail thresholds are hard-coded here: every function reports raw
distances (in the dimension-normalized Frobenius metric) and leaves
interpretation to the caller.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .games import (
    _MS_PARITY,
    _MS_SIGNS,
    MS_QUESTIONS,
    ChshStrategy,
    MagicSquareStrategy,
    PairEvaluator,
    TwoOutOfNStrategy,
    _basis_pair,
    _chsh_report,
    _ms_coeff_report,
    _pair_keys,
    _pair_marginal_rows,
    _two_out_of_n_contexts,
    _two_out_of_n_report,
    chsh_violation,
    game_of,
    magic_square_table,
    ms_parity_target,
    trace_error,
)
from .pauli import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    default_basis,
    hs_distance,
    infer_registers,
    matrix_to_json,
    pauli_expand,
    register_weight_vector,
    require_hermitian,
)
from .states import (
    CorrelationSpectrum,
    _qubit_pair_frame,
    canonicalize_to_epr,
)

CONCENTRATION_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# elementary diagnostics


def _scaling_residuals(rows: np.ndarray, w: np.ndarray, rho: float) -> np.ndarray:
    """||c (.) (w - rho)|| of each coefficient row c: the distance between
    the noise-scaled operator and rho times the operator."""
    return np.linalg.norm(rows * (w - rho), axis=-1)


def _row_distances(rows: np.ndarray, others: np.ndarray) -> list:
    """hs_distance of the operators behind rows in one orthonormal basis,
    which by Parseval is the l2 distance of the rows.  A second-player row
    (transposed basis) stands for its operator's transpose there."""
    return np.linalg.norm(rows - others, axis=-1).tolist()


def _relation_norms(a: np.ndarray, b: np.ndarray, sign: int) -> np.ndarray:
    """hs_norm(A_k B_k + sign B_k A_k) for each k of two (..., d, d)
    stacks: sign 1 gives the anticommutator norms, -1 the commutator norms.
    The stacks are rows of strategies whose constructors checked them, so
    nothing is checked again."""
    return np.linalg.norm(a @ b + sign * (b @ a), axis=(-2, -1)) / np.sqrt(a.shape[-1])


@dataclass
class BinaryApproximation:
    observable: np.ndarray
    distance: float


def nearest_binary_observable(op: np.ndarray) -> BinaryApproximation:
    """Spectral-sign rounding: eigenvalues >= 0 map to +1 (zero joins the
    positive projector), the rest to -1."""
    op = require_hermitian(op)
    vals, vecs = np.linalg.eigh(op)
    signs = np.where(vals >= 0, 1.0, -1.0)
    binary = (vecs * signs) @ vecs.conj().T
    return BinaryApproximation(binary, hs_distance(op, binary))


# ---------------------------------------------------------------------------
# register concentration


@dataclass
class RegisterConcentration:
    """Degree-one coefficient mass per register and the winning register.

    weights[j] is the root of the degree-one mass supported on register j+1;
    local_operators[j] is that register's normalized local part (unit
    normalized-HS norm) or None when the mass is negligible.  residual is the
    distance from the operator to its best single-register degree-one part,
    sqrt(total mass - weights[k]^2).
    """

    weights: np.ndarray
    register: int | None
    margin: float
    tie: bool
    local_operators: list
    residual: float


def register_concentration(op: np.ndarray, m: int = 2, basis=None) -> RegisterConcentration:
    exp = pauli_expand(op, basis if basis is not None else default_basis(m))
    return _concentration(exp.coeffs, exp.basis)


def _concentration(row: np.ndarray, basis) -> RegisterConcentration:
    """register_concentration of one coefficient row over the tensor powers
    of `basis`; the local operators are built from that basis's elements."""
    m2 = basis.m ** 2
    n = infer_registers(row.size, m2)
    coeffs = row.reshape((m2,) * n)
    weights = np.zeros(n)
    locals_: list = [None] * n
    base = basis.elements
    selectors = []
    for j in range(n):
        sel = tuple(slice(1, m2) if k == j else 0 for k in range(n))
        selectors.append(sel)
        cvec = coeffs[sel]
        a_j = float(np.linalg.norm(cvec))
        weights[j] = a_j
        if a_j > CONCENTRATION_FLOOR:
            local = np.tensordot(cvec, base[1:], axes=1) / a_j
            locals_[j] = local
    if weights.max() <= CONCENTRATION_FLOOR:
        return RegisterConcentration(weights, None, 0.0, False, locals_,
                                     float(np.linalg.norm(coeffs)))
    order = np.argsort(weights)[::-1]
    k = int(order[0])
    runner = weights[order[1]] if n > 1 else 0.0
    margin = float(weights[k] - runner)
    tie = margin <= 1e-12
    # residual taken over the complementary coefficients directly; the
    # subtraction total - a_k^2 would turn 1e-16 dust into sqrt-scale noise
    complement = coeffs.copy()
    complement[selectors[k]] = 0.0
    residual = float(np.linalg.norm(complement))
    return RegisterConcentration(weights, k + 1, margin, tie, locals_, residual)


def _register_consensus(concs: dict) -> tuple[int | None, dict, bool]:
    """Each observable votes for its own winning register, weighted by the
    degree-one mass it holds there; disagreement is flagged."""
    votes = {}
    scores: dict[int, float] = {}
    for label, rc in concs.items():
        votes[label] = rc.register
        if rc.register is not None:
            scores[rc.register] = scores.get(rc.register, 0.0) + rc.weights[rc.register - 1] ** 2
    if not scores:
        return None, votes, False
    consensus = max(scores, key=scores.get)
    ambiguous = any(v is not None and v != consensus for v in votes.values())
    return consensus, votes, ambiguous


def _local_on_register(rc: RegisterConcentration, register: int | None):
    if register is None:
        return None
    return rc.local_operators[register - 1]


# ---------------------------------------------------------------------------
# constructive unitaries


@dataclass
class PauliPairExtraction:
    unitary: np.ndarray
    dist_z: float
    dist_x: float
    theta: float
    degenerate: bool = False


def pauli_pair_unitary(a: np.ndarray, b: np.ndarray) -> PauliPairExtraction:
    """Unitary conjugating a near-anticommuting traceless pair to (Z, X).

    The first operator is diagonalized onto Z; the second is then rotated
    about the z-axis to kill its y-component.  theta reports the rotation
    magnitude; the degenerate flag is raised when the second operator has no
    equatorial component to align.

    The frame is `states._qubit_pair_frame`'s, whose eigenvector phases are
    fixed, so theta does not follow the phase LAPACK happens to return.
    """
    a, b = require_hermitian(a), require_hermitian(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValidationError("pair extraction works on 2x2 observables")
    u, c1, s = _qubit_pair_frame(a, b)
    degenerate = s < 1e-9
    theta = 0.0 if degenerate else float(np.arccos(np.clip(c1 / s, -1, 1)))
    return PauliPairExtraction(
        u,
        hs_distance(u @ a @ u.conj().T, SIGMA_Z),
        hs_distance(u @ b @ u.conj().T, SIGMA_X),
        theta,
        degenerate,
    )


@dataclass
class LocalUnitaryExtraction:
    unitary: np.ndarray
    dist_zi: float
    dist_xi: float
    dist_ix: float
    singular_values: np.ndarray
    near_singular: bool


def ms_local_unitary(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> LocalUnitaryExtraction:
    """Unitary mapping a 4-dim triple (anticommuting pair plus an element
    commuting with both) near (Z(x)I, X(x)I, I(x)X).

    Construction: diagonalize the first operator into +-blocks, align the
    second's off-diagonal block by SVD, then rotate the common 2x2 block of
    the third onto X.
    """
    for op in (a, b, c):
        op = require_hermitian(op)
        if op.shape != (4, 4):
            raise ValidationError("this extraction works on 4x4 observables")
    vals, vecs = np.linalg.eigh(a)
    w = vecs[:, ::-1].conj().T  # a -> diag(desc) ~ Z (x) I
    bm = w @ b @ w.conj().T
    b12 = bm[:2, 2:]
    v, sing, wr = np.linalg.svd(b12)
    near_singular = bool(sing.min() < 1e-6)
    u1 = np.block([
        [v.conj().T, np.zeros((2, 2))],
        [np.zeros((2, 2)), wr],
    ]) @ w
    cm = u1 @ c @ u1.conj().T
    c1 = (cm[:2, :2] + cm[2:, 2:]) / 2
    c1 = c1 - np.trace(c1) / 2 * np.eye(2)
    cvals, cvecs = np.linalg.eigh(c1)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    v1 = np.outer(plus, cvecs[:, 1].conj()) + np.outer(minus, cvecs[:, 0].conj())
    u = np.kron(np.eye(2), v1) @ u1
    i2 = np.eye(2)
    return LocalUnitaryExtraction(
        u,
        hs_distance(u @ a @ u.conj().T, np.kron(SIGMA_Z, i2)),
        hs_distance(u @ b @ u.conj().T, np.kron(SIGMA_X, i2)),
        hs_distance(u @ c @ u.conj().T, np.kron(i2, SIGMA_X)),
        sing,
        near_singular,
    )


# ---------------------------------------------------------------------------
# small closed forms and their oracles


def lp_min_closed_form(a, t1: float, t2: float) -> float:
    """Minimum of sum a_i x_i over x >= 0 with sum x_i = t1 and
    sum a_i^2 x_i = t2: (t2 + a_1 a_n t1) / (a_1 + a_n)."""
    a = np.asarray(a, dtype=float)
    if a.size < 1 or np.any(np.diff(a) > 1e-12):
        raise ValidationError("coefficients must be sorted in decreasing order")
    if a[-1] <= 0:
        raise ValidationError("coefficients must be positive")
    lo, hi = a[-1] ** 2 * t1, a[0] ** 2 * t1
    if not (lo - 1e-9 <= t2 <= hi + 1e-9):
        raise ValidationError(f"infeasible: t2={t2} outside [{lo}, {hi}]")
    return float((t2 + a[0] * a[-1] * t1) / (a[0] + a[-1]))


def lp_min_bruteforce(a, t1: float, t2: float) -> float:
    """Independent oracle for the same LP, exact up to rounding: the
    minimum of sum a_i x_i over its basic feasible solutions.

    The feasible set {x >= 0 : sum x_i = t1, sum a_i^2 x_i = t2} is
    bounded, so a feasible LP over it attains its minimum at a vertex, a
    basic feasible solution.  With two equality rows a basic solution has
    support {i} (x_i = t1, which needs a_i^2 t1 = t2) or {i, j} with
    a_i^2 != a_j^2 (the 2x2 system on those columns).  Every such support
    is solved, the solutions with x >= -1e-9 max(1, |t1|) kept and the
    least objective returned; nothing is assumed about the order of a or
    about which support is optimal.  No feasible support means the LP is
    infeasible, which raises ValidationError."""
    a = np.asarray(a, dtype=float)
    t1, t2 = float(t1), float(t2)
    if a.ndim != 1 or a.size < 1 or not np.all(np.isfinite([*a, t1, t2])):
        raise ValidationError("the LP needs a non-empty 1-D array of coefficients "
                              "and finite inputs")
    sq = a ** 2
    tol = 1e-9 * max(1.0, abs(t1))
    # support {i}: x_i = t1 must also satisfy the second row
    single = (t1 >= -tol) & (np.abs(sq * t1 - t2) <= tol * np.maximum(1.0, sq))
    values = [a[single] * t1]
    # support {i, j}: the 2x2 system, singular for ties; x_j = t1 - x_i
    # keeps the objective's error at rounding size however close a_i^2 and
    # a_j^2 are, since the error x_i carries cancels in a_i x_i + a_j x_j
    i, j = np.triu_indices(a.size, 1)
    det = sq[i] - sq[j]
    keep = det != 0
    i, j, det = i[keep], j[keep], det[keep]
    xi = (t2 - sq[j] * t1) / det
    xj = t1 - xi
    feasible = (xi >= -tol) & (xj >= -tol)
    values.append(a[i][feasible] * xi[feasible] + a[j][feasible] * xj[feasible])
    values = np.concatenate(values)
    if values.size == 0:
        raise ValidationError(f"infeasible: no basic solution with x >= 0 for t1={t1}, t2={t2}")
    return float(values.min())


# ---------------------------------------------------------------------------
# game self-tests


@dataclass
class SelfTestReport:
    """A self-test's result: its game, its entries (JSON key to JSON-ready
    value, in document order), read as report[key], and max_distance."""

    game: str
    entries: dict
    max_distance: float

    def __getitem__(self, key: str):
        return self.entries[key]

    @property
    def gap_key(self) -> str:
        """The entry holding the gap to the optimal value."""
        return "epsWin" if self.game == "magic_square" else "epsV"


def _report(game: str, entries: dict, flagged: tuple, concentrations: list) -> SelfTestReport:
    """The report of `game` from its entries.  Its max_distance is the
    largest of the values of the flagged entries (dicts of distances), the
    residuals of the concentration entries and the distZ and distX of every
    extraction that ran."""
    extractions = entries.get("extractionUnitaries", {}).values()
    distances = [*(v for key in flagged for v in entries[key].values()),
                 *(c["residual"] for conc in concentrations for c in conc.values()),
                 *(e[k] for e in extractions if e is not None for k in ("distZ", "distX"))]
    return SelfTestReport(game, entries, float(max(distances, default=0.0)))


def _concentration_json(concs: dict) -> dict:
    return {label: {"register": rc.register, "weights": rc.weights.tolist(),
                    "margin": rc.margin, "tie": rc.tie, "residual": rc.residual}
            for label, rc in concs.items()}


def _extraction_json(ext: PauliPairExtraction) -> dict:
    return {"unitary": matrix_to_json(ext.unitary), "distZ": ext.dist_z, "distX": ext.dist_x,
            "theta": ext.theta, "degenerate": ext.degenerate}


def _extract_pair(concs: dict, labels: tuple, register: int | None) -> dict | None:
    """The entry of the pair extraction on the locals of labels' two
    observables on `register`; None where either has no mass there."""
    if register is None:
        return None
    l0 = _local_on_register(concs[labels[0]], register)
    l1 = _local_on_register(concs[labels[1]], register)
    if l0 is None or l1 is None:
        return None
    return _extraction_json(pauli_pair_unitary(l0, l1))


def _register_entries(concs: dict) -> dict:
    """The register, registerVotes, registerAmbiguous and concentration
    entries of the observables whose concentrations are concs."""
    register, votes, ambiguous = _register_consensus(concs)
    return {"register": register, "registerVotes": votes, "registerAmbiguous": ambiguous,
            "concentration": _concentration_json(concs)}


def _pair_selftest(p_rows: np.ndarray, q_rows: np.ndarray, labels: tuple) -> tuple:
    """The qubit pair test on two rows per player (the first player's in the
    default basis, the second's in its transpose), labelled labels[:2] and
    labels[2:]: the register concentrations, their register entries and
    both players' pair extraction entries on the consensus register."""
    basis_a, basis_b = _basis_pair(2)
    concs = {**{k: _concentration(row, basis_a) for k, row in zip(labels[:2], p_rows)},
             **{k: _concentration(row, basis_b) for k, row in zip(labels[2:], q_rows)}}
    run = _register_entries(concs)
    register = run["register"]
    return (concs, run, _extract_pair(concs, labels[:2], register),
            _extract_pair(concs, labels[2:], register))


def chsh_selftest(strategy: ChshStrategy, rho: float) -> SelfTestReport:
    """Full diagnostic report for a CHSH strategy on depolarized pairs.

    Distances other than the scaling residuals do not depend on rho; rho
    enters the gap epsV and the scaling diagnostics.  The value, the
    scaling residuals, the relation distances and the register
    concentration read one stacked expansion per player.
    """
    if not 0.0 < rho < 1.0:
        raise ValidationError("self-testing is defined for rho in (0, 1)")
    a, b, w = PairEvaluator(rho).expand_stacks(*strategy.stacks)
    report = _chsh_report((a * w) @ b.T)
    labels = ("P0", "P1", "Q0", "Q1")
    rows = np.concatenate([a, b])
    scaling = dict(zip(labels, _scaling_residuals(rows, w, rho).tolist()))
    ops = np.stack(strategy.stacks)  # (player, observable, d, d)
    anti = dict(zip(("alice", "bob"), _relation_norms(ops[:, 0], ops[:, 1], 1).tolist()))
    # P_i against (Q0 +- Q1)^T / sqrt(2)
    targets = np.stack([b[0] + b[1], b[0] - b[1]]) / np.sqrt(2.0)
    relations = dict(zip(("P0_vs_QT", "P1_vs_QT"), _row_distances(a, targets)))
    _, run, ext_a, ext_b = _pair_selftest(a, b, labels)
    entries = {
        "rho": rho, "violation": report.violation,
        "epsV": 2 * np.sqrt(2) * rho - report.violation, "epsTr": trace_error(strategy),
        "scalingResiduals": scaling, "antiCommutators": anti, "relationDistances": relations,
        **run, "extractionUnitaries": {"alice": ext_a, "bob": ext_b},
    }
    return _report("chsh", entries, ("scalingResiduals", "antiCommutators", "relationDistances"),
                   [run["concentration"]])


def ms_selftest(strategy: MagicSquareStrategy, rho: float) -> SelfTestReport:
    """Full diagnostic report for a magic-square strategy.

    The extraction unitary is anchored on four observables: the (2,2), (1,1)
    and (1,2) locals fix the two-qubit frame up to a rotation about the
    second qubit's x-axis, which the (2,1) local then resolves; canonical
    strategies map onto the measurement table exactly.

    The value, the scaling residuals, the row/column and P-vs-Q^T distances,
    the wrong-parity masses and the register concentration read the value's
    stacked expansion: the row observable of variable (i, j) is the
    _MS_SIGNS-signed sum of question r_i's element rows for slot j, and an
    element's normalized trace is its identity coefficient.  The dense
    derived observables, built in one product, serve only the commutators,
    anticommutators and products, each group one stacked product.
    """
    if not 0.0 < rho < 1.0:
        raise ValidationError("self-testing is defined for rho in (0, 1)")
    elems, q_rows, w = PairEvaluator(rho, m=4).expand_stacks(*strategy.stacks)
    elems = elems.reshape(len(MS_QUESTIONS), 8, -1)
    value, bias = _ms_coeff_report(elems, q_rows, w)
    idx = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    labels = [f"s{i}{j}" for i, j in idx]
    # derived[q, s] is question q's observable for slot s + 1; variable
    # (i, j) is slot j of row question r_i and slot i of column question c_j,
    # so row 3(i-1) + (j-1) of p_rows and of p_cols is variable (i, j)
    derived_rows = np.einsum("as,qax->qsx", _MS_SIGNS, elems)
    p_rows = derived_rows[:3].reshape(len(idx), -1)
    p_cols = derived_rows[3:].transpose(1, 0, 2).reshape(len(idx), -1)
    d = strategy.dim
    derived = np.einsum("as,qaij->qsij", _MS_SIGNS,
                        strategy.stacks[0].reshape(len(MS_QUESTIONS), 8, d, d))
    row_col = dict(zip(labels, _row_distances(p_rows, p_cols)))
    p_vs_qt = dict(zip(labels, _row_distances(p_rows, q_rows)))
    res_p = _scaling_residuals(p_rows, w, rho).tolist()
    res_q = _scaling_residuals(q_rows, w, rho).tolist()
    basis_a, basis_b = _basis_pair(4)
    scaling = {}
    concs = {}
    for k, (i, j) in enumerate(idx):
        scaling[f"P{i}{j}"] = res_p[k]
        scaling[f"Q{i}{j}"] = res_q[k]
        concs[f"P{i}{j}"] = _concentration(p_rows[k], basis_a)
        concs[f"Q{i}{j}"] = _concentration(q_rows[k], basis_b)

    # slots s < t of row question i - 1 and of column question i + 2
    lines = [(f"{kind}{i}:{s + 1},{t + 1}", q, s, t)
             for i in (1, 2, 3) for s, t in itertools.combinations(range(3), 2)
             for kind, q in (("row", i - 1), ("col", i + 2))]
    keys, qs, ss, ts = (list(col) for col in zip(*lines))
    same_line = dict(zip(keys, _relation_norms(derived[qs, ss], derived[qs, ts], -1).tolist()))
    # variables (i, j) < (i2, j2) on no common line, as rows 3(i-1) + (j-1)
    # of the row questions' observables
    pairs = [(k, m) for k, m in itertools.combinations(range(len(idx)), 2)
             if k // 3 != m // 3 and k % 3 != m % 3]
    ks, ms = (list(col) for col in zip(*pairs))
    p_row = derived[:3].reshape(len(idx), d, d)
    cross = dict(zip([f"{labels[k]},{labels[m]}" for k, m in pairs],
                     _relation_norms(p_row[ks], p_row[ms], 1).tolist()))

    # each question's three observables multiply to its parity target
    targets = np.array([ms_parity_target(q) for q in MS_QUESTIONS])[:, None, None]
    gaps = derived[:, 0] @ derived[:, 1] @ derived[:, 2] - targets * np.eye(d)
    products = dict(zip([("row" if q[0] == "r" else "col") + q[1] for q in MS_QUESTIONS],
                        (np.linalg.norm(gaps, axis=(-2, -1)) / np.sqrt(d)).tolist()))

    wrong_parity = dict(zip(MS_QUESTIONS,
                            ((1 - _MS_PARITY) * elems[..., 0]).sum(axis=1).tolist()))

    run = _register_entries(concs)
    register = run["register"]
    local_unitary = None
    anchor = {}
    pauli_distances = {}
    if register is not None:
        locp = {key: _local_on_register(concs[f"P{key[0]}{key[1]}"], register) for key in idx}
        locq = {key: _local_on_register(concs[f"Q{key[0]}{key[1]}"], register) for key in idx}
        if all(locp[k] is not None for k in ((2, 2), (1, 1), (1, 2), (2, 1))):
            ext = ms_local_unitary(locp[(2, 2)], locp[(1, 1)], locp[(1, 2)])
            anchor = {"P22_to_ZI": ext.dist_zi, "P11_to_XI": ext.dist_xi,
                      "P12_to_IX": ext.dist_ix}
            # resolve the residual rotation about the second qubit's x-axis
            # using the (2,1) local, whose target is I (x) Z
            m21 = ext.unitary @ locp[(2, 1)] @ ext.unitary.conj().T
            m2 = (m21[:2, :2] + m21[2:, 2:]) / 2
            m2 = m2 - np.trace(m2) / 2 * np.eye(2)
            my = float(np.trace(m2 @ SIGMA_Y).real) / 2
            mz = float(np.trace(m2 @ SIGMA_Z).real) / 2
            if np.hypot(my, mz) > 1e-9:
                alpha = np.arctan2(my, mz)
                u3 = np.kron(np.eye(2),
                             np.cos(alpha / 2) * np.eye(2) - 1j * np.sin(alpha / 2) * SIGMA_X)
                local_unitary = u3 @ ext.unitary
            else:
                local_unitary = ext.unitary
            table = magic_square_table()
            for i, j in idx:
                target = table[i - 1, j - 1]
                if locp[(i, j)] is not None:
                    img = local_unitary @ locp[(i, j)] @ local_unitary.conj().T
                    pauli_distances[f"P{i}{j}"] = hs_distance(img, target)
                if locq[(i, j)] is not None:
                    imgq = local_unitary.conj() @ locq[(i, j)] @ local_unitary.T
                    pauli_distances[f"Q{i}{j}"] = hs_distance(imgq, target.T)

    entries = {
        "rho": rho, "overall": value.overall, "epsWin": (rho - bias) / 2,
        "epsTr": trace_error(strategy),
        "rowColDistances": row_col, "pVsQtDistances": p_vs_qt, "scalingResiduals": scaling,
        "sameLineCommutators": same_line, "crossAntiCommutators": cross,
        "productDistances": products, "wrongParityMass": wrong_parity, **run,
        "localUnitary": None if local_unitary is None else matrix_to_json(local_unitary),
        "anchorDistances": anchor, "pauliDistances": pauli_distances,
    }
    return _report("magic_square", entries,
                   ("rowColDistances", "pVsQtDistances", "scalingResiduals",
                    "sameLineCommutators", "crossAntiCommutators", "productDistances",
                    "anchorDistances", "pauliDistances"), [run["concentration"]])


def two_out_of_n_selftest(strategy: TwoOutOfNStrategy, rho: float) -> SelfTestReport:
    """Per-index anticommutation, cross-index commutation, marginal-vs-single
    relation distances, register assignment with distinctness verdict, and
    per-index qubit extraction for both players.  Registers are assigned per
    player, and each index reports its singles' votes and whether they
    disagree; the verdict is distinct only when no index is ambiguous, every
    index has a register on both players and no player puts two indices on
    one register.  The value, the relation distances and the register
    concentration read the value's stacked expansion: a pair marginal's row
    is a signed sum of its POVM's element rows, and each index runs the CHSH
    self-test's pair test on its singles."""
    if not 0.0 < rho < 1.0:
        raise ValidationError("self-testing is defined for rho in (0, 1)")
    n = strategy.n
    a, b, w = PairEvaluator(rho).expand_stacks(*strategy.stacks)
    value = _two_out_of_n_report(n, (a[:2 * n] * w) @ b[2 * n:].T, (b[:2 * n] * w) @ a[2 * n:].T)

    # each player's singles, (i, x) at row 2(i-1) + x; the keys alternate
    # between the players
    singles = np.stack([stack[:2 * n] for stack in strategy.stacks])
    anti = dict(zip([f"{p}{i}" for i in range(1, n + 1) for p in "PQ"],
                    _relation_norms(singles[:, 0::2], singles[:, 1::2], 1).T.ravel().tolist()))
    keys = _pair_keys(n)
    first = [2 * (i - 1) + u for i, u, _, _ in keys]
    second = [2 * (j - 1) + v for _, _, j, v in keys]
    cross = dict(zip([f"{p}{i}{u},{p}{j}{v}" for i, u, j, v in keys for p in "PQ"],
                     _relation_norms(singles[:, first], singles[:, second], -1).T.ravel().tolist()))

    # index i's marginal in {(i, y), (j, z)} against the other player's
    # (X_i0 +- X_i1)^T / sqrt(2): R for the second player's marginals, T for
    # the first's
    def combs(rows):
        x0, x1 = rows[0:2 * n:2], rows[1:2 * n:2]
        return np.stack([x0 + x1, x0 - x1], axis=1) / np.sqrt(2.0)

    # one per pair question: the contexts with x = 0, in i, j, y, z order
    ctx = _two_out_of_n_contexts(n)
    ii, jj, _, yy, zz, _, key, side = ctx[ctx[:, 2] == 0].T
    cols = 2 * key + side
    r_dist = _row_distances(_pair_marginal_rows(n, b)[cols], combs(a)[ii - 1, yy])
    t_dist = _row_distances(_pair_marginal_rows(n, a)[cols], combs(b)[ii - 1, yy])
    relations = {}
    for i, j, y, z, r, t in zip(ii, jj, yy, zz, r_dist, t_dist):
        relations[f"R[{i}{y}|{i}{y},{j}{z}]"] = r
        relations[f"T[{i}{y}|{i}{y},{j}{z}]"] = t

    # each index's register is its four singles' consensus, and each
    # player's its own two singles'; an index whose singles disagree is
    # ambiguous
    registers, votes, ambiguous = {}, {}, {}
    # per player, index -> (its register, its two singles' locals there)
    players = {"alice": {}, "bob": {}}
    concentrations = []
    extraction = {}
    for i in range(1, n + 1):
        rows = slice(2 * (i - 1), 2 * i)  # the singles (i, 0) and (i, 1)
        labels = (f"P{i}0", f"P{i}1", f"Q{i}0", f"Q{i}1")
        concs, run, extraction[f"alice_{i}"], extraction[f"bob_{i}"] = \
            _pair_selftest(a[rows], b[rows], labels)
        registers[i], votes[str(i)], ambiguous[str(i)] = (
            run["register"], run["registerVotes"], run["registerAmbiguous"])
        concentrations.append(run["concentration"])
        for player, own in zip(players, (labels[:2], labels[2:])):
            register = _register_consensus({k: concs[k] for k in own})[0]
            players[player][i] = (register, [_local_on_register(concs[k], register) for k in own])

    # indices collide when either player puts them on one register.  The
    # contradiction is the largest |a x b| over the Bloch vectors a, b of
    # that player's index-i and index-j locals on the shared register (the
    # first player's where both collide): half their commutator norm, as
    # [a.s, b.s] = 2i (a x b).s.  A missing local (no mass there) stands in
    # as 0, which commutes with everything.
    pairs = {}
    for player, held in players.items():
        placed = [i for i in held if held[i][0] is not None]
        for i, j in itertools.combinations(placed, 2):
            if held[i][0] == held[j][0]:
                pairs.setdefault((i, j), player)
    colliding = sorted(pairs.items())

    def local(player, i, u):
        loc = players[player][i][1][u]
        return np.zeros((2, 2)) if loc is None else loc

    quads = [(p, i, u, j, v) for (i, j), p in colliding for u in (0, 1) for v in (0, 1)]
    locals_i = np.reshape([local(p, i, u) for p, i, u, _, _ in quads], (-1, 2, 2))
    locals_j = np.reshape([local(p, j, v) for p, _, _, j, v in quads], (-1, 2, 2))
    worst = (_relation_norms(locals_i, locals_j, -1) / 2).reshape(-1, 4).max(axis=1, initial=0.0)
    collisions = [{"indexA": i, "indexB": j, "register": players[p][i][0], "player": p,
                   "contradiction": c} for ((i, j), p), c in zip(colliding, worst.tolist())]
    every_placed = all(r is not None for held in players.values() for r, _ in held.values())

    entries = {
        "rho": rho, "winProb": value.win_prob, "epsV": 2 * np.sqrt(2) * rho - value.violation,
        "epsTr": trace_error(strategy), "indexAntiCommutators": anti, "crossCommutators": cross,
        "marginalRelationDistances": relations,
        "registers": {str(i): r for i, r in registers.items()},
        "registerVotes": votes, "registerAmbiguous": ambiguous,
        "distinct": not collisions and every_placed and not any(ambiguous.values()),
        "collisions": collisions, "extractionUnitaries": extraction,
    }
    return _report("two_out_of_n", entries,
                   ("indexAntiCommutators", "crossCommutators", "marginalRelationDistances"),
                   concentrations)


def general_noise_selftest(strategy: ChshStrategy,
                           spectrum: CorrelationSpectrum) -> SelfTestReport:
    """CHSH self-test under diagonal-correlation noise with the two leading
    nontrivial singular values equal.

    The diagonalizing bases are canonicalized onto the Pauli frame, the
    observables transported, and the per-player register concentration and
    qubit extraction run in that frame.  The two players' registers are
    reported separately and never asserted equal.  The four transported
    observables are expanded as one stack.
    """
    if not isinstance(strategy, ChshStrategy):
        raise ValidationError(
            f"no general-noise self-test for strategy type {type(strategy).__name__}")
    values = np.asarray(spectrum.values, dtype=float)
    if values.shape != (4,):
        raise ValidationError("expected a qubit-register correlation spectrum")
    c2, c3, c4 = values[1], values[2], values[3]
    if abs(c2 - c3) > 1e-8:
        raise ValidationError(
            f"unsupported noise: the two leading correlations differ ({c2} vs {c3})")
    r = float((c2 + c3) / 2)
    c = float(c4)
    if not 0.0 < r < 1.0:
        raise ValidationError("self-testing needs 0 < r < 1")

    violation = chsh_violation(strategy, spectrum).violation
    canon = canonicalize_to_epr(spectrum.basis_a, spectrum.basis_b)
    n = strategy.n
    ua_full, ub_full = (functools.reduce(np.kron, [u] * n) for u in (canon.u, canon.v))
    transported = np.concatenate([u @ stack @ u.conj().T
                                  for u, stack in zip((ua_full, ub_full), strategy.stacks)])
    labels = ("P0", "P1", "Q0", "Q1")
    basis = _basis_pair(2)[0]
    rows = pauli_expand(transported, basis).coeffs
    # after canonicalization indices 1, 2 carry weight r and index 3 carries c
    w = register_weight_vector([1.0, r, r, c], n)
    scaling = dict(zip(labels, _scaling_residuals(rows, w, r).tolist()))
    anti = dict(zip(("alice", "bob"),
                    _relation_norms(transported[0::2], transported[1::2], 1).tolist()))
    concs = {k: _concentration(row, basis) for k, row in zip(labels, rows)}
    reg_a, _, _ = _register_consensus({k: concs[k] for k in ("P0", "P1")})
    reg_b, _, _ = _register_consensus({k: concs[k] for k in ("Q0", "Q1")})
    entries = {
        "r": r, "c": c, "violation": violation, "epsV": 2 * np.sqrt(2) * r - violation,
        "epsTr": trace_error(strategy), "nonlocalityWarning": violation <= 2.0,
        "ySignA": canon.y_sign_a, "ySignB": canon.y_sign_b, "eprDistance": canon.epr_distance,
        "scalingResiduals": scaling, "antiCommutators": anti,
        "registerAlice": reg_a, "registerBob": reg_b,
        "concentration": _concentration_json(concs),
        "extractionUnitaries": {"alice": _extract_pair(concs, ("P0", "P1"), reg_a),
                                "bob": _extract_pair(concs, ("Q0", "Q1"), reg_b)},
    }
    return _report("chsh_general_noise", entries, ("scalingResiduals", "antiCommutators"),
                   [entries["concentration"]])


def selftest(strategy, rho: float) -> SelfTestReport:
    """The depolarizing-noise self-test of the strategy's game (games.game_of),
    its chsh_, ms_ or two_out_of_n_selftest called by name at call time."""
    game = game_of(strategy)
    if game == "chsh":
        return chsh_selftest(strategy, rho)
    if game == "magic_square":
        return ms_selftest(strategy, rho)
    return two_out_of_n_selftest(strategy, rho)


def loglog_slope(eps_values, distances) -> float:
    """Least-squares slope of log(distance) against log(eps)."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(distances, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
