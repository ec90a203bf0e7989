"""Every validating entry point against every failure kind that applies to
it, as one table.  Each cell builds the entry point's input with the defect
in one member and, where the input holds several, in a later one too, and
asserts the ValidationError, the label of the first bad member and the check
it fails."""

import numpy as np
import pytest

from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    require_observable,
    require_povm,
)
from noisygames import pauli
from noisygames.pauli import (
    StandardBasis,
    ValidationError,
    pauli_basis,
    pauli_expand,
    require_hermitian,
)
from noisygames.states import BipartiteState, make_depolarized_epr


def _entry(op, value, at=(0, 0)):
    op = np.array(op, dtype=complex)
    op[at] = value
    return op


def _not_psd(povm):
    # move half of the largest element onto another: the sum stays I, and
    # the elements are orthogonal projectors, so the lowered one goes negative
    povm = np.array(povm, dtype=complex)
    small, large = np.argsort(np.trace(povm, axis1=1, axis2=2).real)[-2:]
    povm[small] -= 0.5 * povm[large]
    povm[large] *= 1.5
    return povm


def _grown(op):
    return np.kron(op, np.eye(2))


# failure kind -> (defect of one matrix, of one POVM), None where it does
# not apply
DEFECTS = {
    "wrong shape": (_grown, lambda p: np.stack([_grown(e) for e in p])),
    "non-finite": (lambda op: _entry(op, np.nan),
                   lambda p: np.stack([_entry(p[0], np.inf), *p[1:]])),
    "non-Hermitian": (lambda op: _entry(op, op[0, 1] + 0.5, (0, 1)),
                      lambda p: np.stack([p[0], _entry(p[1], p[1][0, 1] + 0.5, (0, 1)), *p[2:]])),
    "norm above 1": (lambda op: 1.5 * op, None),
    "not PSD": (None, _not_psd),
    "not summing to I": (None, lambda p: 0.9 * np.asarray(p)),
}

OBSERVABLE = {"wrong shape": "must be a {d}x{d} matrix, got shape",
              "non-finite": "has non-finite entries",
              "non-Hermitian": "is not Hermitian (max deviation 5.000e-01)",
              "norm above 1": "has spectral norm 1.500000 > 1"}
POVM = {"wrong shape": "must be a stack of {d}x{d} matrices",
        "non-finite": "has non-finite entries",
        "non-Hermitian": "element 1 is not Hermitian (max deviation 5.000e-01)",
        "not PSD": "is not PSD (min eigenvalue",
        "not summing to I": "does not sum to identity (max deviation"}
HERMITIAN = {"non-finite": "has non-finite entries",
             "non-Hermitian": "is not Hermitian (max deviation 5.000e-01)"}


def _chsh(bad):
    s = canonical_chsh_strategy(1)
    return lambda: ChshStrategy(1, (s.alice[0], bad(s.alice[1])), (bad(s.bob[0]), s.bob[1]))


def _ms_observables(bad):
    s = canonical_magic_square_strategy(1)
    bob = {**s.bob_observables, (2, 3): bad(s.bob_observables[(2, 3)]),
           (3, 1): bad(s.bob_observables[(3, 1)])}
    return lambda: MagicSquareStrategy(1, s.alice_povms, bob)


def _ms_povms(bad):
    s = canonical_magic_square_strategy(1)
    povms = {**s.alice_povms, "r2": bad(s.alice_povms["r2"]), "c1": bad(s.alice_povms["c1"])}
    return lambda: MagicSquareStrategy(1, povms, s.bob_observables)


def _two_out_of_two(**bad_parts):
    s = canonical_two_out_of_n_strategy(2)
    parts = {"alice_singles": s.alice_singles, "bob_singles": s.bob_singles,
             "alice_pair_povms": s.alice_pair_povms, "bob_pair_povms": s.bob_pair_povms}
    for part, (keys, bad) in bad_parts.items():
        parts[part] = {**parts[part], **{key: bad(parts[part][key]) for key in keys}}
    return lambda: TwoOutOfNStrategy(2, 2, **parts)


def _singles(bad):
    # P[i,x] and Q[i,x] alternate: Q[1,0] comes before P[1,1]
    return _two_out_of_two(bob_singles=([(1, 0)], bad), alice_singles=([(1, 1)], bad))


def _pair_povms(bad):
    # the first player's POVMs come before the second's
    return _two_out_of_two(bob_pair_povms=([(1, 0, 2, 1)], bad),
                           alice_pair_povms=([(1, 1, 2, 0)], bad))


def _stack(bad):
    ops = pauli_basis().elements[1:]
    return lambda: pauli_expand(np.stack([ops[0], bad(ops[1]), bad(ops[2])]), pauli_basis())


def _basis(bad):
    elems = np.array(pauli_basis().elements)
    return lambda: StandardBasis(2, np.stack([elems[0], elems[1], bad(elems[2]), bad(elems[3])]))


def _density(bad):
    return lambda: BipartiteState(2, 2, bad(make_depolarized_epr(0.8, 1).density))


def _case(build, side, label, messages, dim):
    """(build, defect side, label, expected message fragment) per kind."""
    return {kind: (build, side, label, message.format(d=dim)) for kind, message in messages.items()}


TABLE = {
    "ChshStrategy": _case(_chsh, 0, "P1", OBSERVABLE, 2),
    "MagicSquareStrategy observable": _case(_ms_observables, 0, "Q23", OBSERVABLE, 4),
    "MagicSquareStrategy POVM": _case(_ms_povms, 1, "POVM r2", POVM, 4),
    "TwoOutOfNStrategy single": _case(_singles, 0, "Q[1,0]", OBSERVABLE, 4),
    "TwoOutOfNStrategy pair POVM": _case(_pair_povms, 1, "pair POVM (1, 1, 2, 0)", POVM, 4),
    "require_observable": _case(
        lambda bad: lambda: require_observable(bad(canonical_chsh_strategy(1).bob[1]), 2, "X"),
        0, "X", OBSERVABLE, 2),
    "require_povm": _case(
        lambda bad: lambda: require_povm(bad(canonical_magic_square_strategy(1).alice_povms["c3"]),
                                         4, "E"),
        1, "E", POVM, 4),
    "require_hermitian": _case(lambda bad: lambda: require_hermitian(bad(np.diag([1.0, -1.0]))),
                               0, "matrix", HERMITIAN, 2),
    "pauli_expand": _case(_stack, 0, "stack member 1", HERMITIAN, 2),
    "StandardBasis": _case(_basis, 0, "basis element 2", HERMITIAN, 2),
    "BipartiteState": _case(_density, 0, "density", HERMITIAN, 4),
}
# cells whose input is built whole: a wrong shape of one square matrix or
# stack names no member, and a density is its own one member
TABLE["require_hermitian"]["wrong shape"] = (
    lambda bad: lambda: require_hermitian(np.ones((2, 3))), 0, "expected", "a square matrix")
TABLE["pauli_expand"]["wrong shape"] = (
    lambda bad: lambda: pauli_expand(np.ones((3, 2, 2, 2)), pauli_basis()), 0, "expected",
    "a square matrix or a stack of them, got shape (3, 2, 2, 2)")
TABLE["StandardBasis"]["wrong shape"] = (
    lambda bad: lambda: StandardBasis(2, np.ones((3, 2, 2))), 0, "basis", "needs shape (4, 2, 2)")
TABLE["BipartiteState"]["wrong shape"] = (
    lambda bad: lambda: BipartiteState(2, 3, make_depolarized_epr(0.8, 1).density), 0, "density",
    "of shape (4, 4) does not match dims (2,3)")
TABLE["BipartiteState"]["not PSD"] = (
    lambda bad: lambda: BipartiteState(2, 2, np.diag([0.5, 0.5, 0.5, -0.5])), 0, "density",
    "is not PSD (min eigenvalue -5.000e-01)")
TABLE["BipartiteState"]["density trace not 1"] = (
    lambda bad: lambda: BipartiteState(2, 2, np.eye(4) / 2), 0, "density",
    "trace is 2.000000000000, not 1")

CELLS = [(entry, kind) for entry, kinds in TABLE.items() for kind in kinds]


@pytest.mark.parametrize("entry, kind", CELLS,
                         ids=[f"{e}-{k}".replace(" ", "_") for e, k in CELLS])
def test_first_bad_member_and_failed_check_are_named(entry, kind):
    build, side, label, fragment = TABLE[entry][kind]
    defect = DEFECTS[kind][side] if kind in DEFECTS else None
    with pytest.raises(ValidationError) as exc:
        build(defect)()
    message = str(exc.value)
    assert message.startswith(f"{label} "), message
    assert fragment in message, message


def test_every_failure_kind_is_in_the_table():
    kinds = {kind for _, kind in CELLS}
    assert kinds == set(DEFECTS) | {"density trace not 1"}
    assert {entry.split()[0] for entry, _ in CELLS} == {
        "ChshStrategy", "MagicSquareStrategy", "TwoOutOfNStrategy", "require_observable",
        "require_povm", "require_hermitian", "pauli_expand", "StandardBasis", "BipartiteState"}


# The eigenvalue bound is tried by identity first (A^2 = I for an
# observable, E^2 = E for a POVM element or a density), and a chunk that
# fails it takes eigvalsh.  Each row names an input, whether the identity
# route accepts it, and the outcome eigvalsh gives; both routes must give
# that outcome and message.

def _projective_povm():
    return canonical_magic_square_strategy(1).alice_povms["r1"]


def _lowered(povm, low):
    # move a rank-one piece of element 0, along a unit vector in the range
    # of another element, onto that element: the sum stays I, and element 0
    # gets eigenvalue low
    povm = np.array(povm, dtype=complex)
    other = 1 + int(np.argmax(np.trace(povm[1:], axis1=1, axis2=2).real))
    v = np.linalg.eigh(povm[other])[1][:, -1]
    piece = -low * np.outer(v, v.conj())
    povm[0] -= piece
    povm[other] += piece
    return povm


def _nudged(povm, eps):
    # a Hermitian perturbation of every element that keeps the sum at I
    povm = np.array(povm, dtype=complex)
    h = np.diag(np.arange(1.0, 5.0)) + np.ones((4, 4))
    povm[0] += eps * h
    povm[1] -= eps * h
    return povm


ROUTES = {
    "exact projector": (lambda: require_povm(_projective_povm(), 4), True, None),
    "exact involution": (lambda: require_observable(canonical_chsh_strategy(1).bob[0], 2),
                         True, None),
    "projector nudged by 1e-12": (lambda: require_povm(_nudged(_projective_povm(), 1e-12), 4),
                                  True, None),
    "projector with eigenvalue -5e-10": (
        lambda: require_povm(_lowered(_projective_povm(), -5e-10), 4), False, None),
    "projector with eigenvalue -2e-9": (
        lambda: require_povm(_lowered(_projective_povm(), -2e-9), 4, "E"), False,
        "E element 0 is not PSD (min eigenvalue -2.000e-09)"),
    "non-projective POVM": (lambda: require_povm(np.stack([np.eye(4) / 8] * 8), 4), False, None),
    "norm-1 bounded observable": (lambda: require_observable(np.diag([1.0, 0.5]), 2),
                                  False, None),
    "norm 1 + 1e-8 observable": (lambda: require_observable(np.diag([1.0 + 1e-8, -1.0]), 2, "X"),
                                 False, "X has spectral norm 1.000000 > 1"),
    "pure density": (lambda: make_depolarized_epr(1.0, 1), True, None),
    "mixed density": (lambda: make_depolarized_epr(0.8, 1), False, None),
}


def _outcome(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("row", sorted(ROUTES))
def test_identity_route_and_eigvalsh_route_agree(row, monkeypatch):
    build, by_identity, want = ROUTES[row]
    assert _outcome(build) == want
    with monkeypatch.context() as m:
        m.setattr(pauli, "_identity_accepts", lambda *args: False)
        assert _outcome(build) == want
    with monkeypatch.context() as m:
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        m.setattr(np.linalg, "eigvalsh", refuse)
        if by_identity:
            assert _outcome(build) == want
        else:
            with pytest.raises(AssertionError, match="eigvalsh called"):
                build()


def test_canonical_builds_call_no_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    canonical_chsh_strategy(2)
    canonical_magic_square_strategy(1)
    canonical_magic_square_strategy(2, register=2)
    canonical_two_out_of_n_strategy(4)
