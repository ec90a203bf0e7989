"""Strategy validation: each strategy checks its observables as one stack and
its POVM elements as one stack, and an error names the first bad operator
with the message the one-operator check (`require_observable`,
`require_povm`) gives for it."""

import numpy as np
import pytest

from noisygames.games import (
    MS_QUESTIONS,
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    require_observable,
    require_povm,
)
from noisygames.pauli import ValidationError


def _entry(op, value, at=(0, 0)):
    op = np.array(op, dtype=complex)
    op[at] = value
    return op


def _not_psd(povm):
    # move half of one element onto another: the sum stays I, and the
    # elements are orthogonal projectors, so the lowered one goes negative
    povm = np.array(povm, dtype=complex)
    small, large = np.argsort(np.trace(povm, axis1=1, axis2=2).real)[-2:]
    povm[small] -= 0.5 * povm[large]
    povm[large] *= 1.5
    return povm


OBSERVABLE_DEFECTS = {
    "non-finite": (lambda op: _entry(op, np.nan), "has non-finite entries"),
    "non-Hermitian": (lambda op: _entry(op, op[0, 1] + 0.5, (0, 1)), "is not Hermitian"),
    "norm-above-one": (lambda op: 1.5 * op, "has spectral norm 1.500000 > 1"),
    "wrong-dimension": (lambda op: np.kron(op, np.eye(2)), "matrix, got shape"),
}

POVM_DEFECTS = {
    "non-finite": (lambda p: np.stack([_entry(p[0], np.inf), *p[1:]]), "has non-finite entries"),
    "non-Hermitian": (lambda p: np.stack([p[0], _entry(p[1], 0.5, (0, 1)), *p[2:]]),
                      "element 1 is not Hermitian"),
    "not-PSD": (_not_psd, "is not PSD"),
    "not-summing-to-identity": (lambda p: 0.9 * np.asarray(p), "does not sum to identity"),
    "wrong-dimension": (lambda p: np.stack([np.kron(e, np.eye(2)) for e in p]),
                        "must be a stack of"),
}


def _message(build):
    with pytest.raises(ValidationError) as exc:
        build()
    return str(exc.value)


def _check(defects, defect, label, single, strategy):
    """The strategy's error is the one-operator error, and names `label`."""
    make_bad, fragment = defects[defect]
    expected = _message(lambda: single(make_bad))
    assert _message(lambda: strategy(make_bad)) == expected
    assert expected.startswith(f"{label} ") and fragment in expected


@pytest.mark.parametrize("defect", OBSERVABLE_DEFECTS)
def test_chsh_strategy_names_the_bad_observable(defect):
    base = canonical_chsh_strategy(1)
    _check(OBSERVABLE_DEFECTS, defect, "P1",
           lambda bad: require_observable(bad(base.alice[1]), 2, "P1"),
           lambda bad: ChshStrategy(1, (base.alice[0], bad(base.alice[1])), base.bob))


@pytest.mark.parametrize("defect", OBSERVABLE_DEFECTS)
def test_magic_square_strategy_names_the_bad_observable(defect):
    base = canonical_magic_square_strategy(1)
    bob = dict(base.bob_observables)
    _check(OBSERVABLE_DEFECTS, defect, "Q23",
           lambda bad: require_observable(bad(bob[(2, 3)]), 4, "Q23"),
           lambda bad: MagicSquareStrategy(1, base.alice_povms,
                                           {**bob, (2, 3): bad(bob[(2, 3)])}))


@pytest.mark.parametrize("defect", POVM_DEFECTS)
def test_magic_square_strategy_names_the_bad_povm(defect):
    base = canonical_magic_square_strategy(1)
    povms = dict(base.alice_povms)
    _check(POVM_DEFECTS, defect, "POVM r2",
           lambda bad: require_povm(bad(povms["r2"]), 4, "POVM r2"),
           lambda bad: MagicSquareStrategy(1, {**povms, "r2": bad(povms["r2"])},
                                           base.bob_observables))


def _two_out_of_two(**changes):
    base = canonical_two_out_of_n_strategy(2)
    parts = {"alice_singles": base.alice_singles, "bob_singles": base.bob_singles,
             "alice_pair_povms": base.alice_pair_povms, "bob_pair_povms": base.bob_pair_povms}
    return base, lambda: TwoOutOfNStrategy(2, 2, **{**parts, **changes})


@pytest.mark.parametrize("defect", OBSERVABLE_DEFECTS)
def test_two_out_of_n_strategy_names_the_bad_single(defect):
    base, _ = _two_out_of_two()
    op = base.bob_singles[(2, 1)]
    _check(OBSERVABLE_DEFECTS, defect, "Q[2,1]",
           lambda bad: require_observable(bad(op), 4, "Q[2,1]"),
           lambda bad: _two_out_of_two(bob_singles={**base.bob_singles, (2, 1): bad(op)})[1]())


@pytest.mark.parametrize("defect", POVM_DEFECTS)
def test_two_out_of_n_strategy_names_the_bad_pair_povm(defect):
    base, _ = _two_out_of_two()
    key = (1, 0, 2, 1)
    povm = base.bob_pair_povms[key]
    _check(POVM_DEFECTS, defect, f"pair POVM {key}",
           lambda bad: require_povm(bad(povm), 4, f"pair POVM {key}"),
           lambda bad: _two_out_of_two(
               bob_pair_povms={**base.bob_pair_povms, key: bad(povm)})[1]())


def test_the_first_bad_member_is_named():
    # P1's norm is checked after Q0's Hermiticity in a stage-by-stage scan,
    # but P1 comes first, as it did when each operator was checked alone
    base = canonical_chsh_strategy(1)
    with pytest.raises(ValidationError, match="^P1 has spectral norm"):
        ChshStrategy(1, (base.alice[0], 1.5 * base.alice[1]),
                     (_entry(base.bob[0], 0.5, (0, 1)), base.bob[1]))


def test_a_bad_pair_povm_past_the_first_chunk_is_named():
    # a 2-out-of-5 player holds 40 pair POVMs of 4 x 32 x 32 complex
    # entries, more than one validation chunk
    base = canonical_two_out_of_n_strategy(5)
    key = (4, 1, 5, 1)
    bob = {**base.bob_pair_povms, key: 0.9 * base.bob_pair_povms[key]}
    with pytest.raises(ValidationError, match=r"^pair POVM \(4, 1, 5, 1\) does not sum"):
        TwoOutOfNStrategy(5, 5, base.alice_singles, base.bob_singles,
                          base.alice_pair_povms, bob)


def test_missing_and_misshapen_operators_are_named():
    base, build = _two_out_of_two(alice_singles={})
    with pytest.raises(ValidationError, match=r"^missing single observable P\[1,0\]$"):
        build()
    key = (1, 0, 2, 0)
    merged = base.alice_pair_povms[key]
    merged = np.stack([merged[0] + merged[1], merged[2], merged[3]])
    _, build = _two_out_of_two(alice_pair_povms={**base.alice_pair_povms, key: merged})
    with pytest.raises(ValidationError, match=r"^pair POVM \(1, 0, 2, 0\) must have 4 outcomes$"):
        build()
    chsh = canonical_chsh_strategy(1)
    with pytest.raises(ValidationError, match="two observables per player"):
        ChshStrategy(1, chsh.alice[:1], chsh.bob)


def test_strategies_leave_the_callers_operators_alone():
    ms = canonical_magic_square_strategy(1)
    povms = {q: ms.alice_povms[q].tolist() for q in MS_QUESTIONS}
    bob = {v: op.tolist() for v, op in ms.bob_observables.items()}
    given = (dict(povms), dict(bob))
    built = MagicSquareStrategy(1, povms, bob)
    assert all(povms[q] is given[0][q] for q in MS_QUESTIONS)
    assert all(bob[v] is given[1][v] for v in bob)
    assert np.array_equal(built.alice_povms["r1"], ms.alice_povms["r1"])

    base = canonical_two_out_of_n_strategy(2)
    parts = [{k: v.tolist() for k, v in part.items()}
             for part in (base.alice_singles, base.bob_singles,
                          base.alice_pair_povms, base.bob_pair_povms)]
    given = [dict(part) for part in parts]
    TwoOutOfNStrategy(2, 2, *parts)
    for part, before in zip(parts, given):
        assert part.keys() == before.keys()
        assert all(part[k] is before[k] for k in part)


def _operators(strategy):
    """Every operator a strategy holds, POVMs as stacks."""
    if isinstance(strategy, ChshStrategy):
        return [*strategy.alice, *strategy.bob]
    if isinstance(strategy, MagicSquareStrategy):
        return [*strategy.alice_povms.values(), *strategy.bob_observables.values()]
    return [op for part in (strategy.alice_singles, strategy.bob_singles,
                            strategy.alice_pair_povms, strategy.bob_pair_povms)
            for op in part.values()]


@pytest.mark.parametrize("canonical", [
    lambda: canonical_chsh_strategy(2),
    lambda: canonical_magic_square_strategy(1),
    lambda: canonical_two_out_of_n_strategy(3),
], ids=["chsh", "magic_square", "two_out_of_n"])
def test_strategies_hold_read_only_copies(canonical):
    base = canonical()
    given = [np.array(op) for op in _operators(base)]
    # rebuild from writable arrays of the caller's, in the field order
    if isinstance(base, ChshStrategy):
        built = ChshStrategy(base.n, tuple(given[:2]), tuple(given[2:]))
    elif isinstance(base, MagicSquareStrategy):
        built = MagicSquareStrategy(base.n, dict(zip(MS_QUESTIONS, given[:6])),
                                    dict(zip(base.bob_observables, given[6:])))
    else:
        parts = [base.alice_singles, base.bob_singles,
                 base.alice_pair_povms, base.bob_pair_povms]
        it = iter(given)
        built = TwoOutOfNStrategy(base.n, base.n_prime,
                                  *({k: next(it) for k in part} for part in parts))
    held = _operators(built)
    assert all(op.dtype == complex and not op.flags.writeable for op in held)
    assert all(op.flags.writeable for op in given)
    assert not any(np.shares_memory(op, g) for op in held for g in given)
    with pytest.raises(ValueError, match="read-only"):
        held[0][0, 0] = 2.0


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("perturb", [
    lambda theta: perturbed_chsh_strategy(1, 1, theta),
    lambda theta: perturbed_magic_square_strategy(1, 1, theta),
    lambda theta: perturbed_two_out_of_n_strategy(2, theta),
], ids=["chsh", "magic_square", "two_out_of_n"])
@pytest.mark.filterwarnings("error")
def test_perturbed_strategies_reject_a_non_finite_theta(perturb, theta):
    with pytest.raises(ValidationError, match=f"^theta must be a finite angle, got {theta}$"):
        perturb(theta)
