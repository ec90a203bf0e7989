"""The layout of the self-test documents, pinned on any BLAS kernel.

A document's skeleton keeps its nested keys in order and every leaf that is
not a float exactly: registers, votes, labels, booleans and None.  Every
float becomes FLOAT.  test_report_pins.py holds the floats to 1e-10.  Their
last bits, and so a document's bytes, follow the OpenBLAS kernel (forced
with OPENBLAS_CORETYPE=Haswell or Nehalem); its skeleton does not.  Each
case's skeleton digest in DIGESTS was recorded when every self-test still
had a report class of its own, so it also pins the documents' layout across
that change.
"""

import hashlib
import json

import numpy as np
import pytest

from noisygames.cli import _json_default
from noisygames.extraction import general_noise_selftest, selftest
from noisygames.games import (
    ChshStrategy,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    conjugate_on_register,
    haar_unitary,
)
from noisygames.serialize import selftest_to_json, strategy_from_json, strategy_to_json
from noisygames.states import bit_phase_flip_epr, diagonalize_correlation

FLOAT = "<float>"


def skeleton(doc):
    """doc with every float replaced by FLOAT, all else kept in order."""
    if isinstance(doc, dict):
        return {k: skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [skeleton(v) for v in doc]
    return FLOAT if isinstance(doc, float) else doc


def digest(doc) -> str:
    """sha256 of the skeleton of doc as the CLI writes it."""
    text = json.dumps(doc, default=_json_default)
    return hashlib.sha256(json.dumps(skeleton(json.loads(text))).encode()).hexdigest()


def literal(strategy):
    """strategy as a strategy file holds it, every operator written out."""
    return strategy_from_json(json.loads(json.dumps(strategy_to_json(strategy))))


def rotated_chsh():
    # the canonical optimum disguised by a local unitary on register 2
    w = haar_unitary(2, np.random.default_rng(66))
    base = canonical_chsh_strategy(2, register=2)
    return ChshStrategy(2, tuple(conjugate_on_register(p, w, 2, 2) for p in base.alice),
                        tuple(conjugate_on_register(q, w.conj(), 2, 2) for q in base.bob))


def uniform_row_magic_square():
    # question r1 answered by the uniform POVM: half its mass has wrong parity
    base = canonical_magic_square_strategy(1)
    povms = {**base.alice_povms, "r1": np.stack([np.eye(4) / 8] * 8)}
    return MagicSquareStrategy(1, povms, base.bob_observables)


def colliding_two_out_of_n():
    # index 2 plays index 1's first-player singles, on index 1's register
    base = canonical_two_out_of_n_strategy(2)
    singles = {**base.alice_singles, (2, 0): base.alice_singles[(1, 0)],
               (2, 1): base.alice_singles[(1, 1)]}
    return TwoOutOfNStrategy(2, 2, singles, dict(base.bob_singles),
                             dict(base.alice_pair_povms), dict(base.bob_pair_povms))


def symbolic(game, kind, **fields):
    return lambda: strategy_from_json({"kind": kind, "game": game, **fields})


# name -> (strategy builder, rho, channel): a symbolic strategy as the CLI
# builds it, or a literal one as a strategy file gives it
CASES = {
    "chsh-canonical-n3": (symbolic("chsh", "canonical", n=3, register=2), 0.7, None),
    "chsh-perturbed-n2": (symbolic("chsh", "canonical-perturbed", n=2, theta=0.2), 0.8, None),
    "chsh-random5-n2": (symbolic("chsh", "random", n=2, seed=5), 0.8, None),
    "chsh-literal-rotated": (lambda: literal(rotated_chsh()), 0.7, None),
    "ms-canonical": (symbolic("magic_square", "canonical"), 0.8, None),
    "ms-perturbed": (symbolic("magic_square", "canonical-perturbed", theta=0.2), 0.75, None),
    "ms-random5": (symbolic("magic_square", "random", seed=5), 0.75, None),
    "ms-literal-uniform-r1": (lambda: literal(uniform_row_magic_square()), 0.7, None),
    "t2n-canonical-n3": (symbolic("two_out_of_n", "canonical", n=3), 0.7, None),
    "t2n-canonical-n5": (symbolic("two_out_of_n", "canonical", n=5), 0.75, None),
    "t2n-perturbed-n3": (symbolic("two_out_of_n", "canonical-perturbed", n=3, theta=0.1),
                         0.75, None),
    "t2n-literal-collision": (lambda: literal(colliding_two_out_of_n()), 0.7, None),
    "general-noise-canonical-n1": (symbolic("chsh", "canonical"), 0.8, "bit-phase-flip"),
    "general-noise-perturbed-n2": (symbolic("chsh", "canonical-perturbed", n=2, theta=0.2),
                                   0.8, "bit-phase-flip"),
    "general-noise-random5-n1": (symbolic("chsh", "random", seed=5), 0.8, "bit-phase-flip"),
}

DIGESTS = {
    "chsh-canonical-n3":
        "e12521c43d01939a1fffe7065f71e1d3a143d1471bd31865a13ace4c73dcf3b3",
    "chsh-perturbed-n2":
        "1b0208b3176190be08bdb18963b5a83c01ed5b5deb0013d7641d602430be8d69",
    "chsh-random5-n2":
        "f2c446e24a54629f1903b0d3601b22955e48e71534f7206aa38867e869c4397b",
    "chsh-literal-rotated":
        "88374c594d5e54d88f13feb6350e468a2f0555269d8a78c5253e022f51729519",
    "ms-canonical":
        "78b0d3fc522163137c4ea357cb9fc70cd806193c2d124f00f6f665ba97acd567",
    "ms-perturbed":
        "78b0d3fc522163137c4ea357cb9fc70cd806193c2d124f00f6f665ba97acd567",
    "ms-random5":
        "78b0d3fc522163137c4ea357cb9fc70cd806193c2d124f00f6f665ba97acd567",
    "ms-literal-uniform-r1":
        "47279c89b82c5ab2b9543df26eb9e3c4fdecd3b3153717942dfa714f6a09f35d",
    "t2n-canonical-n3":
        "0370817dd6177d50437a15975cc9321b2be22826261a67e836725ac6eed7b215",
    "t2n-canonical-n5":
        "ab168d9094ec34c38ee9c3bc0bad2b40ee38e5e23635d7e43290c2895e8eafdb",
    "t2n-perturbed-n3":
        "0370817dd6177d50437a15975cc9321b2be22826261a67e836725ac6eed7b215",
    "t2n-literal-collision":
        "73ace0f762bd5c3fff6e51211e0717b7ea1d2865b13d6eb06199fcd1ccaa4b4b",
    "general-noise-canonical-n1":
        "c92ab71ee70cc644f3f8d7319cc262c7000991cf776191f3d37172c424fe16a3",
    "general-noise-perturbed-n2":
        "931fd3351294e25b1dc9219b32366d0e9441d333ad7da6dcc76c9268c36901fe",
    "general-noise-random5-n1":
        "a1d4672f3e6d3b36313e8e6119d053c8a05af6b14fcebee0af20342ee50a46d9",
}


def document(name: str) -> dict:
    build, rho, channel = CASES[name]
    if channel == "bit-phase-flip":
        spectrum = diagonalize_correlation(bit_phase_flip_epr(rho))
        return selftest_to_json(general_noise_selftest(build(), spectrum))
    return selftest_to_json(selftest(build(), rho))


@pytest.mark.parametrize("name", sorted(CASES))
def test_selftest_layout_matches_its_pin(name):
    assert digest(document(name)) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


def test_skeleton_keeps_order_and_every_exact_leaf():
    doc = {"b": [1.5, None, True, 2, "s12"], "a": {"x": 0.0}}
    assert list(skeleton(doc)) == ["b", "a"]
    assert skeleton(doc) == {"b": [FLOAT, None, True, 2, "s12"], "a": {"x": FLOAT}}
    assert digest({"a": 1.0, "b": 2}) != digest({"b": 2, "a": 1.0})
    assert digest({"a": 1.0, "b": 2}) == digest({"a": -3.25, "b": 2})
    assert digest({"a": 1.0, "b": 2}) != digest({"a": 1.0, "b": 3})
