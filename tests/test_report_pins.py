"""Pins of the certificate and self-test reports.

Every report below was serialized with `certificate_to_json` or
`selftest_to_json` and recorded in `report_pins.json` from the per-operator
certificates and self-tests, before they read stacked coefficient rows.
Each scalar must match within 1e-10; booleans, registers, votes and labels
must match exactly.  Extraction unitaries are not compared entry-wise, since
a degenerate eigenspace may rotate them; the distances they yield are,
except where nothing fixes the frame they are measured in (UNDETERMINED).
The 2-out-of-n self-tests' registerVotes, registerAmbiguous, distinct and
collisions were re-recorded when registers came to be assigned per player;
every other value in them is as first recorded.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from noisygames.cli import _json_default
from noisygames.certificates import chsh_sos_certificate, ms_consistency_certificate
from noisygames.extraction import (
    chsh_selftest,
    general_noise_selftest,
    ms_selftest,
    two_out_of_n_selftest,
)
from noisygames.games import (
    TwoOutOfNStrategy,
    _pair_keys,
    add_trace_bias,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    derived_observable,
    haar_unitary,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    random_traceless_binary,
    trace_error,
)
from noisygames.serialize import certificate_to_json, selftest_to_json
from noisygames.states import bit_phase_flip_epr, diagonalize_correlation

PINS = Path(__file__).with_name("report_pins.json")
TOL = 1e-10
UNITARY_KEYS = {"unitary", "localUnitary"}
# In this strategy the (1,2) row observable is minus the (1,1) one, so no
# anchor fixes the magic-square extraction frame's rotation of the second
# qubit about z: rounding picks it.  Adding a 1e-16 Hermitian to one POVM
# element moved these distances by up to 0.47 in the per-operator code.
UNDETERMINED = {"selftest/ms-random-projective-0.2-n1": "pauliDistances"}


def random_two_out_of_n_strategy(n: int, seed: int, bias: float) -> TwoOutOfNStrategy:
    """Random binary singles and random projective pair POVMs (each element
    a Haar-conjugated diagonal 0/1 mask), with optional trace bias on the
    singles."""
    rng = np.random.default_rng(seed)
    d = 2 ** n
    singles = [(i, x) for i in range(1, n + 1) for x in (0, 1)]
    players = []
    for _ in range(2):
        ops = {s: random_traceless_binary(d, rng) for s in singles}
        if bias:
            ops = {s: add_trace_bias(op, rng.uniform(-bias, bias)) for s, op in ops.items()}
        povms = {}
        for key in _pair_keys(n):
            u = haar_unitary(d, rng)
            outcome = rng.integers(0, 4, size=d)
            povms[key] = np.stack([(u * (outcome == e)) @ u.conj().T for e in range(4)])
        players.append((ops, povms))
    (a_ops, a_povms), (b_ops, b_povms) = players
    return TwoOutOfNStrategy(n, n, a_ops, b_ops, a_povms, b_povms)


def chsh_strategies():
    for n in (1, 2, 3):
        yield f"chsh-canonical-n{n}", canonical_chsh_strategy(n, register=n)
        yield f"chsh-perturbed-n{n}", perturbed_chsh_strategy(n, 1, 0.17)
        for kind in ("binary", "bounded"):
            for bias in (0.0, 0.2):
                rng = np.random.default_rng([801, n, len(kind), int(10 * bias)])
                yield (f"chsh-random-{kind}-{bias}-n{n}",
                       random_chsh_strategy(n, rng, kind=kind, trace_bias=bias))


def ms_strategies():
    for n in (1, 2):
        yield f"ms-canonical-n{n}", canonical_magic_square_strategy(n, register=n)
        yield f"ms-perturbed-n{n}", perturbed_magic_square_strategy(n, 1, 0.13)
        for kind in ("projective", "raw"):
            for bias in (0.0, 0.2):
                rng = np.random.default_rng([802, n, len(kind), int(10 * bias)])
                yield (f"ms-random-{kind}-{bias}-n{n}",
                       random_magic_square_strategy(n, rng, kind=kind, trace_bias=bias))


def two_out_of_n_strategies():
    for n in (2, 3, 4, 5):
        yield f"t2n-canonical-n{n}", canonical_two_out_of_n_strategy(n)
        yield f"t2n-perturbed-n{n}", perturbed_two_out_of_n_strategy(n, 0.21, index=2)
        for bias in (0.0, 0.2):
            yield (f"t2n-random-{bias}-n{n}",
                   random_two_out_of_n_strategy(n, 803 + 10 * n + int(10 * bias), bias))


def reports() -> dict:
    """Every pinned report by name, as serialized JSON."""
    out = {}
    for name, strat in chsh_strategies():
        eps_tr = trace_error(strat)
        for side in ("bob", "alice"):
            out[f"certificate/{name}/{side}"] = certificate_to_json(
                chsh_sos_certificate(strat, 0.83, noise_on=side), eps_tr=eps_tr)
        out[f"selftest/{name}"] = selftest_to_json(chsh_selftest(strat, 0.71))
    for name, strat in ms_strategies():
        eps_tr = trace_error(strat)
        for variable in ((1, 1), (2, 3), (3, 2)):
            out[f"certificate/{name}/{variable[0]}{variable[1]}"] = certificate_to_json(
                ms_consistency_certificate(strat, 0.77, variable), eps_tr=eps_tr)
        out[f"selftest/{name}"] = selftest_to_json(ms_selftest(strat, 0.74))
    for name, strat in two_out_of_n_strategies():
        out[f"selftest/{name}"] = selftest_to_json(two_out_of_n_selftest(strat, 0.76))
    spectrum = diagonalize_correlation(bit_phase_flip_epr(0.8))
    for name, strat in (("canonical-n1", canonical_chsh_strategy(1)),
                        ("canonical-n2", canonical_chsh_strategy(2, register=2)),
                        ("perturbed-n2", perturbed_chsh_strategy(2, 1, 0.17))):
        out[f"general-noise/{name}"] = selftest_to_json(general_noise_selftest(strat, spectrum))
    return json.loads(json.dumps(strip_unitaries(out), default=_json_default))


def strip_unitaries(doc):
    if isinstance(doc, dict):
        return {k: strip_unitaries(v) for k, v in doc.items() if k not in UNITARY_KEYS}
    if isinstance(doc, list):
        return [strip_unitaries(v) for v in doc]
    return doc


def mismatches(got, want, path: str = "") -> list:
    """Paths where got differs from want: floats beyond TOL, anything else
    unequal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}/{i}")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= TOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def current():
    return reports()


RECORDED = json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_report_matches_its_pin(current, name):
    assert name in current
    got, want = dict(current[name]), dict(RECORDED[name])
    if name in UNDETERMINED:
        assert got.pop(UNDETERMINED[name]).keys() == want.pop(UNDETERMINED[name]).keys()
    assert mismatches(got, want) == []


def test_undetermined_frame_has_its_cause():
    strat = dict(ms_strategies())["ms-random-projective-0.2-n1"]
    povm = strat.alice_povms["r1"]
    assert np.abs(derived_observable(povm, 1) + derived_observable(povm, 2)).max() < 1e-12


def test_every_report_is_pinned(current):
    assert sorted(current) == sorted(RECORDED)


def test_mismatches_sees_a_moved_scalar():
    assert mismatches({"a": [1.0, True]}, {"a": [1.0, True]}) == []
    assert mismatches({"a": [1.0 + 1e-11]}, {"a": [1.0]}) == []
    assert mismatches({"a": [1.0 + 1e-9]}, {"a": [1.0]}) == ["/a/0: 1.000000001 != 1.0"]
    assert mismatches({"a": 1}, {"a": None}) == ["/a: 1 != None"]
