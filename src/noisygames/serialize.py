"""JSON schemas for strategies, states, reports and transcripts.

All documents carry schemaVersion; loaders reject unknown fields so typos
fail loudly instead of being silently ignored.
"""

from __future__ import annotations

import json

import numpy as np

from .certificates import SoSCertificate
from .extraction import (
    ChshSelfTestReport,
    GeneralNoiseSelfTestReport,
    MsSelfTestReport,
    TwoOutOfNSelfTestReport,
)
from .games import (
    ChshStrategy,
    GameValueReport,
    MS_QUESTIONS,
    MagicSquareReport,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    canonical_chsh_strategy,
    canonical_magic_square_strategy,
    canonical_two_out_of_n_strategy,
    perturbed_chsh_strategy,
    perturbed_magic_square_strategy,
    perturbed_two_out_of_n_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
)
from .pauli import ValidationError, matrix_from_json, matrix_to_json
from .protocols import NoiseEstimate, ProtocolTranscript, _render_blocks
from .states import BipartiteState, make_depolarized_epr, make_epr_power

SCHEMA_VERSION = 1
# run transcripts: version 3 draws each fixed block from SFC64 (see
# protocols), version 2 from Philox; version 1 sized the first block by t
TRANSCRIPT_SCHEMA_VERSION = 3

# symbolic strategies act on at most 2**6 dimensions per player, so that
# their joint states fit states.JOINT_DIM_CAP; a canonical 2-out-of-6
# strategy holds 504 such operators (33 MB)
MAX_LOCAL_QUBITS = 6


def _require_keys(data: dict, required: set, optional: set, what: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional - {"schemaVersion"}
    if missing:
        raise ValidationError(f"{what} is missing fields: {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what} has unknown fields: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# states


def state_to_json(state: BipartiteState) -> dict:
    return {"schemaVersion": SCHEMA_VERSION, "dimA": state.dim_a, "dimB": state.dim_b,
            "density": matrix_to_json(state.density)}


def state_from_json(data: dict) -> BipartiteState:
    if isinstance(data, dict) and data.get("kind") == "depolarized_epr":
        _require_keys(data, {"kind", "rho", "n"}, {"pairRegisters"}, "symbolic state")
        return make_depolarized_epr(_field(data, "rho", float, doc="state"),
                                    _field(data, "n", int, doc="state"),
                                    _field(data, "pairRegisters", bool, False, doc="state"))
    if isinstance(data, dict) and data.get("kind") == "epr_power":
        _require_keys(data, {"kind", "n"}, set(), "symbolic state")
        return make_epr_power(_field(data, "n", int, doc="state"))
    _require_keys(data, {"dimA", "dimB", "density"}, set(), "state")
    return BipartiteState(_field(data, "dimA", int, doc="state"),
                          _field(data, "dimB", int, doc="state"),
                          matrix_from_json(data["density"]))


# ---------------------------------------------------------------------------
# strategies


def strategy_to_json(strategy) -> dict:
    if isinstance(strategy, ChshStrategy):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "chsh", "n": strategy.n,
            "observables": {
                "P0": matrix_to_json(strategy.alice[0]),
                "P1": matrix_to_json(strategy.alice[1]),
                "Q0": matrix_to_json(strategy.bob[0]),
                "Q1": matrix_to_json(strategy.bob[1]),
            },
        }
    if isinstance(strategy, MagicSquareStrategy):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "magic_square", "n": strategy.n,
            "alicePovms": {q: [matrix_to_json(e) for e in strategy.alice_povms[q]]
                           for q in MS_QUESTIONS},
            "bobObservables": {f"s{i}{j}": matrix_to_json(strategy.bob_observables[(i, j)])
                               for i in (1, 2, 3) for j in (1, 2, 3)},
        }
    if isinstance(strategy, TwoOutOfNStrategy):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "two_out_of_n",
            "n": strategy.n, "nPrime": strategy.n_prime,
            "aliceSingles": {f"{i},{x}": matrix_to_json(op)
                             for (i, x), op in strategy.alice_singles.items()},
            "bobSingles": {f"{i},{x}": matrix_to_json(op)
                           for (i, x), op in strategy.bob_singles.items()},
            "alicePairPovms": {",".join(map(str, k)): [matrix_to_json(e) for e in v]
                               for k, v in strategy.alice_pair_povms.items()},
            "bobPairPovms": {",".join(map(str, k)): [matrix_to_json(e) for e in v]
                             for k, v in strategy.bob_pair_povms.items()},
        }
    raise ValidationError(f"cannot serialize strategy type {type(strategy).__name__}")


# kinds of scalar strategy and state fields: the Python types a JSON value of
# that kind loads as (or a caller may pass), and the kind's name
_FIELD_KINDS = {str: ((str,), "a string"), int: ((int, np.integer), "an integer"),
                float: ((int, float, np.integer, np.floating), "a number"),
                bool: ((bool, np.bool_), "a boolean")}


def _field(data: dict, name: str, kind: type, default=None, doc: str = "strategy"):
    """data[name], or default when it is absent, checked to be a JSON string,
    integer, number or boolean (kind str, int, float or bool) and converted
    to kind; an error names the field of the `doc` document."""
    value = data.get(name, default)
    types, what = _FIELD_KINDS[kind]
    if (isinstance(value, bool) and kind is not bool) or not isinstance(value, types):
        raise ValidationError(f"{doc} field {name!r} must be {what}, got {value!r}")
    return kind(value)


# the fields each symbolic kind reads besides kind, game and n; the
# 2-out-of-n constructors take no register, and only the canonical one an
# nPrime
_SYMBOLIC_FIELDS = {"canonical": {"register", "nPrime"},
                    "canonical-perturbed": {"register", "theta"},
                    "random": {"seed", "variant", "traceBias"}}


def _symbolic_strategy(data: dict):
    kind = _field(data, "kind", str)
    game = _field(data, "game", str, "chsh")
    if kind not in _SYMBOLIC_FIELDS:
        raise ValidationError(f"unknown symbolic strategy kind {kind!r}")
    reads = _SYMBOLIC_FIELDS[kind] - {"register" if game == "two_out_of_n" else "nPrime"}
    _require_keys(data, {"kind"}, {"game", "n", *reads}, f"symbolic {kind} {game} strategy")
    n = _field(data, "n", int, 1)
    if n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n}")
    register = _field(data, "register", int, 1)
    n_prime = _field(data, "nPrime", int, n)
    qubits = {"chsh": n, "magic_square": 2 * n}.get(game, 0)
    if game == "two_out_of_n":
        qubits = max(n, n_prime)
    if qubits > MAX_LOCAL_QUBITS:
        raise ValidationError(f"a {game} strategy with n = {n} has local dimension 2**{qubits}, "
                              f"above the cap of 2**{MAX_LOCAL_QUBITS}")
    if kind == "canonical":
        if game == "chsh":
            return canonical_chsh_strategy(n, register)
        if game == "magic_square":
            return canonical_magic_square_strategy(n, register)
        if game == "two_out_of_n":
            return canonical_two_out_of_n_strategy(n, n_prime)
        raise ValidationError(f"unknown game {game!r}")
    if kind == "canonical-perturbed":
        theta = _field(data, "theta", float)
        if game == "chsh":
            return perturbed_chsh_strategy(n, register, theta)
        if game == "magic_square":
            return perturbed_magic_square_strategy(n, register, theta)
        if game == "two_out_of_n":
            return perturbed_two_out_of_n_strategy(n, theta)
        raise ValidationError(f"unknown game {game!r}")
    if kind == "random":
        rng = np.random.default_rng(_field(data, "seed", int, 0))
        variant = _field(data, "variant", str, "binary")
        bias = _field(data, "traceBias", float, 0.0)
        if game == "chsh":
            return random_chsh_strategy(n, rng, kind=variant, trace_bias=bias)
        if game == "magic_square":
            return random_magic_square_strategy(
                n, rng, kind=variant if variant != "binary" else "projective",
                trace_bias=bias)
        raise ValidationError(f"no random constructor for game {game!r}")


# the fields each game's strategy document carries besides game and n
_STRATEGY_FIELDS = {
    "chsh": {"observables"},
    "magic_square": {"alicePovms", "bobObservables"},
    "two_out_of_n": {"aliceSingles", "bobSingles", "alicePairPovms", "bobPairPovms"},
}


def strategy_from_json(data: dict):
    if isinstance(data, dict) and "kind" in data:
        return _symbolic_strategy(data)
    _require_keys(data, {"game", "n"}, {"nPrime", *set().union(*_STRATEGY_FIELDS.values())},
                  "strategy")
    game = _field(data, "game", str)
    fields = _STRATEGY_FIELDS.get(game)
    if fields is None:
        raise ValidationError(f"unknown game {game!r}")
    _require_keys(data, {"game", "n", *fields}, {"nPrime"} if game == "two_out_of_n" else set(),
                  f"{game} strategy")
    n = _field(data, "n", int)
    if game == "chsh":
        obs = data["observables"]
        _require_keys(obs, {"P0", "P1", "Q0", "Q1"}, set(), "chsh observables")
        return ChshStrategy(
            n,
            (matrix_from_json(obs["P0"]), matrix_from_json(obs["P1"])),
            (matrix_from_json(obs["Q0"]), matrix_from_json(obs["Q1"])),
        )
    if game == "magic_square":
        variables = {f"s{i}{j}": (i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
        _require_keys(data["alicePovms"], set(MS_QUESTIONS), set(), "alicePovms")
        _require_keys(data["bobObservables"], set(variables), set(), "bobObservables")
        povms = {q: np.stack([matrix_from_json(e) for e in data["alicePovms"][q]])
                 for q in MS_QUESTIONS}
        bob = {var: matrix_from_json(data["bobObservables"][key])
               for key, var in variables.items()}
        return MagicSquareStrategy(n, povms, bob)
    if game == "two_out_of_n":
        n_prime = _field(data, "nPrime", int, n)

        def keyed(field):
            block = data[field]
            if not isinstance(block, dict):
                raise ValidationError(f"{field} must be a JSON object")
            return [(tuple(int(v) for v in key.split(",")), value) for key, value in block.items()]

        def parse_ops(field):
            return {key: matrix_from_json(mat) for key, mat in keyed(field)}

        def parse_povms(field):
            return {key: np.stack([matrix_from_json(e) for e in v]) for key, v in keyed(field)}

        return TwoOutOfNStrategy(
            n, n_prime, parse_ops("aliceSingles"), parse_ops("bobSingles"),
            parse_povms("alicePairPovms"), parse_povms("bobPairPovms"))


# ---------------------------------------------------------------------------
# reports


def game_value_to_json(report) -> dict:
    if isinstance(report, GameValueReport):
        return {"schemaVersion": SCHEMA_VERSION, "violation": report.violation,
                "winProb": report.win_prob, "perQuestion": report.per_question}
    if isinstance(report, MagicSquareReport):
        return {"schemaVersion": SCHEMA_VERSION, "overall": report.overall,
                "parityPass": report.parity_pass,
                "consistencyPass": report.consistency_pass,
                "perVariable": report.per_variable}
    raise ValidationError(f"cannot serialize report type {type(report).__name__}")


def certificate_to_json(cert: SoSCertificate, eps_tr: float | None = None) -> dict:
    out = {
        "schemaVersion": SCHEMA_VERSION, "game": cert.game, "rho": cert.rho,
        "bound": cert.bound, "value": cert.value, "gap": cert.gap_expectation,
        "terms": [{"label": k, "expectation": float(v)} for k, v in cert.terms],
        "residual": cert.residual,
    }
    if eps_tr is not None:
        out["epsTr"] = eps_tr
    return out


def _concentration_json(concs: dict) -> dict:
    return {
        label: {
            "register": rc.register,
            "weights": [float(w) for w in rc.weights],
            "margin": rc.margin,
            "tie": rc.tie,
            "residual": rc.residual,
        }
        for label, rc in concs.items()
    }


def _extraction_json(extraction: dict) -> dict:
    out = {}
    for label, ext in extraction.items():
        if ext is None:
            out[label] = None
        else:
            out[label] = {"unitary": matrix_to_json(ext.unitary),
                          "distZ": ext.dist_z, "distX": ext.dist_x,
                          "theta": ext.theta, "degenerate": ext.degenerate}
    return out


def selftest_to_json(report) -> dict:
    if isinstance(report, ChshSelfTestReport):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "chsh", "rho": report.rho,
            "violation": report.violation, "epsV": report.eps_v, "epsTr": report.eps_tr,
            "scalingResiduals": report.scaling_residuals,
            "antiCommutators": report.anticommutators,
            "relationDistances": report.relation_distances,
            "register": report.register, "registerVotes": report.register_votes,
            "registerAmbiguous": report.register_ambiguous,
            "concentration": _concentration_json(report.concentration),
            "extractionUnitaries": _extraction_json(report.extraction),
            "maxDistance": report.max_distance,
        }
    if isinstance(report, MsSelfTestReport):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "magic_square", "rho": report.rho,
            "overall": report.overall, "epsWin": report.eps_win, "epsTr": report.eps_tr,
            "rowColDistances": report.row_col_distances,
            "pVsQtDistances": report.p_vs_qt_distances,
            "scalingResiduals": report.scaling_residuals,
            "sameLineCommutators": report.same_line_commutators,
            "crossAntiCommutators": report.cross_anticommutators,
            "productDistances": report.product_distances,
            "wrongParityMass": report.wrong_parity_mass,
            "register": report.register, "registerVotes": report.register_votes,
            "registerAmbiguous": report.register_ambiguous,
            "concentration": _concentration_json(report.concentration),
            "localUnitary": (None if report.local_unitary is None
                             else matrix_to_json(report.local_unitary)),
            "anchorDistances": report.anchor_distances,
            "pauliDistances": report.pauli_distances,
            "maxDistance": report.max_distance,
        }
    if isinstance(report, TwoOutOfNSelfTestReport):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "two_out_of_n", "rho": report.rho,
            "winProb": report.win_prob, "epsV": report.eps_v, "epsTr": report.eps_tr,
            "indexAntiCommutators": report.index_anticommutators,
            "crossCommutators": report.cross_commutators,
            "marginalRelationDistances": report.marginal_relation_distances,
            "registers": {str(k): v for k, v in report.registers.items()},
            "distinct": report.distinct,
            "collisions": [{"indexA": c.index_a, "indexB": c.index_b,
                            "register": c.register, "contradiction": c.contradiction}
                           for c in report.collisions],
            "extractionUnitaries": _extraction_json(report.extraction),
            "maxDistance": report.max_distance,
        }
    if isinstance(report, GeneralNoiseSelfTestReport):
        return {
            "schemaVersion": SCHEMA_VERSION, "game": "chsh_general_noise",
            "r": report.r, "c": report.c, "violation": report.violation,
            "epsV": report.eps_v, "epsTr": report.eps_tr,
            "nonlocalityWarning": report.nonlocality_warning,
            "ySignA": report.canonicalization.y_sign_a,
            "ySignB": report.canonicalization.y_sign_b,
            "eprDistance": report.canonicalization.epr_distance,
            "scalingResiduals": report.scaling_residuals,
            "antiCommutators": report.anticommutators,
            "registerAlice": report.register_alice, "registerBob": report.register_bob,
            "concentration": _concentration_json(report.concentration),
            "extractionUnitaries": _extraction_json(report.extraction),
            "maxDistance": report.max_distance,
        }
    raise ValidationError(f"cannot serialize report type {type(report).__name__}")


def transcript_to_json(transcript: ProtocolTranscript, include_rounds: bool = False) -> dict:
    out = {
        "schemaVersion": TRANSCRIPT_SCHEMA_VERSION, "game": transcript.game,
        "params": {"t": transcript.params.t, "p": transcript.params.p,
                   "delta": transcript.params.delta, "seed": transcript.params.seed,
                   "rho": transcript.params.rho},
        "tPrime": transcript.t_prime,
        "counts": transcript.counts,
        "traceFrequencies": transcript.trace_frequencies,
        "verdict": {"accept": transcript.accept, "reasons": transcript.reject_reasons},
        "empiricalWinRate": transcript.empirical_win_rate,
        "note": transcript.note,
    }
    if transcript.empirical_consistency_rate is not None:
        out["empiricalConsistencyRate"] = transcript.empirical_consistency_rate
    if include_rounds:
        out["rounds"] = {k: np.asarray(v).tolist() for k, v in transcript.rounds.items()}
    return out


def transcript_rounds_json_pieces(transcript: ProtocolTranscript):
    """The text of json.dumps(transcript_to_json(transcript,
    include_rounds=True), indent=2) as a generator of pieces: the head, then
    each block of each round column as a byte kernel renders it from the
    run's cell ids, then the tail, so that a writer holds one block's text
    at a time."""
    text = json.dumps(transcript_to_json(transcript), indent=2)
    # "rounds" is the document's last member
    yield text[:-2] + ',\n  "rounds": {'
    cols = transcript.rounds
    for k, (name, table) in enumerate(cols.tables.items()):
        yield f"{',' if k else ''}\n    {json.dumps(name)}: ["
        # items at depth 3 of the indent, each after a comma but the first
        blocks = _render_blocks(cols.cells, [f",\n      {v}".encode() for v in table.tolist()],
                                numbered=False)
        for b, block in enumerate(blocks):
            yield str(memoryview(block)[0 if b else 1:], "ascii")
        yield "\n    ]"
    yield "\n  }\n}"


def estimate_to_json(est: NoiseEstimate) -> dict:
    return {"schemaVersion": SCHEMA_VERSION, "rhoHat": est.rho_hat,
            "interval": list(est.interval), "statistic": est.statistic,
            "nRounds": est.n_rounds, "confidence": est.confidence,
            "clamped": est.clamped}
