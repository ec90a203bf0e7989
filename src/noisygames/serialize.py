"""JSON schemas for strategies, states, reports and transcripts.

All documents carry schemaVersion; loaders reject unknown fields so typos
fail loudly instead of being silently ignored.  Every self-test document is
written by one loop: schemaVersion, its report's game, the report's entries
in order, then maxDistance.  A strategy's n is at least 1, and each member
block holds exactly the keys of its game's operators at that n
(_strategy_layout); an error in a member names its block and key.  A
2-out-of-n strategy's nPrime lies between its n and MAX_LOCAL_QUBITS.
"""

from __future__ import annotations

import json

import numpy as np

from .certificates import SoSCertificate
from .extraction import SelfTestReport
from .games import (
    ChshStrategy,
    GameValueReport,
    MS_QUESTIONS,
    MagicSquareReport,
    MagicSquareStrategy,
    TwoOutOfNStrategy,
    _pair_keys,
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
# run transcripts: version 4 draws each round's (context, outcome) cell from
# one uniform of its fixed SFC64 block (see protocols), version 3 a context
# id and then a uniform, version 2 drew the blocks from Philox, and version
# 1 sized the first block by t
TRANSCRIPT_SCHEMA_VERSION = 4

# symbolic strategies act on at most 2**6 dimensions per player, so that
# their joint states fit states.JOINT_DIM_CAP; a canonical 2-out-of-6
# strategy holds 504 such operators (33 MB)
MAX_LOCAL_QUBITS = 6


def _require_keys(data: dict, required: set, optional: set, what: str, document=True):
    """data's fields: a `document` may also hold schemaVersion."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional - ({"schemaVersion"} if document else set())
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
                          _matrix(data["density"], "state field 'density'"))


# ---------------------------------------------------------------------------
# strategies


# the strategy class of each game a strategy document names
_STRATEGY_CLASSES = {"chsh": ChshStrategy, "magic_square": MagicSquareStrategy,
                     "two_out_of_n": TwoOutOfNStrategy}
# how errors name a member block, if not by its key
_BLOCK_NAMES = {"observables": "chsh observables"}


def _strategy_layout(game: str, n: int) -> dict:
    """The member blocks of a `game` strategy document with n registers (or
    2-out-of-n indices), in document order: per block its members, in order,
    as (document key, strategy field, key) for getattr(strategy, field)[key],
    an observable or a POVM's stack of elements."""
    if game == "chsh":
        return {"observables": [(f"{p}{x}", field, x) for p, field in (("P", "alice"), ("Q", "bob"))
                                for x in (0, 1)]}
    if game == "magic_square":
        return {"alicePovms": [(q, "alice_povms", q) for q in MS_QUESTIONS],
                "bobObservables": [(f"s{i}{j}", "bob_observables", (i, j))
                                   for i in (1, 2, 3) for j in (1, 2, 3)]}
    singles = [(i, x) for i in range(1, n + 1) for x in (0, 1)]
    return {f"{player}{block}": [(",".join(map(str, k)), f"{player}_{field}", k) for k in keys]
            for block, field, keys in (("Singles", "singles", singles),
                                       ("PairPovms", "pair_povms", _pair_keys(n)))
            for player in ("alice", "bob")}


def strategy_to_json(strategy) -> dict:
    game = next((g for g, cls in _STRATEGY_CLASSES.items() if isinstance(strategy, cls)), None)
    if game is None:
        raise ValidationError(f"cannot serialize strategy type {type(strategy).__name__}")
    doc = {"schemaVersion": SCHEMA_VERSION, "game": game, "n": strategy.n}
    if game == "two_out_of_n":
        doc["nPrime"] = strategy.n_prime
    for block, members in _strategy_layout(game, strategy.n).items():
        doc[block] = {key: matrix_to_json(getattr(strategy, field)[k]) for key, field, k in members}
    return doc


def _matrix(data, what: str) -> np.ndarray:
    """matrix_from_json(data), with an error naming `what`, its field."""
    try:
        return matrix_from_json(data)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


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


def _register_count(data: dict, default=None) -> int:
    """A strategy's n, its count of registers (or indices): at least 1."""
    n = _field(data, "n", int, default)
    if n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n}")
    return n


def _check_registers(game: str, n: int, n_prime: int):
    """Reject a strategy whose local dimension is above 2**MAX_LOCAL_QUBITS,
    or a 2-out-of-n one with fewer registers (n_prime) than indices (n)."""
    qubits = {"chsh": n, "magic_square": 2 * n}.get(game, 0)
    if game == "two_out_of_n":
        qubits = max(n, n_prime)
    if qubits > MAX_LOCAL_QUBITS:
        raise ValidationError(f"a {game} strategy with n = {n} has local dimension 2**{qubits}, "
                              f"above the cap of 2**{MAX_LOCAL_QUBITS}")
    if n_prime < n:
        raise ValidationError("need at least as many registers as indices")


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
    n = _register_count(data, 1)
    register = _field(data, "register", int, 1)
    n_prime = _field(data, "nPrime", int, n)
    _check_registers(game, n, n_prime)
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


def strategy_from_json(data: dict):
    if isinstance(data, dict) and "kind" in data:
        return _symbolic_strategy(data)
    blocks = {block for g in _STRATEGY_CLASSES for block in _strategy_layout(g, 1)}
    _require_keys(data, {"game", "n"}, {"nPrime", *blocks}, "strategy")
    game = _field(data, "game", str)
    if game not in _STRATEGY_CLASSES:
        raise ValidationError(f"unknown game {game!r}")
    n = _register_count(data)
    if game == "two_out_of_n":  # its layout lists every pair of the n indices
        n_prime = _field(data, "nPrime", int, n)
        _check_registers(game, n, n_prime)
    layout = _strategy_layout(game, n)
    _require_keys(data, {"game", "n", *layout}, {"nPrime"} if game == "two_out_of_n" else set(),
                  f"{game} strategy")
    members = {}
    for block, keys in layout.items():
        what = _BLOCK_NAMES.get(block, block)
        _require_keys(data[block], {key for key, _, _ in keys}, set(), what, document=False)
        for key, field, k in keys:
            members.setdefault(field, {})[k] = _matrix(data[block][key], f"{what} {key!r}")
    # only the construction from the members, a dict per strategy field, is per game
    if game == "chsh":
        return ChshStrategy(n, tuple(members["alice"].values()), tuple(members["bob"].values()))
    if game == "magic_square":
        return MagicSquareStrategy(n, **members)
    return TwoOutOfNStrategy(n, n_prime, **members)


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


def selftest_to_json(report: SelfTestReport) -> dict:
    return {"schemaVersion": SCHEMA_VERSION, "game": report.game, **report.entries,
            "maxDistance": report.max_distance}


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
