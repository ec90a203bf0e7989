"""Command-line front end: reproducible experiments with JSON/CSV output.

Exit codes: 0 success, 1 threshold or oracle-check failure, 2 validation
error (bad arguments, malformed strategy files, violated preconditions).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_VALIDATION = 2


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc, args):
    # render once: json.dump would issue one write per chunk
    text = json.dumps(doc, indent=2, default=_json_default)
    _write((text, "\n"), getattr(args, "out", None))


def _write(pieces, path):
    """Write each text piece in turn to the file at `path`, or to stdout if
    `path` is None; a generator of pieces is held one piece at a time."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for piece in pieces:
            fh.write(piece)


def _symbolic_doc(args, **fields) -> dict:
    """A symbolic strategy document from --game, --n and the fields given;
    --register and --n-prime go in only when given, so that a strategy
    that does not take one rejects it."""
    doc = {"game": args.game, "n": args.n, **fields}
    for name, value in (("register", args.register), ("nPrime", args.n_prime)):
        if value is not None:
            doc[name] = value
    return doc


def _load_strategy(args):
    """Resolve --strategy: a JSON file path or a symbolic constructor string
    like 'canonical', 'canonical-perturbed:0.1', 'random:7',
    'random-bounded:7', 'random-biased:0.2:7'."""
    from . import serialize

    spec = args.strategy
    if os.path.exists(spec):
        with open(spec) as fh:
            return serialize.strategy_from_json(json.load(fh))
    doc = _symbolic_doc(args)
    head, _, rest = spec.partition(":")
    if head == "canonical" and not rest:
        doc["kind"] = "canonical"
    elif head == "canonical-perturbed":
        doc.update(kind="canonical-perturbed", theta=float(rest))
    elif head == "random":
        doc.update(kind="random", seed=int(rest or 0))
    elif head == "random-bounded":
        doc.update(kind="random", seed=int(rest or 0), variant="bounded")
    elif head == "random-biased":
        bias, _, seed = rest.partition(":")
        doc.update(kind="random", seed=int(seed or 0), traceBias=float(bias))
    else:
        raise FileNotFoundError(f"strategy {spec!r} is neither a file nor a known constructor")
    return serialize.strategy_from_json(doc)


def cmd_eval(args) -> int:
    from . import serialize
    from .games import ChshStrategy, MagicSquareStrategy, TwoOutOfNStrategy
    from .games import chsh_violation, magic_square_value, two_out_of_n_value

    strategy = _load_strategy(args)
    if isinstance(strategy, ChshStrategy):
        report = chsh_violation(strategy, args.rho)
    elif isinstance(strategy, MagicSquareStrategy):
        report = magic_square_value(strategy, args.rho)
    elif isinstance(strategy, TwoOutOfNStrategy):
        report = two_out_of_n_value(strategy, args.rho)
    else:
        raise ValueError("unsupported strategy")
    _emit(serialize.game_value_to_json(report), args)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import serialize
    from .certificates import certify
    from .games import trace_error

    strategy = _load_strategy(args)
    variable = None
    if args.variable is not None:
        parts = [v.strip() for v in args.variable.split(",")]
        if len(parts) != 2 or not set(parts) <= {"1", "2", "3"}:
            raise ValueError(f"--variable must be i,j with i and j in 1..3, got {args.variable!r}")
        variable = (int(parts[0]), int(parts[1]))
    cert = certify(strategy, args.rho, variable)
    _emit(serialize.certificate_to_json(cert, eps_tr=trace_error(strategy)), args)
    return EXIT_OK


def _theta_sweep_csv(args) -> str:
    """The sweep as CSV: per angle, theta, the self-test's gap under its
    report's gap key (epsWin for the magic square, epsV otherwise) and
    maxDistance."""
    from . import serialize
    from .extraction import selftest

    try:
        thetas = [float(v) for v in args.theta_sweep.split(",")]
    except ValueError:
        raise ValueError("--theta-sweep must be comma-separated angles, "
                         f"got {args.theta_sweep!r}") from None
    reports = []
    for theta in thetas:
        doc = _symbolic_doc(args, kind="canonical-perturbed", theta=theta)
        reports.append((theta, selftest(serialize.strategy_from_json(doc), args.rho)))
    key = reports[0][1].gap_key
    return f"theta,{key},maxDistance\n" + "".join(
        f"{theta},{report[key]},{report.max_distance}\n" for theta, report in reports)


def cmd_selftest(args) -> int:
    from . import serialize
    from .extraction import general_noise_selftest, selftest
    from .states import bit_phase_flip_epr, diagonalize_correlation

    if args.theta_sweep is not None:
        # the sweep builds its own canonical-perturbed strategies and tests
        # no distance against a threshold
        if args.strategy != "canonical":
            raise ValueError(f"--theta-sweep does not read --strategy {args.strategy}")
        for option in ("channel", "threshold"):
            if getattr(args, option) is not None:
                raise ValueError(f"--theta-sweep does not read --{option}")
        _write((_theta_sweep_csv(args),), args.out)
        return EXIT_OK
    if args.threshold is not None and math.isnan(args.threshold):
        raise ValueError(f"--threshold must be a number, got {args.threshold}")
    strategy = _load_strategy(args)
    if args.channel == "bit-phase-flip":
        spectrum = diagonalize_correlation(bit_phase_flip_epr(args.rho))
        report = general_noise_selftest(strategy, spectrum)
    else:
        report = selftest(strategy, args.rho)
    _emit(serialize.selftest_to_json(report), args)
    if args.threshold is not None and report.max_distance > args.threshold:
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import serialize
    from .protocols import ProtocolParams, run_protocol, transcript_rounds_csv_pieces

    strategy = _load_strategy(args)
    params = ProtocolParams(args.game, args.t, args.p, args.seed, args.rho)
    transcript = run_protocol(params, strategy)
    if args.export_csv:
        _write(transcript_rounds_csv_pieces(transcript), args.export_csv)
    if args.include_rounds:
        _write(itertools.chain(serialize.transcript_rounds_json_pieces(transcript), ("\n",)),
               args.out)
    else:
        _emit(serialize.transcript_to_json(transcript), args)
    return EXIT_OK


def cmd_estimate_rho(args) -> int:
    from . import serialize
    from .protocols import _estimated_rate, estimate_noise_rate, play_rounds

    if args.transcript:
        with open(args.transcript) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not {"game", "tPrime"} <= doc.keys():
            raise ValueError(f"--transcript {args.transcript}: need a simulate JSON "
                             "object with 'game' and 'tPrime' keys")
        version = doc.get("schemaVersion", 1)
        if type(version) is not int or not 1 <= version <= serialize.TRANSCRIPT_SCHEMA_VERSION:
            raise ValueError(f"--transcript {args.transcript}: unknown transcript schemaVersion "
                             f"{version!r}; this version reads 1 to "
                             f"{serialize.TRANSCRIPT_SCHEMA_VERSION}")
        statistic = doc.get(_estimated_rate(doc["game"]).key)
        try:
            est = estimate_noise_rate(doc["game"], statistic=statistic,
                                      n_rounds=doc["tPrime"], confidence=args.confidence)
        except ValueError as exc:
            raise ValueError(f"--transcript {args.transcript}: {exc}") from None
    elif args.rounds < 1:
        raise ValueError(f"--rounds must be at least 1, got {args.rounds}")
    elif args.statistic is not None:
        est = estimate_noise_rate(args.game, statistic=args.statistic,
                                  n_rounds=args.rounds, confidence=args.confidence)
    else:
        if args.rho_true is None:
            raise ValueError("need --transcript, --statistic, or --rho-true to simulate")
        strategy = serialize.strategy_from_json(
            {"kind": "canonical", "game": args.game, "n": args.n})
        rates = play_rounds(strategy, args.rho_true, args.rounds, args.seed)
        est = estimate_noise_rate(args.game, statistic=rates[_estimated_rate(args.game).index],
                                  n_rounds=args.rounds, confidence=args.confidence)
    _emit(serialize.estimate_to_json(est), args)
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    import numpy as np

    from .extraction import (
        lp_min_bruteforce,
        lp_min_closed_form,
        nearest_binary_observable,
    )
    from .games import random_chsh_strategy, random_traceless_binary
    from .games import chsh_violation, chsh_violation_dense
    from .pauli import default_basis, pauli_expand, pauli_expand_naive
    from .states import make_depolarized_epr, ppt_separability_2x2

    rng = np.random.default_rng(args.seed)
    checks = []

    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        a = np.sort(rng.uniform(0.2, 2.0, size=k))[::-1]
        t1 = float(rng.uniform(0.5, 2.0))
        frac = float(rng.uniform(0.0, 1.0))
        t2 = (a[-1] ** 2 + frac * (a[0] ** 2 - a[-1] ** 2)) * t1
        worst = max(worst, abs(lp_min_closed_form(a, t1, t2) - lp_min_bruteforce(a, t1, t2)))
    checks.append(("lp_closed_form_vs_linear_program", worst < 1e-6, worst))

    worst_gap = 0.0
    for _ in range(20):
        d = int(rng.choice([2, 4]))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        approx = nearest_binary_observable(h)
        # hs_distance to each of 100 candidates drawn as one stack
        candidates = random_traceless_binary(d, rng, count=100)
        closest_random = float(np.linalg.norm(h - candidates, axis=(-2, -1)).min()) / np.sqrt(d)
        worst_gap = max(worst_gap, approx.distance - closest_random)
    checks.append(("nearest_binary_beats_random_candidates", worst_gap <= 1e-12, worst_gap))

    grid = np.arange(0.325, 0.342, 0.001)
    flip = None
    for rho in grid:
        if not ppt_separability_2x2(make_depolarized_epr(float(rho), 1)).separable:
            flip = float(rho)
            break
    flip_err = abs((flip or 1.0) - 1 / 3)
    checks.append(("ppt_flip_near_one_third", flip is not None and flip_err <= 2e-3, flip_err))

    worst_dev = 0.0
    for m, nmax in ((2, 3), (4, 1)):
        basis = default_basis(m)
        for n in range(1, nmax + 1):
            d = m ** n
            for _ in range(20):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                h = (g + g.conj().T) / 2
                dev = np.abs(pauli_expand(h, basis).coeffs
                             - pauli_expand_naive(h, basis).coeffs).max()
                worst_dev = max(worst_dev, float(dev))
    checks.append(("fast_transform_vs_trace_oracle", worst_dev < 1e-10, worst_dev))

    worst_val = 0.0
    for n in (1, 2):
        state = make_depolarized_epr(0.63, n)
        for _ in range(10):
            s = random_chsh_strategy(n, rng, kind="bounded")
            dev = abs(chsh_violation(s, 0.63).violation
                      - chsh_violation_dense(s, state).violation)
            worst_val = max(worst_val, dev)
    checks.append(("coefficient_vs_dense_value", worst_val < 1e-9, worst_val))

    doc = {"schemaVersion": 1, "seed": args.seed,
           "checks": [{"name": name, "pass": bool(ok), "worstDeviation": float(v)}
                      for name, ok, v in checks]}
    _emit(doc, args)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisygames",
        description="Evaluate, certify, self-test and simulate quantum strategies "
                    "for noisy nonlocal games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game_required=True):
        p.add_argument("--game", default="chsh",
                       choices=["chsh", "magic_square", "two_out_of_n"],
                       required=game_required)
        p.add_argument("--strategy", default="canonical",
                       help="JSON file or symbolic: canonical, canonical-perturbed:T, "
                            "random:SEED, random-bounded:SEED, random-biased:B:SEED")
        p.add_argument("--rho", type=float, required=True)
        p.add_argument("--n", type=int, default=1, help="registers (or indices)")
        p.add_argument("--n-prime", type=int, default=None, dest="n_prime")
        p.add_argument("--register", type=int, default=None)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("eval", help="game value of a strategy under noise")
    common(p, game_required=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("certify", help="sum-of-squares certificate for a strategy")
    common(p, game_required=False)
    p.add_argument("--variable", default=None, help="magic-square variable, e.g. 1,1")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("selftest", help="self-testing diagnostic report")
    common(p, game_required=False)
    p.add_argument("--threshold", type=float, default=None,
                   help="exit 1 if any distance exceeds this")
    p.add_argument("--theta-sweep", default=None, dest="theta_sweep",
                   help="comma-separated rotation angles; emits CSV of (theta, gap, "
                        "maxDistance), the gap epsWin for the magic square, epsV otherwise")
    p.add_argument("--channel", default=None, choices=[None, "bit-phase-flip"],
                   help="general-noise self-test through the given channel")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("simulate", help="run a game + trace-test protocol")
    common(p, game_required=False)
    p.add_argument("--t", type=int, required=True,
                   help="minimum repetitions per tracked question")
    p.add_argument("--p", type=float, default=0.01, help="minimum passing probability")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--export-csv", default=None, dest="export_csv")
    p.add_argument("--include-rounds", action="store_true", dest="include_rounds")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-rho", help="device-independent noise-rate estimate")
    p.add_argument("--game", default="chsh",
                   choices=["chsh", "magic_square", "two_out_of_n"])
    p.add_argument("--transcript", default=None, help="simulate output JSON file")
    p.add_argument("--statistic", type=float, default=None,
                   help="empirical win (or consistency) rate")
    p.add_argument("--rounds", type=int, default=100000)
    p.add_argument("--rho-true", type=float, default=None, dest="rho_true",
                   help="simulate this fidelity with canonical players")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate_rho)

    p = sub.add_parser("lemma-check", help="oracle cross-checks of the closed forms")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lemma_check)
    return parser


def _resolve_seed(seed):
    """--seed, else NOISYGAMES_SEED, else 0, in [0, 2**64): simulate seeds its
    SFC64 blocks' SeedSequence with it, and estimate-rho keys a Philox stream."""
    if seed is None:
        text = os.environ.get("NOISYGAMES_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"NOISYGAMES_SEED must be an integer, got {text!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args.seed)
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        # exit 1 means a threshold or oracle failure, so no other error may
        # reach the interpreter's traceback and its exit status 1
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
