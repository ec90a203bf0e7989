"""The three benchmark workloads.

Each workload turns the workload seed into inputs pass by pass and runs them
as items in a closed loop (one client, each item issued after the previous
one finished).  The package receives only the generated strategies,
parameters and argv.

    prepare(p)              inputs of pass p, built from (seed, p); timed as set-up
    run_item(item, tracer)  the work a user waits for; timed as one item
    check(item, out)        output checks, outside the item's time
    finish()                run-level checks after the last pass

`tracer` is None in untraced passes; in traced passes the cli workload
needs it to route commands through the shim.  README.md
records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import noisygames.certificates as certificates
import noisygames.games as games
import noisygames.protocols as protocols
import noisygames.serialize as serialize

TOL = 1e-9
SQRT2 = math.sqrt(2.0)


def _chsh_win(rho):
    return 0.5 + SQRT2 * rho / 4


def _ms_win(rho):
    return (1 + rho) / 2


# ---------------------------------------------------------------------------
# sweep: in-process soundness sweep, every operator fresh


@dataclass
class SweepItem:
    chsh: list            # (strategy, rho)
    ms: list              # (strategy, rho)
    cert: tuple           # (strategy, rho, variable)
    dense_pick: int       # CHSH entry re-checked on the dense path


class Sweep:
    """Replays the acceptance-criterion-2 mix: per item, value + trace error
    + closed-form bound for 32 random CHSH strategies (n = 1..3, binary and
    bounded, half with trace bias 0.2) and 4 random magic-square strategies
    (n = 1 and 2; projective, mixed, raw), plus one magic-square SoS
    certificate on a fifth strategy.  Every item holds the same mix."""

    nominal_pass_s = 1.6
    min_passes = 3
    in_process = True
    CHSH_KINDS = [(1 + j % 3, ("binary", "bounded")[j % 2], 0.2 if j >= 16 else 0.0)
                  for j in range(32)]
    MS_KINDS = [("projective", 1, 0.2), ("mixed", 1, 0.0), ("raw", 1, 0.2),
                ("projective", 2, 0.0)]

    def __init__(self, seed: int, tiny: bool, workdir: Path, root: Path):
        self.seed = seed
        self.items_per_pass = 2 if tiny else 20
        self.chsh_kinds = self.CHSH_KINDS[::4] if tiny else self.CHSH_KINDS

    def prepare(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        items = []
        for _ in range(self.items_per_pass):
            chsh = [(games.random_chsh_strategy(n, rng, kind=kind, trace_bias=bias),
                     float(rng.uniform(0.3, 0.95)))
                    for n, kind, bias in self.chsh_kinds]
            ms = [(games.random_magic_square_strategy(n, rng, kind=kind, trace_bias=bias),
                   float(rng.uniform(0.3, 0.95)))
                  for kind, n, bias in self.MS_KINDS]
            variable = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            cert = (games.random_magic_square_strategy(1, rng, kind="projective"),
                    float(rng.uniform(0.3, 0.95)), variable)
            items.append(SweepItem(chsh, ms, cert, int(rng.integers(len(chsh)))))
        return items

    def run_item(self, item: SweepItem, tracer=None):
        chsh = []
        for strat, rho in item.chsh:
            value = games.chsh_violation(strat, rho).violation
            chsh.append((value, certificates.chsh_upper_bound(rho, games.trace_error(strat))))
        ms = []
        for strat, rho in item.ms:
            value = games.magic_square_value(strat, rho).overall
            ms.append((value, certificates.magic_square_upper_bound(
                rho, games.trace_error(strat))))
        strat, rho, variable = item.cert
        cert = certificates.ms_consistency_certificate(strat, rho, variable)
        return chsh, ms, cert.residual

    def check(self, item: SweepItem, out) -> list:
        chsh, ms, residual = out
        errors = [f"value {v!r} above bound {b!r}" for v, b in chsh + ms if v > b + TOL]
        if not abs(residual) <= TOL:
            errors.append(f"SoS residual {residual!r}")
        strat, rho = item.chsh[item.dense_pick]
        dense = games.chsh_violation_dense(strat, rho).violation
        if not abs(dense - chsh[item.dense_pick][0]) <= TOL:
            errors.append(f"dense value {dense!r} != coefficient value "
                          f"{chsh[item.dense_pick][0]!r}")
        return errors

    def finish(self) -> list:
        return []


# ---------------------------------------------------------------------------
# protocol: in-process `simulate` without --export-csv


@dataclass
class ProtocolItem:
    game: str
    n: int
    t: int
    rho: float
    seed: int
    strategy: object
    path: Path
    digest: str | None = None


def _round_digest(transcript) -> str:
    h = hashlib.sha256(str(transcript.t_prime).encode())
    for key in sorted(transcript.rounds):
        h.update(key.encode())
        h.update(np.ascontiguousarray(transcript.rounds[key], dtype=np.int64).tobytes())
    return h.hexdigest()


def _tracked_counts(game: str, n: int, rounds: dict) -> tuple[dict, list]:
    """Recount every tracked (player, question) key from the round columns.

    Returns the counts under the transcript's labels and the labels of the
    keys the last round belongs to."""
    if game == "chsh":
        x, y = rounds["x"], rounds["y"]
        counts = {f"A{q}": int((x == q).sum()) for q in (0, 1)}
        counts.update({f"B{q}": int((y == q).sum()) for q in (0, 1)})
        return counts, [f"A{x[-1]}", f"B{y[-1]}"]
    if game == "magic_square":
        q, slot = rounds["question"], rounds["slot"]
        names = games.MS_QUESTIONS
        # rows r1..r3 hold variables (i, slot), columns c1..c3 hold (slot, j)
        row = np.where(q < 3, q + 1, slot)
        col = np.where(q < 3, slot, q - 2)
        var = 3 * (row - 1) + (col - 1)
        a_counts = np.bincount(q, minlength=6)
        b_counts = np.bincount(var, minlength=9)
        counts = {f"A:{names[k]}": int(a_counts[k]) for k in range(6)}
        counts.update({f"B:s{k // 3 + 1}{k % 3 + 1}": int(b_counts[k]) for k in range(9)})
        last = int(var[-1])
        return counts, [f"A:{names[q[-1]]}", f"B:s{last // 3 + 1}{last % 3 + 1}"]
    # 2-out-of-n: the single player holds (i, x), the other player the
    # canonical pair question (min index first)
    role, i, j = rounds["role"], rounds["i"], rounds["j"]
    x, y, z = rounds["x"], rounds["y"], rounds["z"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    ylo, zhi = np.where(i < j, y, z), np.where(i < j, z, y)
    single = (role * (n + 1) + i) * 2 + x
    pair = ((((1 - role) * (n + 1) + lo) * 2 + ylo) * (n + 1) + hi) * 2 + zhi

    def single_label(k):
        k, xx = divmod(int(k), 2)
        pl, ii = divmod(k, n + 1)
        return f"{'AB'[pl]}:single({ii},{xx})"

    def pair_label(k):
        k, zz = divmod(int(k), 2)
        k, jj = divmod(k, n + 1)
        k, yy = divmod(k, 2)
        pl, ii = divmod(k, n + 1)
        return f"{'AB'[pl]}:pair({ii},{yy},{jj},{zz})"

    counts = {}
    for ids, label in ((single, single_label), (pair, pair_label)):
        keys, freq = np.unique(ids, return_counts=True)
        counts.update({label(k): int(c) for k, c in zip(keys, freq)})
    return counts, [single_label(single[-1]), pair_label(pair[-1])]


def _expected_keys(game: str, n: int) -> int:
    if game == "chsh":
        return 4
    if game == "magic_square":
        return 15
    return 2 * 2 * n + 2 * 4 * (n * (n - 1) // 2)


class Protocol:
    """Cycles `run_protocol` + `transcript_to_json` (written to a file, no
    rounds) through CHSH (n = 1), magic square (n = 1) and 2-out-of-n
    (n = 5) with canonical strategies; t per game keeps CHSH and magic square
    at about 2e6 rounds and the three item kinds at about the same cost.
    At least 14 passes (42 items, about 25 s) put the tail percentile at
    p76, so that one item kind turning slower moves `item_tail_ms`."""

    nominal_pass_s = 1.8
    min_passes = 14
    in_process = True
    GAMES = (("chsh", 1, 1_400_000), ("magic_square", 1, 190_000),
             ("two_out_of_n", 5, 7_000))
    TINY = (("chsh", 1, 2_000), ("magic_square", 1, 500), ("two_out_of_n", 3, 100))
    P = 0.01
    BAND_CONFIDENCE = 1e-6

    def __init__(self, seed: int, tiny: bool, workdir: Path, root: Path):
        self.seed = seed
        self.games = self.TINY if tiny else self.GAMES
        self.workdir = workdir
        self.rerun_item = None
        self.rerun_pick = int(np.random.default_rng([seed, 1 << 20]).integers(len(self.games)))

    def prepare(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        build = {"chsh": games.canonical_chsh_strategy,
                 "magic_square": games.canonical_magic_square_strategy,
                 "two_out_of_n": games.canonical_two_out_of_n_strategy}
        items = []
        for k, (game, n, t) in enumerate(self.games):
            items.append(ProtocolItem(game, n, t, float(rng.uniform(0.75, 0.95)),
                                      int(rng.integers(0, 2 ** 63)), build[game](n),
                                      self.workdir / "transcript.json"))
        if p == 0:
            self.rerun_item = items[self.rerun_pick]
        return items

    def run_item(self, item: ProtocolItem, tracer=None):
        params = protocols.ProtocolParams(item.game, item.t, self.P, item.seed, item.rho)
        transcript = protocols.run_protocol(params, item.strategy)
        with open(item.path, "w") as fh:
            json.dump(serialize.transcript_to_json(transcript), fh, indent=2)
            fh.write("\n")
        return transcript

    def check(self, item: ProtocolItem, tr) -> list:
        errors = []
        counts, last_keys = _tracked_counts(item.game, item.n, tr.rounds)
        if counts != tr.counts:
            errors.append("transcript counts differ from the recount of its rounds")
        if len(counts) != _expected_keys(item.game, item.n):
            errors.append(f"{len(counts)} tracked keys seen")
        if min(counts.values()) < item.t:
            errors.append(f"a tracked count {min(counts.values())} is below t = {item.t}")
        if not any(counts[k] == item.t for k in last_keys):
            errors.append("the last round is not the t-th occurrence of a tracked key")
        closed = _ms_win(item.rho) if item.game == "magic_square" else _chsh_win(item.rho)
        band = math.sqrt(math.log(2 / self.BAND_CONFIDENCE) / (2 * tr.t_prime))
        if not abs(tr.empirical_win_rate - closed) <= band:
            errors.append(f"win rate {tr.empirical_win_rate!r} outside "
                          f"{closed!r} +- {band!r}")
        if item is self.rerun_item:
            item.digest = _round_digest(tr)
        return errors

    def finish(self) -> list:
        """Rerun one item with the same seed: the rounds must be identical."""
        item = self.rerun_item
        if item is None or item.digest is None:
            return []
        if _round_digest(self.run_item(item)) != item.digest:
            return [f"{item.game} rerun with seed {item.seed} gave different rounds"]
        return []


# ---------------------------------------------------------------------------
# cli: a fixed script of `python -m noisygames.cli` commands


@dataclass
class Command:
    argv: list
    expect_code: int = 0
    checks: list = field(default_factory=list)   # callables(stdout) -> list[str]


def _json_doc(stdout: str):
    return json.loads(stdout)


def _parses(stdout: str) -> list:
    json.loads(stdout)
    return []


def _close(label, got, want):
    if not abs(got - want) <= TOL:
        return [f"{label} {got!r} != {want!r}"]
    return []


class Cli:
    """Runs 19 commands one at a time, each in a fresh interpreter, stdout
    captured: eval for every game and for a strategy file, certify, three
    self-tests, estimate-rho, lemma-check, simulate with and without CSV
    export for every game and once with --include-rounds, and one malformed
    command (exit code 2).  Five of the 19 are heavy (lemma-check, the CSV
    exports, --include-rounds), so that with three passes the median lies
    among the light commands and the tail percentile well inside the heavy
    ones, not on the gap between them."""

    nominal_pass_s = 18.0
    min_passes = 3
    in_process = False
    T = {"chsh": 100_000, "magic_square": 25_000, "two_out_of_n": 7_000, "rounds": 60_000}
    TINY_T = {"chsh": 500, "magic_square": 150, "two_out_of_n": 50, "rounds": 500}
    TINY_SCRIPT = (0, 7, 13, 16, 17, 18)

    def __init__(self, seed: int, tiny: bool, workdir: Path, root: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.root = root
        self.shim = Path(__file__).resolve().parent / "cli_shim.py"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.import_modules = []     # per traced command, from the shim

    def prepare(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        rho = lambda: f"{rng.uniform(0.6, 0.95):.6f}"
        seed = lambda: str(int(rng.integers(0, 2 ** 31)))
        t = self.TINY_T if self.tiny else self.T
        csv = self.workdir / "rounds.csv"

        strategy_path = self.workdir / f"strategy-{p}.json"
        strategy = games.random_magic_square_strategy(1, rng, kind="projective")
        with open(strategy_path, "w") as fh:
            json.dump(serialize.strategy_to_json(strategy), fh)

        def closed(key, form, r):
            return lambda out: _close(key, _json_doc(out)[key], form(float(r)))

        def residual(out):
            res = _json_doc(out)["residual"]
            return [] if abs(res) <= TOL else [f"certificate residual {res!r}"]

        def lemmas(out):
            return [f"lemma check {c['name']} failed" for c in _json_doc(out)["checks"]
                    if not c["pass"]]

        def sweep_csv(out):
            lines = out.splitlines()
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            if lines[0] != "theta,epsV,maxDistance" or [len(r) for r in rows] != [3] * 5:
                return ["malformed theta-sweep CSV"]
            return []

        def export(out):
            with open(csv) as fh:
                lines = sum(1 for _ in fh)
            csv.unlink()
            want = _json_doc(out)["tPrime"] + 1
            return [] if lines == want else [f"CSV has {lines} lines, expected {want}"]

        def with_rounds(out):
            doc = _json_doc(out)
            lengths = {len(v) for v in doc["rounds"].values()}
            if lengths != {doc["tPrime"]}:
                return [f"round columns of lengths {sorted(lengths)}, expected {doc['tPrime']}"]
            return []

        def from_file(r):
            def check(out):
                want = games.magic_square_value(strategy, float(r)).overall
                return _close("overall", _json_doc(out)["overall"], want)
            return check

        def empty(out):
            return [] if out == "" else ["malformed command wrote to stdout"]

        cmds = []
        r = rho()
        cmds.append(Command(["eval", "--game", "chsh", "--n", "3", "--register", "2",
                             "--rho", r], checks=[closed("violation", lambda v: 2 * SQRT2 * v, r)]))
        r = rho()
        cmds.append(Command(["eval", "--game", "magic_square", "--rho", r],
                            checks=[closed("overall", _ms_win, r)]))
        r = rho()
        cmds.append(Command(["eval", "--game", "two_out_of_n", "--n", "3", "--rho", r],
                            checks=[closed("winProb", _chsh_win, r)]))
        cmds.append(Command(["certify", "--game", "chsh", "--rho", rho(), "--strategy",
                             f"canonical-perturbed:{rng.uniform(0.05, 0.3):.4f}"],
                            checks=[residual]))
        cmds.append(Command(["certify", "--game", "magic_square", "--rho", rho(),
                             "--strategy", f"random:{seed()}", "--variable",
                             f"{rng.integers(1, 4)},{rng.integers(1, 4)}"],
                            checks=[residual]))
        cmds.append(Command(["selftest", "--game", "two_out_of_n",
                             "--n", "5", "--rho", rho()],
                            checks=[_parses]))
        cmds.append(Command(["selftest", "--game", "chsh", "--n", "3", "--register", "2",
                             "--rho", rho(), "--strategy", "canonical",
                             "--theta-sweep", "0.02,0.05,0.1,0.2,0.3"], checks=[sweep_csv]))
        cmds.append(Command(["selftest", "--game", "chsh", "--rho", rho(),
                             "--channel", "bit-phase-flip"], checks=[_parses]))
        cmds.append(Command(["estimate-rho", "--game", "chsh", "--rho-true", rho(),
                             "--rounds", "100000", "--seed", seed()],
                            checks=[_parses]))
        cmds.append(Command(["lemma-check", "--seed", seed()], checks=[lemmas]))
        for game in ("chsh", "magic_square", "two_out_of_n"):
            base = ["simulate", "--game", game, "--rho", rho(), "--t", str(t[game]),
                    "--seed", seed()] + (["--n", "3"] if game == "two_out_of_n" else [])
            cmds.append(Command(base, checks=[_parses]))
        for game in ("chsh", "magic_square", "two_out_of_n"):
            base = ["simulate", "--game", game, "--rho", rho(), "--t", str(t[game]),
                    "--seed", seed()] + (["--n", "3"] if game == "two_out_of_n" else [])
            cmds.append(Command(base + ["--export-csv", str(csv)], checks=[export]))
        cmds.append(Command(["simulate", "--game", "chsh", "--rho", rho(), "--t",
                             str(t["rounds"]), "--seed", seed(), "--include-rounds"],
                            checks=[with_rounds]))
        r = rho()
        cmds.append(Command(["eval", "--strategy", str(strategy_path), "--rho", r],
                            checks=[from_file(r)]))
        cmds.append(Command(["eval", "--rho", "1.5"], expect_code=2, checks=[empty]))
        return [cmds[k] for k in self.TINY_SCRIPT] if self.tiny else cmds

    def run_item(self, cmd: Command, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "noisygames.cli", *cmd.argv]
            return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=170)
        dump = self.workdir / "child-trace.json"
        argv = [sys.executable, str(self.shim), str(dump), "--", *cmd.argv]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=170)
        with open(dump) as fh:
            child = json.load(fh)
        dump.unlink()
        tracer.merge(child, tracer.current())
        self.import_modules.append(child["import_modules"])
        return proc

    def check(self, cmd: Command, proc) -> list:
        if proc.returncode != cmd.expect_code:
            return [f"{' '.join(cmd.argv)}: exit {proc.returncode}, expected "
                    f"{cmd.expect_code}: {proc.stderr.strip()[-300:]}"]
        errors = []
        for check in cmd.checks:
            try:
                errors.extend(check(proc.stdout) or [])
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                errors.append(f"{' '.join(cmd.argv)}: unreadable output ({exc!r})")
        return errors

    def finish(self) -> list:
        return []


WORKLOADS = {"sweep": Sweep, "protocol": Protocol, "cli": Cli}
