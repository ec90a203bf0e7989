import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisygames
from noisygames.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_canonical(capsys):
    code, out, _ = run_cli(capsys, "eval", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["violation"] == pytest.approx(2.545584, abs=1e-6)
    assert doc["schemaVersion"] == 1


def test_eval_magic_square(capsys):
    code, out, _ = run_cli(capsys, "eval", "--game", "magic_square",
                           "--strategy", "canonical", "--rho", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == pytest.approx(0.75, abs=1e-9)


def test_eval_malformed_strategy_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"game": "chsh", "n": 1, "nonsense": []}))
    code, out, err = run_cli(capsys, "eval", "--strategy", str(bad), "--rho", "0.5")
    assert code == 2
    assert "unknown fields" in err


def test_eval_invalid_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "--strategy", str(bad), "--rho", "0.5")
    assert code == 2


def test_certify_canonical(capsys):
    code, out, _ = run_cli(capsys, "certify", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] == pytest.approx(0.0, abs=1e-9)
    assert all(t["expectation"] == pytest.approx(0.0, abs=1e-9) for t in doc["terms"])


def test_certify_perturbed_identity(capsys):
    code, out, _ = run_cli(capsys, "certify", "--game", "chsh",
                           "--strategy", "canonical-perturbed:0.2", "--rho", "0.8")
    doc = json.loads(out)
    term_sum = sum(t["expectation"] for t in doc["terms"])
    assert doc["gap"] == pytest.approx(term_sum, abs=1e-9)
    assert doc["gap"] > 0


def test_certify_magic_square_variable(capsys):
    code, out, _ = run_cli(capsys, "certify", "--game", "magic_square",
                           "--strategy", "canonical", "--rho", "0.6",
                           "--variable", "2,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["game"] == "magic_square"
    assert doc["value"] == pytest.approx(0.6, abs=1e-9)
    assert doc["gap"] == pytest.approx(0.0, abs=1e-9)


def test_certify_rejects_rho_zero(capsys):
    code, _, err = run_cli(capsys, "certify", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0")
    assert code == 2


def test_selftest_threshold_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0.7",
                           "--threshold", "0.05")
    assert code == 0
    code, out, _ = run_cli(capsys, "selftest", "--game", "chsh",
                           "--strategy", "canonical-perturbed:0.3", "--rho", "0.7",
                           "--threshold", "0.05")
    assert code == 1


def test_selftest_two_out_of_n(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--game", "two_out_of_n",
                           "--strategy", "canonical", "--n", "3", "--rho", "0.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["registers"] == {"1": 1, "2": 2, "3": 3}
    assert doc["distinct"]


@pytest.mark.parametrize("game, options, gap", [
    ("chsh", ("--n", "3", "--register", "2"), "epsV"),
    ("magic_square", (), "epsWin"),
    ("two_out_of_n", ("--n", "3"), "epsV"),
], ids=["chsh", "magic_square", "two_out_of_n"])
def test_selftest_theta_sweep_csv(capsys, game, options, gap):
    # the gap column is headed by the key of the report's gap
    code, out, _ = run_cli(capsys, "selftest", "--game", game,
                           "--strategy", "canonical", "--rho", "0.7", *options,
                           "--theta-sweep", "0.05,0.1,0.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == f"theta,{gap},maxDistance"
    assert len(lines) == 4
    gaps = [float(l.split(",")[1]) for l in lines[1:]]
    dists = [float(l.split(",")[2]) for l in lines[1:]]
    assert 0 < gaps[0] < gaps[1] < gaps[2]
    assert dists[0] < dists[1] < dists[2]


def test_selftest_general_noise_channel(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0.8",
                           "--channel", "bit-phase-flip")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == pytest.approx(0.8, abs=1e-9)
    assert doc["violation"] == pytest.approx(2 * np.sqrt(2) * 0.8, abs=1e-9)
    assert doc["maxDistance"] < 1e-9


def test_simulate_deterministic_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rounds.csv"
    argv = ["simulate", "--game", "chsh", "--strategy", "canonical",
            "--rho", "0.8", "--t", "200", "--p", "0.05", "--seed", "9",
            "--export-csv", str(csv_path)]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"]["accept"]
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == doc["tPrime"] + 1


def test_simulate_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("NOISYGAMES_SEED", "123")
    code, out, _ = run_cli(capsys, "simulate", "--game", "chsh",
                           "--strategy", "canonical", "--rho", "0.8",
                           "--t", "100", "--p", "0.05")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 123


def test_estimate_rho_from_statistic(capsys):
    code, out, _ = run_cli(capsys, "estimate-rho", "--game", "chsh",
                           "--statistic", str(0.5 + np.sqrt(2) * 0.7 / 4),
                           "--rounds", "100000")
    assert code == 0
    doc = json.loads(out)
    assert doc["rhoHat"] == pytest.approx(0.7, abs=1e-9)
    lo, hi = doc["interval"]
    assert lo <= 0.7 <= hi


def test_estimate_rho_simulated(capsys):
    code, out, _ = run_cli(capsys, "estimate-rho", "--game", "chsh",
                           "--rho-true", "0.7", "--rounds", "100000", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rhoHat"] - 0.7) < 0.02


def test_estimate_rho_simulates_the_requested_game(capsys):
    # the 2-out-of-3 rounds, not CHSH rounds, give the statistic
    from noisygames.games import canonical_two_out_of_n_strategy
    from noisygames.protocols import play_rounds

    code, out, _ = run_cli(capsys, "estimate-rho", "--game", "two_out_of_n", "--n", "3",
                           "--rho-true", "0.7", "--rounds", "20000", "--seed", "5")
    assert code == 0
    strategy = canonical_two_out_of_n_strategy(3)
    assert json.loads(out)["statistic"] == play_rounds(strategy, 0.7, 20000, 5)[0]
    code, chsh, _ = run_cli(capsys, "estimate-rho", "--game", "chsh",
                            "--rho-true", "0.7", "--rounds", "20000", "--seed", "5")
    assert code == 0 and chsh != out


def test_estimate_rho_from_transcript_file(tmp_path, capsys):
    out_path = tmp_path / "transcript.json"
    code, _, _ = run_cli(capsys, "simulate", "--game", "chsh",
                         "--strategy", "canonical", "--rho", "0.7",
                         "--t", "2000", "--p", "0.01", "--seed", "2",
                         "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "estimate-rho", "--transcript", str(out_path))
    assert code == 0
    assert abs(json.loads(out)["rhoHat"] - 0.7) < 0.1


def test_estimate_rho_reads_schema_v1_to_v3_transcripts(tmp_path, capsys):
    # a v4 transcript, and the same document tagged with each older version
    v4 = tmp_path / "v4.json"
    code, _, _ = run_cli(capsys, "simulate", "--game", "magic_square", "--rho", "0.7",
                         "--t", "300", "--seed", "4", "--out", str(v4))
    doc = json.loads(v4.read_text())
    assert code == 0 and doc["schemaVersion"] == 4
    paths = []
    for version in (1, 2, 3):
        paths.append(tmp_path / f"v{version}.json")
        paths[-1].write_text(json.dumps({**doc, "schemaVersion": version}))
    estimates = []
    for path in (*paths, v4):
        code, out, _ = run_cli(capsys, "estimate-rho", "--transcript", str(path))
        assert code == 0
        estimates.append(out)
    assert len(set(estimates)) == 1
    assert json.loads(estimates[0])["nRounds"] == doc["tPrime"]


def test_estimate_rho_refuses_a_schema_v5_transcript(tmp_path, capsys):
    v5 = tmp_path / "v5.json"
    v5.write_text(json.dumps({"schemaVersion": 5, "game": "chsh", "tPrime": 10,
                              "empiricalWinRate": 0.8}))
    code, out, err = run_cli(capsys, "estimate-rho", "--transcript", str(v5))
    assert code == 2 and out == ""
    assert err == (f"error: --transcript {v5}: unknown transcript schemaVersion 5; "
                   "this version reads 1 to 4\n")


def test_estimate_rho_needs_input(capsys):
    code, _, err = run_cli(capsys, "estimate-rho", "--game", "chsh")
    assert code == 2


def test_lemma_check(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert "lp_closed_form_vs_linear_program" in names
    assert "fast_transform_vs_trace_oracle" in names


def test_unknown_constructor_rejected(capsys):
    code, _, err = run_cli(capsys, "eval", "--strategy", "mystery", "--rho", "0.5")
    assert code == 2
    assert "neither a file nor a known constructor" in err


# sha256 of `simulate --include-rounds` stdout for one (game, n, t, rho)
# fixture per game at seed 11; pins the JSON rendering and the round stream.
GOLDEN_SIMULATE = {
    ("chsh", 1, 500, 0.8): "1bb14e382cdaf7cffbbc2601bc48ad60c5e577c18848612c1d1492041fb3c560",
    ("magic_square", 1, 200, 0.9):
        "2f25284084162acc906b0b89507d63d2d8b42c985f50075e33f3cca2e11c82e7",
    ("two_out_of_n", 3, 40, 0.9):
        "332be424c5147cefb089d1c706a83f1d379262a4bb5d7d877bc1016c03a3da16",
}


@pytest.mark.parametrize("game, n, t, rho", list(GOLDEN_SIMULATE))
def test_simulate_include_rounds_golden_digest(tmp_path, capsys, game, n, t, rho):
    argv = ["simulate", "--game", game, "--n", str(n), "--rho", str(rho), "--t", str(t),
            "--p", "0.05", "--seed", "11", "--include-rounds"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SIMULATE[(game, n, t, rho)]
    out_path = tmp_path / "transcript.json"
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and stdout == ""
    assert out_path.read_text() == out


# Multi-block runs; see GOLDEN_CSV_MULTI_BLOCK in test_protocols.py.
GOLDEN_SIMULATE_MULTI_BLOCK = {
    ("two_out_of_n", 5, 400, 3, 0.9):
        "1f86faab7ae06643eaef10eedb49d772b3e0ba974108cf9bf3763fb42244a3cb",
    ("magic_square", 1, 4000, 1, 0.9):
        "f0fe99a6acea98d3a16e6889dbd050fc82ebf2d6a062b9c8163cd64c9e5137fd",
}


@pytest.mark.parametrize("game, n, t, seed, rho", list(GOLDEN_SIMULATE_MULTI_BLOCK))
def test_simulate_include_rounds_golden_digest_multi_block(capsys, game, n, t, seed, rho):
    code, out, _ = run_cli(capsys, "simulate", "--game", game, "--n", str(n), "--rho", str(rho),
                           "--t", str(t), "--p", "0.05", "--seed", str(seed),
                           "--include-rounds")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_SIMULATE_MULTI_BLOCK[(game, n, t, seed, rho)]


@pytest.mark.parametrize("game, n, t, seed", [
    ("chsh", 1, 3, 1), ("chsh", 1, 60_000, 2), ("magic_square", 1, 40, 3),
    ("two_out_of_n", 3, 20, 4)])
def test_include_rounds_text_is_the_indented_json_dump(tmp_path, capsys, game, n, t, seed):
    from noisygames.games import (canonical_chsh_strategy, canonical_magic_square_strategy,
                                  canonical_two_out_of_n_strategy)
    from noisygames.protocols import ProtocolParams, run_protocol
    from noisygames.serialize import transcript_to_json

    strategy = {"chsh": canonical_chsh_strategy, "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed, 0.8), strategy)
    want = json.dumps(transcript_to_json(tr, include_rounds=True), indent=2) + "\n"
    argv = ["simulate", "--game", game, "--n", str(n), "--rho", "0.8", "--t", str(t),
            "--p", "0.05", "--seed", str(seed), "--include-rounds"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    out_path = tmp_path / "transcript.json"
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and stdout == ""
    assert out_path.read_text() == want


@pytest.mark.parametrize("game, n, t, seed", [
    ("chsh", 1, 3, 1), ("chsh", 1, 40_000, 2), ("magic_square", 1, 40, 3),
    ("two_out_of_n", 3, 1600, 4)])
def test_export_csv_file_is_the_rounds_csv(tmp_path, capsys, game, n, t, seed):
    # simulate writes the CSV a block of rows at a time; the file holds the
    # bytes of transcript_rounds_csv, which joins the same pieces
    from noisygames.games import (canonical_chsh_strategy, canonical_magic_square_strategy,
                                  canonical_two_out_of_n_strategy)
    from noisygames.protocols import (ProtocolParams, run_protocol, transcript_rounds_csv,
                                      transcript_rounds_csv_pieces)

    strategy = {"chsh": canonical_chsh_strategy, "magic_square": canonical_magic_square_strategy,
                "two_out_of_n": canonical_two_out_of_n_strategy}[game](n)
    tr = run_protocol(ProtocolParams(game, t, 0.05, seed, 0.8), strategy)
    want = transcript_rounds_csv(tr)
    pieces = list(transcript_rounds_csv_pieces(tr))
    assert "".join(pieces) == want and pieces[0] == want[: want.index("\n") + 1]
    assert len(pieces) == 1 + -(-tr.t_prime // 2 ** 15)
    csv_path = tmp_path / "rounds.csv"
    code, _, _ = run_cli(capsys, "simulate", "--game", game, "--n", str(n), "--rho", "0.8",
                         "--t", str(t), "--p", "0.05", "--seed", str(seed),
                         "--export-csv", str(csv_path))
    assert code == 0
    assert csv_path.read_bytes() == want.encode("ascii")


def _fresh_python(*args):
    src = str(Path(noisygames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_cold_import_leaves_scipy_unloaded():
    proc = _fresh_python("-c", "import sys, noisygames.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_lemma_check_fresh_interpreter_leaves_scipy_unloaded():
    proc = _fresh_python("-m", "noisygames.cli", "lemma-check", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert all(c["pass"] for c in checks)
    assert "lp_closed_form_vs_linear_program" in {c["name"] for c in checks}
    # the LP oracle enumerates vertices: no command reaches for scipy
    proc = _fresh_python("-c", "import sys, noisygames.cli; "
                               "code = noisygames.cli.main(['lemma-check', '--seed', '3']); "
                               "print(code, 'scipy' in sys.modules, file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", "False"]
    assert all(c["pass"] for c in json.loads(proc.stdout)["checks"])


def test_no_package_module_imports_scipy():
    package = Path(noisygames.__file__).resolve().parent
    imports = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert imports, "the scan found no import statements"
    assert [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []


SIMULATE = ["simulate", "--game", "chsh", "--rho", "0.8", "--t", "50", "--p", "0.1"]


@pytest.mark.parametrize("extra, env_seed, message", [
    (["--seed", "-1"], None, "seed must be in [0, 2**64), got -1"),
    (["--seed", str(2 ** 64)], None, f"seed must be in [0, 2**64), got {2 ** 64}"),
    ([], "abc", "NOISYGAMES_SEED must be an integer, got 'abc'"),
    ([], "-5", "seed must be in [0, 2**64), got -5"),
    ([], "1.5", "NOISYGAMES_SEED must be an integer, got '1.5'"),
], ids=["negative", "above-uint64", "env-not-int", "env-negative", "env-float"])
def test_bad_seed_is_a_validation_error(capsys, monkeypatch, extra, env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("NOISYGAMES_SEED", raising=False)
    else:
        monkeypatch.setenv("NOISYGAMES_SEED", env_seed)
    code, out, err = run_cli(capsys, *SIMULATE, *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_largest_seed_accepted(capsys):
    code, out, _ = run_cli(capsys, *SIMULATE, "--seed", str(2 ** 64 - 1))
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 2 ** 64 - 1


def test_threads_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "eval", "--rho", "0.5"])
    assert exc.value.code == 2


def _defective_strategy_documents() -> dict:
    """Strategy documents with one defect each, by file key: a member key
    the game does not have, an n below 1 or a malformed member matrix."""
    from copy import deepcopy

    from noisygames.games import (
        canonical_chsh_strategy,
        canonical_magic_square_strategy,
        canonical_two_out_of_n_strategy,
    )
    from noisygames.serialize import strategy_to_json

    chsh = strategy_to_json(canonical_chsh_strategy(1))
    ms = strategy_to_json(canonical_magic_square_strategy(1))
    two = strategy_to_json(canonical_two_out_of_n_strategy(2))
    docs = {}
    for block, key, like in (("aliceSingles", "3,0", "1,0"), ("bobSingles", "3,1", "1,1"),
                             ("alicePairPovms", "1,0,3,1", "1,0,2,1"),
                             ("bobPairPovms", "1,1,3,0", "1,1,2,0")):
        docs[f"extra_{block}"] = doc = deepcopy(two)
        doc[block][key] = doc[block][like]
    docs["ms_block_schema_version"] = {**ms, "bobObservables": {**ms["bobObservables"],
                                                                "schemaVersion": 1}}
    # 1x1 observables fit n = 0, which evaluated to violation 2.0
    docs["chsh_n_zero"] = {"game": "chsh", "n": 0, "observables": {
        key: [[[1.0, 0.0]]] for key in ("P0", "P1", "Q0", "Q1")}}
    docs["chsh_n_negative"] = {**docs["chsh_n_zero"], "n": -1}
    docs["ms_n_zero"] = {**ms, "n": 0}
    docs["chsh_entry_a_string"] = doc = deepcopy(chsh)
    doc["observables"]["P1"][0][1][0] = "x"
    # numpy reads "1" and false as the numbers 1 and 0, which evaluated
    docs["chsh_entry_numeric_string"] = doc = deepcopy(chsh)
    doc["observables"]["P0"][0] = [["1", False], [0, 0]]
    docs["t2n_entry_boolean"] = doc = deepcopy(two)
    doc["alicePairPovms"]["1,0,2,1"][0][0][0][1] = False
    docs["ms_empty_povm"] = {**ms, "alicePovms": {**ms["alicePovms"], "c2": []}}
    docs["ms_ragged_povm"] = doc = deepcopy(ms)
    doc["alicePovms"]["r1"][3].pop()
    docs["t2n_key_not_a_pair"] = doc = deepcopy(two)
    doc["bobSingles"]["x,0"] = doc["bobSingles"].pop("2,0")
    docs["t2n_povm_entry_null"] = doc = deepcopy(two)
    doc["bobPairPovms"]["1,0,2,1"][2][0] = None
    # an n whose pair keys would not fit in memory fails before they are listed
    docs["t2n_huge_n"] = {"game": "two_out_of_n", "n": 10 ** 6, "aliceSingles": {},
                          "bobSingles": {}, "alicePairPovms": {}, "bobPairPovms": {}}
    docs["t2n_huge_n_one_register"] = {**docs["t2n_huge_n"], "nPrime": 1}
    docs["t2n_registers_below_n"] = {**docs["t2n_huge_n"], "n": 3, "nPrime": 2}
    return docs


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["estimate-rho", "--rho-true", "0.7", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["estimate-rho", "--rho-true", "0.7", "--rounds", "-5"],
     "--rounds must be at least 1, got -5"),
    (["estimate-rho", "--game", "magic_square", "--rho-true", "0.7", "--rounds", "0"],
     "--rounds must be at least 1, got 0"),
    (["estimate-rho", "--statistic", "0.8", "--rounds", "0"], "--rounds must be at least 1, got 0"),
    (["certify", "--game", "magic_square", "--rho", "0.8", "--variable", "9,9"],
     "--variable must be i,j with i and j in 1..3, got '9,9'"),
    (["certify", "--game", "magic_square", "--rho", "0.8", "--variable", "a"],
     "--variable must be i,j with i and j in 1..3, got 'a'"),
    (["estimate-rho", "--transcript", "{no_game}"],
     "--transcript {no_game}: need a simulate JSON object with 'game' and 'tPrime' keys"),
    (["estimate-rho", "--transcript", "{a_list}"],
     "--transcript {a_list}: need a simulate JSON object with 'game' and 'tPrime' keys"),
    (["simulate", "--game", "two_out_of_n", "--n", "1", "--rho", "0.8", "--t", "5"],
     "2-out-of-n rounds need n >= 2 indices, got n = 1"),
    (["estimate-rho", "--transcript", "{ghz}"], "--transcript {ghz}: unknown game 'ghz'"),
    (["estimate-rho", "--transcript", "{t_abc}"],
     "--transcript {t_abc}: the round count must be an integer >= 1, got 'abc'"),
    (["estimate-rho", "--transcript", "{rate_x}"],
     "--transcript {rate_x}: the statistic must be a finite real number, got 'x'"),
    (["eval", "--rho", "0.9", "--out", "{a_dir}"], "[Errno 21] Is a directory: '{a_dir}'"),
    (["eval", "--rho", "0.9", "--strategy", "{a_dir}"], "[Errno 21] Is a directory: '{a_dir}'"),
    (["estimate-rho", "--transcript", "{a_dir}"], "[Errno 21] Is a directory: '{a_dir}'"),
    (["eval", "--game", "two_out_of_n", "--n", "1", "--rho", "0.9"],
     "2-out-of-n values need n >= 2 indices, got n = 1"),
    (["selftest", "--game", "two_out_of_n", "--n", "1", "--rho", "0.9"],
     "2-out-of-n values need n >= 2 indices, got n = 1"),
    (["eval", "--game", "magic_square", "--rho", "0.9", "--strategy", "{ms_no_povms}"],
     "magic_square strategy is missing fields: ['alicePovms']"),
    (["eval", "--game", "two_out_of_n", "--n", "2", "--rho", "0.9", "--strategy", "{t2n_list}"],
     "aliceSingles must be a JSON object"),
    (["eval", "--rho", "0.9", "--strategy", "canonical-perturbed:nan"],
     "theta must be a finite angle, got nan"),
    (["eval", "--rho", "0.9", "--strategy", "canonical-perturbed:inf"],
     "theta must be a finite angle, got inf"),
    (["selftest", "--game", "magic_square", "--rho", "0.8", "--channel", "bit-phase-flip"],
     "no general-noise self-test for strategy type MagicSquareStrategy"),
    (["selftest", "--game", "two_out_of_n", "--n", "2", "--rho", "0.8",
      "--channel", "bit-phase-flip"],
     "no general-noise self-test for strategy type TwoOutOfNStrategy"),
    (["eval", "--rho", "0.9", "--strategy", "random-biased:nan:3"],
     "trace_bias must be a finite number in [0, 1], got nan"),
    (["eval", "--rho", "0.9", "--strategy", "random-biased:inf:3"],
     "trace_bias must be a finite number in [0, 1], got inf"),
    (["eval", "--rho", "0.9", "--strategy", "random-biased:-0.5:3"],
     "trace_bias must be a finite number in [0, 1], got -0.5"),
    (["eval", "--game", "magic_square", "--rho", "0.9", "--strategy", "random-biased:1.5:3"],
     "trace_bias must be a finite number in [0, 1], got 1.5"),
    (["selftest", "--rho", "0.8", "--threshold", "nan"], "--threshold must be a number, got nan"),
    (["simulate", "--game", "chsh", "--rho", "0.9", "--t", "1000000000000000", "--seed", "1"],
     "t = 1000000000000000 is expected to need 2000000000000000 rounds, "
     "above the limit of 33554432"),
    (["eval", "--rho", "0.9", "--n", "7"],
     "a chsh strategy with n = 7 has local dimension 2**7, above the cap of 2**6"),
    (["eval", "--game", "magic_square", "--rho", "0.9", "--n", "4"],
     "a magic_square strategy with n = 4 has local dimension 2**8, above the cap of 2**6"),
    (["eval", "--game", "two_out_of_n", "--rho", "0.9", "--n", "7"],
     "a two_out_of_n strategy with n = 7 has local dimension 2**7, above the cap of 2**6"),
    (["eval", "--rho", "0.9", "--strategy", "{game_list}"], "unknown game ['chsh']"),
    (["eval", "--rho", "0.9", "--strategy", "{seed_null}"],
     "strategy field 'seed' must be an integer, got None"),
    (["eval", "--game", "two_out_of_n", "--n", "2", "--rho", "0.9", "--strategy", "{n_prime_list}"],
     "strategy field 'nPrime' must be an integer, got [1]"),
    (["eval", "--rho", "0.9", "--strategy", "{theta_list}"],
     "strategy field 'theta' must be a number, got [1]"),
    (["eval", "--rho", "0.9", "--strategy", "{trace_bias_list}"],
     "strategy field 'traceBias' must be a number, got [0.1]"),
    (["eval", "--game", "two_out_of_n", "--n", "2", "--n-prime", "0", "--rho", "0.9"],
     "need at least as many registers as indices"),
    (["eval", "--game", "two_out_of_n", "--n", "3", "--n-prime", "1", "--rho", "0.9"],
     "need at least as many registers as indices"),
    (["eval", "--game", "two_out_of_n", "--n", "2", "--register", "2", "--rho", "0.9"],
     "symbolic canonical two_out_of_n strategy has unknown fields: ['register']"),
    (["eval", "--n-prime", "2", "--rho", "0.9"],
     "symbolic canonical chsh strategy has unknown fields: ['nPrime']"),
    (["certify", "--game", "magic_square", "--n-prime", "2", "--rho", "0.9"],
     "symbolic canonical magic_square strategy has unknown fields: ['nPrime']"),
    (["eval", "--game", "two_out_of_n", "--n", "2", "--n-prime", "4", "--rho", "0.9",
      "--strategy", "canonical-perturbed:0.1"],
     "symbolic canonical-perturbed two_out_of_n strategy has unknown fields: ['nPrime']"),
    (["eval", "--rho", "0.9", "--register", "2", "--strategy", "random:3"],
     "symbolic random chsh strategy has unknown fields: ['register']"),
    (["selftest", "--n", "7", "--rho", "0.8", "--theta-sweep", "0.1"],
     "a chsh strategy with n = 7 has local dimension 2**7, above the cap of 2**6"),
    (["selftest", "--game", "two_out_of_n", "--n", "2", "--register", "2", "--rho", "0.8",
      "--theta-sweep", "0.1"],
     "symbolic canonical-perturbed two_out_of_n strategy has unknown fields: ['register']"),
    (["estimate-rho", "--game", "two_out_of_n", "--rho-true", "0.7", "--rounds", "100"],
     "2-out-of-n rounds need n >= 2 indices, got n = 1"),
    (["eval", "--game", "chsh", "--n", "0", "--rho", "0.9"], "n must be an integer >= 1, got 0"),
    (["eval", "--game", "magic_square", "--n", "-1", "--rho", "0.9", "--strategy", "random:3"],
     "n must be an integer >= 1, got -1"),
    (["eval", "--game", "two_out_of_n", "--n", "-2", "--rho", "0.9"],
     "n must be an integer >= 1, got -2"),
    (["estimate-rho", "--n", "0", "--rho-true", "0.7", "--rounds", "100"],
     "n must be an integer >= 1, got 0"),
    (["eval", "--game", "magic_square", "--rho", "0.5", "--strategy", "random-bounded:3"],
     "unknown random magic-square strategy kind 'bounded'; expected one of projective, mixed, "
     "raw"),
    (["selftest", "--rho", "0.8", "--theta-sweep", "0.1", "--strategy", "random:3"],
     "--theta-sweep does not read --strategy random:3"),
    (["selftest", "--rho", "0.8", "--theta-sweep", "0.1", "--channel", "bit-phase-flip"],
     "--theta-sweep does not read --channel"),
    (["selftest", "--rho", "0.8", "--theta-sweep", "0.1", "--threshold", "0.0"],
     "--theta-sweep does not read --threshold"),
    (["certify", "--game", "chsh", "--rho", "0.8", "--variable", "1,1"],
     "a variable is read only by the magic-square certificate, not for a ChshStrategy"),
    (["estimate-rho", "--transcript", "{v99}"],
     "--transcript {v99}: unknown transcript schemaVersion 99; this version reads 1 to 4"),
    (["estimate-rho", "--transcript", "{v_true}"],
     "--transcript {v_true}: unknown transcript schemaVersion True; this version reads 1 to 4"),
    (["estimate-rho", "--game", "chsh", "--statistic", "1.5", "--rounds", "100"],
     "the statistic is a rate and must lie in [0, 1], got 1.5"),
    (["estimate-rho", "--game", "chsh", "--statistic", "-0.3", "--rounds", "100"],
     "the statistic is a rate and must lie in [0, 1], got -0.3"),
    (["estimate-rho", "--transcript", "{rate_high}"],
     "--transcript {rate_high}: the statistic is a rate and must lie in [0, 1], got 1.5"),
    (["eval", "--rho", "0.9", "--strategy", "{extra_aliceSingles}"],
     "aliceSingles has unknown fields: ['3,0']"),
    (["eval", "--rho", "0.9", "--strategy", "{extra_bobSingles}"],
     "bobSingles has unknown fields: ['3,1']"),
    (["eval", "--rho", "0.9", "--strategy", "{extra_alicePairPovms}"],
     "alicePairPovms has unknown fields: ['1,0,3,1']"),
    (["eval", "--rho", "0.9", "--strategy", "{extra_bobPairPovms}"],
     "bobPairPovms has unknown fields: ['1,1,3,0']"),
    (["eval", "--rho", "0.9", "--strategy", "{ms_block_schema_version}"],
     "bobObservables has unknown fields: ['schemaVersion']"),
    (["eval", "--rho", "0.9", "--strategy", "{chsh_n_zero}"], "n must be an integer >= 1, got 0"),
    (["eval", "--rho", "0.9", "--strategy", "{chsh_n_negative}"],
     "n must be an integer >= 1, got -1"),
    (["eval", "--rho", "0.9", "--strategy", "{ms_n_zero}"], "n must be an integer >= 1, got 0"),
    (["eval", "--rho", "0.9", "--strategy", "{chsh_entry_a_string}"],
     "chsh observables 'P1': matrix JSON must be a nested array of [re, im] pairs"),
    (["eval", "--rho", "0.9", "--strategy", "{ms_empty_povm}"],
     "alicePovms 'c2': matrix JSON must be a nested array of [re, im] pairs"),
    (["eval", "--rho", "0.9", "--strategy", "{ms_ragged_povm}"],
     "alicePovms 'r1': matrix JSON must be a nested array of [re, im] pairs"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_key_not_a_pair}"],
     "bobSingles is missing fields: ['2,0']"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_povm_entry_null}"],
     "bobPairPovms '1,0,2,1': matrix JSON must be a nested array of [re, im] pairs"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_huge_n}"],
     "a two_out_of_n strategy with n = 1000000 has local dimension 2**1000000, "
     "above the cap of 2**6"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_huge_n_one_register}"],
     "a two_out_of_n strategy with n = 1000000 has local dimension 2**1000000, "
     "above the cap of 2**6"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_registers_below_n}"],
     "need at least as many registers as indices"),
    (["eval", "--rho", "0.9", "--strategy", "{chsh_entry_numeric_string}"],
     "chsh observables 'P0': matrix JSON entries must be numbers, not strings or booleans"),
    (["eval", "--rho", "0.9", "--strategy", "{t2n_entry_boolean}"],
     "alicePairPovms '1,0,2,1': matrix JSON entries must be numbers, not strings or booleans"),
    (["selftest", "--rho", "0.8", "--theta-sweep", ""],
     "--theta-sweep must be comma-separated angles, got ''"),
    (["selftest", "--rho", "0.8", "--theta-sweep", "0.1,"],
     "--theta-sweep must be comma-separated angles, got '0.1,'"),
    (["certify", "--game", "magic_square", "--rho", "0.8", "--variable", ""],
     "--variable must be i,j with i and j in 1..3, got ''"),
], ids=["rounds-zero", "rounds-negative", "ms-rounds-zero", "statistic-rounds-zero",
        "variable-out-of-range", "variable-not-a-pair", "transcript-no-game",
        "transcript-not-an-object", "two-out-of-one", "transcript-unknown-game",
        "transcript-t-prime-not-int", "transcript-rate-not-real", "out-is-a-directory",
        "strategy-is-a-directory", "transcript-is-a-directory", "eval-two-out-of-one",
        "selftest-two-out-of-one", "strategy-missing-field", "strategy-block-not-an-object",
        "perturbed-theta-nan",
        "perturbed-theta-inf", "general-noise-magic-square", "general-noise-two-out-of-n",
        "trace-bias-nan", "trace-bias-inf", "trace-bias-negative", "trace-bias-above-one",
        "threshold-nan", "simulate-t-too-large", "chsh-dimension-above-cap",
        "ms-dimension-above-cap", "two-out-of-n-dimension-above-cap", "strategy-game-a-list",
        "strategy-seed-null", "strategy-n-prime-a-list", "strategy-theta-a-list",
        "strategy-trace-bias-a-list", "n-prime-zero", "n-prime-below-n",
        "two-out-of-n-register", "chsh-n-prime", "ms-n-prime", "perturbed-two-out-of-n-n-prime",
        "random-register", "sweep-dimension-above-cap", "sweep-two-out-of-n-register",
        "estimate-two-out-of-one", "chsh-n-zero", "ms-n-negative", "two-out-of-n-n-negative",
        "estimate-n-zero", "ms-random-bounded", "sweep-strategy", "sweep-channel",
        "sweep-threshold", "chsh-variable", "transcript-schema-99", "transcript-schema-bool",
        "statistic-above-one", "statistic-below-zero", "transcript-rate-above-one",
        "unknown-alice-single", "unknown-bob-single", "unknown-alice-pair-povm",
        "unknown-bob-pair-povm", "block-schema-version", "chsh-file-n-zero", "chsh-file-n-negative", "ms-file-n-zero",
        "entry-a-string", "empty-povm", "ragged-povm", "two-out-of-n-key-not-a-pair",
        "pair-povm-entry-null", "two-out-of-n-file-n-above-cap",
        "two-out-of-n-file-n-above-cap-one-register", "two-out-of-n-file-n-above-registers",
        "entry-a-numeric-string", "entry-a-boolean", "sweep-empty", "sweep-trailing-comma",
        "variable-empty"])
def test_bad_argument_is_named_in_one_line(tmp_path, capsys, argv, message):
    files = {"no_game": tmp_path / "no_game.json", "a_list": tmp_path / "a_list.json",
             "ghz": tmp_path / "ghz.json", "t_abc": tmp_path / "t_abc.json",
             "rate_x": tmp_path / "rate_x.json", "ms_no_povms": tmp_path / "ms_no_povms.json",
             "t2n_list": tmp_path / "t2n_list.json"}
    # symbolic strategy documents with one field of the wrong JSON type
    typed = {"game_list": {"kind": "canonical", "game": ["chsh"]},
             "seed_null": {"kind": "random", "game": "chsh", "seed": None},
             "n_prime_list": {"kind": "canonical", "game": "two_out_of_n", "n": 2, "nPrime": [1]},
             "theta_list": {"kind": "canonical-perturbed", "game": "chsh", "theta": [1]},
             "trace_bias_list": {"kind": "random", "game": "chsh", "traceBias": [0.1]}}
    for key, doc in typed.items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    files["no_game"].write_text(json.dumps({"tPrime": 10, "empiricalWinRate": 0.8}))
    files["a_list"].write_text("[1, 2]")
    files["ghz"].write_text(json.dumps({"game": "ghz", "tPrime": 10, "empiricalWinRate": 0.8}))
    for key, version in (("v99", 99), ("v_true", True)):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps({"schemaVersion": version, "game": "chsh",
                                          "tPrime": 10, "empiricalWinRate": 0.8}))
    files["t_abc"].write_text(json.dumps({"game": "chsh", "tPrime": "abc",
                                          "empiricalWinRate": 0.8}))
    files["rate_x"].write_text(json.dumps({"game": "chsh", "tPrime": 10,
                                           "empiricalWinRate": "x"}))
    files["rate_high"] = tmp_path / "rate_high.json"
    files["rate_high"].write_text(json.dumps({"game": "chsh", "tPrime": 100,
                                              "empiricalWinRate": 1.5}))
    files["ms_no_povms"].write_text(json.dumps({"game": "magic_square", "n": 1,
                                               "bobObservables": {}}))
    files["t2n_list"].write_text(json.dumps({"game": "two_out_of_n", "n": 2, "aliceSingles": [],
                                            "bobSingles": {}, "alicePairPovms": {},
                                            "bobPairPovms": {}}))
    for key, doc in _defective_strategy_documents().items():
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(doc))
    names = {key: str(path) for key, path in files.items()}
    names["a_dir"] = str(tmp_path)
    code, out, err = run_cli(capsys, *[a.format(**names) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(**names)}\n"


@pytest.mark.parametrize("error", [TypeError("unsupported operand\ntype(s)"),
                                   ZeroDivisionError("division by zero")])
def test_unexpected_error_exits_2_with_one_line(monkeypatch, capsys, error):
    # exit 1 is reserved for threshold and oracle failures, so an error no
    # handler expects must not leave through a traceback
    import noisygames.cli as cli

    def boom(args):
        raise error

    monkeypatch.setattr(cli, "cmd_eval", boom)
    code, out, err = run_cli(capsys, "eval", "--game", "chsh", "--rho", "0.8")
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err == f"error: {type(error).__name__}: {' '.join(str(error).split())}\n"
    assert err.count("\n") == 1
