"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run(workload: str, trace: int, seed: int = 11, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def assert_metrics(result: dict, declared: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result, record = result_of(run(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert record["failed_frac"] == 0.0
    assert record["environment"]["seed"] == 11
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_spans_nest(workload):
    first, record = result_of(run(workload, 1))
    assert_metrics(first, SPEC["per_layer"])
    spans = json.loads(Path(record["trace_file"]).read_text())["spans"]
    second, _ = result_of(run(workload, 1))
    for name in COUNTS + ["pauli.expand_unique_frac", "protocols.kept_frac"]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    unique = first["metrics"]["pauli.expand_unique_frac"]["value"]
    if workload == "sweep":
        # every sweep operator is fresh; a bitwise coincidence can repeat one
        assert unique > 0.999
    elif workload == "protocol":
        assert unique < 0.5

    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for sid, name, start, end, parent, _ in spans:
        assert start <= end, name
        if parent is not None:
            _, pname, pstart, pend, _, _ = by_id[parent]
            assert pstart <= start and end <= pend, (name, pname)


def test_compare_pairs_by_seed_and_refuses_other_seeds(tmp_path):
    sys.path.insert(0, str(BENCH))
    import report

    def results(wall: dict) -> Path:
        runs = [{"workload": "sweep", "seed": seed, "trace": False,
                 "result": {"attempted": 1, "failed": 0,
                            "metrics": {"wall_s": {"value": value, "unit": "s"}}}}
                for seed, value in wall.items()]
        path = tmp_path / f"r{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(runs))
        return path

    parent = {seed: 1.0 + 0.01 * seed for seed in range(10)}
    # listed in another order, each run 10% faster than its parent pair
    change = {seed: 0.9 * parent[seed] for seed in reversed(range(10))}
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    assert report.verdict(parent, change, spec["wall_s"])[1:3] == (10, 10)
    report.main(["compare", str(results(parent)), str(results(change))])
    del change[3]
    with pytest.raises(SystemExit, match="seeds"):
        report.main(["compare", str(results(parent)), str(results(change))])


def test_fails_without_package_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
