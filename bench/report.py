"""Run every workload and print its end-to-end metrics, or compare two sets.

    python3 bench/report.py run [--seeds 1,2,3] [--trace] [--out FILE]
    python3 bench/report.py compare PARENT.json CHANGE.json

`run` calls bench/run.py once per workload and seed, always for every
workload and at the `run_seconds` of BENCHMARK.json, so that two commits
are timed on the same work.  It prints one row per workload x metric
(median, quartiles and spread = interquartile range / median over the
seeds, with the unit, plus failed_frac = failed / attempted) and saves the
raw results to FILE (default .bench_out/results.json).  With --trace it
runs the traced variant and prints the per-layer metrics instead.

`compare` takes two such files, made with the same seeds (run the two
commits alternately), pairs the runs by seed, refuses files whose seeds
differ, and prints, per workload x metric, both medians and quartiles, how
many pairs the change won and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (for failed_frac: any rise)
  unresolved  not regressed, but the parent's own spread (interquartile
              range / median) exceeds the bound, and not every change run
              beats every parent run
  unchanged   otherwise

and `gain` where the change won at least 9 in 10 pairs and the medians differ
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "protocol", "cli")
FAILED = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def by_seed(runs: list, workload: str, metric: str) -> dict:
    """{seed: value} of one metric over the runs of one workload."""
    out = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        res = run["result"]
        if metric == "failed_frac":
            value = res["failed"] / res["attempted"]
        elif metric in res["metrics"]:
            value = res["metrics"][metric]["value"]
        else:
            continue
        if run["seed"] in out:
            raise SystemExit(f"two {workload} runs with seed {run['seed']}")
        out[run["seed"]] = value
    return out


def print_table(runs: list, metrics: list):
    print(f"{'workload':<9} {'metric':<32} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'runs':>4}")
    for workload in WORKLOADS:
        for m in metrics:
            vals = list(by_seed(runs, workload, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            print(f"{workload:<9} {m['name']:<32} {m['unit']:<6} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.3f} {len(vals):>4}")


def cmd_run(args) -> int:
    spec = load_spec()
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for seed in seeds:
        for workload in WORKLOADS:
            runs.append(run_one(workload, seed, spec["run_seconds"], args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr)
    out = Path(args.out) if args.out else ROOT / ".bench_out" / "results.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs))
    if args.trace:
        metrics = spec["per_layer"]
    else:
        metrics = spec["end_to_end"] + [FAILED]
    print_table(runs, metrics)
    print(f"# raw results: {out}", file=sys.stderr)
    return 0


def verdict(parent: dict, change: dict, metric: dict) -> tuple[str, int, int, bool]:
    """(verdict, pairs won by the change, pairs, gain) for one metric, given
    {seed: value} of both sides over the same seeds."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    pairs = [(parent[seed], change[seed]) for seed in sorted(parent)]
    parent, change = list(parent.values()), list(change.values())
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = sign * (cmed - pmed)
    if metric["bound"] == 0.0:
        regressed = worse > 0
    else:
        regressed = worse > metric["bound"] * abs(pmed)
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if regressed:
        status = "regressed"
    elif spread > metric["bound"] and not all_better:
        status = "unresolved"
    else:
        status = "unchanged"
    gain = bool(pairs) and wins >= 0.9 * len(pairs) and -worse > (p3 - p1)
    return status, wins, len(pairs), gain


def cmd_compare(args) -> int:
    spec = load_spec()
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{'workload':<9} {'metric':<13} {'unit':<6} {'parent med':>11} {'[q1, q3]':>25} "
          f"{'change med':>11} {'[q1, q3]':>25} {'wins':>6} verdict")
    for workload in WORKLOADS:
        for m in spec["end_to_end"] + [FAILED]:
            pv, cv = by_seed(parent, workload, m["name"]), by_seed(change, workload, m["name"])
            if not pv and not cv:
                continue
            if set(pv) != set(cv):
                raise SystemExit(f"{workload} {m['name']}: parent seeds {sorted(pv)} "
                                 f"differ from change seeds {sorted(cv)}")
            status, wins, pairs, gain = verdict(pv, cv, m)
            p1, pmed, p3 = quartiles(list(pv.values()))
            c1, cmed, c3 = quartiles(list(cv.values()))
            print(f"{workload:<9} {m['name']:<13} {m['unit']:<6} {pmed:>11.5g} "
                  f"{f'[{p1:.5g}, {p3:.5g}]':>25} {cmed:>11.5g} {f'[{c1:.5g}, {c3:.5g}]':>25} "
                  f"{f'{wins}/{pairs}':>6} {status}{' gain' if gain else ''}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload and print its metrics")
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare a parent and a change result set")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
