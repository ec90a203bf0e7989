"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {sweep,protocol,cli} --seed N --seconds S --trace {0,1}

Run from a checkout that holds `src/noisygames`; nothing needs installing.
A run makes fixed work out of S: round(S / nominal pass time) passes of the
workload's items (at least three), so both commits of a comparison time the
same items.  With `--trace 0` the last stdout line reports the end-to-end
metrics; with `--trace 1` the run alternates untraced and traced passes, a
fixed number of each, and reports the per-layer metrics and the tracing
overhead.  The line before it is a JSON record of the environment, sample
counts and any failed checks.  Spans of a traced run are written to
`.bench_out/trace-<workload>-seed<N>.json`.  `--tiny` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TRACE_PAIRS = {"sweep": 2, "protocol": 2, "cli": 1}
TAIL_BEYOND = 10
IMPORT_SAMPLES = 5
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "start = time.perf_counter(); import noisygames.cli; "
               "print(time.perf_counter() - start)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "protocol", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def tail(samples: list) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it
    (the median when there are too few samples), and that percentile."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND, (len(ordered) + 1) // 2)
    return ordered[k - 1], 100.0 * k / len(ordered)


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):
        deps = {}
    blas = {lib: {k: v for k, v in deps.get(lib, {}).items()
                  if k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")}
    scipy = sys.modules.get("scipy")
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def run_pass(wl, p: int, failures: dict, tracer=None) -> tuple[float, list]:
    """Prepare and run pass p; returns (set-up seconds, item latencies)."""
    if tracer is not None:
        tracer.item, tracer.active = f"{p}:setup", True
        sid = tracer.open("bench.prepare")
    start = time.perf_counter()
    items = wl.prepare(p)
    setup = time.perf_counter() - start
    if tracer is not None:
        tracer.close(sid)
        tracer.active = False
    latencies = []
    for k, item in enumerate(items):
        key = f"{p}:{k}"
        if tracer is not None:
            tracer.item, tracer.active = key, True
            sid = tracer.open("bench.item")
        start = time.perf_counter()
        try:
            out = wl.run_item(item, tracer)
            errors = []
        except Exception as exc:  # an item that raises is a failed item
            out, errors = None, [f"raised {exc!r}"]
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(sid)
            tracer.active = False
        if not errors:
            try:
                errors = wl.check(item, out)
            except Exception as exc:  # a check that cannot read the output fails it
                errors = [f"check raised {exc!r}"]
        if errors:
            failures[key] = errors[:5]
        del out
    return setup, latencies


def interpreter_seconds() -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_samples(first: float) -> list:
    """Times of `import noisygames.cli`: the run's own import and
    IMPORT_SAMPLES - 1 more, each timed inside a fresh interpreter."""
    times = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out))
    return times


def measure(wl, args, import_s: float) -> tuple[dict, dict, dict]:
    """Untraced run: (metrics, record fields, failures)."""
    failures: dict = {}
    if args.tiny:
        passes = 1 if not wl.in_process else 2
    else:
        passes = max(wl.min_passes, round(args.seconds / wl.nominal_pass_s))
    setups, walls, latencies = [], [], []
    for p in range(passes):
        setup, lat = run_pass(wl, p, failures)
        setups.append(setup)
        walls.append(sum(lat))
        latencies.extend(lat)
    for msg in wl.finish():
        failures.setdefault("finish", []).append(msg)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    # set-up is timed several times and the median reported; the extra
    # imports run after the peak memory is read, so they cannot set it
    imports = import_samples(import_s)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {"passes": passes, "items": len(latencies), "item_tail_pct": tail_pct,
              "pass_wall_s": walls, "pass_setup_s": setups, "import_s": imports,
              "item_latency_ms": [x * 1e3 for x in latencies]}
    return metrics, record, failures


def traced(wl, args, import_span: tuple, import_modules: int) -> tuple[dict, dict, dict]:
    """Traced run: alternating untraced and traced passes, a fixed number of
    each, so that counts repeat exactly for a fixed seed."""
    import tracing

    failures: dict = {}
    tracer = tracing.Tracer()
    if wl.in_process:
        tracer.add("cli.import", *import_span)
    pairs = 1 if args.tiny else TRACE_PAIRS[args.workload]
    plain, traced_walls, items = [], [], 0
    for k in range(pairs):
        _, lat = run_pass(wl, 2 * k, failures)
        plain.append(sum(lat))
        tracer.install()
        try:
            _, lat = run_pass(wl, 2 * k + 1, failures, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(lat))
        items += 2 * len(lat)
    for msg in wl.finish():
        failures.setdefault("finish", []).append(msg)
    dump = tracer.dump()
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump(dump, fh)
    extra = {
        "interpreter_s": interpreter_seconds(),
        "import_modules": (import_modules if wl.in_process
                           else int(statistics.median(wl.import_modules))),
        "overhead_s": statistics.median(traced_walls) - statistics.median(plain),
    }
    metrics = tracing.layer_metrics(dump, extra)
    record = {"passes": 2 * pairs, "items": items, "pass_wall_s": plain,
              "traced_pass_wall_s": traced_walls, "trace_file": str(trace_file),
              "spans": len(dump["spans"])}
    return metrics, record, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units()
    src = ROOT / "src"
    if not (src / "noisygames" / "__init__.py").is_file():
        print(f"error: no package source at {src}/noisygames; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    before = len(sys.modules)
    start = time.perf_counter()
    import noisygames.cli
    end = time.perf_counter()
    import_modules = len(sys.modules) - before
    if not Path(noisygames.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: noisygames imported from {noisygames.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir, ROOT)
        if args.trace:
            metrics, record, failures = traced(wl, args, (start, end), import_modules)
        else:
            metrics, record, failures = measure(wl, args, end - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = record["items"]
    failed = min(len(failures), attempted)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, tiny=args.tiny,
                  seconds=args.seconds, import_modules=import_modules,
                  failed_frac=failed / attempted, failures=failures,
                  environment=environment(args.seed))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
