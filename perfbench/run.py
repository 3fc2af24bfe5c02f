"""cisim benchmark: seeded workloads, time and memory to a checked report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload h2-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

``--trace 0`` measures the end-to-end metrics with no tracing: one child
process per pass until ``--seconds`` would be exceeded (at least one pass),
and the median of each metric over the passes.  ``--trace 1`` runs one
untraced pass, one traced pass and one resident-memory pass, and reports
the per-layer metrics and the tracing overhead.  Every output is checked.

cisim is imported from ``src/`` of the checkout; nothing is installed.
Each child gets BLAS_THREADS threads for BLAS and OpenMP.  Results, the
span log and a stamp (nproc, Python, numpy, scipy, commit) go to
``.perfbench_out/``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import GENERATORS, WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a child died."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def spawn(mode: str, workload: str, seed: int, tiny: bool,
          spans_out: Path | None = None) -> dict:
    """Run one child to completion and return its result object."""
    spec = {"workload": workload, "seed": seed, "tiny": tiny, "mode": mode,
            "spans_out": str(spans_out) if spans_out else None,
            "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{workload} {mode} child exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _records(children):
    return [r for c in children for r in c.get("records", ())]


def fail_frac(records) -> float:
    """Problems that raised or failed their check, over problems attempted."""
    return sum(not r["ok"] for r in records) / len(records)


def measure_untraced(workload, seed, seconds, tiny) -> tuple[dict, list]:
    start = time.monotonic()
    passes, walls = [], []
    while True:
        t0 = time.monotonic()
        passes.append(spawn("plain", workload, seed, tiny))
        walls.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    values = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ok_frac": 1.0 - fail_frac(_records(passes)),
    }
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    return ({name: {"value": values[name], "unit": units[name]}
             for name in units}, passes)


def measure_traced(workload, seed, tiny, spans_out) -> tuple[dict, list, list]:
    plain = spawn("plain", workload, seed, tiny)
    traced = spawn("trace", workload, seed, tiny, spans_out)
    mem = spawn("mem", workload, seed, tiny)
    passes = {"untraced_run_s": plain["run_s"],
              "traced_run_s": traced["run_s"],
              "overhead_s": traced["run_s"] - plain["run_s"]}
    values, absent = metrics.per_layer_values(
        traced["stats"], traced["counters"], mem["mem"], passes,
        set(traced["wrapped"]) & set(mem["wrapped"]))
    return values, absent, [plain, traced, mem]


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload, seed, seconds, trace, tiny) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    absent = []
    if trace:
        values, absent, children = measure_traced(
            workload, seed, tiny, OUT_DIR / f"{stem}.spans.json")
    else:
        values, children = measure_untraced(workload, seed, seconds, tiny)
    records = _records(children)
    failed = sum(not r["ok"] for r in records)
    stamp = {
        "workload": workload, "why": WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace, "tiny": tiny,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, **children[0]["versions"],
        **source_stamp(), "children": len(children),
        "setup_samples_s": [c["setup_s"] for c in children],
        "fail_frac": failed / len(records), "absent": absent,
        "observer_errors": sum((c.get("observer_errors", []) for c in children), []),
    }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": values}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"stamp": stamp, "result": result, "records": records}, fh,
                  indent=1)
    print(json.dumps({"stamp": stamp}))
    for rec in records:
        if not rec["ok"]:
            print(f"FAILED {workload} {rec['id']}: {'; '.join(rec['reasons'])}")
    return result


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload:<11} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:<11} {'fail_frac':<40} "
          f"{result['failed'] / result['attempted']:>16.6g} ratio")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest problem of each kind, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cisim" / "__init__.py").is_file():
        print(f"perfbench: no cisim sources at {SRC / 'cisim'}", file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print_table(name, result)
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
