"""Smoke test of the benchmark at its tiny size (about a minute).

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json prints with its unit,
that a second seed gives the same names and no failures, and that a wrong
output is counted as a failure instead of passing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_spec_matches_metric_tables():
    assert _units(SPEC["end_to_end"]) == {n: u for n, u, _, _ in metrics.END_TO_END}
    assert _units(SPEC["per_layer"]) == {n: u for n, u, *_ in metrics.PER_LAYER}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.GENERATORS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    for name, *_, moves, on in metrics.PER_LAYER:
        assert set(moves) <= set(_units(SPEC["end_to_end"])), name
        assert set(on) <= set(workloads.GENERATORS), name


def test_seeded_inputs_repeat():
    for name in workloads.GENERATORS:
        assert workloads.make_problems(name, 7) == workloads.make_problems(name, 7)
    assert workloads.make_problems("h2-scan", 1) != workloads.make_problems("h2-scan", 2)


@pytest.mark.parametrize("seed", [1, 2])
def test_end_to_end_metrics_print_with_units(seed):
    results = _bench("--workload", "all", "--seed", str(seed), "--trace", "0")
    want = _units(SPEC["end_to_end"])
    assert set(results) == set(workloads.GENERATORS)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want, name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_per_layer_metrics_print_with_units():
    result = _bench("--workload", "h2-scan", "--seed", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    assert result["metrics"]["trace.traced_run_s"]["value"] > 0
    assert result["metrics"]["coloring.apply_color.calls"]["value"] > 0


def _tiny_problems():
    import cisim
    problems = (workloads.make_problems("h2-scan", 1, tiny=True)
                + workloads.make_problems("census", 1, tiny=True))
    return child.resolve_inputs(problems, cisim)


def test_corrupted_output_counts_as_failure(monkeypatch):
    from cisim import coloring, driver
    warnings.filterwarnings("ignore", message="overlap matrix deviates")
    problems = _tiny_problems()
    assert run.fail_frac(child.run_pass(problems)) == 0.0

    to_dict = driver.RunReport.to_dict

    def corrupted(self):
        out = to_dict(self)
        out["l2_error_vs_exact"] = 1.0
        return out

    census = coloring.coloring_census
    monkeypatch.setattr(driver.RunReport, "to_dict", corrupted)
    monkeypatch.setattr(coloring, "coloring_census",
                        lambda n, eta: census(n, eta - 1))
    records = child.run_pass(problems)
    assert run.fail_frac(records) == 1.0
    assert all(r["reasons"] for r in records)


def test_raising_program_counts_as_failure(monkeypatch):
    from cisim import driver
    problems = _tiny_problems()[:1]

    def broken(config, mode="exact"):
        raise RuntimeError("broken")

    monkeypatch.setattr(driver, "run_pipeline", broken)
    records = child.run_pass(problems)
    assert run.fail_frac(records) == 1.0
    assert records[0]["reasons"] == ["raised RuntimeError: broken"]


def test_riemann_check_accepts_over_budget_within_ledger():
    problem = workloads.make_problems("riemann-h2", 1)[0]
    report = {k: 0 for k in workloads.REPORT_KEYS}
    report["dims"] = {k: 0 for k in workloads.DIMS_KEYS}
    report["error_ledger"] = {k: 0.0 for k in workloads.LEDGER_KEYS}
    report.update(status="OVER_BUDGET", l2_error_vs_exact=1.89)
    report["error_ledger"]["total"] = 4.6
    assert workloads.check_output(problem, report) == []
    report["error_ledger"]["total"] = 1.0
    assert workloads.check_output(problem, report)
    del report["dims"]["mu"]
    assert workloads.check_output(problem, report) == ["missing dims key mu"]


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h2-scan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
