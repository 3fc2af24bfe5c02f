"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so ``ru_maxrss`` belongs to
that pass alone.  The argument is a JSON spec:

    {"workload": ..., "seed": ..., "tiny": bool, "t_spawn": <monotonic>,
     "mode": "plain" | "trace" | "mem", "spans_out": path or null}

``plain`` imports cisim, generates the inputs (the set-up time ends here),
and runs and checks the timed calls; ``trace`` runs them under
``tracer.Tracer`` and ``mem`` under ``tracer.RssTracer``.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import warnings
from importlib import metadata

from workloads import check_output, make_problems


def resolve_inputs(problems, cisim):
    """Turn config dicts into ProblemConfigs; fill in grid-derived deltas.

    A riemann problem asks for per-axis grid counts; the delta that reaches
    each count depends on the certified bounds of its basis, so it is
    computed here with cisim's own ``delta_for_grid``.
    """
    from cisim.driver import config_from_dict
    for problem in problems:
        if problem["call"] != "pipeline":
            continue
        config = config_from_dict(problem["config"])
        grids = problem.get("delta_grid")
        if grids:
            from cisim.orbitals import derive_bounds
            from cisim.quadrature import delta_for_grid
            bounds = derive_bounds(config.orbitals)
            zq = max(z for z, _ in config.nuclei)
            config.overrides["delta"] = {
                kind: delta_for_grid(kind, n, bounds,
                                     **({"zq": zq} if kind == "s1" else {}))
                for kind, n in grids.items()}
        problem["cfg"] = config
    return problems


def _summary(out: dict) -> dict:
    if "dims" not in out:
        return {k: out.get(k) for k in ("valid", "n_nodes")}
    dims, ledger = out.get("dims", {}), out.get("error_ledger", {})
    summary = {k: out.get(k) for k in ("status", "l2_error_vs_exact")}
    summary["ledger_total"] = ledger.get("total")
    summary.update({k: dims.get(k) for k in ("Gamma", "L", "M", "mu", "r", "K")})
    return summary


def run_pass(problems, counters=None) -> list[dict]:
    """Run and check every problem; one record each.  Never raises.

    The timed region is the library call that ``cisim report`` or
    ``cisim coloring-check`` makes.  It is looked up at call time, so the
    tracers' wrappers are the ones called.
    """
    from cisim import coloring, driver
    records = []
    for problem in problems:
        record = {"id": problem["id"]}
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if problem["call"] == "pipeline":
                report = driver.run_pipeline(problem["cfg"], mode=problem["mode"])
                record["seconds"] = time.perf_counter() - start
                out = report.to_dict()
                if counters is not None:
                    counters["cimatrix.Gamma"] = (counters.get("cimatrix.Gamma", 0)
                                                  + out["dims"]["Gamma"])
            else:
                census = coloring.coloring_census(problem["norb"], problem["eta"])
                record["seconds"] = time.perf_counter() - start
                out = {"valid": census.valid, "n_nodes": census.n_nodes}
            reasons = check_output(problem, out)
            record["summary"] = _summary(out)
        except Exception as exc:  # a failed problem is counted, not fatal
            record.setdefault("seconds", time.perf_counter() - start)
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        record["cpu_seconds"] = time.process_time() - cpu
        record["ok"] = not reasons
        if reasons:
            record["reasons"] = reasons
        records.append(record)
    return records


def _jsonable(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def main(spec: dict) -> dict:
    warnings.filterwarnings("ignore", message="overlap matrix deviates")
    import cisim
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(cisim.__file__).startswith(src + os.sep):
        raise SystemExit(f"cisim imported from {cisim.__file__}, not from {src}")
    problems = resolve_inputs(
        make_problems(spec["workload"], spec["seed"], spec["tiny"]), cisim)
    result = {"setup_s": time.monotonic() - spec["t_spawn"]}

    mode = spec["mode"]
    tracer = None
    if mode == "trace":
        import metrics
        from tracer import Tracer
        tracer = Tracer(metrics.observers(cisim))
    elif mode == "mem":
        from tracer import RssTracer
        tracer = RssTracer()
    if tracer is not None:
        tracer.install(cisim)
    try:
        records = run_pass(problems, getattr(tracer, "counters", None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["records"] = records
    result["run_s"] = sum(r["seconds"] for r in records)
    if mode == "trace":
        result.update(stats=tracer.stats, counters=tracer.counters,
                      wrapped=sorted(tracer.names),
                      observer_errors=tracer.observer_errors)
        with open(spec["spans_out"], "w") as fh:
            json.dump({"spans": tracer.spans, "stats": tracer.stats}, fh)
    elif mode == "mem":
        result.update(mem=tracer.peak, wrapped=sorted(tracer.names))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": platform.python_version(),
                          "numpy": metadata.version("numpy"),
                          "scipy": metadata.version("scipy")}
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1])), default=_jsonable))
