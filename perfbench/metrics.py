"""The benchmark's metrics: names, units, and what each one should move.

``END_TO_END`` is what a user of cisim sees, measured untraced.
``PER_LAYER`` comes from the traced passes.  Each per-layer row names the
end-to-end metrics it should move and the workloads where that shows, so a
later change can say in advance which numbers it expects to move.
BENCHMARK.json lists the same names, units and directions; the smoke test
checks that the two agree.
"""

from __future__ import annotations

MB = 1024.0 * 1024.0

# (name, unit, better, meaning)
END_TO_END = [
    ("run_s", "s", "lower",
     "wall time of the timed calls (run_pipeline or coloring_census) summed "
     "over the workload's problems; median over the passes of a run"),
    ("peak_rss_mb", "MB", "lower",
     "ru_maxrss of the child process that ran one pass; median over passes"),
    ("setup_s", "s", "lower",
     "child start to cisim imported and inputs generated; median over the "
     "passes of a run"),
    ("ok_frac", "ratio", "higher",
     "1 - fail_frac: problems that returned and passed their check, over "
     "problems attempted"),
]

# (name, unit, better, source, should move, on workloads)
# source: ("self"|"calls"|"total", span) from the traced pass,
#         ("counter", key) or ("ratio", numerator, denominator) from observers,
#         ("mem", span) from the resident-memory pass,
#         ("pass", key) from the pass results.
RUN = ("run_s",)
RSS = ("peak_rss_mb",)
PIPELINE = ("h2-scan", "chain-h4", "riemann-h2")
FAMILY = ("riemann-h2", "chain-h4")
PER_LAYER = [
    # derive_bounds: little on chain-h4, none on census.
    ("orbitals.derive_bounds.self_s", "s", "lower", ("self", "orbitals.derive_bounds"), RUN, ("h2-scan",)),
    ("orbitals.derive_bounds.calls", "count", "lower", ("calls", "orbitals.derive_bounds"), RUN, ("h2-scan",)),
    ("orbitals.derive_bounds.total_s", "s", "lower", ("total", "orbitals.derive_bounds"), RUN, ("h2-scan",)),
    # integrals: a small share of chain-h4.
    ("integrals.IntegralTable.self_s", "s", "lower", ("self", "integrals.IntegralTable"), RUN, ("chain-h4",)),
    ("integrals.eri_chemist.calls", "count", "lower", ("calls", "integrals.eri_chemist"), RUN, ("chain-h4",)),
    ("determinants.align_and_diff.calls", "count", "lower", ("calls", "determinants.align_and_diff"), RUN, ("chain-h4",)),
    ("determinants.align_and_diff.self_s", "s", "lower", ("self", "determinants.align_and_diff"), RUN, ("chain-h4",)),
    ("determinants.enumerate_basis.calls", "count", "lower", ("calls", "determinants.enumerate_basis"), RUN, ("chain-h4",)),
    ("coloring.apply_color.calls", "count", "lower", ("calls", "coloring.apply_color"), RUN + RSS, ("chain-h4",)),
    ("coloring.apply_color.self_s", "s", "lower", ("self", "coloring.apply_color"), RUN + RSS, ("chain-h4",)),
    ("coloring.apply_color.valid_frac", "ratio", "higher", ("ratio", "coloring.apply_color.valid", ("calls", "coloring.apply_color")), RUN + RSS, ("chain-h4",)),
    ("coloring.color_of.calls", "count", "lower", ("calls", "coloring.color_of"), RUN + RSS, ("chain-h4",)),
    # The census must not get slower when the family build changes.
    ("coloring.coloring_census.self_s", "s", "lower", ("self", "coloring.coloring_census"), RUN, ("census",)),
    ("cimatrix.term_value.calls", "count", "lower", ("calls", "cimatrix.term_value"), RUN, ("chain-h4",)),
    ("cimatrix.term_value.self_s", "s", "lower", ("self", "cimatrix.term_value"), RUN, ("chain-h4",)),
    ("cimatrix.build_ci_matrix.self_s", "s", "lower", ("self", "cimatrix.build_ci_matrix"), RUN, ("chain-h4",)),
    ("cimatrix.enumerate_gammas.self_s", "s", "lower", ("self", "cimatrix.enumerate_gammas"), RUN, ("chain-h4",)),
    ("cimatrix.Gamma", "count", "lower", ("counter", "cimatrix.Gamma"), RUN, ("chain-h4",)),
    ("cimatrix.Gamma_live", "count", "lower", ("counter", "cimatrix.Gamma_live"), RUN, ("chain-h4",)),
    # Quadrature is under 1% of riemann-h2: the prediction is no change.
    ("quadrature.riemann_S0.calls", "count", "lower", ("calls", "quadrature.riemann_S0"), RUN, ("riemann-h2",)),
    ("quadrature.riemann_S0.self_s", "s", "lower", ("self", "quadrature.riemann_S0"), RUN, ("riemann-h2",)),
    ("quadrature.riemann_S1.calls", "count", "lower", ("calls", "quadrature.riemann_S1"), RUN, ("riemann-h2",)),
    ("quadrature.riemann_S1.self_s", "s", "lower", ("self", "quadrature.riemann_S1"), RUN, ("riemann-h2",)),
    ("quadrature.riemann_S2.calls", "count", "lower", ("calls", "quadrature.riemann_S2"), RUN, ("riemann-h2",)),
    ("quadrature.riemann_S2.self_s", "s", "lower", ("self", "quadrature.riemann_S2"), RUN, ("riemann-h2",)),
    ("quadrature.plan_quadrature.calls", "count", "lower", ("calls", "quadrature.plan_quadrature"), RUN, ("riemann-h2",)),
    ("lcu.TermFamily.self_s", "s", "lower", ("self", "lcu.TermFamily"), RSS, FAMILY),
    ("lcu.family.L", "count", "lower", ("counter", "lcu.family.L"), RSS, FAMILY),
    ("lcu.family.M", "count", "lower", ("counter", "lcu.family.M"), RSS, FAMILY),
    ("lcu.family.mu", "count", "lower", ("counter", "lcu.family.mu"), RSS, FAMILY),
    ("lcu.family.bytes", "bytes", "lower", ("counter", "lcu.family.bytes"), RSS, FAMILY),
    ("lcu.family.padded_frac", "ratio", "lower", ("ratio", "lcu.family.padded", "lcu.family.stored"), RSS, FAMILY),
    # Evolution: also about 6% of h2-scan.
    ("lcu.evolve.self_s", "s", "lower", ("self", "lcu.evolve"), RUN, FAMILY),
    ("lcu.segments", "count", "lower", ("counter", "lcu.segments"), RUN, FAMILY),
    ("lcu.K", "count", "lower", ("counter", "lcu.K"), RUN, FAMILY),
    ("lcu.segment_rate", "1/s", "higher", ("ratio", "lcu.segments", ("total", "lcu.evolve")), RUN, FAMILY),
    ("lcu.taylor_block.calls", "count", "lower", ("calls", "lcu.taylor_block"), RUN, FAMILY),
    ("lcu.rounded_dense.calls", "count", "lower", ("calls", "lcu.TermFamily.rounded_dense"), RUN, FAMILY),
    ("lcu.plan_segments.calls", "count", "lower", ("calls", "lcu.plan_segments"), RUN, FAMILY),
    ("driver.ingest.self_s", "s", "lower", ("self", "driver.ingest"), RUN, PIPELINE),
    ("driver.build_term_family.self_s", "s", "lower", ("self", "driver.build_term_family"), RUN, PIPELINE),
    ("driver.run_pipeline.self_s", "s", "lower", ("self", "driver.run_pipeline"), RUN, PIPELINE),
    ("driver.exact_evolve.self_s", "s", "lower", ("self", "driver.exact_evolve"), RUN, PIPELINE),
    ("driver.exact_evolve_operator.self_s", "s", "lower", ("self", "driver.exact_evolve_operator"), RUN, PIPELINE),
    ("mem.driver.run_pipeline.peak_mb", "MB", "lower", ("mem", "driver.run_pipeline"), RSS, PIPELINE),
    ("mem.driver.ingest.peak_mb", "MB", "lower", ("mem", "driver.ingest"), RSS, PIPELINE),
    ("mem.driver.build_term_family.peak_mb", "MB", "lower", ("mem", "driver.build_term_family"), RSS, FAMILY),
    ("mem.lcu.evolve.peak_mb", "MB", "lower", ("mem", "lcu.evolve"), RSS, FAMILY),
    ("mem.coloring.coloring_census.peak_mb", "MB", "lower", ("mem", "coloring.coloring_census"), RSS, ("census",)),
    ("trace.untraced_run_s", "s", "lower", ("pass", "untraced_run_s"), RUN, PIPELINE + ("census",)),
    ("trace.traced_run_s", "s", "lower", ("pass", "traced_run_s"), RUN, PIPELINE + ("census",)),
    ("trace.overhead_s", "s", "lower", ("pass", "overhead_s"), RUN, PIPELINE + ("census",)),
]


# --- observers: counts read off what a layer returns -----------------------

def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def observers(cisim):
    """Span name -> ``fn(args, result, counters)`` for the traced pass."""
    invalid = getattr(cisim.coloring, "INVALID", None)

    def apply_color(args, result, counters):
        if result is not invalid:
            _add(counters, "coloring.apply_color.valid", 1)

    def term_family(args, result, counters):
        import numpy as np
        family = args[0]
        perms, values = family.perms, family.values
        _add(counters, "cimatrix.Gamma_live",
             sum(1 for p in perms if np.any(p != np.arange(len(p)))))
        _add(counters, "lcu.family.L", family.L)
        counters["lcu.family.M"] = max(counters.get("lcu.family.M", 0), family.M)
        counters["lcu.family.mu"] = max(counters.get("lcu.family.mu", 0), family.mu)
        arrays = [*perms, *values, *getattr(family, "_C", ()),
                  *getattr(family, "_phase", ())]
        _add(counters, "lcu.family.bytes", sum(a.nbytes for a in arrays))
        stored = sum(v.size for v in values)
        _add(counters, "lcu.family.stored", stored)
        _add(counters, "lcu.family.padded",
             stored - sum(int(np.count_nonzero(v)) for v in values))

    def evolve(args, result, counters):
        info = next(x for x in result if hasattr(x, "r") and hasattr(x, "K"))
        _add(counters, "lcu.segments", info.r)
        counters["lcu.K"] = max(counters.get("lcu.K", 0), info.K)

    return {
        "coloring.apply_color": apply_color,
        "lcu.TermFamily": term_family,
        "lcu.evolve": evolve,
    }


def per_layer_values(stats, counters, mem, passes, wrapped):
    """Every PER_LAYER metric as ``{name: {value, unit}}`` plus absent names.

    A metric whose span the program no longer has reads 0 and is listed as
    absent, so a change that removes a function does not break the run.
    """
    absent = []

    def get(source):
        kind, key = source[0], source[1]
        if kind in ("self", "calls", "total", "mem"):
            if key not in wrapped:
                absent.append(key)
                return 0.0
            if kind == "mem":
                return mem.get(key, 0) / MB
            calls, total, self_s = stats[key]
            return {"calls": calls, "total": total, "self": self_s}[kind]
        if kind == "counter":
            return counters.get(key, 0)
        if kind == "pass":
            return passes[key]
        num = counters.get(key, 0)
        den = source[2]
        den = get(den) if isinstance(den, tuple) else counters.get(den, 0)
        return num / den if den else 0.0

    values = {name: {"value": get(source), "unit": unit}
              for name, unit, _, source, _, _ in PER_LAYER}
    return values, sorted(set(absent))
