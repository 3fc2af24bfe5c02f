"""Seeded inputs and output checks for the cisim benchmark workloads.

Every workload turns a seed into a list of problems.  A problem is a plain
dict: either a pipeline run (a config dict for ``config_from_dict`` plus a
mode) or a coloring census (N, eta).  The program only ever sees those
config dicts, as it would from ``cisim report`` or ``cisim coloring-check``.

This module needs nothing but the standard library, so the parent process
can plan a run without importing cisim.  The one input that needs cisim, the
per-kind Riemann ``delta`` of ``riemann-h2``, is recorded here as a grid
request and resolved in the child (see ``child.resolve_inputs``).
"""

from __future__ import annotations

import math
import random

# Normalization of an s-Gaussian with exponent 1, as in configs/h2.json.
S_COEF = 0.7127054703549901

WHY = {
    "h2-scan": "H2 bond scan in exact mode, the everyday use; certifying "
               "bounds that exact mode never reads dominates, so orbitals "
               "works hardest here",
    "chain-h4": "H4 chain (N=8, eta=2) in exact mode; the involution family "
                "build (apply_color) and ~67k evolution segments dominate: "
                "coloring, cimatrix and dense lcu",
    "riemann-h2": "H2 in riemann mode at grids 6/6/3 (mu=729); padding every "
                  "label to mu sets memory and ~600k segments set time; "
                  "quadrature itself is under 1%",
    "census": "exhaustive coloring census at (10,4) and (12,4), past the "
              "acceptance range: the coloring layer used as a memoized sweep "
              "with no integrals and no evolution",
}

# Every top-level key of a schema-1 run report, and of its two sections.
REPORT_KEYS = ("schema", "status", "dims", "error_ledger", "fidelity",
               "l2_error_vs_exact", "max_segment_deviation", "timings")
DIMS_KEYS = ("N", "eta", "xi", "d", "Gamma", "L", "M", "mu", "r", "K",
             "lambda", "delta", "zeta")
LEDGER_KEYS = ("taylor", "rounding", "quadrature", "projection", "total")


def h_chain(n_atoms: int, spacing: float, eta: int, **extra) -> dict:
    """Linear H_n along z, one up and one down s-Gaussian per atom."""
    zs = [(k - (n_atoms - 1) / 2.0) * spacing for k in range(n_atoms)]
    config = {
        "nuclei": [{"Z": 1.0, "R": [0.0, 0.0, z]} for z in zs],
        "orbitals": [
            {"center": [0.0, 0.0, z], "primitives": [[1.0, S_COEF]],
             "powers": [0, 0, 0], "spin": spin}
            for z in zs for spin in ("up", "down")
        ],
        "eta": eta,
        "time": 1.0,
        "epsilon": 0.01,
    }
    config.update(extra)
    return config


def _pipeline(pid: str, config: dict, mode: str = "exact",
              delta_grid: dict | None = None) -> dict:
    problem = {"id": pid, "call": "pipeline", "mode": mode, "config": config}
    if delta_grid is not None:
        problem["delta_grid"] = delta_grid
    return problem


def _h2_scan(rng: random.Random, tiny: bool) -> list[dict]:
    bonds = sorted(rng.uniform(1.0, 2.2) for _ in range(1 if tiny else 6))
    return [_pipeline(f"h2-R{r:.4f}", h_chain(2, r, 2)) for r in bonds]


def _chain_h4(rng: random.Random, tiny: bool) -> list[dict]:
    spacing = rng.uniform(1.3, 1.6)
    atoms, eta = (2, 1) if tiny else (4, 2)
    return [_pipeline(f"h{atoms}-s{spacing:.4f}-eta{eta}",
                      h_chain(atoms, spacing, eta))]


def _riemann_h2(rng: random.Random, tiny: bool) -> list[dict]:
    bond = rng.uniform(1.2, 1.6)
    eta, zeta = (1, 0.2) if tiny else (2, 0.02)
    config = h_chain(2, bond, eta, epsilon=0.5, overrides={"zeta": zeta})
    grids = {"s0": 6, "s1": 6, "s2": 3}
    return [_pipeline(f"h2-R{bond:.4f}-riemann", config, "riemann", grids)]


def _census(rng: random.Random, tiny: bool) -> list[dict]:
    # The census input is (N, eta) alone; the seed has nothing to vary.
    sizes = [(6, 3)] if tiny else [(10, 4), (12, 4)]
    return [{"id": f"census-{n}-{eta}", "call": "census", "norb": n,
             "eta": eta} for n, eta in sizes]


GENERATORS = {
    "h2-scan": _h2_scan,
    "chain-h4": _chain_h4,
    "riemann-h2": _riemann_h2,
    "census": _census,
}


def make_problems(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's problems for this seed; equal seeds give equal lists."""
    return GENERATORS[workload](random.Random(seed), tiny)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_output(problem: dict, out: dict) -> list[str]:
    """Reasons the output of one problem is wrong; empty when it is right."""
    if problem["call"] == "census":
        reasons = []
        if out.get("valid") is not True:
            reasons.append("census not valid")
        want = math.comb(problem["norb"], problem["eta"])
        if out.get("n_nodes") != want:
            reasons.append(f"n_nodes {out.get('n_nodes')} != C(N, eta) {want}")
        return reasons

    reasons = [f"missing report key {k}" for k in REPORT_KEYS if k not in out]
    reasons += [f"missing dims key {k}" for k in DIMS_KEYS
                if k not in out.get("dims", {})]
    reasons += [f"missing ledger key {k}" for k in LEDGER_KEYS
                if k not in out.get("error_ledger", {})]
    if reasons:
        return reasons
    l2 = out["l2_error_vs_exact"]
    if not _finite(l2):
        return [f"l2_error_vs_exact {l2!r} is not a finite number"]
    if problem["mode"] == "exact":
        if out["status"] != "OK":
            reasons.append(f"status {out['status']!r} != 'OK'")
        eps = problem["config"]["epsilon"]
        if not l2 <= eps:
            reasons.append(f"l2 {l2:.3e} > epsilon {eps:g}")
    else:
        total = out["error_ledger"]["total"]
        # OVER_BUDGET is an honest answer at these grids, not a failure;
        # the error must still sit inside the ledger the report claims.
        if not (_finite(total) and l2 <= total):
            reasons.append(f"l2 {l2:.3e} > ledger total {total!r}")
    return reasons
