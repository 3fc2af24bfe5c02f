"""Command-line front end.

Subcommands: coloring-check, build-hamiltonian, quadrature, evolve,
report.  Structured output goes to stdout or --out as JSON or CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

from .cimatrix import build_ci_matrix, count_gamma, gamma_census
from .coloring import coloring_census
from .determinants import excitations
from .driver import (ingest, load_config, run_budget, run_pipeline,
                     validate_config)
from .errors import CisimError, InvalidCounts, OutputUnwritable
from .orbitals import derive_bounds
from .quadrature import KINDS, delta_for_grid, nucleus_charge, riemann_terms


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputUnwritable(f"{out_path}: {type(exc).__name__}: "
                               f"{exc.strerror or exc}") from exc


def _check_out(out_path):
    """OutputUnwritable before any work when --out cannot be written;
    creates and truncates nothing."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(parent, os.W_OK | os.X_OK) or (
            os.path.exists(out_path) and not os.access(out_path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise OutputUnwritable(f"{out_path}: {reason}")


def _emit_csv(rows, out_path):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _emit(buf.getvalue(), out_path)


_FLAGS = {
    "config": dict(required=True, help="problem config JSON"),
    "epsilon": dict(type=float, help="total error target override"),
    "time": dict(type=float, help="evolution time override"),
    "delta": dict(type=float, help="integral accuracy override"),
    "zeta": dict(type=float, help="rounding precision override"),
    "mode": dict(choices=["exact", "riemann"], default="exact"),
    "output": dict(choices=["json", "csv"], default="json"),
    "out": dict(help="write to this path instead of stdout"),
}


def _add_flags(p, *names):
    """Register the shared flags this subcommand's handler reads."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _load(args):
    config = load_config(args.config)
    for name in ("epsilon", "time"):
        if getattr(args, name, None) is not None:
            setattr(config, name, getattr(args, name))
    for name in ("delta", "zeta"):
        if getattr(args, name, None) is not None:
            config.overrides[name] = getattr(args, name)
    return config


def cmd_coloring_check(args):
    census = coloring_census(args.norb, args.eta)
    payload = {k.removeprefix("n_"): v for k, v in asdict(census).items()}
    payload.update(valid=census.valid,
                   gamma_count=count_gamma(args.norb, args.eta))
    if args.output == "csv":
        _emit_csv([payload.keys(), payload.values()], args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if census.valid else 1


def cmd_build_hamiltonian(args):
    config = _load(args)
    table = ingest(config)
    H = build_ci_matrix(table, config.eta)
    census = gamma_census(config.norb, config.eta)
    if args.output == "csv":
        _emit_csv([["row", "col", "re", "im"]] + [
            [i, j, repr(float(v.real)), repr(float(v.imag))]
            for i, row in enumerate(H) for j, v in enumerate(row)], args.out)
    else:
        payload = {
            "basis": excitations(config.norb, config.eta).occ.tolist(),
            "matrix_re": H.real.tolist(),
            "matrix_im": H.imag.tolist(),
            "gamma_census": census,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def int_list(text: str) -> list[int]:
    """Comma-separated integers; argparse turns a ValueError into exit 2."""
    return [int(x) for x in text.split(",")]


def cmd_quadrature(args):
    kind, idx, rule = args.kind, args.orbitals, KINDS[args.kind]
    if len(idx) != rule.n_indices:
        raise InvalidCounts(f"{kind} takes {rule.n_indices} orbital indices, "
                            f"got {len(idx)}")
    config = _load(args)
    validate_config(config)
    bounds = derive_bounds(config.orbitals)
    zq = nucleus_charge(config.nuclei, args.q) if rule.per_nucleus else 1.0
    if args.grid_n is not None:
        delta = delta_for_grid(kind, args.grid_n, bounds, zq=zq)
    else:
        delta = run_budget(config)[0][kind]
    terms = riemann_terms(kind, idx, delta, bounds, config.orbitals,
                          config.nuclei, args.q)
    bound = repr(terms.bound)
    _emit_csv([["rho", "re", "im", "bound"]] + [
        [rho, repr(float(v.real)), repr(float(v.imag)), bound]
        for rho, v in enumerate(terms.values)], args.out)
    return 0


def cmd_evolve(args):
    report = run_pipeline(_load(args), mode=args.mode)
    payload = {
        "r": report.dims["r"],
        "K": report.dims["K"],
        "lambda": report.dims["lambda"],
        "max_segment_deviation": report.max_segment_deviation,
        "final_error_vs_exact": report.l2_error_vs_exact,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_report(args):
    config = _load(args)
    report = run_pipeline(config, mode=args.mode)
    if args.output == "csv":
        flat = report.to_dict()
        rows = [["key", "value"]]
        for section in ("dims", "error_ledger"):
            for k, v in flat[section].items():
                if isinstance(v, dict):  # dims.delta: one row per kind
                    rows += [[f"{section}.{k}.{kind}", x]
                             for kind, x in v.items()]
                else:
                    rows.append([f"{section}.{k}", v])
        rows += [[k, flat[k]] for k in ("status", "fidelity",
                                        "l2_error_vs_exact")]
        _emit_csv(rows, args.out)
    else:
        _emit(report.to_json() + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cisim",
        description="CI-matrix simulation pipeline: build, check, evolve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coloring-check",
                       help="validity and coverage census of the edge coloring")
    p.add_argument("--norb", type=int, required=True)
    p.add_argument("--eta", type=int, required=True)
    _add_flags(p, "output", "out")
    p.set_defaults(fn=cmd_coloring_check)

    p = sub.add_parser("build-hamiltonian",
                       help="dense CI matrix and labelled-term census")
    _add_flags(p, "config", "output", "out")
    p.set_defaults(fn=cmd_build_hamiltonian)

    p = sub.add_parser("quadrature", help="dump per-term Riemann CSV")
    _add_flags(p, "config", "epsilon", "time", "delta", "out")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("--orbitals", type=int_list, required=True,
                   help="comma-separated 1-based indices: i,j or i,j,k,l")
    p.add_argument("--q", type=int, default=0, help="nucleus index for s1")
    p.add_argument("--grid-n", type=int, dest="grid_n",
                   help="pick delta to hit this per-axis grid")
    p.set_defaults(fn=cmd_quadrature)

    p = sub.add_parser("evolve", help="segmented Taylor evolution summary")
    _add_flags(p, "config", "epsilon", "time", "delta", "zeta", "mode", "out")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("report", help="full pipeline run report")
    _add_flags(p, *_FLAGS)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except (CisimError, MemoryError) as exc:
        # a rejected input or a refused allocation is a one-line diagnosis,
        # not a traceback; numpy's _ArrayMemoryError reads as MemoryError
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        print(f"cisim: {kind.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
