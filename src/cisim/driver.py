"""Pipeline orchestration: config, error budgets, assembly, verification.

A problem is a list of nuclei, a list of explicit Gaussian spin-orbitals
(treated as orthonormal; a warning fires if their overlap matrix is not
the identity to 1e-6), an electron count, an evolution time and a total
error target.  The pipeline splits the total error budget three ways
(Taylor truncation, entry rounding, integral discretization), builds the
reference integral tables (in riemann mode also the family's source, a
``quadrature.RiemannTable`` of grid-point sums) and the CI matrix,
assembles the equal-weight involution family on the bipartite double
cover, runs the segmented Taylor evolution, and checks the result
against a dense eigendecomposition oracle.

Evolution happens under sigma_x (x) H on the double cover; an initial
system state is embedded as |+> (x) psi, and the |+> block is projected
back out at the end, which commutes with the exact evolution.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .cimatrix import (build_ci_matrix, count_gamma, labelled_terms,
                       sparsity_d)
from .determinants import basis_size, check_dense
from .errors import BudgetInfeasible, InvalidConfig, NonOrthonormalBasisWarning
from .integrals import IntegralTable
from .lcu import (EPS_FLOOR, EdgeRows, TermFamily, evolve, hermitian_norm,
                  segment_count)
from .orbitals import SpinOrbital, finite_number, is_point
from .quadrature import KINDS, RiemannTable

SCHEMA_VERSION = 1
OVERLAP_TOL = 1e-6


@dataclass
class ProblemConfig:
    nuclei: list
    orbitals: list
    eta: int
    time: float = 1.0
    epsilon: float = 1e-2
    overrides: dict = field(default_factory=dict)

    @property
    def norb(self) -> int:
        return len(self.orbitals)


# the keys a config may hold at its top level (None), and in each entry of
# its orbitals and of its nuclei
CONFIG_KEYS = {
    None: {"nuclei", "orbitals", "eta", "time", "epsilon", "overrides"},
    "orbitals": {"center", "primitives", "powers", "spin"},
    "nuclei": {"Z", "R"}}


def config_from_dict(data: dict) -> ProblemConfig:
    for field, keys in CONFIG_KEYS.items():
        for entry in data[field] if field else [data]:
            if unknown := sorted(set(entry) - keys):
                raise ValueError(f"unknown key {unknown[0]!r} in "
                                 f"{field or 'the config'}; expected one of "
                                 f"{sorted(keys)}")
    orbitals = [SpinOrbital(center=tuple(o["center"]),
                            primitives=o["primitives"],
                            powers=tuple(o.get("powers", (0, 0, 0))),
                            spin=o.get("spin", "up"))
                for o in data["orbitals"]]
    nuclei = [(n["Z"], tuple(n["R"])) for n in data["nuclei"]]
    if not all(finite_number(z) and z >= 0 and is_point(r) for z, r in nuclei):
        raise ValueError("each nucleus needs a finite Z >= 0 and 3 finite "
                         "numbers R")
    eta, t, eps = data["eta"], data.get("time", 1.0), data.get("epsilon", 1e-2)
    if not isinstance(eta, int) or isinstance(eta, bool):
        raise ValueError(f"eta={eta!r} is not an integer")
    if not (finite_number(t) and finite_number(eps)):
        raise ValueError(f"time={t!r} and epsilon={eps!r} must be numbers")
    return ProblemConfig(nuclei=[(float(z), r) for z, r in nuclei],
                         orbitals=orbitals, eta=eta, time=float(t),
                         epsilon=float(eps),
                         overrides=dict(data.get("overrides", {})))


def load_config(path) -> ProblemConfig:
    try:
        with open(path) as fh:
            return config_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # JSONDecodeError and a SpinOrbital's own checks are ValueErrors
        raise InvalidConfig(f"{path}: {type(exc).__name__}: {exc}") from exc


def validate_config(config: ProblemConfig):
    """Reject bad counts, an infeasible epsilon or time, a Taylor share
    that evolve would reject and, through ``run_budget``, unusable
    overrides; no integral is computed."""
    basis_size(config.norb, config.eta)
    if not 0.0 < config.epsilon < 1.0:
        raise BudgetInfeasible(f"epsilon={config.epsilon} outside (0, 1)")
    if not (finite_number(config.time) and config.time > 0):
        raise BudgetInfeasible(f"time={config.time} must be finite and > 0")
    if run_budget(config)[2] <= EPS_FLOOR:
        raise BudgetInfeasible(f"epsilon={config.epsilon}: its Taylor share "
                               f"epsilon/3 is at or below {EPS_FLOOR}")


def budget_errors(epsilon: float, t: float, n_gamma: int):
    """Equal three-way split of the total error over the three layers.

    Taylor truncation gets epsilon/3 outright; the discretization and
    rounding layers accumulate linearly over time across the labelled
    terms, so their per-term budgets divide by t and the term count.
    """
    if epsilon <= 0 or t <= 0 or n_gamma < 1:
        raise BudgetInfeasible("epsilon, t and the term count must be positive")
    eps_taylor = epsilon / 3.0
    delta = zeta = epsilon / (3.0 * t * n_gamma)
    return delta, zeta, eps_taylor


def run_budget(config: ProblemConfig):
    """(delta, zeta, eps_taylor): ``budget_errors``'s split, with each
    override in place of its share; delta maps every integral kind to its
    accuracy, and an override delta may be one number for all of them.
    InvalidConfig for another key or a value not a finite number > 0."""
    delta, zeta, eps_taylor = budget_errors(
        config.epsilon, config.time, count_gamma(config.norb, config.eta))
    overrides = dict(config.overrides)
    delta = overrides.pop("delta", delta)
    per_kind = delta if isinstance(delta, dict) else dict.fromkeys(KINDS, delta)
    zeta = overrides.pop("zeta", zeta)
    if overrides or set(per_kind) != set(KINDS) or not all(
            finite_number(x) and x > 0 for x in [zeta, *per_kind.values()]):
        raise InvalidConfig(
            f"overrides {config.overrides!r}: only zeta and delta are read, "
            f"each a finite number > 0; delta may map {sorted(KINDS)} to one")
    return {k: float(per_kind[k]) for k in KINDS}, float(zeta), eps_taylor


def exact_evolve(H: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Eigendecomposition reference for exp(-i H t) psi0."""
    H = np.asarray(H)
    check_dense(H.shape[0])
    evals, vecs = np.linalg.eigh(H)
    return vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ psi0))


def doubled(H: np.ndarray) -> np.ndarray:
    """sigma_x (x) H on the bipartite double cover."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), H)


def embed_plus(psi: np.ndarray) -> np.ndarray:
    return np.concatenate([psi, psi]) / np.sqrt(2.0)


def extract_plus(state: np.ndarray) -> tuple[np.ndarray, float]:
    """Project onto the |+> side block, renormalize, report the deviation."""
    half = len(state) // 2
    psi = (state[:half] + state[half:]) / np.sqrt(2.0)
    norm = float(np.linalg.norm(psi))
    return psi / norm, abs(1.0 - norm)


def build_term_family(source, eta: int, zeta: float) -> TermFamily:
    """Assemble the involution family for H on the double cover.

    Every label that meets an edge is stored, as rows of one edge table
    over the 2 xi nodes (side, determinant): each labelled term is one
    Hermitian pair, the side-0 node of its left determinant with the
    side-1 node of its right one, at h = (a + conj(b)) / 2 from its (alpha
    -> beta) and (beta -> alpha) expansions; labels with no edge are not
    stored.  ``source`` gives h1/g: an ``IntegralTable``, fancy-indexed,
    or a ``RiemannTable``, one row of grid-point terms per index.  Only the
    values read ``source``: the labelled terms are built and checked once
    per process for each (N, eta), and shared read-only between runs.
    """
    xi = basis_size(source.n, eta)
    terms = labelled_terms(source.n, eta)
    rows = EdgeRows(label=terms.label, row=terms.left, col=xi + terms.right,
                    n_labels=int(terms.label[-1]) + 1, dim=2 * xi)
    return TermFamily(rows, terms.values(source), zeta)


@dataclass
class RunReport:
    status: str
    dims: dict
    error_ledger: dict
    fidelity: float
    l2_error_vs_exact: float
    max_segment_deviation: float
    timings: dict

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def ingest(config: ProblemConfig) -> IntegralTable:
    """Validate counts, build integral tables."""
    validate_config(config)
    table = IntegralTable(config.orbitals, config.nuclei)
    dev = table.overlap_deviation()
    if dev > OVERLAP_TOL:
        warnings.warn(
            f"overlap matrix deviates from identity by {dev:.3e}; "
            "orbitals are treated as orthonormal anyway",
            NonOrthonormalBasisWarning, stacklevel=2)
    return table


def run_pipeline(config: ProblemConfig, mode: str = "exact") -> RunReport:
    """Full run: representation, decomposition, evolution, verification."""
    if mode not in ("exact", "riemann"):
        raise ValueError(f"unknown mode {mode!r}")
    xi = basis_size(config.norb, config.eta)
    # evolution and the ledger are dense on the double cover, side 2 xi
    check_dense(2 * xi)
    timings: dict = {}
    t0 = time.perf_counter()
    table = ingest(config)
    delta, zeta, eps_taylor = run_budget(config)
    # riemann mode plans its h1 grids here, so a delta past the grid cap
    # is refused before the CI matrix is built
    source = (RiemannTable(config.orbitals, config.nuclei, delta)
              if mode == "riemann" else table)
    timings["ingest_s"] = time.perf_counter() - t0

    norb, eta = config.norb, config.eta
    t0 = time.perf_counter()
    H = build_ci_matrix(table, eta)
    timings["ci_matrix_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    family = build_term_family(source, eta, zeta)
    timings["decomposition_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    psi0 = np.zeros(xi, dtype=complex)
    psi0[0] = 1.0
    # evolve decomposes H~ once: plan, Taylor entry and segments
    psi_out, info = evolve(family, embed_plus(psi0), config.time, eps_taylor)
    psi_final, proj_dev = extract_plus(psi_out)
    timings["evolution_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    H2 = doubled(H)
    # exact mode has no discretization: its unrounded family is H2 itself,
    # so its quadrature entry is 0 without a decomposition
    unrounded = family.unrounded_dense() if mode == "riemann" else H2
    rounding_err = (hermitian_norm(unrounded - family.rounded_dense())
                    * config.time)
    quadrature_err = (hermitian_norm(H2 - unrounded) * config.time
                      if mode == "riemann" else 0.0)
    ledger = {
        "taylor": info.taylor,
        "rounding": rounding_err,
        "quadrature": quadrature_err,
        # summed norm loss: each segment's is at most |seg - exp|, which
        # taylor already counts, so it is reported but not added
        "projection": float(info.norm_loss_sum + proj_dev),
    }
    ledger["total"] = info.taylor + rounding_err + quadrature_err

    psi_ref = exact_evolve(H, psi0, config.time)
    l2 = float(np.linalg.norm(psi_final - psi_ref))
    fid = float(np.abs(np.vdot(psi_ref, psi_final)) ** 2)
    timings["verification_s"] = time.perf_counter() - t0

    status = "OK" if ledger["total"] <= config.epsilon else "OVER_BUDGET"
    # the paper's layout: 2 M slices for each of all Gamma labels, those
    # with no edge too
    Gamma = count_gamma(norb, eta)
    lambda_paper = family.zeta * 2 * family.M * Gamma * family.mu
    dims = {
        "N": norb, "eta": eta, "xi": xi,
        "d": sparsity_d(norb, eta),
        "Gamma": Gamma, "Gamma_live": len(family.M_g),
        "L": family.L, "M": family.M, "mu": family.mu,
        "r": info.r, "K": info.K, "lambda": info.lam,
        "lambda_weight": family.meta.lambda_weight,
        "lambda_paper": lambda_paper,
        "r_paper": segment_count(lambda_paper, config.time),
        "delta": delta,
        "zeta": zeta,
    }
    return RunReport(status=status, dims=dims, error_ledger=ledger,
                     fidelity=fid, l2_error_vs_exact=l2,
                     max_segment_deviation=info.norm_loss_max,
                     timings=timings)
