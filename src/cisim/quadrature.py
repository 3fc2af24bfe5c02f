"""Riemann-sum discretization of the molecular integrals with proven budgets.

Three integral families are discretized by midpoint sums over truncated
domains whose size and grid counts come from closed formulas in terms of
the certified basis envelope (phi_max, x_max, alpha, gamma1, gamma2):

    S0  (kinetic, gradient form)   1/2 int grad phi_i* . grad phi_j
    S1q (nuclear attraction)      -Z_q int phi_i* phi_j / |R_q - r|
    S2  (electron repulsion)       int phi_i*(1) phi_j*(2) phi_k(1) phi_l(2)
                                       / |r1 - r2|

Each kind has one rule in ``KINDS``.  For a requested accuracy delta and
u = scale/delta the truncation half-width is x_trunc = (pref/alpha) x_max
log u (pref = 2, or 1 for S2), the grid is grid_n = ceil(u [(pref/alpha)
log u]^expn) per axis (expn = 4, or 7 for S2), and every term's magnitude
is bounded a priori.  ``scale`` is K0 phi_max^2 x_max, K1 Z_q phi_max^2
x_max^2, or K2 phi_max^4 x_max^5 for the three kinds.  Requests outside
0 < delta <= e^{-alpha/pref} scale, where x_trunc would fall below x_max,
are rejected rather than silently adjusted, as are grids beyond the cap
of 256 per axis.

S1 and S2 switch to spherical-polar grids that absorb the Coulomb
singularity into the volume element whenever the singularity can fall
inside the truncated box; the branch is picked by a distance test
against sqrt(3) x_trunc + x_max (2 sqrt(3) x_trunc + x_max for S2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import ceil, log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import (DeltaTooLarge, DeltaTooSmall, IndexOutOfRange,
                     NumericOverflow, SpecMismatch)
from .orbitals import (BasisBounds, derive_bounds, eval_gradient, eval_value,
                       spatial_orbitals, spins_match)

ZETA_PRIME = 2.0 * sqrt(3.0) + 3.0  # two-electron singular-branch geometry
GRID_CAP = 256  # per-axis grid count; mu reaches 256^3 (S0, S1), 256^6 (S2)


def k0_constant(b: BasisBounds) -> float:
    a = b.alpha_decay
    return 26.0 * b.gamma1 / a**2 + 8.0 * pi * b.gamma2 / a**3 \
        + 32.0 * sqrt(3.0) * b.gamma1 * b.gamma2


def k1_constant(b: BasisBounds) -> float:
    a = b.alpha_decay
    return 8.0 * pi**2 * (a + 2.0) / a**3 \
        + 1121.0 * (8.0 * b.gamma1 + sqrt(2.0))


def k2_constant(b: BasisBounds) -> float:
    a = b.alpha_decay
    return 128.0 * pi * (a + 2.0) / a**6 \
        + 2161.0 * pi**2 * (20.0 * b.gamma1 + sqrt(2.0))


@dataclass(frozen=True)
class KindRule:
    """How one integral kind is truncated, gridded and bounded.

    For u = scale/delta the truncation half-width is (pref/alpha) x_max
    log u, the per-axis grid count is ceil(u ((pref/alpha) log u)^expn)
    and mu = grid_n^dim.  A Coulomb kind takes the spherical-polar branch
    when its singularity lies closer than reach x_trunc + x_max to c_i.
    """

    n_indices: int                 # orbital indices: i, j (and k, l)
    dim: int
    pref: float
    expn: int
    scale: Callable                # (bounds, Z_q) -> scale
    term_bound: Callable           # (bounds, Z_q, u, mu) -> per-term bound
    reach: float = 0.0             # 0: no singularity
    per_nucleus: bool = False      # one integral per nucleus q

    def edge(self, alpha: float) -> float:
        """Admissibility factor: delta <= edge scale keeps x_trunc >= x_max."""
        return math.exp(-alpha / self.pref)

    def grid_count(self, u: float, alpha: float) -> int:
        """DeltaTooSmall when the count is past a float, so past the cap."""
        try:
            return ceil(u * ((self.pref / alpha) * log(u)) ** self.expn)
        except OverflowError:
            raise DeltaTooSmall(f"u={u:g} needs a grid past a float per axis, "
                                f"over the cap {GRID_CAP}") from None


KINDS = {
    "s0": KindRule(
        2, 3, 2.0, 4,
        lambda b, zq: k0_constant(b) * b.phi_max**2 * b.x_max,
        lambda b, zq, u, mu: (32.0 * b.gamma1**2 / b.alpha_decay**3)
        * b.phi_max**2 * b.x_max * log(u) ** 3 / mu),
    "s1": KindRule(
        2, 3, 2.0, 4,
        lambda b, zq: k1_constant(b) * zq * b.phi_max**2 * b.x_max**2,
        lambda b, zq, u, mu: (256.0 * pi**2 / b.alpha_decay**3) * zq
        * b.phi_max**2 * b.x_max**2 * log(u) ** 3 / mu,
        reach=sqrt(3.0), per_nucleus=True),
    "s2": KindRule(
        4, 6, 1.0, 7,
        lambda b, zq: k2_constant(b) * b.phi_max**4 * b.x_max**5,
        lambda b, zq, u, mu: (672.0 * pi**2 / b.alpha_decay**6)
        * b.phi_max**4 * b.x_max**5 * log(u) ** 6 / mu,
        reach=2.0 * sqrt(3.0)),
}


@dataclass(frozen=True)
class QuadratureSpec:
    """The grid of one Riemann sum: what the midpoint sums read, not the
    delta and bounds it was planned from.

    mu = grid_n^3 for the three-dimensional kinds and grid_n^6 for S2;
    term_bound is the a-priori per-term magnitude bound.
    """

    kind: str                      # 's0' | 's1' | 's2'
    x_trunc: float
    grid_n: int
    mu: int
    coordinate_system: str         # 'cartesian' | 'spherical_polar'
    term_bound: float
    q: int | None = None           # nucleus index for S1


class RiemannSum:
    """Midpoint terms: value array plus the shared per-term magnitude bound.

    ``values[rho]`` is term rho; ``total`` reduces with exact (fsum)
    summation so reduction order cannot matter.
    """

    __slots__ = ("values", "bound")

    def __init__(self, values: np.ndarray, bound: float):
        self.values = np.asarray(values)
        self.bound = float(bound)

    @property
    def total(self) -> complex:
        return complex(math.fsum(self.values.real), math.fsum(self.values.imag))

    def max_term(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def nucleus_charge(nuclei, q) -> float:
    """Charge of nucleus q (0-based); IndexOutOfRange when q names none."""
    if q is None or not 0 <= q < len(nuclei):
        raise IndexOutOfRange(
            f"nucleus index {q} not in [0, {len(nuclei) - 1}]")
    return float(nuclei[q][0])


def _scale(kind, bounds, zq) -> float:
    """The kind's scale, u = scale / delta; NumericOverflow past a float."""
    try:
        if math.isfinite(scale := KINDS[kind].scale(bounds, zq)):
            return scale
    except OverflowError:
        pass
    raise NumericOverflow(f"the {kind} scale overflows a float at {bounds}")


def plan_quadrature(kind, i, j, delta, bounds, basis, nuclei=(), k=None, l=None,
                    q=None) -> QuadratureSpec:
    """Build the prescribed grid plan for one integral.

    Checks the orbital (1-based) and nucleus indices and the admissibility
    window for delta, computes the truncation half-width and per-axis grid
    count, chooses the cartesian or spherical-polar branch from the
    geometry, and records the per-term magnitude bound.
    """
    rule = KINDS[kind]
    for index in (i, j, k, l)[:rule.n_indices]:
        if not 1 <= index <= len(basis):
            raise IndexOutOfRange(
                f"orbital index {index} not in [1, {len(basis)}]")
    alpha = bounds.alpha_decay
    zq = 1.0
    if rule.per_nucleus:
        zq = nucleus_charge(nuclei, q)
        if zq == 0.0:
            # zero charge: the integral is exactly zero; emit a trivial plan
            return QuadratureSpec(kind, bounds.x_max, 1, 1, "cartesian", 0.0,
                                  q=q)
    scale = _scale(kind, bounds, zq)
    edge = rule.edge(alpha)
    if not 0.0 < delta <= edge * scale:
        raise DeltaTooLarge(
            f"delta={delta:g} outside admissible (0, {edge * scale:g}] for {kind}")
    u = scale / delta
    x_trunc = (rule.pref / alpha) * bounds.x_max * log(u)
    grid_n = rule.grid_count(u, alpha)
    if grid_n > GRID_CAP:
        raise DeltaTooSmall(
            f"delta={delta:g} needs grid_n={grid_n} > cap {GRID_CAP} for {kind}")
    mu = grid_n**rule.dim

    coord = "cartesian"
    if rule.reach:
        # the singularity: nucleus q for S1, electron 2's center c_j for S2
        ci = np.asarray(basis[i - 1].center)
        other = np.asarray(nuclei[q][1] if rule.per_nucleus
                           else basis[j - 1].center)
        if np.linalg.norm(ci - other) < rule.reach * x_trunc + bounds.x_max:
            coord = "spherical_polar"
    return QuadratureSpec(kind, x_trunc, grid_n, mu, coord,
                          rule.term_bound(bounds, zq, u, mu), q=q)


def delta_for_grid(kind, grid_n, bounds, zq: float = 1.0) -> float:
    """Largest admissible delta whose plan uses at most grid_n per axis.

    Inverts the grid formula by bisection on u = scale/delta, where the
    per-axis count is nondecreasing in u.
    """
    rule = KINDS[kind]
    alpha = bounds.alpha_decay
    scale = _scale(kind, bounds, zq)
    lo = 1.0 / rule.edge(alpha)   # admissibility edge
    if rule.grid_count(lo, alpha) > grid_n:
        raise DeltaTooLarge(
            f"no admissible delta reaches grid_n <= {grid_n} for {kind}")
    hi = lo
    while rule.grid_count(hi * 2.0, alpha) <= grid_n:
        hi *= 2.0
    # bracket: hi feasible, 2*hi infeasible; find the largest feasible u
    top = hi * 2.0
    for _ in range(200):
        mid = 0.5 * (hi + top)
        if rule.grid_count(mid, alpha) <= grid_n:
            hi = mid
        else:
            top = mid
    delta = scale / hi
    # scale / (scale / hi) can round above hi: step delta up until the
    # plan's own u fits (a chargeless nucleus has scale 0 and no grid)
    while delta and rule.grid_count(scale / delta, alpha) > grid_n:
        delta = math.nextafter(delta, math.inf)
    return delta


def _cube_centers(center, half_width, n) -> np.ndarray:
    """Cell centers of the n^3 partition of the cube C_halfwidth(center)."""
    k = np.arange(n)
    axis = (half_width / n) * (2 * k - (n - 1))
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return g.reshape(-1, 3) + np.asarray(center)


def _sphere_grid(n):
    """Midpoints of the (s, theta, phi) unit grid, each in (n^3,)."""
    s = (np.arange(n) + 0.5) / n
    th = (np.arange(n) + 0.5) * pi / n
    ph = (np.arange(n) + 0.5) * 2.0 * pi / n
    S, TH, PH = np.meshgrid(s, th, ph, indexing="ij")
    return S.ravel(), TH.ravel(), PH.ravel()


def _unit_vectors(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _values(evaluate, funcs, pts, *index) -> tuple[np.ndarray, list]:
    """``evaluate`` at ``pts`` of each of ``funcs`` that an ``index`` array
    names, once, stacked; and the ``index`` arrays renumbered into it."""
    used = sorted(set(np.concatenate(index).tolist()))
    return (np.array([evaluate(funcs[x], pts) for x in used]),
            [np.searchsorted(used, x) for x in index])


def _s0_terms(spec, funcs, i, j, nuclei=()) -> np.ndarray:
    """(len(i), len(j), mu) terms of 1/2 grad phi_i* . grad phi_j over the
    cube C_x0(c_i), i and j 0-based index arrays, every i at one center."""
    pts = _cube_centers(funcs[i[0]].center, spec.x_trunc, spec.grid_n)
    vol = (2.0 * spec.x_trunc / spec.grid_n) ** 3
    grad, (i, j) = _values(eval_gradient, funcs, pts, i, j)
    return 0.5 * np.sum(grad[i, None] * grad[None, j], axis=-1) * vol


def _s1_terms(spec, funcs, i, j, nuclei) -> np.ndarray:
    """(len(i), len(j), mu) terms of -Z_q phi_i* phi_j / |R_q - r|: the
    cartesian branch over C_x1(c_i), every i at one center, the spherical-
    polar one over the ball B_{4 x1}(R_q), absorbing the singularity."""
    Zq, Rq = float(nuclei[spec.q][0]), np.asarray(nuclei[spec.q][1], float)
    n, x1 = spec.grid_n, spec.x_trunc
    if Zq == 0.0:
        return np.zeros((len(i), len(j), spec.mu))
    if spec.coordinate_system == "cartesian":
        pts = _cube_centers(funcs[i[0]].center, x1, n)
        vol = (2.0 * x1 / n) ** 3
        dist = np.linalg.norm(Rq - pts, axis=-1)
        v, (i, j) = _values(eval_value, funcs, pts, i, j)
        return -Zq * v[i, None] * v[None, j] / dist * vol
    s, th, ph = _sphere_grid(n)
    pts = 4.0 * x1 * s[:, None] * _unit_vectors(th, ph) + Rq
    v, (i, j) = _values(eval_value, funcs, pts, i, j)
    f1 = v[i, None] * v[None, j] * s * np.sin(th)
    return -16.0 * x1**2 * Zq * f1 * (2.0 * pi**2 / n**3)


def _s2_terms(spec, funcs, i, j, k, l, nuclei=()) -> np.ndarray:
    """(len(i), len(j), len(k), len(l), mu) terms of <ij|kl>, formed on the
    axes (i, j, k, l, electron 1's points, electron 2's), electron 1 around
    c_i, every i at one center, and electron 2 around c_j.  The cartesian
    branch, every j at one center too, is the product of the two cubes; the
    spherical-polar one parametrizes the separation vector in a ball of
    radius zeta' x2, absorbing the singularity into the volume form."""
    n, x2 = spec.grid_n, spec.x_trunc
    if spec.coordinate_system == "cartesian":
        p1, p2 = (_cube_centers(funcs[x[0]].center, x2, n) for x in (i, j))
        vol = (2.0 * x2 / n) ** 6
        v1, (i, k) = _values(eval_value, funcs, p1, i, k)
        v2, (j, l) = _values(eval_value, funcs, p2, j, l)
        f1 = (v1[i, None] * v1[None, k])[:, None, :, None, :, None]
        f2 = (v2[j, None] * v2[None, l])[None, :, None, :, None, :]
        dist = np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=-1)
        vals = f1 * f2 / dist * vol
    else:
        ax = (np.arange(n) + 0.5) * 2.0 / n - 1.0
        S1, S2_, S3 = np.meshgrid(ax, ax, ax, indexing="ij")
        svec = np.stack([S1, S2_, S3], axis=-1).reshape(-1, 3)
        t, th, ph = _sphere_grid(n)
        tvec = t[:, None] * _unit_vectors(th, ph)
        r1 = x2 * svec + np.asarray(funcs[i[0]].center, dtype=float)
        v1, (i, k) = _values(eval_value, funcs, r1, i, k)
        eta_ik = (v1[i, None] * v1[None, k])[:, None, :, None, :, None]
        weight = t * np.sin(th)
        # r2 = r1 - zeta' x2 tvec, expanded over the (s, t) product grid
        r2 = r1[:, None, :] - ZETA_PRIME * x2 * tvec[None, :, :]
        v2, (j, l) = _values(eval_value, funcs, r2, j, l)
        eta_jl = (v2[j, None] * v2[None, l])[None, :, None, :]
        f2 = eta_ik * eta_jl * weight
        vals = ZETA_PRIME**2 * x2**5 * f2 * (16.0 * pi**2 / n**6)
    return vals.reshape(*vals.shape[:4], -1)


KERNELS = {"s0": _s0_terms, "s1": _s1_terms, "s2": _s2_terms}


def _one_sum(kind, spec, basis, indices, nuclei=(), q=None) -> RiemannSum:
    """The kernel on one 1-based tuple: mu zeros if its spins forbid it."""
    if spec.kind != kind or kind == "s1" and spec.q != q:
        raise SpecMismatch(f"spec does not match this {kind} request")
    phi, half = [basis[x - 1] for x in indices], len(indices) // 2
    vals = np.zeros(spec.mu)
    if spins_match(phi[:half], phi[half:]):
        vals = KERNELS[kind](spec, basis, *([x - 1] for x in indices),
                             nuclei=nuclei).ravel()
    return RiemannSum(vals, spec.term_bound)


def riemann_S0(i, j, spec: QuadratureSpec, basis) -> RiemannSum:
    """Midpoint terms of 1/2 grad phi_i* . grad phi_j over C_x0(c_i)."""
    return _one_sum("s0", spec, basis, (i, j))


def riemann_S1(i, j, q, spec: QuadratureSpec, basis, nuclei) -> RiemannSum:
    """Midpoint terms of -Z_q phi_i* phi_j / |R_q - r|."""
    return _one_sum("s1", spec, basis, (i, j), nuclei, q)


def riemann_S2(i, j, k, l, spec: QuadratureSpec, basis) -> RiemannSum:
    """Midpoint terms of phi_i*(1) phi_j*(2) phi_k(1) phi_l(2) / r12."""
    return _one_sum("s2", spec, basis, (i, j, k, l))


def riemann_terms(kind, indices, delta, bounds, basis, nuclei=(),
                  q=None) -> RiemannSum:
    """Plan one integral and return its midpoint terms: ``indices`` holds
    its KINDS[kind].n_indices 1-based orbitals, ``q`` an s1 nucleus."""
    i, j, *kl = indices
    spec = plan_quadrature(kind, i, j, delta, bounds, basis, nuclei, *kl, q=q)
    return _one_sum(kind, spec, basis, indices, nuclei, q)


class RiemannTable:
    """Riemann-mode integrals, read as ``integrals.IntegralTable`` is:
    ``h1(i, j)`` and ``g(i, j, k, l)`` take 1-based spin-orbital index
    arrays and fancy-index one real stored table each (h1: s0, then s1 per
    nucleus), a row of grid-point terms per tuple of the spin-free functions
    and a zero last row that a spin-forbidden index reads.  A table is
    filled at its first request, one kernel call per grid that its plans
    are laid on.  h1's plans are made here, as every run reads h1, so a
    delta past the grid cap is refused before the CI matrix; g's at its
    first request, as an eta = 1 run reads none."""

    def __init__(self, basis, nuclei, delta):
        self.n, self.nuclei, self.delta = len(basis), nuclei, delta
        self.bounds = derive_bounds(basis)
        self.functions, spatial = spatial_orbitals(basis)
        self.spatial = np.array(spatial)
        self.spin = np.array([phi.spin for phi in basis])
        self.grids = {"h1": [self._grids("s0"), *(
            self._grids("s1", q) for q in range(len(nuclei)))]}
        self.tables = {}

    def h1(self, i, j) -> np.ndarray:
        return self._rows("h1", i, j)

    def g(self, i, j, k, l) -> np.ndarray:
        return self._rows("g", i, j, k, l)

    def _grids(self, kind, q=None) -> list:
        """[(plan, bra index arrays)]: the kind's plans, one per bra tuple,
        grouped by the branch and the centers their grid is laid on."""
        groups = {}
        for bra in np.ndindex((len(self.functions),) * (1 + (kind == "s2"))):
            i, j = bra[0] + 1, bra[-1] + 1
            spec = plan_quadrature(kind, i, j, self.delta[kind], self.bounds,
                                   self.functions, self.nuclei, i, j, q=q)
            # the spherical-polar grids are laid on one center fewer
            used = bra[:len(bra) - (spec.coordinate_system != "cartesian")]
            key = (spec, *(tuple(self.functions[x].center) for x in used))
            groups.setdefault(key, []).append(bra)
        return [(key[0], [np.array(sorted(set(x))) for x in zip(*bras)])
                for key, bras in groups.items()]

    def _rows(self, name, *index) -> np.ndarray:
        index = np.stack(index) - 1
        spin, half = self.spin[index], len(index) // 2
        allowed = np.all(spin[:half] == spin[half:], axis=0)
        shape = (len(self.functions),) * len(index)
        row = np.ravel_multi_index(self.spatial[index], shape)
        return self._table(name, shape)[np.where(allowed, row, -1)]

    def _table(self, name, shape) -> np.ndarray:
        if name not in self.tables:
            if name == "g":
                self.grids["g"] = [self._grids("s2")]
            widths = [grids[0][0].mu for grids in self.grids[name]]
            table = np.zeros((math.prod(shape) + 1, sum(widths)))
            for grids, start, mu in zip(self.grids[name],
                                        np.cumsum([0, *widths]), widths):
                for spec, bra in grids:
                    ket = [np.arange(shape[0])] * len(bra)
                    at = np.ravel_multi_index(np.ix_(*bra, *ket), shape)
                    table[at.ravel(), start:start + mu] = KERNELS[spec.kind](
                        spec, self.functions, *bra, *ket,
                        nuclei=self.nuclei).reshape(-1, mu)
            self.tables[name] = table
        return self.tables[name]


def lambda_exact(mu_decay: float, x: float, c: float) -> tuple[float, float]:
    """Exact value and bound for the truncated screened-Coulomb integral.

    Lambda(c) = int_{|r| >= x} exp(-mu |r|) / |r - c| dr has the closed
    forms

        c <= x:  4 pi (x/mu + 1/mu^2) e^{-mu x}
        c >  x:  (4 pi / c) [ (x^2/mu + 2x/mu^2 + 2/mu^3) e^{-mu x}
                              - (c/mu^2 + 2/mu^3) e^{-mu c} ]

    and is bounded by (8 pi / mu^2) e^{-mu x / 2} in the first branch and
    (16 pi / (mu^3 c)) e^{-mu x / 2} in the second.
    """
    if mu_decay <= 0 or x <= 0:
        raise ValueError("mu and x must be positive")
    m = mu_decay
    if c <= x:
        exact = 4.0 * pi * (x / m + 1.0 / m**2) * math.exp(-m * x)
        bound = (8.0 * pi / m**2) * math.exp(-m * x / 2.0)
    else:
        exact = (4.0 * pi / c) * (
            (x**2 / m + 2.0 * x / m**2 + 2.0 / m**3) * math.exp(-m * x)
            - (c / m**2 + 2.0 / m**3) * math.exp(-m * c))
        bound = (16.0 * pi / (m**3 * c)) * math.exp(-m * x / 2.0)
    return exact, bound
