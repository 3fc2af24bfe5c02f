"""Contracted Cartesian Gaussian spin-orbitals and certified envelope bounds.

An orbital is a contraction sum_p c_p (x-cx)^nx (y-cy)^ny (z-cz)^nz
exp(-a_p |r-c|^2) tagged with a spin label.  Only s, p and d Cartesian
monomials are supported; everything evaluates in closed form, so value,
gradient and Laplacian cost O(primitives) per point.

derive_bounds certifies the four regularity constants used by the
quadrature layer:

    |phi(r)| <= phi_max                                  everywhere
    |phi(r)| <= phi_max exp(-alpha |r-c| / x_max)        for |r-c| >= x_max
    |grad phi| <= gamma1 phi_max / x_max                 everywhere
    |laplacian phi| <= gamma2 phi_max / x_max^2          everywhere

Certification combines a dense grid over the union of cubes of
half-width 3 x_max around the centers with analytic radial tail bounds
(a Gaussian times a polynomial is eventually dominated by any
exponential), and raises BoundViolated instead of adjusting silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from numbers import Integral, Real

import numpy as np

from .errors import BoundViolated, UnsupportedAngularMomentum

MAX_ANGULAR = 2  # s, p, d
GRID_POINTS = 64  # per-axis samples of the bound-search grid
ALPHA_DECAY = 1.0  # alpha in |phi| <= phi_max e^{-alpha r / x_max}


def finite_number(x) -> bool:
    """A finite real number, numpy scalars included; a bool is not one."""
    return isinstance(x, Real) and not isinstance(x, bool) and isfinite(x)


def is_point(p) -> bool:
    """Three finite numbers: a center or a nuclear position."""
    return len(p) == 3 and all(map(finite_number, p))


@dataclass(frozen=True)
class SpinOrbital:
    center: tuple[float, float, float]
    primitives: tuple[tuple[float, float], ...]  # (exponent, coefficient)
    powers: tuple[int, int, int] = (0, 0, 0)
    spin: str = "up"

    def __post_init__(self):
        if not is_point(self.center):
            raise ValueError("orbital center must be 3 finite numbers")
        if len(self.primitives) < 1:
            raise ValueError("orbital needs at least one primitive")
        if not all(finite_number(e) and e > 0 and finite_number(c)
                   for e, c in self.primitives):
            raise ValueError("each exponent must be finite and > 0, "
                             "each coefficient finite")
        if len(self.powers) != 3 or not all(
                isinstance(p, Integral) and not isinstance(p, bool) and p >= 0
                for p in self.powers):
            raise ValueError("Cartesian powers must be 3 non-negative integers")
        if sum(self.powers) > MAX_ANGULAR:
            raise UnsupportedAngularMomentum(
                f"total Cartesian power {sum(self.powers)} exceeds d functions"
            )
        if self.spin not in ("up", "down"):
            raise ValueError("spin must be 'up' or 'down'")

    @property
    def total_power(self) -> int:
        return sum(self.powers)


@dataclass(frozen=True)
class BasisBounds:
    """Certified envelope constants shared by a whole basis."""

    phi_max: float
    x_max: float
    alpha_decay: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("phi_max", "x_max", "alpha_decay", "gamma1", "gamma2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def _mono(u: np.ndarray, n: int) -> np.ndarray:
    if n == 0:
        return np.ones_like(u)
    return u**n


def eval_value(phi: SpinOrbital, pts: np.ndarray) -> np.ndarray:
    """phi at an (..., 3) array of points."""
    pts = np.asarray(pts, dtype=float)
    rel = pts - np.asarray(phi.center)
    r2 = np.sum(rel * rel, axis=-1)
    poly = np.ones_like(r2)
    for d, n in enumerate(phi.powers):
        poly = poly * _mono(rel[..., d], n)
    out = np.zeros_like(r2)
    for a, c in phi.primitives:
        out += c * np.exp(-a * r2)
    return poly * out


def d1_terms(n: int, expo: float):
    """d/dx of x^n e^{-a x^2} as [(power, coefficient)] pairs."""
    terms = [(n + 1, -2.0 * expo)]
    if n > 0:
        terms.append((n - 1, float(n)))
    return terms


def d2_terms(n: int, expo: float):
    """d2/dx2 of x^n e^{-a x^2} as [(power, coefficient)] pairs."""
    terms = [(n, -2.0 * expo * (2 * n + 1)), (n + 2, 4.0 * expo * expo)]
    if n > 1:
        terms.append((n - 2, float(n * (n - 1))))
    return terms


def _axis_parts(phi: SpinOrbital, pts: np.ndarray, terms):
    """(d, part) per primitive and axis: the primitive's derivative along d
    by the term table `terms`, its terms summed in their listed order."""
    pts = np.asarray(pts, dtype=float)
    rel = pts - np.asarray(phi.center)
    r2 = np.sum(rel * rel, axis=-1)
    monos = [_mono(rel[..., d], n) for d, n in enumerate(phi.powers)]
    for a, c in phi.primitives:
        g = c * np.exp(-a * r2)
        for d, n in enumerate(phi.powers):
            others = np.ones_like(r2)
            for d2 in range(3):
                if d2 != d:
                    others = others * monos[d2]
            poly = sum(k * _mono(rel[..., d], p) for p, k in terms(n, a))
            yield d, others * poly * g


def eval_gradient(phi: SpinOrbital, pts: np.ndarray) -> np.ndarray:
    """grad phi at an (..., 3) array of points, shape (..., 3)."""
    grad = np.zeros(np.shape(pts))
    for d, part in _axis_parts(phi, pts, d1_terms):
        grad[..., d] += part
    return grad


def eval_laplacian(phi: SpinOrbital, pts: np.ndarray) -> np.ndarray:
    """laplacian of phi at an (..., 3) array of points."""
    out = np.zeros(np.shape(pts)[:-1])
    for _, part in _axis_parts(phi, pts, d2_terms):
        out += part
    return out


# ---------------------------------------------------------------------------
# bound derivation and certification


def _radial_envelope(phi: SpinOrbital, r: np.ndarray) -> np.ndarray:
    """Upper bound on sup over directions of |phi| at radius r from its center.

    |x^nx y^ny z^nz| <= r^L on the sphere of radius r, so
    |phi| <= r^L sum_p |c_p| e^{-a_p r^2}.
    """
    L = phi.total_power
    out = np.zeros_like(r)
    for a, c in phi.primitives:
        out += abs(c) * np.exp(-a * r * r)
    return np.where(r > 0, r**L, 0.0 if L else 1.0) * out


def _min_exponent(phi: SpinOrbital) -> float:
    return min(a for a, _ in phi.primitives)


def _radial_grad_envelope(phi: SpinOrbital, r: np.ndarray) -> np.ndarray:
    """Upper bound on sup over directions of |grad phi| at radius r."""
    L = phi.total_power
    out = np.zeros_like(r)
    for a, c in phi.primitives:
        poly = 2.0 * a * r ** (L + 1)
        if L > 0:
            poly = poly + L * r ** (L - 1)
        out += abs(c) * poly * np.exp(-a * r * r)
    return sqrt(3.0) * out


def _radial_lap_envelope(phi: SpinOrbital, r: np.ndarray) -> np.ndarray:
    """Upper bound on sup over directions of |laplacian phi| at radius r."""
    L = phi.total_power
    out = np.zeros_like(r)
    for a, c in phi.primitives:
        poly = 2.0 * a * (2 * L + 3) * r**L + 4.0 * a * a * r ** (L + 2)
        if L > 1:
            poly = poly + L * (L - 1) * r ** (L - 2)
        out += 3.0 * abs(c) * poly * np.exp(-a * r * r)
    return out


def _tail_below_cap(phi, envelope_fn, r_edge: float, cap: float,
                    orbital_idx: int, quantity: str):
    """Certify envelope(r) <= cap for all r >= r_edge.

    Every envelope term is a power times a Gaussian, each strictly
    decreasing once 2 a_min r^2 exceeds the power; it is enough that
    r_edge lies past that turnover and the envelope fits at r_edge.
    """
    a_min = _min_exponent(phi)
    L = phi.total_power
    if 2.0 * a_min * r_edge**2 <= L + 2:
        raise BoundViolated(
            f"certification region too small for orbital {orbital_idx}",
            orbital=orbital_idx, quantity=quantity,
        )
    val = float(envelope_fn(phi, np.array([r_edge]))[0])
    if val > cap * (1 + 1e-9):
        raise BoundViolated(
            f"{quantity} tail exceeds cap for orbital {orbital_idx}",
            orbital=orbital_idx, location=r_edge, quantity=quantity,
        )


def _grid_over_basis(basis, half_width: float, n: int) -> np.ndarray:
    """Dense n^3 grid over the union's bounding box, flattened to (n^3, 3)."""
    centers = np.array([phi.center for phi in basis])
    lo = centers.min(axis=0) - half_width
    hi = centers.max(axis=0) + half_width
    axes = [np.linspace(lo[d], hi[d], n) for d in range(3)]
    g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return g.reshape(-1, 3)


def _sup(basis, magnitude, grid) -> float:
    """Largest magnitude(phi, r) over the basis on the grid, refined by a
    local optimizer started from the best grid point."""
    # scipy loads here, not at import: only derive_bounds reaches this
    from scipy.optimize import minimize
    best, best_orb, best_pt = -1.0, 0, grid[0]
    for idx, phi in enumerate(basis):
        vals = magnitude(phi, grid)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_orb, best_pt = float(vals[k]), idx, grid[k]
    res = minimize(lambda x: -magnitude(basis[best_orb], x[None, :])[0],
                   best_pt, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return max(best, -res.fun)


# (name, pointwise magnitude, radial envelope, cap(bounds)) of each
# certified cap, in the order the checks run
_CAPS = (
    ("phi_max", lambda p, g: np.abs(eval_value(p, g)), _radial_envelope,
     lambda b: b.phi_max),
    ("gamma1", lambda p, g: np.linalg.norm(eval_gradient(p, g), axis=-1),
     _radial_grad_envelope, lambda b: b.gamma1 * b.phi_max / b.x_max),
    ("gamma2", lambda p, g: np.abs(eval_laplacian(p, g)),
     _radial_lap_envelope, lambda b: b.gamma2 * b.phi_max / b.x_max**2),
)


def _certify_decay(phi: SpinOrbital, phi_max: float, x_max: float,
                   alpha: float, orbital_idx: int):
    """Check |phi| <= phi_max exp(-alpha r / x_max) for all r >= x_max.

    Uses the radial envelope on a dense log grid plus the analytic fact
    that log(envelope) + alpha r / x_max is eventually strictly
    decreasing (its derivative L/r - 2 a_min r + alpha/x_max is negative
    for large r), so checking up to that turnover radius suffices.
    """
    a_min = _min_exponent(phi)
    L = phi.total_power
    ax = alpha / x_max
    # turnover radius past which the log-ratio strictly decreases
    r_turn = (ax + sqrt(ax * ax + 8.0 * a_min * max(L, 1))) / (2.0 * a_min)
    r_stop = max(2.0 * x_max, 2.0 * r_turn)
    rs = np.geomspace(x_max, r_stop, 4000)
    env = _radial_envelope(phi, rs)
    target = phi_max * np.exp(-alpha * rs / x_max)
    bad = env > target * (1 + 1e-12)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise BoundViolated(
            f"decay envelope fails for orbital {orbital_idx} at radius {rs[k]:.4g}",
            orbital=orbital_idx, location=float(rs[k]), quantity="decay",
        )


def derive_bounds(basis) -> BasisBounds:
    """Certified (phi_max, x_max, alpha, gamma1, gamma2) for a Gaussian basis.

    phi_max, gamma1 and gamma2 come from a dense grid search refined by a
    local optimizer; the grid covers the union of cubes of half-width
    3 x_max around the centers (GRID_POINTS^3 samples) and the
    exterior is covered by analytic radial tails.  x_max is the smallest
    candidate radius for which the exponential decay envelope certifies
    for every orbital.
    """
    if len(basis) == 0:
        raise ValueError("empty basis")

    # candidate x_max: start near the widest orbital's size and grow until
    # the decay envelope certifies for all orbitals
    width = max(sqrt((phi.total_power + 1.0) / (2.0 * _min_exponent(phi)))
                for phi in basis)
    x_max = max(width, 1e-6)

    # provisional phi_max on a coarse region so the decay search can run
    grid = _grid_over_basis(basis, 3.0 * x_max + 1.0, GRID_POINTS)
    phi_max = _sup(basis, _CAPS[0][1], grid)

    for _ in range(200):
        try:
            for idx, phi in enumerate(basis):
                _certify_decay(phi, phi_max, x_max, ALPHA_DECAY, idx)
            break
        except BoundViolated:
            x_max *= 1.2
    else:
        raise BoundViolated("no x_max certified the decay envelope",
                            quantity="decay")

    # final grid over the certified region
    grid = _grid_over_basis(basis, 3.0 * x_max, GRID_POINTS)
    phi_max, sup_grad, sup_lap = (_sup(basis, magnitude, grid)
                                  for _, magnitude, _, _ in _CAPS)

    bounds = BasisBounds(
        phi_max=phi_max,
        x_max=x_max,
        alpha_decay=ALPHA_DECAY,
        gamma1=sup_grad * x_max / phi_max,
        gamma2=sup_lap * x_max**2 / phi_max,
    )
    certify_bounds(basis, bounds)
    return bounds


def certify_bounds(basis, bounds: BasisBounds):
    """Re-check certified bounds; raises BoundViolated on any failure.

    The value/gradient/Laplacian caps are checked on the dense interior
    grid plus radial tails; the decay envelope is checked analytically
    orbital by orbital.
    """
    grid = _grid_over_basis(basis, 3.0 * bounds.x_max, GRID_POINTS)
    tol = 1 + 1e-9
    for name, magnitude, _, cap in _CAPS:
        for idx, phi in enumerate(basis):
            vals = magnitude(phi, grid)
            k = int(np.argmax(vals))
            if vals[k] > cap(bounds) * tol:
                raise BoundViolated(
                    f"{name} cap violated by orbital {idx} at {grid[k]}",
                    orbital=idx, location=tuple(grid[k]), quantity=name,
                )
    # any point outside the sampled union is at least 3 x_max from every
    # center, so radial tail envelopes cover the exterior
    r_edge = 3.0 * bounds.x_max
    for idx, phi in enumerate(basis):
        for name, _, envelope, cap in _CAPS:
            _tail_below_cap(phi, envelope, r_edge, cap(bounds), idx, name)
        _certify_decay(phi, bounds.phi_max, bounds.x_max,
                       bounds.alpha_decay, idx)
