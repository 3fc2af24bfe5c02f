"""Contracted Cartesian Gaussian spin-orbitals and certified envelope bounds.

An orbital is a contraction sum_p c_p (x-cx)^nx (y-cy)^ny (z-cz)^nz
exp(-a_p |r-c|^2) tagged with a spin label.  Only s, p and d Cartesian
monomials are supported; value and gradient evaluate in closed form at
O(primitives) per point.

derive_bounds certifies the four regularity constants used by the
quadrature layer:

    |phi(r)| <= phi_max                                  everywhere
    |phi(r)| <= phi_max exp(-alpha |r-c| / x_max)        for |r-c| >= x_max
    |grad phi| <= gamma1 phi_max / x_max                 everywhere
    |laplacian phi| <= gamma2 phi_max / x_max^2          everywhere

Each quantity is bounded, over all directions at radius r from the
orbital's center, by a radial envelope sum_t w_t r^k_t e^{-a_t r^2}.
Every term is unimodal with its peak at sqrt(k/2a), so on a cell
[r0, r1] it is largest at that peak clipped to the cell, and the sum of
those maxima bounds the envelope on the cell (near a peak of the sum, a
Taylor bound about the cell's midpoint is tighter); past every peak the
envelope falls, so one value covers the tail.  envelope_sup halves cells
until their bounds meet the envelope's sampled values, so each cap is a
certified supremum over all of space, not the best of a set of samples.
The decay envelope is the same problem with e^{alpha r / x_max} folded
into each term.  A failed check raises BoundViolated instead of
adjusting silently.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from math import isfinite, sqrt
from numbers import Integral, Real

import numpy as np

from .errors import BoundViolated, NumericOverflow, UnsupportedAngularMomentum

MAX_ANGULAR = 2  # s, p, d
ALPHA_DECAY = 1.0  # alpha in |phi| <= phi_max e^{-alpha r / x_max}


def finite_number(x) -> bool:
    """A finite real number, numpy scalars included; a bool is not one, nor
    an int past a float."""
    try:
        return isinstance(x, Real) and not isinstance(x, bool) and isfinite(x)
    except OverflowError:
        return False


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
        exps, coefs = zip(*self.primitives)
        if not (all(finite_number(e) and e > 0 for e in exps)
                and all(map(finite_number, coefs)) and any(coefs)):
            raise ValueError("each exponent must be finite and > 0, each "
                             "coefficient finite, and one coefficient nonzero")
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
        # validated as given, where a bool or a string is no number
        object.__setattr__(self, "primitives", tuple(
            (float(e), float(c)) for e, c in self.primitives))

    @property
    def total_power(self) -> int:
        return sum(self.powers)


def spins_match(bra, ket) -> bool:
    """The spin rule: an integral over spin orbitals is the integral over
    their spatial functions times a spin delta on each electron, so it
    vanishes unless bra[e] and ket[e] share a spin for every electron e."""
    return all(b.spin == k.spin for b, k in zip(bra, ket, strict=True))


def spatial_orbitals(basis) -> tuple[list[SpinOrbital], list[int]]:
    """(functions, index): each distinct spatial function (center,
    primitives, powers) of a spin-orbital basis once, spin-free as a spin-up
    orbital, and for each spin orbital the position of its function."""
    first: dict = {}
    index = []
    for phi in basis:
        # plain tuples, so that a center given as an array is a key too
        key = (tuple(phi.center), phi.primitives, tuple(phi.powers))
        index.append(first.setdefault(key, (len(first), phi))[0])
    return [replace(phi, spin="up") for _, phi in first.values()], index


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


# ---------------------------------------------------------------------------
# bound derivation and certification

REL_TOL = 1e-10  # envelope_sup exceeds the envelope's supremum by at most this
ROUNDING = 1e-13  # relative margin over the rounding of an envelope's value

# Per certified cap: the direction factor, the radial envelope's
# (weight, power) terms for one primitive of exponent a and total power L
# (to be scaled by |c| and summed), and the cap the bounds imply.
# |x^nx y^ny z^nz| <= r^L on the sphere of radius r; a sum over the three
# directions costs sqrt(3) for the gradient and 3 for the Laplacian, but
# an s-orbital is radial, |grad phi| = |f'| and lap phi = f'' + 2 f'/r.
_CAPS = {
    "phi_max": (1.0, lambda a, L: ((1.0, L),),
                lambda b: b.phi_max),
    "gamma1": (sqrt(3.0), lambda a, L: ((2.0 * a, L + 1), (L, L - 1)),
               lambda b: b.gamma1 * b.phi_max / b.x_max),
    "gamma2": (3.0, lambda a, L: ((2.0 * a * (2 * L + 3), L),
                                  (4.0 * a * a, L + 2), (L * (L - 1), L - 2)),
               lambda b: b.gamma2 * b.phi_max / b.x_max**2),
}


def _terms(*columns):
    """(w, k, a) float arrays of the terms w r^k e^{-a r^2 + rate r},
    without the terms of weight 0."""
    w, k, a = (np.asarray(col, dtype=float) for col in columns)
    keep = w != 0
    return w[keep], k[keep], a[keep]


def _peaks(terms, rate) -> np.ndarray:
    """Where each term w r^k e^{-a r^2 + rate r} peaks over r >= 0; it
    rises before and falls after."""
    _, k, a = terms
    return (rate + np.sqrt(rate * rate + 8.0 * a * k)) / (4.0 * a)


def _sum_max(terms, rate, lo, hi) -> np.ndarray:
    """Per cell [lo, hi], the sum of each term's maximum on the cell (its
    peak clipped to the cell), or of its value where lo = hi."""
    w, k, a = terms
    r = np.clip(_peaks(terms, rate), lo[:, None], hi[:, None])
    return np.sum(w * r**k * np.exp(r * (rate - a * r)), axis=1)


def envelope_sup(phi: SpinOrbital, quantity: str, r_from: float = 0.0,
                 rate: float = 0.0) -> float:
    """Certified sup over r >= r_from of quantity's radial envelope times
    e^{rate r} (rate >= 0), at most REL_TOL + ROUNDING above the true
    supremum.

    A cell [m - h, m + h] gets the smaller of two bounds on the envelope
    g: the sum of its terms' maxima, and the Taylor bound
    g(m) + |g'(m)| h + M h^2 / 2, where M sums the cell maxima of the
    positive terms of g''.  The first is exact for one term but loose by
    O(h) where rising and falling terms meet; the second is loose by
    O(h^2) near a peak of g.  Past the last term peak every term falls,
    so that point's value covers the tail.  Cells whose bound exceeds the
    best value seen by more than REL_TOL are halved until none is left.
    """
    factor, per_primitive, _ = _CAPS[quantity]
    factor = factor if phi.total_power else 1.0
    rows = [(factor * abs(c) * wt, kt, e) for e, c in phi.primitives
            for wt, kt in per_primitive(e, phi.total_power)]
    w, k, a = terms = _terms(*zip(*rows))
    if not len(w):  # every weight underflowed to 0, e.g. coefficient 5e-324
        return 0.0
    slope = _terms(np.r_[w * k, w * rate, -2.0 * a * w],
                   np.r_[k - 1, k, k + 1], np.tile(a, 3))
    curve = _terms(np.r_[w * k * (k - 1), 2.0 * w * k * rate,
                         w * rate * rate, 4.0 * a * a * w],
                   np.r_[k - 2, k - 1, k, k + 2], np.tile(a, 4))
    r_last = np.array([max(r_from, float(_peaks(terms, rate).max()))])
    best = sup = float(_sum_max(terms, rate, r_last, r_last)[0])
    edges = np.linspace(r_from, r_last[0], 65)
    lo, hi = edges[:-1], edges[1:]
    for _ in range(100):
        if not len(lo):
            return sup * (1.0 + ROUNDING)
        m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        at_m = _sum_max(terms, rate, m, m)
        best = max(best, float(at_m.max()))
        bound = np.minimum(
            _sum_max(terms, rate, lo, hi),
            at_m + np.abs(_sum_max(slope, rate, m, m)) * h
            + 0.5 * h * h * _sum_max(curve, rate, lo, hi))
        open_ = bound > best * (1.0 + REL_TOL)
        sup = max(sup, float(bound[~open_].max(initial=0.0)))
        lo, hi = np.r_[lo[open_], m[open_]], np.r_[m[open_], hi[open_]]
    raise BoundViolated(f"{quantity} envelope supremum did not converge",
                        quantity=quantity)


def _decays(phi: SpinOrbital, phi_max: float, x_max: float,
            alpha: float) -> bool:
    """|phi| <= phi_max exp(-alpha r / x_max) for all r >= x_max."""
    return envelope_sup(phi, "phi_max", x_max, alpha / x_max) \
        <= phi_max * (1 + 1e-12)


def _shapes(basis) -> list:
    """(index, orbital) of the first orbital of each distinct set of
    primitives and total power: no envelope depends on anything else."""
    first = {}
    for idx, phi in enumerate(basis):
        first.setdefault((phi.primitives, phi.total_power), idx)
    return [(idx, basis[idx]) for idx in first.values()]


@np.errstate(all="ignore")  # a bound past a float is reported, not warned of
def derive_bounds(basis) -> BasisBounds:
    """Certified (phi_max, x_max, alpha, gamma1, gamma2) for a Gaussian basis.

    phi_max and the gradient and Laplacian suprema behind gamma1 and
    gamma2 are the largest envelope_sup over the basis.  x_max is the
    first radius, from the widest orbital's size up by factors of 1.2,
    at which the decay envelope certifies for every orbital, so the
    result holds by construction.  NumericOverflow past a float.
    """
    if len(basis) == 0:
        raise ValueError("empty basis")
    shapes = _shapes(basis)
    phi_max, sup_grad, sup_lap = (
        max(envelope_sup(phi, name) for _, phi in shapes) for name in _CAPS)
    width = max(sqrt((phi.total_power + 1.0)
                     / (2.0 * min(a for a, _ in phi.primitives)))
                for _, phi in shapes)
    x_max = max(width, 1e-6)
    for _ in range(200):
        if all(_decays(phi, phi_max, x_max, ALPHA_DECAY) for _, phi in shapes):
            break
        x_max *= 1.2
    else:
        raise BoundViolated("no x_max certified the decay envelope",
                            quantity="decay")

    bounds = BasisBounds(
        phi_max=phi_max,
        x_max=x_max,
        alpha_decay=ALPHA_DECAY,
        gamma1=sup_grad * x_max / phi_max,
        gamma2=sup_lap * x_max**2 / phi_max,
    )
    if not all(map(isfinite, astuple(bounds))):
        raise NumericOverflow(f"a basis bound is past a float: {bounds}")
    return bounds


def certify_bounds(basis, bounds: BasisBounds):
    """Re-check certified bounds; raises BoundViolated on any failure.

    Every orbital's envelope_sup of each quantity must lie within its
    cap, and its decay envelope must hold past x_max.
    """
    for idx, phi in _shapes(basis):
        for name, (_, _, cap) in _CAPS.items():
            sup = envelope_sup(phi, name)
            if sup > cap(bounds) * (1 + 1e-9):
                raise BoundViolated(
                    f"{name} cap violated by orbital {idx}: its envelope "
                    f"reaches {sup:.6g} > {cap(bounds):.6g}", quantity=name)
        if not _decays(phi, bounds.phi_max, bounds.x_max, bounds.alpha_decay):
            raise BoundViolated(
                f"decay envelope fails for orbital {idx} past "
                f"x_max = {bounds.x_max:.4g}", quantity="decay")
