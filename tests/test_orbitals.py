import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cisim.driver import load_config
from cisim.errors import (BoundViolated, NumericOverflow,
                          UnsupportedAngularMomentum)
from cisim.orbitals import (BasisBounds, SpinOrbital, certify_bounds,
                            derive_bounds, envelope_sup, eval_gradient,
                            eval_value)

from conftest import so
from oracles import eval_laplacian, sampled_max


def test_gradient_vanishes_at_center():
    g = so((0.0, 0.0, 0.0), 1.0, normalized=False)
    assert np.allclose(eval_gradient(g, (0.0, 0.0, 0.0)), 0.0)


def test_value_direct_substitution():
    g = so((0.0, 0.0, 0.0), 1.0, normalized=False)
    assert eval_value(g, (1.0, 0.0, 0.0)) == pytest.approx(np.exp(-1.0))


def _fd_laplacian(phi, r, h=1e-4):
    r = np.asarray(r, dtype=float)
    out = 0.0
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        out += (eval_value(phi, r + e)
                - 2.0 * eval_value(phi, r)
                + eval_value(phi, r - e)) / h**2
    return out


def _fd_gradient(phi, r, h=1e-4):
    r = np.asarray(r, dtype=float)
    out = np.zeros(3)
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        out[d] = (eval_value(phi, r + e)
                  - eval_value(phi, r - e)) / (2.0 * h)
    return out


def test_laplacian_finite_difference_example():
    g = so((0.0, 0.0, 0.0), 1.0, normalized=False)
    exact = eval_laplacian(g, (1.0, 0.0, 0.0))
    assert abs(exact - _fd_laplacian(g, (1.0, 0.0, 0.0))) < 1e-6


@pytest.mark.parametrize("powers", [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 0)])
def test_derivatives_match_finite_differences(powers):
    rng = np.random.default_rng(5)
    phi = SpinOrbital((0.2, -0.1, 0.4),
                      ((0.9, 1.0), (2.2, -0.3)), powers, "up")
    scale = 1.0
    for _ in range(100):
        r = rng.uniform(-1.5, 1.5, size=3)
        grad = eval_gradient(phi, r)
        lap = eval_laplacian(phi, r)
        assert np.linalg.norm(grad - _fd_gradient(phi, r)) \
            <= 1e-5 * max(np.linalg.norm(grad), scale)
        assert abs(lap - _fd_laplacian(phi, r)) <= 1e-5 * max(abs(lap), scale)


def test_unsupported_angular_momentum():
    with pytest.raises(UnsupportedAngularMomentum):
        SpinOrbital((0, 0, 0), ((1.0, 1.0),), (2, 1, 0), "up")


def test_phi_max_normalized_s_gaussian():
    basis = [so((0.0, 0.0, 0.0), 1.0)]
    bounds = derive_bounds(basis)
    assert bounds.phi_max == pytest.approx((2.0 / np.pi) ** 0.75, abs=1e-9)


def test_phi_max_two_identical_distant():
    basis = [so((0.0, 0.0, 0.0), 1.0), so((10.0, 0.0, 0.0), 1.0)]
    one = derive_bounds(basis[:1])
    two = derive_bounds(basis)
    assert two.phi_max == pytest.approx(one.phi_max, rel=1e-9)


def test_phi_max_p_orbital_grid_oracle():
    # max of |x e^{-r^2}| sits on the x axis; 1d reduction gives an
    # essentially exact independent value
    phi = so((0.0, 0.0, 0.0), 1.0, powers=(1, 0, 0), normalized=False)
    res = minimize_scalar(lambda x: -abs(x) * np.exp(-x * x),
                          bounds=(0.1, 3.0), method="bounded",
                          options={"xatol": 1e-12})
    oracle = -res.fun
    bounds = derive_bounds([phi])
    assert bounds.phi_max == pytest.approx(oracle, abs=1e-6)


def test_decay_envelope_random_points():
    rng = np.random.default_rng(9)
    basis = [so((0.3, -0.2, 0.1), 1.3, powers=(1, 0, 0)),
             so((-0.5, 0.0, 0.2), 0.7)]
    bounds = derive_bounds(basis)
    for phi in basis:
        c = np.asarray(phi.center)
        radii = rng.uniform(bounds.x_max, 10.0 * bounds.x_max, size=10_000)
        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = c + radii[:, None] * dirs
        vals = np.abs(eval_value(phi, pts))
        cap = bounds.phi_max * np.exp(-bounds.alpha_decay * radii / bounds.x_max)
        assert np.all(vals <= cap * (1 + 1e-9))


def _mixed_basis(rng):
    return [so(rng.normal(scale=0.5, size=3), float(rng.uniform(0.6, 1.8)),
               powers=p) for p in ((0, 0, 0), (0, 1, 0), (1, 0, 1))]


def test_gradient_and_laplacian_caps_hold():
    rng = np.random.default_rng(13)
    basis = _mixed_basis(rng)
    b = derive_bounds(basis)
    pts = rng.uniform(-4, 4, size=(5000, 3))
    for phi in basis:
        grad = np.linalg.norm(eval_gradient(phi, pts), axis=-1)
        lap = np.abs(eval_laplacian(phi, pts))
        assert np.all(grad <= b.gamma1 * b.phi_max / b.x_max * (1 + 1e-9))
        assert np.all(lap <= b.gamma2 * b.phi_max / b.x_max**2 * (1 + 1e-9))


def test_derive_bounds_rejects_an_empty_basis():
    with pytest.raises(ValueError, match="empty basis"):
        derive_bounds([])


@pytest.mark.parametrize("primitives", [[(1e300, 0.7)],
                                        [(1.0, 1e308), (1.1, 1e308)]],
                         ids=["exponent-1e300", "two-coefficients-1e308"])
def test_bound_past_a_float_is_numeric_overflow(primitives):
    # the Laplacian cap (or phi_max itself) is past a float: a typed
    # error, with no numpy warning on the way
    basis = [SpinOrbital((0.0, 0.0, 0.0), tuple(primitives))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericOverflow, match="past a float"):
            derive_bounds(basis)
    assert caught == []


def test_envelope_whose_weights_underflow_is_zero():
    # coefficient 5e-324 at exponent 0.1: the gradient envelope's weight
    # 2 a |c| rounds to 0, so it has no term, and the basis still
    # certifies
    phi = SpinOrbital((0.0, 0.0, 0.0), ((0.1, 5e-324),))
    assert envelope_sup(phi, "gamma1") == 0.0
    other = so((0.0, 0.0, 1.4), 1.0)
    assert derive_bounds([phi, other]).phi_max == derive_bounds([other]).phi_max


def test_certification_failure_is_an_error():
    # halving a field breaks the check it feeds, and the error names it
    basis = [so((0.0, 0.0, 0.0), 1.0)]
    good = derive_bounds(basis)
    for field, quantity in (("phi_max", "phi_max"), ("gamma1", "gamma1"),
                            ("gamma2", "gamma2"), ("x_max", "decay")):
        bad = replace(good, **{field: getattr(good, field) / 2})
        with pytest.raises(BoundViolated) as err:
            certify_bounds(basis, bad)
        assert err.value.quantity == quantity


# the supremum each cap of BasisBounds stands for
CAPS = {"phi_max": lambda b: b.phi_max,
        "gamma1": lambda b: b.gamma1 * b.phi_max / b.x_max,
        "gamma2": lambda b: b.gamma2 * b.phi_max / b.x_max**2}

CAP_BASES = {
    "h2": lambda: load_config("configs/h2.json").orbitals,
    "p-d": lambda: [so((0.0, 0.0, 0.0), 1.2, powers=(1, 0, 0)),
                    so((0.4, 0.0, 0.3), 0.9, powers=(0, 0, 2)),
                    so((0.0, 0.0, 200.0), 1.0)],
    "mixed-sign-s": lambda: [SpinOrbital((0.1, 0.0, -0.2),
                                         ((0.8, 1.0), (2.5, -0.6)))],
    "d-xy": lambda: [so((0.0, 0.3, 0.0), 1.1, powers=(1, 1, 0))],
    "s-p-d": lambda: _mixed_basis(np.random.default_rng(13)),
}


@pytest.mark.parametrize("name", sorted(CAP_BASES))
def test_caps_cover_the_sampled_maximum(name):
    # a grid search finds a lower bound on each supremum; a certified cap
    # must lie above it
    basis = CAP_BASES[name]()
    bounds = derive_bounds(basis)
    for quantity, cap in CAPS.items():
        assert cap(bounds) >= sampled_max(basis, quantity, 3.0 * bounds.x_max)


@pytest.mark.parametrize("name", sorted(CAP_BASES))
def test_derived_bounds_certify(name):
    # derive_bounds does not re-check its result: its caps are the suprema
    # certify_bounds recomputes, so the check holds on every basis
    basis = CAP_BASES[name]()
    certify_bounds(basis, derive_bounds(basis))


@pytest.mark.parametrize("a,c", [(1.0, 0.7127054703549901), (0.3, -2.0),
                                 (7.5, 0.05)])
def test_single_primitive_s_caps_are_exact(a, c):
    # |phi| peaks at the center, |grad phi| = 2 a |c| r e^{-a r^2} at
    # r = 1/sqrt(2a), and |lap phi| = |c| |4 a^2 r^2 - 6 a| e^{-a r^2} at 0
    bounds = derive_bounds([SpinOrbital((0.3, 0.0, -1.0), ((a, c),))])
    exact = {"phi_max": abs(c),
             "gamma1": np.sqrt(2.0 * a) * abs(c) * np.exp(-0.5),
             "gamma2": 6.0 * a * abs(c)}
    for quantity, cap in CAPS.items():
        assert cap(bounds) == pytest.approx(exact[quantity], rel=1e-9)


def test_bounds_require_positive_fields():
    with pytest.raises(ValueError):
        BasisBounds(phi_max=1.0, x_max=0.0, alpha_decay=1.0,
                    gamma1=1.0, gamma2=1.0)
