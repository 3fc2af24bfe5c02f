import hashlib
from collections import Counter
from dataclasses import fields, replace
from math import e, exp, fsum, pi, sqrt

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from cisim import quadrature
from cisim.driver import build_term_family, load_config
from cisim.errors import (DeltaTooLarge, DeltaTooSmall, IndexOutOfRange,
                          SpecMismatch)
from cisim.integrals import (eri_chemist, kinetic_gradient_form,
                             nuclear_attraction)
from cisim.orbitals import BasisBounds, derive_bounds
from cisim.quadrature import (GRID_CAP, ZETA_PRIME, RiemannTable,
                              delta_for_grid, k0_constant, k1_constant,
                              k2_constant, lambda_exact, plan_quadrature,
                              riemann_S0, riemann_S1, riemann_S2,
                              riemann_terms)

from conftest import so
from oracles import riemann_one_tuple

UNIT = BasisBounds(phi_max=1.0, x_max=1.0, alpha_decay=1.0,
                   gamma1=1.0, gamma2=1.0)


@pytest.fixture(scope="module")
def sbasis():
    basis = [so((0.0, 0.0, 0.0), 1.0),
             so((0.6, 0.0, 0.3), 1.5)]
    nuclei = [(1.0, (0.0, 0.0, 0.0)), (2.0, (0.6, 0.0, 0.3))]
    return basis, nuclei, derive_bounds(basis)


def test_constants():
    assert k0_constant(UNIT) == pytest.approx(26 + 8 * pi + 32 * sqrt(3))
    assert k1_constant(UNIT) == pytest.approx(24 * pi**2 + 1121 * (8 + sqrt(2)))
    assert k2_constant(UNIT) == pytest.approx(
        384 * pi + 2161 * pi**2 * (20 + sqrt(2)))
    assert ZETA_PRIME == pytest.approx(2 * sqrt(3) + 3)


def test_plan_s0_worked_example():
    # delta at scale/e makes the grid formula collapse to ceil(e * 2^4)
    K0 = k0_constant(UNIT)
    spec = plan_quadrature("s0", 1, 1, K0 / e, UNIT,
                           [so((0, 0, 0), 1.0)])
    assert spec.grid_n == 44
    assert spec.mu == 44**3
    assert spec.x_trunc == pytest.approx(2.0)  # (2/alpha) x_max log(e)


def test_plan_delta_too_large():
    K0 = k0_constant(UNIT)
    with pytest.raises(DeltaTooLarge):
        plan_quadrature("s0", 1, 1, K0 * exp(-0.5) * 1.0001, UNIT,
                        [so((0, 0, 0), 1.0)])


def test_plan_delta_too_small():
    with pytest.raises(DeltaTooSmall):
        plan_quadrature("s0", 1, 1, 1e-12, UNIT,
                        [so((0, 0, 0), 1.0)])
    # u = scale / delta is a float here, but its grid count is not
    with pytest.raises(DeltaTooSmall, match="past a float"):
        plan_quadrature("s2", 1, 1, 1e-300, UNIT, [so((0, 0, 0), 1.0)],
                        k=1, l=1)
    # as is the grid the doubling bracket reaches for this request
    with pytest.raises(DeltaTooSmall, match="past a float"):
        delta_for_grid("s0", 10**400, UNIT)


def test_s1_branch_threshold(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s1", 16, bounds)
    probe = plan_quadrature("s1", 1, 1, delta, bounds, basis,
                            [(1.0, (0, 0, 50.0))], q=0)
    x1 = probe.x_trunc
    d_star = sqrt(3.0) * x1 + bounds.x_max
    # exactly at the threshold distance: cartesian (non-singular) branch
    at = plan_quadrature("s1", 1, 1, delta, bounds, basis,
                         [(1.0, (0, 0, d_star))], q=0)
    assert at.coordinate_system == "cartesian"
    inside = plan_quadrature("s1", 1, 1, delta, bounds, basis,
                             [(1.0, (0, 0, d_star - 1e-9))], q=0)
    assert inside.coordinate_system == "spherical_polar"


def test_s0_within_delta_and_term_bound(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s0", 32, bounds)
    for i, j in [(1, 1), (1, 2)]:
        spec = plan_quadrature("s0", i, j, delta, bounds, basis)
        assert spec.grid_n == 32
        rs = riemann_S0(i, j, spec, basis)
        exact = kinetic_gradient_form(basis[i - 1], basis[j - 1])
        assert abs(rs.total - exact) <= delta
        assert rs.max_term() <= rs.bound * (1 + 1e-12)


def test_s0_separated_orbitals_below_delta():
    basis = [so((0.0, 0.0, 0.0), 1.0)]
    bounds = derive_bounds(basis)
    far = so((40.0 * bounds.x_max, 0.0, 0.0), 1.0)
    basis2 = [basis[0], far]
    bounds2 = derive_bounds(basis2)
    delta = delta_for_grid("s0", 16, bounds2)
    spec = plan_quadrature("s0", 1, 2, delta, bounds2, basis2)
    rs = riemann_S0(1, 2, spec, basis2)
    assert abs(rs.total) <= delta


def test_s1_zero_charge(sbasis):
    basis, _, bounds = sbasis
    nuclei = [(0.0, (0.2, 0.0, 0.0))]
    spec = plan_quadrature("s1", 1, 1, 1e-3, bounds, basis, nuclei, q=0)
    rs = riemann_S1(1, 1, 0, spec, basis, nuclei)
    assert np.all(rs.values == 0)


def test_spin_forbidden_sums_evaluate_no_orbital(monkeypatch):
    # opposite spins on an electron: mu zeros at the plan's term bound, and
    # neither a value nor a gradient is evaluated on any grid
    basis = [so((0.0, 0.0, 0.0), 1.0, "up"), so((0.6, 0.0, 0.3), 1.5, "down")]
    nuclei = [(1.0, (0.0, 0.0, 0.0))]
    bounds = derive_bounds(basis)
    calls = Counter()
    for name in ("eval_value", "eval_gradient"):
        def counted(*args, _name=name, _fn=getattr(quadrature, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quadrature, name, counted)

    def plan(kind, i, j, k=None, l=None, q=None):
        zq = {"zq": nuclei[q][0]} if kind == "s1" else {}
        return plan_quadrature(kind, i, j, delta_for_grid(kind, 4, bounds, **zq),
                               bounds, basis, nuclei, k=k, l=l, q=q)

    s0, s1 = plan("s0", 1, 2), plan("s1", 2, 1, q=0)
    cases = [(riemann_S0(1, 2, s0, basis), s0),
             (riemann_S1(2, 1, 0, s1, basis, nuclei), s1)]
    for k, l in ((2, 1), (1, 1), (2, 2)):
        spec = plan("s2", 1, 2, k, l)
        cases.append((riemann_S2(1, 2, k, l, spec, basis), spec))
    for rs, spec in cases:
        assert rs.values.shape == (spec.mu,) and not np.any(rs.values)
        assert rs.bound == spec.term_bound
    assert calls == Counter()
    # the spin-allowed sums on the same basis do evaluate
    assert np.any(riemann_S2(1, 2, 1, 2, plan("s2", 1, 2, 1, 2), basis).values)
    assert calls["eval_value"] > 0


def test_riemann_rejects_a_plan_of_another_kind_or_nucleus(sbasis):
    basis, nuclei, bounds = sbasis
    s0 = plan_quadrature("s0", 1, 2, delta_for_grid("s0", 4, bounds),
                         bounds, basis)
    s1 = plan_quadrature("s1", 1, 2,
                         delta_for_grid("s1", 4, bounds, zq=nuclei[0][0]),
                         bounds, basis, nuclei, q=0)
    with pytest.raises(SpecMismatch):
        riemann_S0(1, 2, s1, basis)
    with pytest.raises(SpecMismatch):
        riemann_S1(1, 2, 1, s1, basis, nuclei)  # planned for nucleus 0
    with pytest.raises(SpecMismatch):
        riemann_S2(1, 2, 1, 2, s0, basis)


@pytest.mark.parametrize("kind,indices,q", [
    ("s0", (0, 1), None), ("s0", (1, 3), None), ("s1", (-1, 1), 0),
    ("s2", (1, 2, 0, 1), None), ("s2", (1, 2, 1, 3), None),
    ("s1", (1, 2), -1), ("s1", (1, 2), 2), ("s1", (1, 2), None)])
def test_plan_rejects_an_index_outside_the_basis_or_nuclei(kind, indices, q,
                                                          sbasis):
    # 1-based orbitals and 0-based nuclei: a negative index is not
    # Python's count from the end
    basis, nuclei, bounds = sbasis
    i, j, *kl = indices
    with pytest.raises(IndexOutOfRange):
        plan_quadrature(kind, i, j, delta_for_grid(kind, 4, bounds), bounds,
                        basis, nuclei, *kl, q=q)


def test_s1_singular_branch_within_delta(sbasis):
    basis, nuclei, bounds = sbasis
    delta = delta_for_grid("s1", 32, bounds, zq=nuclei[0][0])
    spec = plan_quadrature("s1", 1, 1, delta, bounds, basis, nuclei, q=0)
    assert spec.coordinate_system == "spherical_polar"
    rs = riemann_S1(1, 1, 0, spec, basis, nuclei)
    exact = nuclear_attraction(basis[0], basis[0], nuclei[0][0], nuclei[0][1])
    assert abs(rs.total - exact) <= delta
    assert rs.max_term() <= rs.bound * (1 + 1e-12)


def test_s2_nearby_branch_within_delta(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s2", 8, bounds)
    spec = plan_quadrature("s2", 1, 1, delta, bounds, basis, k=1, l=1)
    assert spec.grid_n <= 8
    assert spec.coordinate_system == "spherical_polar"
    rs = riemann_S2(1, 1, 1, 1, spec, basis)
    exact = eri_chemist(basis[0], basis[0], basis[0], basis[0])
    assert abs(rs.total - exact) <= delta
    assert rs.max_term() <= rs.bound * (1 + 1e-12)


def test_s2_distant_branch_terms_finite():
    basis = [so((0.0, 0.0, 0.0), 1.0)]
    bounds1 = derive_bounds(basis)
    far = so((100.0 * bounds1.x_max, 0.0, 0.0), 1.0)
    basis2 = [basis[0], far]
    bounds = derive_bounds(basis2)
    delta = delta_for_grid("s2", 4, bounds)
    spec = plan_quadrature("s2", 1, 2, delta, bounds, basis2, k=1, l=2)
    assert spec.coordinate_system == "cartesian"
    rs = riemann_S2(1, 2, 1, 2, spec, basis2)
    assert np.all(np.isfinite(rs.values))
    assert rs.max_term() <= rs.bound * (1 + 1e-12)


def test_hermitize(sbasis):
    # with no nuclei an eta = 1 family holds kinetic terms only; each row
    # of a label pairs (side 0, alpha) with (side 1, beta), xi = 2
    basis, _, bounds = sbasis
    delta = delta_for_grid("s0", 16, bounds)
    source = RiemannTable(basis, (), dict.fromkeys(("s0", "s1", "s2"), delta))
    fam = build_term_family(source, 1, zeta=0.01)
    row = {(x, int(p[x])): fam.values[g][x]
           for g, p in enumerate(fam.perms) for x in range(2)}
    h_ij, h_ji, h_ii = row[0, 3], row[1, 2], row[0, 2]
    spec = plan_quadrature("s0", 1, 2, delta, bounds, basis)
    ij = riemann_S0(1, 2, spec, basis)
    ji = riemann_S0(2, 1, spec, basis)
    assert np.array_equal(h_ij, 0.5 * (ij.values + np.conj(ji.values)))
    assert np.allclose(h_ij, np.conj(h_ji))
    # i = j collapses to the real part
    assert np.allclose(h_ii.imag, 0.0)
    exact = kinetic_gradient_form(basis[0], basis[1])
    assert abs(complex(fsum(h_ij.real), fsum(h_ij.imag)) - exact) <= delta


def test_monotone_convergence_trend(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s0", 8, bounds)
    spec = plan_quadrature("s0", 1, 2, delta, bounds, basis)
    fine = replace(spec, grid_n=2 * spec.grid_n, mu=(2 * spec.grid_n) ** 3)
    exact = kinetic_gradient_form(basis[0], basis[1])
    err_coarse = abs(riemann_S0(1, 2, spec, basis).total - exact)
    err_fine = abs(riemann_S0(1, 2, fine, basis).total - exact)
    assert err_fine <= 1.1 * err_coarse


def test_branch_consistency_near_threshold(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s1", 24, bounds)
    probe = plan_quadrature("s1", 1, 1, delta, bounds, basis,
                            [(1.0, (0, 0, 1.0))], q=0)
    d_star = sqrt(3.0) * probe.x_trunc + bounds.x_max
    nuclei = [(1.0, (0.0, 0.0, d_star))]
    spec = plan_quadrature("s1", 1, 1, delta, bounds, basis, nuclei, q=0)
    exact = nuclear_attraction(basis[0], basis[0], 1.0, nuclei[0][1])
    for branch in ("cartesian", "spherical_polar"):
        rs = riemann_S1(1, 1, 0, replace(spec, coordinate_system=branch),
                        basis, nuclei)
        assert abs(rs.total - exact) <= delta


def test_s2_branch_consistency(sbasis):
    basis, _, bounds = sbasis
    delta = delta_for_grid("s2", 6, bounds)
    spec = plan_quadrature("s2", 1, 2, delta, bounds, basis, k=1, l=2)
    exact = eri_chemist(basis[0], basis[0], basis[1], basis[1])
    for branch in ("cartesian", "spherical_polar"):
        rs = riemann_S2(1, 2, 1, 2, replace(spec, coordinate_system=branch),
                        basis)
        assert abs(rs.total - exact) <= delta


@pytest.fixture(scope="module")
def pinned_problems():
    """(basis, nuclei, bounds) of configs/h2.json and of a p/d basis.

    The bounds are fixed literals, the values an earlier bound search
    gave, so the pins judge the quadrature formulas and not the search.
    A plan keeps the grid and not the bounds it was planned from, so they
    enter the digests only through the plans' and deltas' floats.
    """
    h2 = load_config("configs/h2.json")
    # the far orbital and nucleus put the Coulomb kinds on their
    # cartesian branch; the chargeless nucleus gets the trivial plan
    pd = [so((0.0, 0.0, 0.0), 1.2, powers=(1, 0, 0)),
          so((0.4, 0.0, 0.3), 0.9, powers=(0, 0, 2)),
          so((0.0, 0.0, 200.0), 1.0)]
    pd_nuclei = [(1.0, (0.0, 0.0, 0.0)), (2.0, (0.4, 0.0, 0.3)),
                 (1.0, (0.0, 0.0, -200.0)), (0.0, (1.0, 1.0, 1.0))]
    h2_bounds = BasisBounds(
        np.float64(0.7127054703549901), 1.0182337649086284, 1.0,
        np.float64(0.8734041499861922), np.float64(6.220799999999999))
    pd_bounds = BasisBounds(
        np.float64(0.7127054703549902), 2.2308384074154715, 1.0,
        np.float64(5.603697282015729), np.float64(49.1054018370445))
    return {"h2": (h2.orbitals, h2.nuclei, h2_bounds),
            "pd": (pd, pd_nuclei, pd_bounds)}


def _pinned_plans(basis, nuclei, bounds):
    for n in (4, 8):
        for i, j in ((1, 1), (1, 2)):
            yield plan_quadrature("s0", i, j, delta_for_grid("s0", n, bounds),
                                  bounds, basis)
            for q, (zq, _) in enumerate(nuclei):
                yield plan_quadrature(
                    "s1", i, j, delta_for_grid("s1", n, bounds, zq=zq),
                    bounds, basis, nuclei, q=q)
    for n in (3, 4):
        for i, j, k, l in ((1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, 1)):
            yield plan_quadrature("s2", i, j, delta_for_grid("s2", n, bounds),
                                  bounds, basis, k=k, l=l)


def _pinned_deltas(nuclei, bounds):
    for kind in ("s0", "s1", "s2"):
        charges = sorted({z for z, _ in nuclei}) if kind == "s1" else [1.0]
        for zq in charges:
            for n in range(1, 65):
                try:
                    delta = delta_for_grid(kind, n, bounds, zq=zq)
                except DeltaTooLarge:
                    continue
                yield f"{kind} {zq!r} {n} {delta!r}"


@pytest.mark.parametrize("name", ["h2", "pd"])
def test_delta_for_grid_plans_fit_the_grid(name, pinned_problems):
    # the delta returned for grid_n must plan at most grid_n per axis,
    # though scale / (scale / u) may round above u
    basis, nuclei, bounds = pinned_problems[name]
    for kind in ("s0", "s1", "s2"):
        for q in range(len(nuclei)) if kind == "s1" else [None]:
            zq = nuclei[q][0] if kind == "s1" else 1.0
            # the cap 256 is past the first grid the bracket tries, so its
            # doubling loop runs
            for n in [*range(1, 65), GRID_CAP]:
                try:
                    delta = delta_for_grid(kind, n, bounds, zq=zq)
                except DeltaTooLarge:
                    continue
                spec = plan_quadrature(kind, 1, 1, delta, bounds, basis,
                                       nuclei, k=1, l=1, q=q)
                assert spec.grid_n <= n, (kind, zq, n)


# sha256 digests of (plans, deltas); the plan digests hash the fields a
# plan keeps (kind, x_trunc, grid_n, mu, coordinate_system, term_bound,
# q), with the values of the formulas from before the per-kind rule
# table; the delta digests date from delta_for_grid's fix for the round
# trip that overshot the grid in 15 of these cases
QUADRATURE_PINS = {
    "h2": ("ea627604d8823ed8a00b2e3353b0af79cc1d0efa4a1e0a95622224531ace9687",
           "7d5daed8f0e9c85bf4d185f7c37dfe00bbf397305eb92fbbff1905c72a0c3ac2"),
    "pd": ("397d3152fadd8d8af2e9c175a6e60d674030ed752370eca4e5ca7d71ee578b63",
           "69d48eaac4bad0985a2b6acf34dc18737ecf769293c419c5c5f76ba9c1cdf32d"),
}


@pytest.mark.parametrize("name", sorted(QUADRATURE_PINS))
def test_quadrature_is_pinned(name, pinned_problems):
    # the approx checks above cannot see a reordered formula; every plan
    # field and every grid-derived delta must keep its exact float
    basis, nuclei, bounds = pinned_problems[name]
    plans = "\n".join(
        repr(tuple(getattr(spec, f.name) for f in fields(spec)))
        for spec in _pinned_plans(basis, nuclei, bounds))
    deltas = "\n".join(_pinned_deltas(nuclei, bounds))
    assert (hashlib.sha256(plans.encode()).hexdigest(),
            hashlib.sha256(deltas.encode()).hexdigest()) \
        == QUADRATURE_PINS[name]


@pytest.mark.parametrize("name", ["h2", "pd"])
def test_kernels_keep_each_formula_bit_for_bit(name, pinned_problems):
    # a kernel forms every tuple on a grid at once by broadcasting; each
    # term must still be the one-tuple formula's float, products in the
    # same order, on every branch: pd's far orbital 3 and nucleus 3 put
    # s1 and s2 on their cartesian branch, the near tuples spherical
    basis, nuclei, bounds = pinned_problems[name]
    h1_tuples, g_tuples = ((1, 1), (1, 3), (3, 1)), \
        ((1, 1, 1, 1), (1, 3, 3, 1), (1, 3, 1, 3), (3, 1, 1, 3))
    cases = [("s0", ix, None) for ix in h1_tuples] + [
        ("s1", ix, q) for q, (z, _) in enumerate(nuclei) if z
        for ix in h1_tuples] + [("s2", ix, None) for ix in g_tuples]
    branches = set()
    for kind, ix, q in cases:
        zq = {"zq": nuclei[q][0]} if kind == "s1" else {}
        delta = delta_for_grid(kind, 3 if kind == "s2" else 4, bounds, **zq)
        spec = plan_quadrature(kind, *ix[:2], delta, bounds, basis, nuclei,
                               *ix[2:], q=q)
        branches.add((kind, spec.coordinate_system))
        # orbitals 1 and 3 are spin up in both bases, so no term is zeroed
        assert np.array_equal(
            riemann_terms(kind, ix, delta, bounds, basis, nuclei, q).values,
            riemann_one_tuple(spec, basis, nuclei, *ix))
    if name == "pd":
        assert len(branches) == 5


# ---------------------------------------------------------------------------
# the truncated screened-Coulomb integral


def test_lambda_exact_worked_example():
    exact, bound = lambda_exact(2.0, 1.0, 0.5)
    assert exact == pytest.approx(3.0 * pi * exp(-2.0), rel=1e-12)
    assert bound == pytest.approx(2.0 * pi * exp(-1.0), rel=1e-12)
    assert exact <= bound


def test_lambda_exact_rejects_a_nonpositive_decay_or_radius():
    for mu, x in ((-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            lambda_exact(mu, x, 0.0)


def test_lambda_small_x_limit():
    mu = 1.7
    exact, _ = lambda_exact(mu, 1e-9, 0.0)
    assert exact == pytest.approx(4.0 * pi / mu**2, rel=1e-6)


def test_lambda_exact_below_bound_everywhere():
    for mu in (0.5, 1.0, 3.0):
        for x in (0.2, 1.0, 4.0):
            for c in (0.0, 0.5 * x, x, 1.5 * x, 10.0 * x):
                exact, bound = lambda_exact(mu, x, c)
                assert 0.0 <= exact <= bound


def mc_lambda(mu, x, c, n, rng):
    """Importance-sampled Monte Carlo estimate of the defining integral."""
    dist = gamma_dist(a=3, scale=1.0 / mu)
    u = rng.uniform(dist.cdf(x), 1.0, size=n)
    r = dist.ppf(u)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = r[:, None] * dirs
    Z = 4.0 * pi * (x**2 / mu + 2 * x / mu**2 + 2 / mu**3) * exp(-mu * x)
    w = Z / np.linalg.norm(pts - np.array([0.0, 0.0, c]), axis=1)
    return w.mean(), w.std(ddof=1) / sqrt(n)


def test_lambda_monte_carlo_oracle():
    rng = np.random.default_rng(101)
    for _ in range(5):
        mu = float(rng.uniform(0.5, 3.0))
        x = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.0, 3.0 * x))
        exact, _ = lambda_exact(mu, x, c)
        est, sigma = mc_lambda(mu, x, c, 1_000_000, rng)
        assert abs(est - exact) <= 3.0 * sigma
