"""Acceptance gate: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import time
from math import ceil, factorial, log

import numpy as np
import pytest

from cisim.cimatrix import (assemble_from_gammas, build_ci_matrix,
                            count_gamma, enumerate_gammas, sparsity_d)
from cisim.coloring import coloring_census
from cisim.determinants import enumerate_basis
from cisim.driver import (budget_errors, build_term_family, doubled,
                          embed_plus, exact_evolve, extract_plus)
from cisim.integrals import (IntegralTable, eri_chemist,
                             kinetic_gradient_form, nuclear_attraction)
from cisim.lcu import (RegisterSim, SegmentPlan, TermFamily, evolve,
                       oaa_block, plan_segments, taylor_block)
from cisim.orbitals import derive_bounds
from cisim.quadrature import (delta_for_grid, lambda_exact, plan_quadrature,
                              riemann_S0, riemann_S1, riemann_S2)

from conftest import brute_ci_entry, random_spinless_basis, so
from test_quadrature import mc_lambda

LN2 = log(2.0)


def _stamp(n, label, t0):
    print(f"\nACCEPTANCE {n} PASS: {label} ({time.perf_counter() - t0:.1f} s)")


def test_criterion_1_coloring_validity():
    """Every <=2-difference ordered pair gets exactly one color; maps invert."""
    t0 = time.perf_counter()
    cases = 0
    for norb in range(2, 9):
        for eta in range(1, min(4, norb) + 1):
            census = coloring_census(norb, eta)
            assert census.valid, (norb, eta, census)
            cases += 1
    _stamp(1, f"coloring validity/coverage/inverse, {cases} (N, eta) cases", t0)


def test_criterion_2_partition_identity():
    """Labelled one-sparse terms sum to the CI matrix entrywise to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    for norb in range(2, 7):
        basis = random_spinless_basis(rng, norb)
        table = IntegralTable(basis, [(1.0, (0.0, 0.0, 0.2)),
                                      (2.0, (0.5, 0.1, -0.3))])
        for eta in range(1, min(3, norb) + 1):
            H = build_ci_matrix(table, eta)
            Hg = assemble_from_gammas(table, eta)
            assert np.max(np.abs(H - Hg)) <= 1e-12, (norb, eta)
            checked += 1
            if norb <= 5:
                dets = enumerate_basis(norb, eta)
                for a in dets:
                    for b in dets:
                        assert abs(ci_entry_cached(a, b, table)
                                   - brute_ci_entry(a, b, table)) < 1e-10
    _stamp(2, f"partition identity over {checked} (N, eta) cases "
              "+ first-quantized cross-check", t0)


def ci_entry_cached(a, b, table):
    from cisim.cimatrix import ci_entry
    return ci_entry(a, b, table)


def test_criterion_3_sparsity_formula():
    """Row nonzeros bounded by d(N, eta) and the bound is attained."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    for norb in range(2, 9):
        basis = random_spinless_basis(rng, norb)
        table = IntegralTable(basis, [(1.0, (0.0, 0.0, 0.0))])
        for eta in range(1, min(4, norb) + 1):
            H = build_ci_matrix(table, eta)
            nz = np.sum(np.abs(H) > 1e-12, axis=1)
            d = sparsity_d(norb, eta)
            assert np.max(nz) <= d, (norb, eta)
            assert np.max(nz) == d, (norb, eta)
    _stamp(3, "sparsity bound tight for all N <= 8, eta <= 4", t0)


def test_criterion_4_grid_plan_compliance():
    """Riemann sums hit their closed-form targets within delta, with
    every term below the per-term magnitude bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    for trial in range(5):
        basis = [so(rng.normal(scale=0.5, size=3),
                    float(rng.uniform(0.7, 1.6))) for _ in range(2)]
        nuclei = [(float(rng.integers(1, 3)), tuple(rng.normal(scale=0.4,
                                                               size=3)))]
        bounds = derive_bounds(basis)

        d0 = delta_for_grid("s0", 24, bounds)
        spec = plan_quadrature("s0", 1, 2, d0, bounds, basis)
        assert spec.grid_n <= 64
        rs = riemann_S0(1, 2, spec, basis)
        exact = kinetic_gradient_form(basis[0], basis[1])
        assert abs(rs.total - exact) <= d0
        assert rs.max_term() <= rs.bound * (1 + 1e-12)

        zq = nuclei[0][0]
        d1 = delta_for_grid("s1", 24, bounds, zq=zq)
        spec = plan_quadrature("s1", 1, 2, d1, bounds, basis, nuclei, q=0)
        assert spec.grid_n <= 64
        rs = riemann_S1(1, 2, 0, spec, basis, nuclei)
        exact = nuclear_attraction(basis[0], basis[1], zq, nuclei[0][1])
        assert abs(rs.total - exact) <= d1
        assert rs.max_term() <= rs.bound * (1 + 1e-12)

        d2 = delta_for_grid("s2", 6, bounds)
        spec = plan_quadrature("s2", 1, 2, d2, bounds, basis, k=2, l=1)
        assert spec.grid_n <= 10
        rs = riemann_S2(1, 2, 2, 1, spec, basis)
        exact = eri_chemist(basis[0], basis[1], basis[1], basis[0])
        assert abs(rs.total - exact) <= d2
        assert rs.max_term() <= rs.bound * (1 + 1e-12)
    _stamp(4, "prescribed grids meet delta for 5 random bases, "
              "all three kinds, term bounds hold", t0)


def test_criterion_5_lambda_function():
    """Two-branch closed form vs Monte Carlo within 3 sigma; never
    exceeds its bound."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(45)
    for _ in range(5):
        mu = float(rng.uniform(0.5, 3.0))
        x = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.0, 3.0 * x))
        exact, bound = lambda_exact(mu, x, c)
        assert exact <= bound
        est, sigma = mc_lambda(mu, x, c, 1_000_000, rng)
        assert abs(est - exact) <= 3.0 * sigma
    for mu in (0.4, 1.0, 2.5):
        for x in (0.25, 1.0, 3.0):
            for c in np.linspace(0.0, 5.0 * x, 21):
                exact, bound = lambda_exact(mu, x, float(c))
                assert 0.0 <= exact <= bound
    _stamp(5, "screened-Coulomb closed form within 3 sigma of Monte Carlo "
              "and below its bounds", t0)


def test_criterion_6_self_inverse_terms(h2_table):
    """All emitted involutions check out densely; the weighted sum
    reconstructs the rounded Hamiltonian exactly."""
    t0 = time.perf_counter()
    zeta = 0.25
    fam = build_term_family(h2_table, 2, zeta)
    dim = fam.dim
    assert dim <= 256
    rows = np.arange(dim)
    rng = np.random.default_rng(46)
    n_terms = 0
    recon = np.zeros((dim, dim), dtype=complex)
    dense_budget = 500
    for ell in range(fam.L):
        for rho in range(fam.mu):
            term = fam.term(ell, rho)
            perm, vals = term.perm, term.vals
            # matrix identities, expressed on the compressed pattern
            assert np.array_equal(perm[perm], rows)          # 1-sparse pairs
            assert np.allclose(vals[perm], np.conj(vals))    # C = C^dagger
            assert np.allclose(vals * vals[perm], 1.0)       # C^2 = I
            assert np.allclose(np.abs(vals), 1.0)            # entries +-1
            recon[rows, perm] += zeta * vals
            n_terms += 1
            if dense_budget and rng.uniform() < 0.02:
                D = term.as_dense()
                assert np.allclose(D, D.conj().T)
                assert np.allclose(D @ D, np.eye(dim))
                assert np.max(np.sum(np.abs(D) > 0, axis=1)) == 1
                dense_budget -= 1
    assert np.max(np.abs(recon - fam.rounded_dense())) < 1e-12
    # each label's entries moved by at most zeta in the rounding
    for g in range(len(fam.perms)):
        rounded = zeta * fam._C[g] * fam._phase[g]
        assert np.max(np.abs(rounded - fam.values[g])) <= zeta + 1e-12
    # a CI entry collects at most eta (eta + 1) / 2 labels, so the
    # rounded Hamiltonian sits within that many zeta of the exact one
    H2 = doubled(build_ci_matrix(h2_table, 2))
    assert np.max(np.abs(fam.rounded_dense() - H2)) <= 3 * zeta
    _stamp(6, f"{n_terms} emitted terms all Hermitian +-1 involutions; "
              "zeta-weighted sum = rounded Hamiltonian; per-label "
              "rounding within zeta", t0)


def _synthetic_family(rng, dim, n_gamma, mu, zeta, cmax=1):
    pool = [2 * zeta * k for k in range(-cmax, cmax + 1)]
    perms, values = [], []
    for _ in range(n_gamma):
        idx = list(range(dim))
        rng.shuffle(idx)
        perm = np.arange(dim)
        for a, b in zip(idx[0::2], idx[1::2]):
            perm[a], perm[b] = b, a
        vals = np.zeros((dim, mu), dtype=complex)
        for r in range(mu):
            for x in range(dim):
                y = perm[x]
                if y >= x:
                    v = pool[rng.integers(len(pool))]
                    vals[x, r] = vals[y, r] = v
        perms.append(perm)
        values.append(vals)
    return TermFamily(perms, values, zeta)


def test_criterion_7_lcu_block_identities():
    """<0|W|0> = U~/lambda; OAA exact at lambda = 2; register path
    agrees with the dense block path."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)

    fam = _synthetic_family(rng, dim=20, n_gamma=1, mu=2, zeta=0.2)
    assert fam.L <= 8
    plan = SegmentPlan(r=1, K=4, zeta=fam.zeta, L=fam.L, mu=fam.mu,
                       lam=sum((fam.meta.lambda_weight * 0.25) ** k
                               / factorial(k) for k in range(5)),
                       t=0.25, eps=0.1)
    sim = RegisterSim(fam, plan)
    U = taylor_block(fam, plan)
    assert np.max(np.abs(sim.block_of_w() - U / plan.lam)) < 1e-10

    uu, _, vt = np.linalg.svd(U)
    Q = uu @ vt
    assert np.max(np.abs(oaa_block(Q, 2.0) - Q)) < 1e-12

    fam3 = _synthetic_family(rng, dim=6, n_gamma=2, mu=2, zeta=0.3)
    assert fam3.L <= 8 and fam3.mu <= 2
    t = 0.4 / fam3.meta.lambda_weight
    plan3 = plan_segments(0.01, t, 0.05, fam3.meta)
    assert plan3.K <= 3
    sim3 = RegisterSim(fam3, plan3)
    seg = oaa_block(taylor_block(fam3, plan3), plan3.lam)
    for _ in range(3):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(sim3.oaa_apply(psi) - seg @ psi)) < 1e-10
    _stamp(7, "block identity 1e-10, OAA exact at lambda=2, register path "
              "= dense path at K<=3, L<=8, mu<=2", t0)


def test_criterion_8_end_to_end_evolution(h2_table):
    """xi = 6 instance within 1e-3 of the eigendecomposition oracle for
    t in {0.5, 1, 2}, with r and K from the stated formulas."""
    t0 = time.perf_counter()
    eps = 1e-3
    norb, eta = 4, 2
    n_gamma = count_gamma(norb, eta)
    H = build_ci_matrix(h2_table, eta)
    psi0 = np.zeros(H.shape[0], dtype=complex)
    psi0[0] = 1.0
    for t in (0.5, 1.0, 2.0):
        _, zeta, eps_taylor = budget_errors(eps, t, n_gamma)
        fam = build_term_family(h2_table, eta, zeta)
        out, info = evolve(fam, embed_plus(psi0), t, eps_taylor)
        psi_final, _ = extract_plus(out)
        ref = exact_evolve(H, psi0, t)
        err = np.linalg.norm(psi_final - ref)
        assert err <= eps, (t, err)
        # r and K from the stated formulas
        r_formula = max(1, ceil(fam.meta.lambda_weight * t / LN2))
        assert info.r == r_formula
        K = 1
        while LN2 ** (K + 1) / factorial(K + 1) > eps_taylor / (2 * info.r):
            K += 1
        assert info.K == K
    _stamp(8, "end-to-end evolution within 1e-3 at t in {0.5, 1, 2}, "
              "r and K match the plan formulas", t0)


def test_criterion_9_scaling_census():
    """Gamma(N, eta=2) tracks c eta^2 N^2 with a stable constant."""
    t0 = time.perf_counter()
    eta = 2
    sizes = [6, 8, 10, 12]
    counts = [count_gamma(n, eta) for n in sizes]
    # spot-check the closed form against direct enumeration
    assert counts[0] == len(enumerate_gammas(6, eta))
    xs = np.array([eta**2 * n**2 for n in sizes], dtype=float)
    ys = np.array(counts, dtype=float)
    c_fit = float(np.sum(xs * ys) / np.sum(xs * xs))
    drift = np.max(np.abs(ys / xs - c_fit)) / c_fit
    assert drift < 0.15, (c_fit, ys / xs)
    _stamp(9, f"Gamma(N, 2) = c eta^2 N^2 with c = {c_fit:.1f}, "
              f"max drift {100 * drift:.1f}% < 15%", t0)
