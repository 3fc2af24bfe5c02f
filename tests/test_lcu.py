from math import factorial, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cisim.coloring import DIAGONAL_COLOR, LEFT, apply_color
from cisim.determinants import Determinant, enumerate_basis
from cisim.errors import BudgetInfeasible
from cisim.lcu import (RegisterSim, SegmentPlan, TermFamily, evolve,
                       hermitian_norm, oaa_block, plan_segments, prepare_b,
                       segment_count, taylor_block)

from oracles import (apply_term, encode_det, flat_ell, padded_family, q_col,
                     q_col_xor, q_val, select_h_with_scratch)

LN2 = log(2.0)


def _random_involution(rng, dim):
    idx = list(range(dim))
    rng.shuffle(idx)
    perm = np.arange(dim)
    for a, b in zip(idx[0::2], idx[1::2]):
        perm[a], perm[b] = b, a
    return perm


def _sym_values(rng, perm, mu, pool):
    dim = len(perm)
    vals = np.zeros((dim, mu), dtype=complex)
    for r in range(mu):
        for x in range(dim):
            y = perm[x]
            if y >= x:
                v = pool[rng.integers(len(pool))]
                vals[x, r] = vals[y, r] = v
    return vals


def small_family(rng, dim=5, n_gamma=2, mu=2, zeta=0.25, cmax=1):
    """Family with M = cmax so L = 2 cmax n_gamma stays tiny."""
    pool = [2 * zeta * k for k in range(-cmax, cmax + 1)]
    perms, values = [], []
    for _ in range(n_gamma):
        perm = _random_involution(rng, dim)
        values.append(_sym_values(rng, perm, mu, pool))
        perms.append(perm)
    return TermFamily(perms, values, zeta)


def unequal_family(rng, dim=4, mu=2, zeta=0.25, cmaxes=(1, 2, 0)):
    """One label per entry of cmaxes, whose largest entry is 2 zeta cmax,
    so M_g = cmax; a label with cmax = 0 rounds to zero everywhere."""
    perms, values = [], []
    for cmax in cmaxes:
        perm = _random_involution(rng, dim)
        vals = _sym_values(rng, perm, mu,
                           [2 * zeta * k for k in range(-cmax, cmax + 1)])
        vals[0, 0] = vals[perm[0], 0] = 2 * zeta * cmax
        perms.append(perm)
        values.append(vals)
    return TermFamily(perms, values, zeta)


def generic_family(rng, dim=8, n_gamma=3, mu=2, zeta=0.05):
    perms, values = [], []
    for _ in range(n_gamma):
        perm = _random_involution(rng, dim)
        dimv = np.zeros((dim, mu), dtype=complex)
        for r in range(mu):
            for x in range(dim):
                y = perm[x]
                if y >= x:
                    dimv[x, r] = dimv[y, r] = rng.normal(scale=0.4)
        perms.append(perm)
        values.append(dimv)
    return TermFamily(perms, values, zeta)


# ---------------------------------------------------------------------------
# gate-level oracle model


def test_q_col_diagonal():
    node = Determinant((1, 3), 4)
    assert q_col(DIAGONAL_COLOR, node) == node


def test_q_col_matches_apply_color():
    rng = np.random.default_rng(5)
    dets = enumerate_basis(6, 3)
    from cisim.coloring import double_colors
    colors = double_colors(6, 3)
    for _ in range(10_000):
        c = colors[rng.integers(len(colors))]
        node = dets[rng.integers(len(dets))]
        expected = apply_color(c, node, LEFT)
        got = q_col(c, node, LEFT)
        if expected is None:
            assert got == node
        else:
            assert got == expected


def test_q_col_xor_restores_scratch():
    rng = np.random.default_rng(6)
    dets = enumerate_basis(6, 2)
    from cisim.coloring import single_colors
    for c in single_colors(6, 2)[:50]:
        node = dets[rng.integers(len(dets))]
        s1 = q_col_xor(c, node, 0)
        assert s1 == encode_det(q_col(c, node))
        # applying the same oracle again XORs the same code: scratch |0>
        assert q_col_xor(c, node, s1) == 0


def test_q_val_matches_family_terms():
    rng = np.random.default_rng(7)
    fam = generic_family(rng)
    for _ in range(10_000):
        ell = int(rng.integers(fam.L))
        rho = int(rng.integers(fam.mu))
        row = int(rng.integers(fam.dim))
        term = fam.term(ell, rho)
        col = int(term.perm[row])
        v = q_val(fam, ell, rho, row, col)
        assert v == term.vals[row]
        assert abs(v) == pytest.approx(1.0, abs=1e-12)
        # hermitian pairing
        assert q_val(fam, ell, rho, col, row) == pytest.approx(np.conj(v))
        other = (col + 1) % fam.dim
        if other != col:
            assert q_val(fam, ell, rho, row, other) == 0.0


def test_q_val_invalid_determinant_rule():
    rng = np.random.default_rng(8)
    fam = generic_family(rng, dim=4)
    # duplicate orbital makes the row list invalid: off-pattern entries zero
    assert q_val(fam, 0, 0, 0, 1, row_occ=(1, 1), col_occ=(1, 2), norb=4) == 0
    assert q_val(fam, 0, 0, 0, 1, row_occ=(2, 1), col_occ=(1, 2), norb=4) == 0


def test_select_h_matches_dense_and_is_involution():
    rng = np.random.default_rng(9)
    fam = generic_family(rng, dim=32, n_gamma=4, mu=2)
    for _ in range(100):
        ell = int(rng.integers(fam.L))
        rho = int(rng.integers(fam.mu))
        psi = rng.normal(size=fam.dim) + 1j * rng.normal(size=fam.dim)
        dense = fam.term(ell, rho).as_dense()
        out = apply_term(fam, ell, rho, psi)
        assert np.allclose(out, dense @ psi, atol=1e-12)
        assert np.allclose(apply_term(fam, ell, rho, out), psi, atol=1e-12)


def test_select_h_scratch_returns_to_zero():
    rng = np.random.default_rng(10)
    fam = generic_family(rng, dim=6)
    width = 8  # 3-bit codes
    codes = np.arange(fam.dim)
    joint = np.zeros((fam.dim, width), dtype=complex)
    psi = rng.normal(size=fam.dim) + 1j * rng.normal(size=fam.dim)
    joint[:, 0] = psi
    out = select_h_with_scratch(fam, 1, 0, joint, codes)
    assert np.linalg.norm(out[:, 1:]) < 1e-12
    assert np.allclose(out[:, 0], apply_term(fam, 1, 0, psi), atol=1e-12)


# ---------------------------------------------------------------------------
# state preparation and plans


def _plan(x, K, r=1, eps=0.1):
    lam = sum(x**k / factorial(k) for k in range(K + 1))
    return SegmentPlan(r=r, K=K, zeta=x / r if r else x, L=r, mu=1,
                       lam=lam, t=1.0, eps=eps)


def test_prepare_b_ln2_example():
    # unnormalized weights (1, ln 2, ln^2 2 / 2); lambda = 1.9333736...
    plan = SegmentPlan(r=1, K=2, zeta=LN2, L=1, mu=1,
                       lam=1.0 + LN2 + LN2**2 / 2, t=1.0, eps=0.1)
    amps = prepare_b(plan)
    w = np.array([1.0, LN2, LN2**2 / 2])
    assert plan.lam == pytest.approx(1.9333736875, abs=1e-9)
    assert np.allclose(amps, np.sqrt(w / w.sum()), atol=1e-12)


def test_prepare_b_t_zero():
    plan = SegmentPlan(r=1, K=3, zeta=0.0, L=1, mu=1, lam=1.0, t=0.0, eps=0.1)
    amps = prepare_b(plan)
    assert amps[0] == 1.0 and np.allclose(amps[1:], 0.0)


def test_plan_segments_single_segment():
    rng = np.random.default_rng(11)
    fam = generic_family(rng)
    t = LN2 / fam.meta.lambda_weight * (1 - 1e-9)
    plan = plan_segments(0.1, t, 1e-3, fam.meta)
    assert plan.r == 1
    assert plan.x == pytest.approx(LN2)


def test_plan_segments_truncation_order():
    # eps = 1e-3 and r = 10: smallest K with (ln 2)^{K+1}/(K+1)! <= eps/(2r)
    rng = np.random.default_rng(12)
    fam = generic_family(rng)
    t = 10.0 * LN2 / fam.meta.lambda_weight * (1 - 1e-9)
    eps = 1e-3
    plan = plan_segments(0.1, t, eps, fam.meta)
    assert plan.r == 10
    K = 1
    while LN2 ** (K + 1) / factorial(K + 1) > eps / (2 * plan.r):
        K += 1
    assert plan.K == K
    assert plan.taylor_tail <= eps / plan.r


def test_lambda_window_at_exact_segments():
    rng = np.random.default_rng(13)
    fam = generic_family(rng)
    for r in (1, 3, 17):
        t = r * LN2 / fam.meta.lambda_weight * (1 - 1e-12)
        plan = plan_segments(0.1, t, 1e-4, fam.meta)
        assert plan.r == r
        tail = plan.taylor_tail
        assert 2.0 - 2.0 * tail < plan.lam <= 2.0


def test_plan_segments_caps_the_segment_count():
    # r = ceil(lambda t / ln 2) grows with t; past the cap no plan is made
    from cisim import lcu
    fam = generic_family(np.random.default_rng(15))
    per_segment = LN2 / fam.meta.lambda_weight
    t = lcu.MAX_SEGMENTS * per_segment * (1 - 1e-9)
    assert plan_segments(0.1, t, 1e-3, fam.meta).r == lcu.MAX_SEGMENTS
    with pytest.raises(BudgetInfeasible):
        plan_segments(0.1, 2 * t, 1e-3, fam.meta)


def test_plan_segments_pads_each_segment_to_ln2():
    # r comes from the unpadded weight; the +-I pad then makes x = ln 2
    rng = np.random.default_rng(29)
    fam = generic_family(rng)
    weight = fam.meta.lambda_weight
    for t in (1e-3, 0.37, 1.0, 2.5, 17.0):
        plan = plan_segments(0.1, t, 1e-4, fam.meta)
        assert plan.r == segment_count(weight, t)
        assert plan.pad >= 0.0
        assert plan.x == pytest.approx(LN2, abs=1e-12)
        assert 2.0 - 2.0 * plan.taylor_tail < plan.lam <= 2.0


def test_term_family_rejects_labels_of_different_widths():
    # every label is mu wide; a narrower one is an error, not padded
    perm = np.array([1, 0])
    with pytest.raises(ValueError):
        TermFamily([perm, perm], [np.zeros((2, 1)), np.zeros((2, 2))],
                   zeta=0.25)


def test_term_family_rejects_paired_rows_that_are_not_conjugate():
    # a dense label stores one row per pair, so the partner row must hold
    # exactly the conjugate values it stands for
    perm = np.array([1, 0, 2])
    vals = np.array([[0.5j], [-0.5j], [0.3]])
    assert TermFamily([perm], [vals], zeta=0.25).M == 1
    for partner in (0.5j, -0.25j, -0.5j + 1e-16):
        bad = vals.copy()
        bad[1, 0] = partner
        with pytest.raises(ValueError, match="not conjugate"):
            TermFamily([perm], [bad], zeta=0.25)


@st.composite
def dense_families(draw):
    """(perms, values, zeta) of 1 to 5 dense labels on 2 to 12 states at 1
    to 4 grid points.  A label may be all zero, and a self-paired row may
    hold a nonzero real value, as a diagonal term does."""
    dim, mu = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms, values = [], []
    for _ in range(draw(st.integers(1, 5))):
        perm = _random_involution(rng, dim)
        # unpair some rows, so that self-paired rows are common
        for x in range(dim):
            if perm[x] != x and rng.uniform() < 0.3:
                perm[perm[x]], perm[x] = perm[x], x
        vals = np.zeros((dim, mu), dtype=complex)
        if rng.uniform() < 0.8:
            for x in range(dim):
                y = perm[x]
                if y > x:
                    v = [1, 1j] @ rng.normal(scale=0.6, size=(2, mu))
                    vals[x], vals[y] = v, np.conj(v)
                elif y == x and rng.uniform() < 0.5:
                    vals[x] = rng.normal(scale=0.6, size=mu)
        perms.append(perm)
        values.append(vals)
    return perms, values, draw(st.sampled_from([0.05, 0.25, 1.0]))


@settings(max_examples=200)
@given(dense_families())
def test_edge_table_family_equals_the_padded_layout(family):
    # every quantity the family exposes is that of the padded per-label
    # layout, for all-zero labels and nonzero self-paired rows as well
    perms, values, zeta = family
    fam = TermFamily(perms, values, zeta)
    want = padded_family(perms, values, zeta)
    assert list(fam.M_g) == want["M_g"] and fam.L == want["L"]
    assert np.array_equal(fam.rounded_dense(), want["rounded"])
    assert np.array_equal(fam.unrounded_dense(), want["unrounded"])
    assert [fam.ell_parts(ell) for ell in range(fam.L)] == want["ell_parts"]
    for (ell, rho), (perm, vals) in want["terms"].items():
        got_perm, got_vals = fam.term_pattern(ell, rho)
        assert np.array_equal(got_perm, perm)
        assert np.array_equal(got_vals, vals)
    assert len(fam.perms) == len(perms)
    for g in range(len(perms)):
        assert np.array_equal(fam.perms[g], perms[g])
        assert np.array_equal(fam.values[g], values[g])


@pytest.mark.parametrize("rho", [-1, 2])
def test_term_pattern_rejects_a_grid_point_out_of_range(rho):
    fam = small_family(np.random.default_rng(5), mu=2)
    assert fam.L > 0
    with pytest.raises(IndexError, match=rf"rho={rho} outside 0\.\.1"):
        fam.term_pattern(0, rho)
    with pytest.raises(IndexError, match=rf"rho={rho} outside 0\.\.1"):
        fam.term(0, rho)


def test_plan_segments_zero_weight_family_is_all_pad():
    # every entry rounds to zero: no term, L = 0, and the pad is the weight
    perm = np.array([1, 0, 2])
    fam = TermFamily([perm], [np.array([[0.1], [0.1], [-0.05]])], zeta=1.0)
    assert fam.L == 0 and fam.M == 0 and not fam.rounded_dense().any()
    plan = plan_segments(0.0, 2.0, 1e-3, fam.meta)
    assert plan.r == 1
    assert plan.pad == pytest.approx(LN2 / 2.0)
    assert plan.x == pytest.approx(LN2, abs=1e-12)
    psi = np.array([0.6, 0.0, 0.8j])
    out, info = evolve(fam, psi, 2.0, 1e-3)
    assert info.r == 1
    assert np.allclose(out, psi, atol=1e-12)


def test_plan_segments_bad_eps():
    rng = np.random.default_rng(14)
    fam = generic_family(rng)
    with pytest.raises(BudgetInfeasible):
        plan_segments(0.1, 1.0, 1.5, fam.meta)


def test_plan_segments_rejects_a_negative_time_and_a_norm_past_the_weight():
    fam = generic_family(np.random.default_rng(14))
    with pytest.raises(ValueError, match="negative time"):
        plan_segments(0.1, -1.0, 1e-3, fam.meta)
    # a family whose weight zeta L mu is below |H| cannot evolve H
    with pytest.raises(ValueError, match="cannot bound"):
        plan_segments(2.0 * fam.meta.lambda_weight, 1.0, 1e-3, fam.meta)


# ---------------------------------------------------------------------------
# block identities, amplification, evolution


def test_block_identity_dense():
    rng = np.random.default_rng(15)
    for K, dim, n_gamma in ((2, 10, 2), (3, 10, 2), (4, 6, 1)):
        fam = small_family(rng, dim=dim, n_gamma=n_gamma, mu=2, cmax=1)
        assert fam.L <= 8
        plan = SegmentPlan(r=1, K=K, zeta=fam.zeta, L=fam.L, mu=fam.mu,
                           lam=sum((fam.meta.lambda_weight * 0.3) ** k
                                   / factorial(k) for k in range(K + 1)),
                           t=0.3, eps=0.1)
        sim = RegisterSim(fam, plan)
        U = taylor_block(fam, plan)
        assert np.max(np.abs(sim.block_of_w() - U / plan.lam)) < 1e-10


def test_oaa_exact_at_lambda_two():
    rng = np.random.default_rng(16)
    fam = generic_family(rng, dim=6)
    plan = plan_segments(0.05, 0.2 / fam.meta.lambda_weight, 1e-2, fam.meta)
    U = taylor_block(fam, plan)
    uu, _, vt = np.linalg.svd(U)
    Q = uu @ vt
    assert np.max(np.abs(oaa_block(Q, 2.0) - Q)) < 1e-12


def test_register_path_matches_dense_with_unequal_slices_and_pad():
    # labels with M_g = 1, 2 and 0, and a plan whose pad pair is nonzero
    rng = np.random.default_rng(30)
    fam = unequal_family(rng)
    assert list(fam.M_g) == [1, 2, 0] and fam.L == 6
    plan = plan_segments(0.01, 0.4 / fam.meta.lambda_weight, 0.05, fam.meta)
    assert plan.r == 1 and plan.pad > 0 and plan.K <= 3
    sim = RegisterSim(fam, plan)
    assert sim.n_ell == fam.L + 2
    U = taylor_block(fam, plan)
    assert np.max(np.abs(sim.block_of_w() - U / plan.lam)) < 1e-10
    seg = oaa_block(U, plan.lam)
    for _ in range(3):
        psi = rng.normal(size=fam.dim) + 1j * rng.normal(size=fam.dim)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(sim.oaa_apply(psi) - seg @ psi)) < 1e-10


def test_register_path_agrees_with_dense_block():
    rng = np.random.default_rng(17)
    fam = small_family(rng, dim=4, n_gamma=2, mu=2, cmax=1)
    assert fam.L <= 8 and fam.mu <= 2
    t, eps = 0.4 / fam.meta.lambda_weight, 0.05
    plan = plan_segments(0.01, t, eps, fam.meta)
    assert plan.K <= 3
    sim = RegisterSim(fam, plan)
    U = taylor_block(fam, plan)
    seg = oaa_block(U, plan.lam)
    for _ in range(3):
        psi = rng.normal(size=fam.dim) + 1j * rng.normal(size=fam.dim)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(sim.oaa_apply(psi) - seg @ psi)) < 1e-10


def test_segment_error_against_dense_exponential():
    # pick t so the segment count divides exactly: the per-segment weight
    # is then ln 2 and lambda sits in its (2 - 2 tail, 2] window, which
    # is what makes the raw amplified segment track the exponential
    rng = np.random.default_rng(18)
    fam = generic_family(rng, dim=6)
    eps = 1e-5
    probe = plan_segments(0.1, 1.0, eps, fam.meta)
    t = probe.r * LN2 / fam.meta.lambda_weight * (1 - 1e-12)
    plan = plan_segments(0.1, t, eps, fam.meta)
    H = fam.rounded_dense()
    seg = oaa_block(taylor_block(fam, plan), plan.lam)
    ref = expm(-1j * H * t / plan.r)
    assert np.linalg.norm(seg - ref, 2) < 10 * eps / plan.r


def test_segment_error_renormalized_with_ceil_slack():
    # with a fractional segment count the amplified segment is the
    # exponential times a scalar slightly below one; renormalizing
    # recovers the exponential's action to O(eps / r)
    rng = np.random.default_rng(24)
    fam = generic_family(rng, dim=6)
    t, eps = 1.0, 1e-5
    plan = plan_segments(0.1, t, eps, fam.meta)
    H = fam.rounded_dense()
    seg = oaa_block(taylor_block(fam, plan), plan.lam)
    ref = expm(-1j * H * t / plan.r)
    for _ in range(3):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        out = seg @ psi
        out /= np.linalg.norm(out)
        assert np.linalg.norm(out - ref @ psi) < 20 * eps / plan.r


def test_eigenvector_block_action():
    rng = np.random.default_rng(19)
    fam = generic_family(rng, dim=6)
    plan = plan_segments(0.1, 0.7, 1e-6, fam.meta)
    H = fam.rounded_dense()
    evals, vecs = np.linalg.eigh(H)
    U = taylor_block(fam, plan)
    coef = -1j * plan.t / plan.r
    for idx in (0, 3):
        scalar = sum((coef * evals[idx]) ** k / factorial(k)
                     for k in range(plan.K + 1))
        assert np.allclose(U @ vecs[:, idx], scalar * vecs[:, idx],
                           atol=1e-10)


def test_large_k_block_approaches_exponential():
    rng = np.random.default_rng(20)
    fam = generic_family(rng, dim=6)
    plan = plan_segments(0.1, 0.5, 1e-9, fam.meta)
    H = fam.rounded_dense()
    U = taylor_block(fam, plan)
    assert np.linalg.norm(U - expm(-1j * H * plan.t / plan.r), 2) < 1e-9


def test_evolve_t_zero_and_floor():
    rng = np.random.default_rng(21)
    fam = generic_family(rng, dim=6)
    psi = rng.normal(size=6) + 0j
    psi /= np.linalg.norm(psi)
    out, info = evolve(fam, psi, 0.0, 1e-3)
    assert np.array_equal(out, psi) and info.r == 0
    with pytest.raises(BudgetInfeasible):
        evolve(fam, psi, 1.0, 1e-11)


def test_register_steps_preserve_norm():
    rng = np.random.default_rng(23)
    fam = small_family(rng, dim=4, n_gamma=2, mu=2, cmax=1)
    plan = plan_segments(0.01, 0.3 / fam.meta.lambda_weight, 0.05, fam.meta)
    sim = RegisterSim(fam, plan)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    state = sim.zero_state(psi)
    for step in (sim.apply_b, sim.apply_select_v, sim.reflect,
                 lambda s: sim.apply_w(s, dagger=True)):
        state = step(state)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_b_prepares_declared_state():
    # squared amplitude on unary value k, summed over the selection
    # registers, must equal w_k / lambda with w_k = x^k / k!
    rng = np.random.default_rng(25)
    fam = small_family(rng, dim=4, n_gamma=2, mu=2, cmax=1)
    plan = plan_segments(0.01, 0.3 / fam.meta.lambda_weight, 0.05, fam.meta)
    sim = RegisterSim(fam, plan)
    psi = np.zeros(4, complex)
    psi[0] = 1.0
    state = sim.apply_b(sim.zero_state(psi))
    w = np.array([plan.x**k / factorial(k) for k in range(plan.K + 1)])
    marg = np.sum(np.abs(state) ** 2,
                  axis=tuple(range(1, state.ndim)))
    assert np.allclose(marg, w / w.sum(), atol=1e-12)
    # each l register weighs a family term zeta mu and a pad term pad / 2,
    # and each rho register is uniform
    assert plan.pad > 0 and sim.n_ell == fam.L + 2
    ell_w = np.array([fam.zeta * fam.mu] * fam.L + [plan.pad / 2] * 2)
    block = np.abs(state[1]) ** 2
    for slot in range(plan.K):
        others = tuple(a for a in range(block.ndim) if a != slot)
        assert np.allclose(block.sum(axis=others) / block.sum(),
                           ell_w / ell_w.sum(), atol=1e-12)
        others = tuple(a for a in range(block.ndim) if a != plan.K + slot)
        assert np.allclose(block.sum(axis=others) / block.sum(),
                           1.0 / fam.mu, atol=1e-12)


def test_evolve_matches_exponential_and_conserves_energy():
    rng = np.random.default_rng(22)
    fam = generic_family(rng, dim=20, n_gamma=3)
    H = fam.rounded_dense()
    eps = 1e-5
    for _ in range(3):
        psi = rng.normal(size=20) + 1j * rng.normal(size=20)
        psi /= np.linalg.norm(psi)
        for t in (0.5, 1.0, 2.0):
            out, info = evolve(fam, psi, t, eps)
            ref = expm(-1j * H * t) @ psi
            assert np.linalg.norm(out - ref) <= eps
            e0 = np.vdot(psi, H @ psi).real
            e1 = np.vdot(out, H @ out).real
            assert abs(e1 - e0) <= eps * np.linalg.norm(H, 2)


def test_ell_packing_roundtrip():
    # label g owns 2 M_g consecutive l values; the zero label owns none
    rng = np.random.default_rng(26)
    fam = unequal_family(rng, dim=6, cmaxes=(2, 0, 3, 1))
    assert list(fam.M_g) == [2, 0, 3, 1]
    assert fam.M == 3 and fam.L == 2 * (2 + 0 + 3 + 1)
    seen = []
    for ell in range(fam.L):
        s, m, g = fam.ell_parts(ell)
        assert 1 <= s <= 2 and 1 <= m <= fam.M_g[g]
        assert flat_ell(fam, s, m, g) == ell
        seen.append(g)
    assert seen == [0] * 4 + [2] * 6 + [3] * 2
    for ell in (-1, fam.L):
        with pytest.raises(IndexError):
            fam.ell_parts(ell)


def test_unequal_slices_rebuild_the_rounded_hamiltonian():
    # every term keeps weight zeta, and dropping the slices past max C_g / 2
    # (and the zero label's) leaves the rounded sum unchanged
    rng = np.random.default_rng(27)
    fam = unequal_family(rng, dim=6, mu=3, cmaxes=(2, 0, 3, 1))
    recon = np.zeros((fam.dim, fam.dim), dtype=complex)
    rows = np.arange(fam.dim)
    for ell in range(fam.L):
        for rho in range(fam.mu):
            perm, vals = fam.term_pattern(ell, rho)
            recon[rows, perm] += fam.zeta * vals
    assert np.max(np.abs(recon - fam.rounded_dense())) < 1e-12
    assert fam.meta.lambda_weight == pytest.approx(fam.zeta * fam.L * fam.mu)


def test_hermitian_norm_matches_the_svd_norm():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5, 12, 40):
        for _ in range(5):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = A + A.conj().T
            assert abs(hermitian_norm(A) - np.linalg.norm(A, 2)) < 1e-12
    assert hermitian_norm(np.zeros((3, 3))) == 0.0
    assert hermitian_norm(-np.eye(4)) == 1.0


def test_select_h_diagonal_term_applies_phases_only():
    # a family whose pattern is the identity pairing: the select action
    # multiplies each basis amplitude by +-1 without moving weight
    rng = np.random.default_rng(28)
    perm = np.arange(5)
    vals = np.array([0.5, -0.5, 0.5, -0.5, 0.5])[:, None].astype(complex)
    fam = TermFamily([perm], [vals], zeta=0.25)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    out = apply_term(fam, 0, 0, psi)
    assert np.allclose(np.abs(out), np.abs(psi))
    assert np.allclose(np.abs(out / psi), 1.0)


def test_ancilla_count_reported():
    plan = SegmentPlan(r=1, K=3, zeta=0.1, L=8, mu=2, lam=2.0, t=1.0,
                       eps=0.1)
    # 3 unary qubits + 3 x (3 + 1) selection qubits
    assert plan.ancilla_qubits == 3 * (1 + 3 + 1)


def test_ancilla_count_includes_the_pad_terms():
    # L = 7 fits 3 bits; with the two pad terms the l register needs 4
    plan = SegmentPlan(r=1, K=3, zeta=0.1, L=7, mu=2, lam=2.0, t=1.0,
                       eps=0.1)
    padded = SegmentPlan(r=1, K=3, zeta=0.1, L=7, mu=2, lam=2.0, t=1.0,
                         eps=0.1, pad=0.3)
    assert plan.ancilla_qubits == 3 * (1 + 3 + 1)
    assert padded.ancilla_qubits == 3 * (1 + 4 + 1)
