"""Closed-form one- and two-electron integrals over Cartesian Gaussians.

This module is the high-accuracy reference the Riemann-sum layer is
judged against.  All integrals are evaluated by Hermite (McMurchie-
Davidson) expansion; Coulomb kernels go through the Boys function,
which is evaluated by a downward-recursed power series for arguments up
to 25 and by erf plus upward recursion beyond that.

Index conventions, used consistently everywhere downstream:

    h1(i, j)      = <i| -grad^2/2 - sum_q Z_q/|R_q - r| |j>
    g(i, j, k, l) = <ij|kl>
                  = int phi_i*(r1) phi_j*(r2) phi_k(r1) phi_l(r2)
                        / |r1 - r2| dr1 dr2

so g(i,j,k,l) carries i,k on electron 1 and j,l on electron 2, and the
symmetry g(i,j,k,l) = g(j,i,l,k) is electron-label relabelling.  Each
integral is computed once per spatial orbital and spread over the spin
orbitals by a delta on each electron (``orbitals.spins_match``).
Orbital indices are 1-based, matching determinants.
"""

from __future__ import annotations

from math import erf, exp, pi, sqrt

import numpy as np

from .errors import NumericOverflow
from .orbitals import (SpinOrbital, d1_terms, d2_terms, spatial_orbitals,
                       spins_match)

BOYS_SWITCH = 25.0


def boys(mmax: int, T: float) -> np.ndarray:
    """F_0(T) .. F_mmax(T) to ~1e-14 absolute accuracy.

    Small T: all-positive series for F_mmax, then stable downward
    recursion F_{m-1} = (2T F_m + e^-T) / (2m - 1).  Large T: exact
    F_0 = sqrt(pi/T) erf(sqrt(T)) / 2, then upward recursion
    F_{m+1} = ((2m+1) F_m - e^-T) / (2T), stable because T > m here.
    """
    out = np.empty(mmax + 1)
    if T <= BOYS_SWITCH:
        term = 1.0 / (2 * mmax + 1)
        total = term
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= 2.0 * T / (2 * mmax + 2 * k + 1)
            total += term
        eT = exp(-T)
        out[mmax] = eT * total
        for m in range(mmax, 0, -1):
            out[m - 1] = (2.0 * T * out[m] + eT) / (2 * m - 1)
    else:
        out[0] = 0.5 * sqrt(pi / T) * erf(sqrt(T))
        eT = exp(-T)
        for m in range(mmax):
            out[m + 1] = ((2 * m + 1) * out[m] - eT) / (2.0 * T)
    return out


def _hermite_e(i: int, j: int, a: float, b: float, ax: float, bx: float):
    """1D Hermite expansion coefficients E[t] for powers (i, j).

    x^i_A x^j_B exp(-a x_A^2) exp(-b x_B^2)
        = sum_t E[t] Lambda_t(x_P; p),   p = a + b.
    """
    p = a + b
    mu = a * b / p
    qx = ax - bx
    px = (a * ax + b * bx) / p
    table = {(0, 0): {0: exp(-mu * qx * qx)}}

    def get(ii, jj):
        if (ii, jj) in table:
            return table[(ii, jj)]
        if ii > 0:
            prev = get(ii - 1, jj)
            shift = px - ax
        else:
            prev = get(ii, jj - 1)
            shift = px - bx
        cur: dict[int, float] = {}
        for t, v in prev.items():
            cur[t + 1] = cur.get(t + 1, 0.0) + v / (2 * p)
            cur[t] = cur.get(t, 0.0) + v * shift
            if t >= 1:
                cur[t - 1] = cur.get(t - 1, 0.0) + v * t
        table[(ii, jj)] = cur
        return cur

    return get(i, j)


def _overlap_prim(a, powers_a, A, b, powers_b, B) -> float:
    p = a + b
    out = (pi / p) ** 1.5
    for d in range(3):
        e = _hermite_e(powers_a[d], powers_b[d], a, b, A[d], B[d])
        out *= e.get(0, 0.0)
    return out


def _contracted(fn, bra: SpinOrbital, ket: SpinOrbital) -> float:
    out = 0.0
    for a, ca in bra.primitives:
        for b, cb in ket.primitives:
            out += ca * cb * fn(a, b)
    return out


def overlap(bra: SpinOrbital, ket: SpinOrbital) -> float:
    """Spatial overlap <bra|ket> (no spin factor)."""
    return _contracted(
        lambda a, b: _overlap_prim(a, bra.powers, bra.center,
                                   b, ket.powers, ket.center),
        bra, ket)


def kinetic(bra: SpinOrbital, ket: SpinOrbital) -> float:
    """-1/2 <bra| grad^2 |ket> via the Laplacian expansion of the ket."""

    def prim(a, b):
        total = 0.0
        for d in range(3):
            for n, coef in d2_terms(ket.powers[d], b):
                powers = list(ket.powers)
                powers[d] = n
                total += coef * _overlap_prim(
                    a, bra.powers, bra.center, b, tuple(powers), ket.center)
        return -0.5 * total

    return _contracted(prim, bra, ket)


def kinetic_gradient_form(bra: SpinOrbital, ket: SpinOrbital) -> float:
    """1/2 int grad(bra) . grad(ket), the symmetric form of the kinetic term.

    Equals kinetic() analytically because Gaussians vanish at infinity;
    computed through an independent expansion (first derivatives on both
    sides instead of second derivatives on one).
    """

    def prim(a, b):
        total = 0.0
        for d in range(3):
            for na, ca in d1_terms(bra.powers[d], a):
                pa = list(bra.powers)
                pa[d] = na
                for nb, cb in d1_terms(ket.powers[d], b):
                    pb = list(ket.powers)
                    pb[d] = nb
                    total += ca * cb * _overlap_prim(
                        a, tuple(pa), bra.center, b, tuple(pb), ket.center)
        return 0.5 * total

    return _contracted(prim, bra, ket)


def _hermite_coulomb(tmax, umax, vmax, p, PC):
    """R^0_{tuv} tensor for the Hermite Coulomb recursion."""
    n_needed = tmax + umax + vmax
    T = p * float(np.dot(PC, PC))
    F = boys(n_needed, T)
    R = np.zeros((n_needed + 1, tmax + 1, umax + 1, vmax + 1))
    for n in range(n_needed + 1):
        R[n, 0, 0, 0] = (-2.0 * p) ** n * F[n]
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                if t == u == v == 0:
                    continue
                nmax = n_needed - (t + u + v)
                for n in range(nmax + 1):
                    if t > 0:
                        val = PC[0] * R[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * R[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = PC[1] * R[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * R[n + 1, t, u - 2, v]
                    else:
                        val = PC[2] * R[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * R[n + 1, t, u, v - 2]
                    R[n, t, u, v] = val
    return R[0]


def _coulomb_attraction_prim(a, powers_a, A, b, powers_b, B, C) -> float:
    """<a| 1/|r - C| |b> for primitives."""
    p = a + b
    P = (a * np.asarray(A) + b * np.asarray(B)) / p
    es = [_hermite_e(powers_a[d], powers_b[d], a, b, A[d], B[d])
          for d in range(3)]
    tmax = powers_a[0] + powers_b[0]
    umax = powers_a[1] + powers_b[1]
    vmax = powers_a[2] + powers_b[2]
    R = _hermite_coulomb(tmax, umax, vmax, p, P - np.asarray(C))
    total = 0.0
    for t, et in es[0].items():
        for u, eu in es[1].items():
            for v, ev in es[2].items():
                total += et * eu * ev * R[t, u, v]
    return 2.0 * pi / p * total


def nuclear_attraction(bra: SpinOrbital, ket: SpinOrbital, Z: float, R) -> float:
    """-Z <bra| 1/|R - r| |ket>; zero charge short-circuits to zero."""
    if Z == 0.0:
        return 0.0
    return -Z * _contracted(
        lambda a, b: _coulomb_attraction_prim(
            a, bra.powers, bra.center, b, ket.powers, ket.center, R),
        bra, ket)


def _eri_prim(a, pa, A, b, pb, B, c, pc, C, d, pd, D) -> float:
    """Chemist (ab|cd) over primitives: bra pair on electron 1."""
    p = a + b
    q = c + d
    P = (a * np.asarray(A) + b * np.asarray(B)) / p
    Q = (c * np.asarray(C) + d * np.asarray(D)) / q
    alpha = p * q / (p + q)
    e1 = [_hermite_e(pa[dim], pb[dim], a, b, A[dim], B[dim]) for dim in range(3)]
    e2 = [_hermite_e(pc[dim], pd[dim], c, d, C[dim], D[dim]) for dim in range(3)]
    tmax = pa[0] + pb[0] + pc[0] + pd[0]
    umax = pa[1] + pb[1] + pc[1] + pd[1]
    vmax = pa[2] + pb[2] + pc[2] + pd[2]
    R = _hermite_coulomb(tmax, umax, vmax, alpha, P - Q)
    total = 0.0
    for t1, a1 in e1[0].items():
        for u1, b1 in e1[1].items():
            for v1, c1 in e1[2].items():
                inner = 0.0
                for t2, a2 in e2[0].items():
                    for u2, b2 in e2[1].items():
                        for v2, c2 in e2[2].items():
                            sgn = -1.0 if (t2 + u2 + v2) % 2 else 1.0
                            inner += sgn * a2 * b2 * c2 * R[t1 + t2, u1 + u2, v1 + v2]
                total += a1 * b1 * c1 * inner
    return 2.0 * pi**2.5 / (p * q * sqrt(p + q)) * total


def eri_chemist(pa: SpinOrbital, pb: SpinOrbital,
                pc: SpinOrbital, pd: SpinOrbital) -> float:
    """Spatial (ab|cd): a,b on electron 1 and c,d on electron 2."""
    out = 0.0
    for a, ca in pa.primitives:
        for b, cb in pb.primitives:
            for c, cc in pc.primitives:
                for d, cd in pd.primitives:
                    out += ca * cb * cc * cd * _eri_prim(
                        a, pa.powers, pa.center, b, pb.powers, pb.center,
                        c, pc.powers, pc.center, d, pd.powers, pd.center)
    return out


class IntegralTable:
    """Dense one- and two-electron integral tables for a spin-orbital basis.

    h1 is Hermitian N x N; h2[i,j,k,l] = <ij|kl> satisfies
    h2[i,j,k,l] == h2[j,i,l,k].  Entries are complex to keep the matrix
    element algebra general, although Gaussian inputs are real.  Each ERI
    is computed once per spatial quartet up to the 8-fold symmetry of real
    functions.
    """

    @np.errstate(all="ignore")  # an integral past a float raises, below
    def __init__(self, basis, nuclei=()):
        self.basis = list(basis)
        self.nuclei = [(float(Z), tuple(R)) for Z, R in nuclei]
        self.n = len(self.basis)
        functions, index = spatial_orbitals(self.basis)
        m = len(functions)
        pairs = list(zip(*np.triu_indices(m)))
        s, h = np.zeros((m, m)), np.zeros((m, m))
        # chemist (ab|cd) once for a <= b, c <= d and (a, b) <= (c, d)
        quartets = [ab + cd for x, ab in enumerate(pairs) for cd in pairs[x:]]
        try:
            for a, b in pairs:
                fa, fb = functions[a], functions[b]
                s[a, b] = s[b, a] = overlap(fa, fb)
                h[a, b] = kinetic(fa, fb)
                for Z, R in self.nuclei:
                    h[a, b] += nuclear_attraction(fa, fb, Z, R)
                h[b, a] = h[a, b]
            eri = [eri_chemist(*(functions[x] for x in q)) for q in quartets]
            finite = all(np.isfinite(x).all() for x in (s, h, eri))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise NumericOverflow("an integral of the basis is past a float")
        a, b, c, d = np.array(quartets).T
        chem = np.zeros((m, m, m, m))
        for w, x, y, z in ((a, b, c, d), (c, d, a, b)):
            chem[w, x, y, z] = chem[x, w, y, z] = chem[w, x, z, y] = \
                chem[x, w, z, y] = eri

        # <ij|kl> = (ik|jl), times the spin delta on each electron
        same = np.array([[spins_match([bi], [bj]) for bj in self.basis]
                         for bi in self.basis])
        ix = np.ix_(index, index)
        self.overlap_mat = np.where(same, s[ix], 0.0)
        self.h1_mat = np.where(same, h[ix], 0.0).astype(complex)
        self.h2_mat = np.where(
            same[:, None, :, None] & same[None, :, None, :],
            chem[np.ix_(index, index, index, index)].transpose(0, 2, 1, 3),
            0.0).astype(complex)

    def h1(self, i: int, j: int) -> complex:
        return self.h1_mat[i - 1, j - 1]

    def g(self, i: int, j: int, k: int, l: int) -> complex:
        return self.h2_mat[i - 1, j - 1, k - 1, l - 1]

    def overlap_deviation(self) -> float:
        return float(np.max(np.abs(self.overlap_mat - np.eye(self.n))))
