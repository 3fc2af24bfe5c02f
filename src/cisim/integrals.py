"""Closed-form one- and two-electron integrals over Cartesian Gaussians.

This module is the high-accuracy reference the Riemann-sum layer is
judged against.  All integrals are evaluated by Hermite (McMurchie-
Davidson) expansion; Coulomb kernels go through the Boys function,
which is evaluated by a downward-recursed power series for arguments up
to 25 and by erf plus upward recursion beyond that.

``IntegralTable`` evaluates its tables on arrays.  It groups the
canonical spatial pairs by the Cartesian powers of their two functions
and expands each group into its primitive products, weighted by the
coefficient products.  A group's Hermite coefficients E, one recursion
step per array operation, give its overlap, kinetic and nuclear terms,
every nucleus on one array axis; each pair of groups gives its chemist
ERIs through the Hermite Coulomb tensor R over their primitive quartets.
``boys_array`` sums the Boys series as one cumulative product.  The
primitive values are summed back into pairs and quartets by
``np.bincount``.

The scalar ``overlap``, ``kinetic``, ``nuclear_attraction``,
``eri_chemist`` and ``boys`` evaluate one integral, or one argument, at a
time.  No other module calls them: they are the independent references
the tables are tested against.

Index conventions, used consistently everywhere downstream:

    h1(i, j)      = <i| -grad^2/2 - sum_q Z_q/|R_q - r| |j>
    g(i, j, k, l) = <ij|kl>
                  = int phi_i*(r1) phi_j*(r2) phi_k(r1) phi_l(r2)
                        / |r1 - r2| dr1 dr2

so g(i,j,k,l) carries i,k on electron 1 and j,l on electron 2, and the
symmetry g(i,j,k,l) = g(j,i,l,k) is electron-label relabelling.  Each
integral is computed once per spatial orbital and spread over the spin
orbitals by a delta on each electron (equal spin labels).
Orbital indices are 1-based, matching determinants.
"""

from __future__ import annotations

from itertools import product
from math import erf, exp, pi, sqrt

import numpy as np

from .errors import NumericOverflow
from .orbitals import SpinOrbital, d1_terms, d2_terms, spatial_orbitals
from .selfinverse import row_blocks

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


def boys_array(mmax: int, T) -> np.ndarray:
    """F_0(T) .. F_mmax(T) along a last axis, for an array of T.

    The branches of ``boys``: below BOYS_SWITCH, the series for F_mmax
    summed as one cumulative product over 2 max(T) + 40 terms, which
    outlasts the scalar loop's cut, then downward recursion; above it,
    erf (``math.erf`` element by element, as numpy has none) and upward
    recursion.
    """
    T = np.asarray(T, dtype=float)
    out = np.empty(T.shape + (mmax + 1,))
    small = T <= BOYS_SWITCH
    large = ~small
    t = T[small]
    if t.size:
        den = 2 * mmax + 2 * np.arange(1, int(2 * t.max()) + 41) + 1
        total = np.empty(t.size)
        for rows in row_blocks(t.size, den.size):
            terms = np.cumprod(2.0 * t[rows, None] / den, axis=1)
            total[rows] = (1.0 + terms.sum(axis=1)) / (2 * mmax + 1)
        eT = np.exp(-t)
        F = [eT * total]
        for m in range(mmax, 0, -1):
            F.append((2.0 * t * F[-1] + eT) / (2 * m - 1))
        out[small] = np.stack(F[::-1], axis=-1)
    t = T[large]
    if t.size:
        root = np.sqrt(t)
        F = [0.5 * np.sqrt(pi / t) * np.array([erf(x) for x in root.tolist()])]
        eT = np.exp(-t)
        for m in range(mmax):
            F.append(((2 * m + 1) * F[-1] - eT) / (2.0 * t))
        out[large] = np.stack(F, axis=-1)
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


def _outer_rows(start1, n1, start2, n2):
    """(k, r1, r2): for each k, every row start1[k] + u (u < n1[k]) with
    every row start2[k] + v (v < n2[k]), k ascending."""
    size = n1 * n2
    k = np.repeat(np.arange(size.size), size)
    local = np.arange(k.size) - (np.cumsum(size) - size)[k]
    return k, start1[k] + local // n2[k], start2[k] + local % n2[k]


def _hermite_table(imax, jmax, p, xpa, xpb, e00) -> np.ndarray:
    """McMurchie-Davidson E[..., i, j, t] for i <= imax and j <= jmax,
    one recursion step per array operation over every leading index:
    E^{i+1,j}_t = E^{ij}_{t-1} / 2p + X_PA E^{ij}_t + (t+1) E^{ij}_{t+1},
    and the same in j with X_PB, as ``_hermite_e`` recurses."""
    E = np.zeros(e00.shape + (imax + 1, jmax + 1, imax + jmax + 1))
    E[..., 0, 0, 0] = e00
    half = (0.5 / p)[..., None]
    up = np.arange(1, imax + jmax + 1)
    for i, j in product(range(imax + 1), range(jmax + 1)):
        if i or j:
            prev, shift = (E[..., i - 1, j, :], xpa) if i else \
                (E[..., i, j - 1, :], xpb)
            cur = E[..., i, j, :]
            cur[:] = shift[..., None] * prev
            cur[..., 1:] += half * prev[..., :-1]
            cur[..., :-1] += up * prev[..., 1:]
    return E


def _coulomb_r(tuv, p, PC) -> np.ndarray:
    """Hermite Coulomb R_{tuv}(p, PC) for t, u, v up to ``tuv`` over every
    leading index of p and PC (its last axis x, y, z): the recursion of
    ``_hermite_coulomb``, one (t, u, v) step over all orders n at once."""
    L = sum(tuv)
    F = boys_array(L, p * np.sum(PC * PC, axis=-1))
    R = np.zeros(F.shape + tuple(n + 1 for n in tuv))
    R[..., 0, 0, 0] = (-2.0 * p)[..., None] ** np.arange(L + 1) * F
    for step in product(*(range(n + 1) for n in tuv)):
        if not any(step):
            continue
        d = next(d for d in range(3) if step[d])
        one, two = (tuple(s - k * (e == d) for e, s in enumerate(step))
                    for k in (1, 2))
        n = L - sum(step) + 1
        val = PC[..., d, None] * R[(..., slice(1, n + 1), *one)]
        if step[d] > 1:
            val += (step[d] - 1) * R[(..., slice(1, n + 1), *two)]
        R[(..., slice(0, n), *step)] = val
    return R[..., 0, :, :, :]


class _PairGroup:
    """The canonical spatial pairs (a, b), a <= b, whose functions have
    the powers ``pa`` and ``pb``, expanded into primitive products, one
    row each and a pair's rows contiguous: exponent sum p, center P,
    weight ca cb, and per dimension d the Hermite coefficients
    E[d][row, t] of x_A^pa[d] x_B^pb[d]."""

    def __init__(self, a, b, pa, pb, prims):
        start, count, exps, coefs, centers = prims
        self.a, self.b, self.pa, self.pb = a, b, pa, pb
        self.size = count[a] * count[b]
        self.first = np.cumsum(self.size) - self.size
        self.pair, i, j = _outer_rows(start[a], count[a], start[b], count[b])
        alpha, self.beta = exps[i], exps[j]
        self.w = coefs[i] * coefs[j]
        A, B = centers[a][self.pair], centers[b][self.pair]
        self.p = alpha + self.beta
        self.P = (alpha[:, None] * A + self.beta[:, None] * B) \
            / self.p[:, None]
        mu = alpha * self.beta / self.p
        # j runs 2 past pb for the Laplacian of the ket
        self.table = _hermite_table(
            max(pa), max(pb) + 2, self.p[:, None], self.P - A, self.P - B,
            np.exp(-mu[:, None] * (A - B) ** 2))
        self.tuv = tuple(x + y for x, y in zip(pa, pb))
        self.E = [self.table[:, d, pa[d], pb[d], :n + 1]
                  for d, n in enumerate(self.tuv)]

    def one_electron(self, Z, C):
        """(overlap, kinetic + nuclear attraction) of each pair, the
        nuclei of charges Z at the rows of C on one axis."""
        e0 = [e[:, 0] for e in self.E]
        scale = (pi / self.p) ** 1.5
        lap = [sum(c * self.table[:, d, self.pa[d], n, 0]
                   for n, c in d2_terms(self.pb[d], self.beta))
               for d in range(3)]
        kin = -0.5 * scale * (lap[0] * e0[1] * e0[2] + e0[0] * lap[1] * e0[2]
                              + e0[0] * e0[1] * lap[2])
        R = _coulomb_r(self.tuv, self.p[:, None], self.P[:, None] - C)
        nuc = 2.0 * pi / self.p * np.einsum(
            "nt,nu,nv,nktuv,k->n", *self.E, R, -Z)
        return (self._sum(scale * e0[0] * e0[1] * e0[2]),
                self._sum(kin + nuc))

    def _sum(self, values) -> np.ndarray:
        return np.bincount(self.pair, weights=self.w * values,
                           minlength=self.a.size)


def _eri(bra: _PairGroup, ket: _PairGroup, r1, r2) -> np.ndarray:
    """Chemist (ab|cd) for each quartet k of bra's pair r1[k] (electron 1)
    and ket's pair r2[k] (electron 2): over its primitive quartets, R
    contracted with the bra's E and the ket's E of sign (-1)^t, each
    dimension's two convolved as R depends on t1 + t2 alone."""
    k, i, j = _outer_rows(bra.first[r1], bra.size[r1],
                          ket.first[r2], ket.size[r2])
    p, q = bra.p[i], ket.p[j]
    R = _coulomb_r(tuple(x + y for x, y in zip(bra.tuv, ket.tuv)),
                   p * q / (p + q), bra.P[i] - ket.P[j])
    conv = []
    for e1, e2 in zip(bra.E, ket.E):
        e1, e2 = e1[i], e2[j] * (-1.0) ** np.arange(e2.shape[1])
        out = np.zeros((k.size, e1.shape[1] + e2.shape[1] - 1))
        for t in range(e1.shape[1]):
            out[:, t:t + e2.shape[1]] += e1[:, t, None] * e2
        conv.append(out)
    values = 2.0 * pi ** 2.5 / (p * q * np.sqrt(p + q)) * bra.w[i] * ket.w[j] \
        * np.einsum("nt,nu,nv,ntuv->n", *conv, R)
    return np.bincount(k, weights=values, minlength=r1.size)


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
        # each function's primitives as rows start .. start + count - 1
        count = np.array([len(f.primitives) for f in functions])
        exps, coefs = np.array([x for f in functions for x in f.primitives]).T
        prims = (np.cumsum(count) - count, count, exps, coefs,
                 np.array([f.center for f in functions], dtype=float))
        powers = [tuple(f.powers) for f in functions]
        members: dict = {}
        for a in range(m):
            for b in range(a, m):
                members.setdefault((powers[a], powers[b]), []).append((a, b))
        groups = [_PairGroup(*np.array(ab).T, pa, pb, prims)
                  for (pa, pb), ab in members.items()]

        # a zero charge adds nothing, as in nuclear_attraction
        charged = [(Z, R) for Z, R in self.nuclei if Z != 0.0]
        Z = np.array([Z for Z, _ in charged])
        C = np.array([R for _, R in charged], dtype=float).reshape(-1, 3)
        s, h = np.zeros((m, m)), np.zeros((m, m))
        for g in groups:
            s[g.a, g.b], h[g.a, g.b] = s[g.b, g.a], h[g.b, g.a] = \
                g.one_electron(Z, C)
        # chemist (ab|cd) once per unordered pair of canonical pairs
        quartets, eri = [], []
        for x, bra in enumerate(groups):
            for ket in groups[x:]:
                r1, r2 = np.divmod(np.arange(bra.a.size * ket.a.size),
                                   ket.a.size)
                if ket is bra:
                    r1, r2 = r1[r1 <= r2], r2[r1 <= r2]
                quartets.append((bra.a[r1], bra.b[r1], ket.a[r2], ket.b[r2]))
                eri.append(_eri(bra, ket, r1, r2))
        eri = np.concatenate(eri)
        if not all(np.isfinite(x).all() for x in (s, h, eri)):
            raise NumericOverflow("an integral of the basis is past a float")
        a, b, c, d = np.concatenate(quartets, axis=1)
        chem = np.zeros((m, m, m, m))
        for w, x, y, z in ((a, b, c, d), (c, d, a, b)):
            chem[w, x, y, z] = chem[x, w, y, z] = chem[w, x, z, y] = \
                chem[x, w, z, y] = eri

        # <ij|kl> = (ik|jl), times the spin delta on each electron
        spin = np.array([phi.spin for phi in self.basis])
        same = spin[:, None] == spin
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
