"""Truncated-Taylor-series evolution over an equal-weight unitary sum.

The Hamiltonian enters as a family of Hermitian signed involutions,
H = zeta sum_{l=1..L} sum_{rho=1..mu} H_{l, rho} with l = (s, m, gamma),
held by :class:`TermFamily` as one label-sorted table of Hermitian
pairs.  It stores only labels that meet an edge, and label gamma contributes
2 M_gamma terms, so L = sum_gamma 2 M_gamma counts the terms that exist,
not the paper's 2 M Gamma.  The select oracle's action on the system is
``TermFamily.term_pattern``: row x of H_{l, rho} holds vals[x] at column
perm[x].  Evolution for time t is split into r = ceil(zeta L mu t / ln 2)
segments.  A cancelling pair of terms +I and -I, each of weight pad / 2,
tops the weight up to lambda' = zeta L mu + pad = r ln 2 / t, so each
segment has weight x = lambda' t / r = ln 2 exactly, the value at which
amplification is exact (Berry, Childs, Cleve, Kothari and Somma,
arXiv:1412.4687); the pad leaves H unchanged.  Each segment applies the
Taylor expansion of exp(-i H t / r) truncated at order K through the
walk operator

    W = (B^+ x 1) select(V) (B x 1),   <0|W|0> = U~ / lambda,

followed by one round of oblivious amplitude amplification
G = -W (1 - 2P) W^+ (1 - 2P) W, whose projected action is
(3/lambda) U~ - (4/lambda^3) U~ U~^+ U~ and reduces to U~ itself when
lambda = 2 and U~ is unitary.  With U~ = p(H~), p the order-K Taylor
polynomial, the amplified segment is one polynomial f of the rounded H~,
so ``evolve`` decomposes H~ once: its spectrum bounds |H~| for the plan,
f on it gives the segment's distance from exp(-i H~ t / r), the run's
Taylor entry, and each segment multiplies the state's coordinates in H~'s
eigenbasis by f.

Two references check that program path: a dense-block one that builds U~
and its amplified segment as matrices on the system alone, and a
register-level one that simulates the unary k register, the K (l, rho)
selection registers and the system explicitly.  They agree wherever both
run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import ceil, factorial, inf, log

import numpy as np

from .errors import BudgetInfeasible
from .selfinverse import (DecompositionMeta, SelfInverseTerm, row_blocks,
                          slice_values, split_arrays)

LN2 = log(2.0)
EPS_FLOOR = 1e-10  # smallest Taylor-truncation budget evolve accepts
MAX_SEGMENTS = 10**7  # largest segment count r a plan may ask for


@dataclass(frozen=True)
class EdgeRows:
    """The pattern of a family of ``n_labels`` labels on ``dim`` states, one
    row per Hermitian pair, sorted by label: label ``label[e]`` pairs row
    ``row[e]`` with column ``col[e]``, and col[e] with row[e].  Every other
    row of a label is self-paired with value zero."""

    label: np.ndarray
    row: np.ndarray
    col: np.ndarray
    n_labels: int
    dim: int


def _dense_rows(perms, values) -> tuple[EdgeRows, np.ndarray]:
    """(pattern, values) of per-label dense involutions (labels x dim) and
    their values (labels x dim x mu): the first row of each pair and every
    nonzero self-paired row.  ValueError unless paired rows conjugate."""
    perms = np.asarray(perms)
    # labels of different widths are ragged, which asarray rejects
    values = np.asarray(values)
    if not len(perms):
        raise ValueError("empty term family")
    n_labels, dim, _ = values.shape
    paired = perms != np.arange(dim)
    partner = np.take_along_axis(values, perms[:, :, None], axis=1)
    if np.any(paired[:, :, None] & (values != np.conj(partner))):
        raise ValueError("a dense label's paired rows are not conjugate")
    label, row = np.nonzero((perms > np.arange(dim))
                            | ~paired & values.any(axis=2))
    return (EdgeRows(label, row, perms[label, row], n_labels, dim),
            values[label, row])


class _PerLabel(Sequence):
    """The dense arrays build(g) of labels g = 0..n-1, each built when read."""

    def __init__(self, n: int, build):
        self._n = n
        self._build = build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, g):
        return self._build(range(self._n)[g])


class TermFamily:
    """Edge-sorted equal-weight term family on a dim-state system.

    One table holds every stored one-sparse label g, one row per Hermitian
    pair and sorted by label: the integer columns of an :class:`EdgeRows`
    and each row's mu grid-point values.  A row (r, c), r != c, stands for
    (c, r) too, at the conjugate values; a self-paired row stands once.
    A label's rows are the slice of the sorted ``label`` column that holds
    g.  The table keeps its values' dtype, an integer one as float.  Dense
    per-label involutions and values, given in place of an
    :class:`EdgeRows` and its values, are kept as `_dense_rows` keeps them.

    Rounding to multiples of 2 zeta and the threshold split run over the
    table a block of rows at a time: each row keeps its rounded sum zeta
    sum_rho C phase, and each label its slice count M_g = max C_g / 2, so
    L = sum_g 2 M_g and a label whose entries all round to zero adds no
    term; ``M`` is max_g M_g.  Label g's terms hold consecutive flat l
    values, after those of every label before it.  The single terms
    H_{l, rho}, and the per-label dense ``perms``, ``values``, ``_C`` and
    ``_phase``, are derived when read.
    """

    def __init__(self, perms, values, zeta: float):
        rows = perms
        if not isinstance(rows, EdgeRows):
            rows, values = _dense_rows(perms, values)
        self.label, self.row, self.col = rows.label, rows.row, rows.col
        self.dim = rows.dim
        values = np.asarray(values)  # rounding divides: int becomes float
        self._raw = values.astype(np.result_type(values, 1.0), copy=False)
        self.mu = self._raw.shape[1]
        self.zeta = float(zeta)
        # each row's rounded sum zeta sum_rho C phase, and its largest C,
        # a block of rows at a time: no whole-table C or phase is held
        self._sums = np.empty(len(self._raw), dtype=self._raw.dtype)
        top = np.empty(len(self._raw), dtype=np.int64)
        for at in row_blocks(len(self._raw), self.mu):
            C, phase = split_arrays(self._raw[at], self.zeta)
            self._sums[at] = np.multiply(self.zeta * C, phase,
                                         out=phase).sum(axis=1)
            top[at] = C.max(axis=1, initial=0)
        # C is even, so max C_g / 2 slices rebuild label g exactly
        self.M_g = np.zeros(rows.n_labels, dtype=np.int64)
        np.maximum.at(self.M_g, self.label, top // 2)
        self.M = int(self.M_g.max())
        self._offsets = np.concatenate([[0], np.cumsum(2 * self.M_g)])
        self.meta = DecompositionMeta(
            zeta=self.zeta, L=int(self._offsets[-1]), mu=self.mu)
        self._rounded = None

    @property
    def L(self) -> int:
        return self.meta.L

    def ell_parts(self, ell: int) -> tuple[int, int, int]:
        """Unpack a flat l in 0..L-1 into (s, m, gamma index)."""
        if not 0 <= ell < self.L:
            raise IndexError(f"l={ell} outside 0..{self.L - 1}")
        # the last label whose first l is <= ell; labels with M_g = 0 own none
        g = int(np.searchsorted(self._offsets, ell, side="right")) - 1
        local = ell - int(self._offsets[g])
        return local % 2 + 1, local // 2 + 1, g

    def _rows(self, g: int) -> slice:
        """Label g's slice of the table."""
        return slice(*np.searchsorted(self.label, [g, g + 1]))

    def _perm(self, g: int) -> np.ndarray:
        perm = np.arange(self.dim)
        at = self._rows(g)
        perm[self.row[at]] = self.col[at]
        perm[self.col[at]] = self.row[at]
        return perm

    def _dense(self, g: int, rho=slice(None)) -> np.ndarray:
        """Label g's values at grid point(s) rho on every row, zero on the
        self-paired ones the table does not name."""
        at = self._rows(g)
        raw = self._raw[at, rho]
        out = np.zeros((self.dim,) + raw.shape[1:], dtype=raw.dtype)
        out[self.col[at]] = np.conj(raw)
        out[self.row[at]] = raw  # a self-paired row: raw, not its conjugate
        return out

    @property
    def perms(self) -> _PerLabel:
        return _PerLabel(len(self.M_g), self._perm)

    @property
    def values(self) -> _PerLabel:
        return _PerLabel(len(self.M_g), self._dense)

    @property
    def _C(self) -> _PerLabel:
        return _PerLabel(len(self.M_g), lambda g: split_arrays(
            self._dense(g), self.zeta)[0])

    @property
    def _phase(self) -> _PerLabel:
        return _PerLabel(len(self.M_g), lambda g: split_arrays(
            self._dense(g), self.zeta)[1])

    def term_pattern(self, ell: int, rho: int) -> tuple[np.ndarray, np.ndarray]:
        """(perm, vals) of H_{l, rho}: row x holds vals[x] at column perm[x].
        IndexError for an l or a rho out of range."""
        if not 0 <= rho < self.mu:
            raise IndexError(f"rho={rho} outside 0..{self.mu - 1}")
        s, m, g = self.ell_parts(ell)
        C, phase = split_arrays(self._dense(g, rho), self.zeta)
        return self._perm(g), slice_values(C, phase, m, s)

    def term(self, ell: int, rho: int) -> SelfInverseTerm:
        s, m, g = self.ell_parts(ell)
        return SelfInverseTerm(g, m, s, *self.term_pattern(ell, rho))

    def _scatter(self, sums) -> np.ndarray:
        """Dense matrix with each table row's ``sums`` entry at (row, col),
        and a pair's conjugate at (col, row)."""
        H = np.zeros((self.dim, self.dim), dtype=sums.dtype)
        np.add.at(H, (self.row, self.col), sums)
        pair = self.row != self.col
        np.add.at(H, (self.col[pair], self.row[pair]), np.conj(sums[pair]))
        return H

    def rounded_dense(self) -> np.ndarray:
        """zeta sum_{l, rho} H_{l, rho}: the rounded Hamiltonian, dense.

        Built on the first call; every later call returns the same
        read-only array.
        """
        if self._rounded is None:
            self._rounded = self._scatter(self._sums)
            self._rounded.flags.writeable = False
        return self._rounded

    def unrounded_dense(self) -> np.ndarray:
        """Dense sum of the family's raw (pre-rounding) values."""
        return self._scatter(self._raw.sum(axis=1))


@dataclass(frozen=True)
class SegmentPlan:
    r: int
    K: int
    zeta: float
    L: int
    mu: int
    lam: float
    t: float
    eps: float
    pad: float = 0.0   # summed weight of the cancelling +I, -I pair

    @property
    def x(self) -> float:
        """Per-segment weight (zeta L mu + pad) t / r; ln 2 on every plan
        from ``plan_segments``."""
        return (self.zeta * self.L * self.mu + self.pad) * self.t / self.r

    @property
    def taylor_tail(self) -> float:
        return LN2 ** (self.K + 1) / factorial(self.K + 1)

    @property
    def ancilla_qubits(self) -> int:
        """Selection-register width: unary k plus K binary (l, rho) slots;
        a padded plan's l register also holds the two pad terms."""
        n_ell = self.L + (2 if self.pad else 0)
        return self.K * (1 + max(1, ceil(np.log2(max(n_ell, 2))))
                         + max(1, ceil(np.log2(max(self.mu, 2)))))


def segment_count(weight: float, t: float) -> int:
    """r = ceil(weight t / ln 2), at least 1: the fewest segments of
    weight at most ln 2 that cover time t."""
    return max(1, ceil(weight * t / LN2))


def plan_segments(h_norm_bound: float, t: float, eps: float,
                  meta: DecompositionMeta) -> SegmentPlan:
    """Segment count and truncation order for a target accuracy.

    r = ceil(zeta L mu t / ln 2) makes the per-segment weight at most
    ln 2 (and zeta L mu bounds the norm of the rounded Hamiltonian, so
    r >= |H~| t); the pad then raises it to ln 2, where amplification
    is exact.  K is the smallest order with (ln 2)^{K+1} / (K+1)! <=
    eps / (2 r).  BudgetInfeasible past MAX_SEGMENTS segments, and
    ValueError unless 0 <= t < inf."""
    if not 0.0 < eps < 1.0:
        raise BudgetInfeasible(f"eps={eps} outside (0, 1)")
    if not 0.0 <= t < inf:
        raise ValueError(f"t={t}: a negative time, or not finite")
    weight = meta.lambda_weight
    if weight < h_norm_bound - 1e-9:
        raise ValueError("term family cannot bound the Hamiltonian norm")
    r = segment_count(weight, t)
    if r > MAX_SEGMENTS:
        raise BudgetInfeasible(f"{r} evolution segments > {MAX_SEGMENTS}")
    K = 1
    while LN2 ** (K + 1) / factorial(K + 1) > eps / (2.0 * r):
        K += 1
        if K > 200:
            raise BudgetInfeasible("truncation order would exceed 200")
    pad = max(0.0, r * LN2 / t - weight) if t > 0.0 else 0.0
    x = (weight + pad) * t / r
    lam = sum(x**k / factorial(k) for k in range(K + 1))
    return SegmentPlan(r=r, K=K, zeta=meta.zeta, L=meta.L, mu=meta.mu,
                       lam=lam, t=t, eps=eps, pad=pad)


def hermitian_norm(A: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(A)
    return float(max(abs(w[0]), abs(w[-1])))


# ---------------------------------------------------------------------------
# dense-block reference


def taylor_block(family: TermFamily, plan: SegmentPlan) -> np.ndarray:
    """U~ = sum_{k<=K} (-i t / r)^k / k! Htilde^k as a dense matrix."""
    H = family.rounded_dense()
    U = np.eye(family.dim, dtype=complex)
    coef = -1j * plan.t / plan.r
    # Horner evaluation of the truncated exponential series, in place
    for k in range(plan.K, 0, -1):
        U = np.multiply(H @ U, coef / k, out=U)
        U[np.diag_indices_from(U)] += 1.0
    return U


def prepare_b(plan: SegmentPlan) -> np.ndarray:
    """Unary-register amplitudes sqrt(w_k / lambda), w_k = x^k / k!."""
    w = np.array([plan.x**k / factorial(k) for k in range(plan.K + 1)])
    return np.sqrt(w / w.sum())


def oaa_block(U: np.ndarray, lam: float) -> np.ndarray:
    """Projected amplified segment: (3/lam) U - (4/lam^3) U U^+ U."""
    out = U @ U.conj().T @ U
    out *= -4.0 / lam**3
    return np.add(out, (3.0 / lam) * U, out=out)


@dataclass
class EvolutionInfo:
    """r segments at order K and weight lam; ``taylor`` is r times the
    segment's largest |f - exp(-i lambda_j t / r)| over the spectrum of H~."""

    r: int
    K: int
    lam: float
    taylor: float = 0.0
    norm_loss_sum: float = 0.0   # summed |1 - |seg psi|| over the segments
    norm_loss_max: float = 0.0   # the largest of them


def evolve(family: TermFamily, psi0: np.ndarray, t: float, eps: float):
    """r amplified segments of the truncated-Taylor walk, applied in H~'s
    eigenbasis; each renormalizes, and the info keeps the sum and the
    maximum of the norm losses.  H~'s spectrum gives the plan's bound and
    the Taylor entry, which is 0 at t = 0, where no segment runs."""
    if eps <= EPS_FLOOR:
        raise BudgetInfeasible(
            f"eps={eps} at or below the {EPS_FLOOR} numeric floor")
    psi = np.asarray(psi0, dtype=complex).copy()
    if t == 0.0:
        return psi, EvolutionInfo(r=0, K=0, lam=1.0)
    spectrum, vecs = np.linalg.eigh(family.rounded_dense())
    plan = plan_segments(float(np.max(np.abs(spectrum))), t, eps, family.meta)
    # the amplified segment f = (3/lam) p - (4/lam^3) p |p|^2 on the
    # spectrum, p the order-K Taylor polynomial by Horner
    z = -1j * (t / plan.r) * spectrum
    p = np.ones_like(z)
    for k in range(plan.K, 0, -1):
        p = 1.0 + (z / k) * p
    f = (3.0 / plan.lam) * p - (4.0 / plan.lam**3) * p * np.abs(p) ** 2
    info = EvolutionInfo(r=plan.r, K=plan.K, lam=plan.lam,
                         taylor=plan.r * float(np.max(np.abs(f - np.exp(z)))))
    coords = vecs.conj().T @ psi
    for _ in range(plan.r):
        coords *= f
        norm = float(np.linalg.norm(coords))
        coords /= norm
        loss = abs(1.0 - norm)
        info.norm_loss_sum += loss
        info.norm_loss_max = max(info.norm_loss_max, loss)
    return vecs @ coords, info


# ---------------------------------------------------------------------------
# register-level reference


def _householder_to(target: np.ndarray) -> np.ndarray:
    """Unitary (real-orthogonal for real targets) sending e0 to target."""
    n = len(target)
    t = np.asarray(target, dtype=complex)
    t = t / np.linalg.norm(t)
    w = np.zeros(n, dtype=complex)
    w[0] = 1.0
    w = w - t
    nrm2 = np.vdot(w, w).real
    if nrm2 < 1e-30:
        return np.eye(n, dtype=complex)
    return np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / nrm2


class RegisterSim:
    """Explicit state-vector walk on (k unary) x (l, rho registers) x system.

    The unary register is a (K+1)-level axis holding |1^k 0^{K-k}>;
    each of the K selection slots carries one l register and one
    mu-level register.  The l register has the family's L levels, plus
    levels L (+I) and L + 1 (-I) for the pad pair of a padded plan.  B is
    the tensor product of a unitary completing the sqrt(w_k / lambda)
    column on the unary axis, one completing the column of the l weights
    (zeta mu for each family term, pad / 2 for each pad term), normalized
    and square-rooted, and a uniform-column unitary on the mu register.
    """

    def __init__(self, family: TermFamily, plan: SegmentPlan):
        self.family = family
        self.K = plan.K
        self.L = family.L
        self.mu = family.mu
        self.dim = family.dim
        n_pad = 2 if plan.pad else 0
        self.n_ell = self.L + n_pad
        self.shape = (self.K + 1,) + (self.n_ell,) * self.K \
            + (self.mu,) * self.K + (self.dim,)
        self._zero = (0,) * (2 * self.K + 1) + (Ellipsis,)  # |0> registers
        ell_weights = np.concatenate([np.full(self.L, family.zeta * self.mu),
                                      np.full(n_pad, plan.pad / 2.0)])
        self._bk = _householder_to(prepare_b(plan))
        self._bl = _householder_to(np.sqrt(ell_weights / ell_weights.sum()))
        self._br = _householder_to(np.full(self.mu, 1.0 / np.sqrt(self.mu)))

    def zero_state(self, psi: np.ndarray) -> np.ndarray:
        """Embed a system vector, or a (dim, batch) stack of them."""
        psi = np.asarray(psi, dtype=complex)
        state = np.zeros(self.shape + psi.shape[1:], dtype=complex)
        state[self._zero] = psi
        return state

    def _apply_axis(self, state, U, axis):
        return np.moveaxis(
            np.tensordot(U, np.moveaxis(state, axis, 0), axes=(1, 0)), 0, axis)

    def apply_b(self, state, dagger=False):
        Uk = self._bk.conj().T if dagger else self._bk
        Ul = self._bl.conj().T if dagger else self._bl
        Ur = self._br.conj().T if dagger else self._br
        state = self._apply_axis(state, Uk, 0)
        for slot in range(self.K):
            state = self._apply_axis(state, Ul, 1 + slot)
            state = self._apply_axis(state, Ur, 1 + self.K + slot)
        return state

    def _term_pattern(self, ell, rho):
        """The family's term, or +I (l = L) and -I (l = L + 1) of the pad."""
        if ell < self.L:
            return self.family.term_pattern(ell, rho)
        return np.arange(self.dim), np.full(self.dim, 1.0 if ell == self.L
                                            else -1.0, dtype=complex)

    def _term_batch(self, ell, rho, block, sign, bn):
        """sign * term action on a block; bn trailing batch axes."""
        perm, vals = self._term_pattern(ell, rho)
        sys_ax = block.ndim - 1 - bn
        moved = np.moveaxis(block, sys_ax, -1)
        out = sign * moved[..., perm] * vals
        return np.moveaxis(out, -1, sys_ax)

    def apply_select_v(self, state, dagger=False):
        """(-i)^k H_{l_1, rho_1} ... H_{l_k, rho_k}, controlled on unary k."""
        bn = state.ndim - len(self.shape)
        # terms are involutions; the dagger reverses the slots and restores +i
        sign = 1j if dagger else -1j
        slots = range(self.K - 1, -1, -1) if dagger else range(self.K)
        out = state.copy()
        for slot in slots:
            ell_ax = 1 + slot
            rho_ax = 1 + self.K + slot
            new = out.copy()
            for k in range(slot + 1, self.K + 1):
                for ell in range(self.n_ell):
                    for rho in range(self.mu):
                        idx = [slice(None)] * len(self.shape)
                        idx[0] = k
                        idx[ell_ax] = ell
                        idx[rho_ax] = rho
                        idx = tuple(idx)
                        new[idx] = self._term_batch(ell, rho, out[idx], sign, bn)
            out = new
        return out

    def apply_w(self, state, dagger=False):
        state = self.apply_b(state)
        state = self.apply_select_v(state, dagger)
        return self.apply_b(state, dagger=True)

    def project_zero(self, state):
        out = np.zeros_like(state)
        out[self._zero] = state[self._zero]
        return out

    def reflect(self, state):
        """(1 - 2P) state."""
        return state - 2.0 * self.project_zero(state)

    def block_of_w(self) -> np.ndarray:
        """<0|W|0> as a dim x dim matrix, all columns in one pass."""
        state = self.zero_state(np.eye(self.dim, dtype=complex))
        return self.apply_w(state)[self._zero]

    def oaa_apply(self, psi: np.ndarray) -> np.ndarray:
        """P G |0, psi> block: the register-level amplified segment."""
        state = self.apply_w(self.zero_state(psi))
        state = self.reflect(state)
        state = self.apply_w(state, dagger=True)
        state = self.reflect(state)
        state = self.apply_w(state)
        return -state[self._zero]
