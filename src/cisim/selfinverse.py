"""Decomposition of one-sparse Hermitian terms into +-1 involutions.

Each one-sparse Hermitian matrix (a colored term evaluated at one grid
point) is rounded entrywise to the nearest multiple of 2 zeta, scaled by
1/zeta to give even integers C, and split across m = 1..M by the
two-sided threshold

    C_m = +2 where C >= 2m,   -2 where C <= -2m,   0 otherwise,

so that sum_m C_m = C exactly whenever M >= |C|/2.  Each C_m is then
divided into two matrices with entries in {0, +-1}: nonzero entries are
halved into both halves, and every column of C_m that became all-zero
gets +1 (s = 1) and -1 (s = 2) at the position of its parent's nonzero
entry, or on the diagonal when the parent column is empty (an INVALID
color).  Both halves are Hermitian signed involutions, and

    zeta * sum_{m,s} C_{m,s} = rounded input,   exactly.

Complex entries are handled by rounding the modulus and carrying the
unit phase into the entry rule; the halves remain Hermitian involutions
(entries e^{i theta} pair with e^{-i theta}), and for real input this
is the textbook +-1 construction.

Matrices are represented by a full-involution pattern: an index array
``perm`` with perm[perm[x]] = x giving each row's partner column, and a
value array with vals[perm[x]] = conj(vals[x]).  Rows whose color is
INVALID are self-paired (perm[x] = x) with value zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import PatternMismatch


@dataclass(frozen=True)
class DecompositionMeta:
    """Shape of the equal-weight unitary sum H = zeta sum_{l, rho} H_{l, rho}."""

    zeta: float
    M: int
    n_gamma: int
    mu: int

    @property
    def L(self) -> int:
        return 2 * self.M * self.n_gamma

    @property
    def lambda_weight(self) -> float:
        return self.zeta * self.L * self.mu


def round_aleph(value: complex, zeta: float) -> complex:
    """Round real and imaginary parts to the nearest multiple of 2 zeta.

    Ties go to the even multiple; each part moves by at most zeta.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    step = 2.0 * zeta
    re = step * np.round(np.real(value) / step)
    im = step * np.round(np.imag(value) / step)
    return complex(re, im)


def round_modulus(value: complex, zeta: float) -> complex:
    """Round |value| to the nearest multiple of 2 zeta, keeping the phase."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    mod = np.abs(value)
    if mod == 0.0:
        return 0.0 + 0.0j
    rounded = 2.0 * zeta * np.round(mod / (2.0 * zeta))
    return value / mod * rounded


def split_C(c_value: int, m: int) -> int:
    """The m-th two-sided threshold slice of a scaled integer entry."""
    if m < 1:
        raise ValueError("m starts at 1")
    if c_value >= 2 * m:
        return 2
    if c_value <= -2 * m:
        return -2
    return 0


@dataclass(frozen=True)
class SelfInverseTerm:
    """One Hermitian signed involution C_{gamma, rho, m, s}.

    ``perm`` maps each row to its partner column; ``vals[x]`` is the
    entry at (x, perm[x]).  Entries are +-1 up to the carried unit
    phase, never zero.
    """

    gamma: object
    rho: int
    m: int
    s: int
    perm: np.ndarray
    vals: np.ndarray

    def as_dense(self) -> np.ndarray:
        dim = len(self.perm)
        M = np.zeros((dim, dim), dtype=complex)
        M[np.arange(dim), self.perm] = self.vals
        return M

    def entry(self, row: int, col: int) -> complex:
        return self.vals[row] if self.perm[row] == col else 0.0


def split_arrays(values: np.ndarray, zeta: float):
    """(C, phase): the modulus rounded to even multiples of zeta, scaled
    by 1/zeta to integers, and the unit phase (1 where the value is 0)."""
    mod = np.abs(values)
    C = 2.0 * np.round(mod / (2.0 * zeta))
    phase = np.where(mod > 0, values / np.where(mod > 0, mod, 1.0), 1.0)
    return C.astype(np.int64), phase.astype(complex)


def slice_values(C: np.ndarray, phase: np.ndarray, m: int, s: int) -> np.ndarray:
    """Entries of C_{m, s}: the phase where C >= 2m, else +1 (s=1) or -1."""
    fill = 1.0 if s == 1 else -1.0
    return np.where(C >= 2 * m, phase, fill + 0.0j)


def decompose(perm: np.ndarray, values: np.ndarray, zeta: float):
    """Split one one-sparse Hermitian matrix into signed involutions.

    ``perm`` must be an involution and ``values`` Hermitian on it
    (values[perm[x]] = conj(values[x])).  Returns (terms, meta) with
    2 M terms whose zeta-weighted sum reproduces the modulus-rounded
    input exactly.
    """
    perm = np.asarray(perm)
    values = np.asarray(values, dtype=complex)
    if not np.array_equal(perm[perm], np.arange(len(perm))):
        raise PatternMismatch("perm is not an involution")
    if not np.allclose(values[perm], np.conj(values), atol=1e-12):
        raise PatternMismatch("values are not Hermitian on the pattern")
    C, phase = split_arrays(values, zeta)
    M = max(1, int(ceil(np.max(np.abs(C)) if len(C) else 1)))
    terms = [
        SelfInverseTerm(None, 0, m, s, perm.copy(),
                        slice_values(C, phase, m, s))
        for m in range(1, M + 1) for s in (1, 2)
    ]
    meta = DecompositionMeta(zeta=zeta, M=M, n_gamma=1, mu=1)
    return terms, meta


def decompose_dense(matrix: np.ndarray, zeta: float):
    """decompose() for an explicit dense one-sparse Hermitian matrix.

    The pattern is read off the nonzero structure; rows with no nonzero
    are self-paired on the diagonal.
    """
    A = np.asarray(matrix, dtype=complex)
    dim = A.shape[0]
    perm = np.arange(dim)
    vals = np.zeros(dim, dtype=complex)
    for x in range(dim):
        cols = np.nonzero(np.abs(A[x]) > 0)[0]
        if len(cols) > 1:
            raise PatternMismatch(f"row {x} has {len(cols)} nonzeros")
        if len(cols) == 1:
            perm[x] = cols[0]
            vals[x] = A[x, cols[0]]
    if not np.array_equal(perm[perm], np.arange(dim)):
        raise PatternMismatch("nonzero pattern is not an involution")
    return decompose(perm, vals, zeta)


def remove_zeros(c_m: np.ndarray, parent_pattern: np.ndarray):
    """Split an {0, +-2} slice into its two +-1 halves.

    ``c_m`` holds the slice entries on the pattern (one per row);
    ``parent_pattern`` is the involution giving each row's partner in
    the original matrix.  Columns of the slice that are all zero get +1
    in the s=1 half and -1 in the s=2 half at the parent position.
    """
    c_m = np.asarray(c_m)
    perm = np.asarray(parent_pattern)
    if not np.array_equal(perm[perm], np.arange(len(perm))):
        raise PatternMismatch("parent pattern is not an involution")
    on = np.abs(c_m) >= 2
    half = np.where(on, c_m / 2.0, 0.0).astype(complex)
    s1 = np.where(on, half, 1.0 + 0.0j)
    s2 = np.where(on, half, -1.0 + 0.0j)
    return (perm.copy(), s1), (perm.copy(), s2)


def reconstruct(terms, zeta: float, dim: int) -> np.ndarray:
    """zeta-weighted dense sum of a term list."""
    H = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        H[np.arange(dim), t.perm] += zeta * t.vals
    return H
