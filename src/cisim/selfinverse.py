"""Array kernel that splits one-sparse Hermitian terms into +-1 involutions.

A colored term evaluated at one grid point is held as an involution
pattern and one value per row.  ``split_arrays`` rounds each entry's
modulus to the nearest multiple of 2 zeta and returns the scaled even
integers C together with the unit phase; ``slice_values`` gives the
entries of the m-th threshold slice half C_{m, s}:

    the phase where C >= 2m,   else +1 (s = 1) or -1 (s = 2),

so that zeta * sum_{m <= M, s} C_{m, s} equals the rounded input exactly
whenever M >= C / 2: a slice below its threshold contributes a +1/-1
pair that cancels.  Every slice half is a Hermitian signed involution
(entries e^{i theta} pair with e^{-i theta}); for real input this is the
textbook +-1 construction.  :class:`lcu.TermFamily` applies the kernel
once to its whole edge table, every grid point of every stored row, and
gives each stored label g its own slice count M_g = max C_g / 2, the
fewest that reconstruct the label; any further slice, and any label with
no edge, would only add such cancelling pairs.

Matrices are represented by a full-involution pattern: an index array
``perm`` with perm[perm[x]] = x giving each row's partner column, and a
value array with vals[perm[x]] = conj(vals[x]).  Rows that the color
gives no partner are self-paired (perm[x] = x) with value zero; the
family stores none of them and one row of each pair, the other being its
conjugate, and builds a dense pattern only when read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetInfeasible


@dataclass(frozen=True)
class DecompositionMeta:
    """Shape of the equal-weight unitary sum H = zeta sum_{l, rho} H_{l, rho}.

    L = sum_g 2 M_g counts the terms that exist, so ``lambda_weight`` =
    zeta L mu is the weight the evolution pays.  The paper's uniform
    layout, 2 M slices for each of all Gamma labels, is the run report's
    to price: the family never counts labels with no edge.
    """

    zeta: float
    L: int
    mu: int

    @property
    def lambda_weight(self) -> float:
        return self.zeta * self.L * self.mu


@dataclass(frozen=True)
class SelfInverseTerm:
    """One Hermitian signed involution C_{gamma, rho, m, s}.

    ``perm`` maps each row to its partner column; ``vals[x]`` is the
    entry at (x, perm[x]).  Entries are +-1 up to the carried unit
    phase, never zero.
    """

    gamma: int                     # label index in the family
    m: int
    s: int
    perm: np.ndarray
    vals: np.ndarray

    def as_dense(self) -> np.ndarray:
        dim = len(self.perm)
        M = np.zeros((dim, dim), dtype=complex)
        M[np.arange(dim), self.perm] = self.vals
        return M


def split_arrays(values: np.ndarray, zeta: float):
    """(C, phase): the modulus rounded to even multiples of zeta, scaled
    by 1/zeta to integers, and the unit phase (1 where the value is 0).
    BudgetInfeasible when a count would not fit in int64.  A subnormal
    modulus counts as 0, since dividing by it overflows."""
    mod = np.asarray(np.abs(values))
    mod[mod < np.finfo(mod.dtype).tiny] = 0.0
    phase = np.ones(mod.shape, dtype=complex)
    np.divide(np.asarray(values, dtype=complex), mod, out=phase,
              where=mod > 0)
    # C takes mod's place: the family splits its whole table at once
    C = mod
    C /= 2.0 * zeta
    np.round(C, out=C)
    C *= 2.0
    if C.size and not C.max() < 2.0**63:
        raise BudgetInfeasible(
            f"zeta={zeta:g} rounds an entry to {C.max():g} multiples of zeta, "
            "past int64")
    return C.astype(np.int64), phase


def slice_values(C: np.ndarray, phase: np.ndarray, m: int, s: int) -> np.ndarray:
    """Entries of C_{m, s}: the phase where C >= 2m, else +1 (s=1) or -1."""
    fill = 1.0 if s == 1 else -1.0
    return np.where(C >= 2 * m, phase, fill + 0.0j)
