"""Slater determinants as sorted occupied-orbital lists.

A determinant is the ascending tuple of its eta occupied spin-orbital
indices, each in 1..N.  The basis of all such tuples is ordered
lexicographically; a determinant's index is its position in that list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import (DimensionTooLarge, DuplicateOrbital, IndexOutOfRange,
                     InvalidCounts)

# largest basis size xi that the dense oracles (eigh, census table) accept
MAX_DENSE_DIM = 2048


def check_dense(dim: int):
    """DimensionTooLarge past the dense oracles' cap on a matrix side."""
    if dim > MAX_DENSE_DIM:
        raise DimensionTooLarge(f"dimension {dim} > {MAX_DENSE_DIM}")


@dataclass(frozen=True, slots=True)
class Determinant:
    """Ascending occupied-orbital list over N = ``norb`` spin-orbitals."""

    occ: tuple[int, ...]
    norb: int

    def __post_init__(self):
        occ, n = self.occ, self.norb
        if len(occ) < 1:
            raise InvalidCounts("determinant must occupy at least one orbital")
        for a, b in itertools.pairwise(occ):
            if a == b:
                raise DuplicateOrbital(f"orbital {a} occupied twice")
            if a > b:
                raise ValueError(f"occupied list {occ} is not ascending")
        if occ[0] < 1 or occ[-1] > n:
            raise IndexOutOfRange(f"orbitals {occ} not all in [1, {n}]")

    @property
    def eta(self) -> int:
        return len(self.occ)


@dataclass(frozen=True, slots=True)
class DiffReport:
    """How two determinants differ and the parity of their alignment.

    ``count`` is the number of orbitals occupied in one determinant but
    not the other (any value; callers treat counts above two as "no
    matrix element").  For count <= 2, ``positions_left``/``positions_right``
    give the 1-based positions of the differing orbitals in each sorted
    list, ``common`` lists the shared orbitals ascending, and ``sign`` is
    the parity of the permutation that aligns matching orbitals
    position by position (differing orbitals paired in ascending order).
    """

    count: int
    positions_left: tuple[int, ...]
    positions_right: tuple[int, ...]
    common: tuple[int, ...]
    sign: int


def enumerate_basis(norb: int, eta: int) -> list[Determinant]:
    """All C(N, eta) determinants in lexicographic order."""
    basis_size(norb, eta)
    return [
        Determinant(occ, norb)
        for occ in itertools.combinations(range(1, norb + 1), eta)
    ]


def basis_size(norb: int, eta: int) -> int:
    """C(N, eta); InvalidCounts unless 1 <= eta <= N."""
    if eta < 1 or eta > norb:
        raise InvalidCounts(f"eta={eta} not in [1, N={norb}]")
    return comb(norb, eta)


def sparsity_d(norb: int, eta: int) -> int:
    """Maximum nonzeros per CI row, the partners at most two orbitals
    away: C(eta,2) C(N-eta,2) + eta (N-eta) + 1."""
    basis_size(norb, eta)
    return comb(eta, 2) * comb(norb - eta, 2) + eta * (norb - eta) + 1


def _permutation_parity(perm) -> int:
    """Parity of a permutation given as a sequence of distinct ints."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def align_and_diff(left: Determinant, right: Determinant) -> DiffReport:
    """Compare two determinants and compute the alignment parity.

    The alignment pairs shared orbitals with themselves and the
    differing orbitals in ascending order (smallest on the left with
    smallest on the right).  The sign is the parity of the permutation
    carrying the right determinant's ascending list onto the aligned
    list built from the left determinant.
    """
    if left.eta != right.eta or left.norb != right.norb:
        raise InvalidCounts("determinants come from different bases")
    lset, rset = set(left.occ), set(right.occ)
    common = tuple(sorted(lset & rset))
    only_left = [o for o in left.occ if o not in rset]
    only_right = [o for o in right.occ if o not in lset]
    count = len(only_left)
    pos_left = tuple(left.occ.index(o) + 1 for o in only_left)
    pos_right = tuple(right.occ.index(o) + 1 for o in only_right)
    if count == 0:
        return DiffReport(0, (), (), common, 1)
    if count > 2:
        return DiffReport(count, pos_left, pos_right, common, 1)
    # aligned list: left's occ with each differing orbital replaced by
    # its ascending-order partner from the right determinant
    replace = dict(zip(only_left, only_right))
    aligned = [replace.get(o, o) for o in left.occ]
    order = {o: i for i, o in enumerate(right.occ)}
    sign = _permutation_parity([order[o] for o in aligned])
    return DiffReport(count, pos_left, pos_right, common, sign)
