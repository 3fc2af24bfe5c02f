"""Slater determinants as sorted occupied-orbital lists.

A determinant is the ascending tuple of its eta occupied spin-orbital
indices, each in 1..N.  The basis of all such tuples is ordered
lexicographically, and ranking/unranking uses the combinatorial number
system so that index_of and determinant_at are mutual inverses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import DuplicateOrbital, IndexOutOfRange, InvalidCounts

# largest basis size xi that the dense oracles (eigh, census table) accept
MAX_DENSE_DIM = 2048


@dataclass(frozen=True, slots=True)
class Determinant:
    """Ascending occupied-orbital list with sentinel accessors.

    ``orb(0)`` returns 0 and ``orb(eta+1)`` returns N+1; these dummy
    values let position arithmetic run off either end of the list
    without special cases.
    """

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

    def orb(self, i: int) -> int:
        """1-based access with sentinels at positions 0 and eta+1."""
        if i == 0:
            return 0
        if i == self.eta + 1:
            return self.norb + 1
        return self.occ[i - 1]

    def __iter__(self):
        return iter(self.occ)

    def __len__(self):
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


def sort_with_parity(values) -> tuple[tuple[int, ...], int]:
    """Sort a list and return it with the parity of the sorting permutation."""
    vals = list(values)
    sign = 1
    # insertion sort; each neighbour swap flips the parity
    for i in range(1, len(vals)):
        j = i
        while j > 0 and vals[j - 1] > vals[j]:
            vals[j - 1], vals[j] = vals[j], vals[j - 1]
            sign = -sign
            j -= 1
    return tuple(vals), sign


def make_determinant(orbitals, norb: int) -> tuple[Determinant, int]:
    """Sort an orbital list into a determinant, returning the sort parity."""
    occ, sign = sort_with_parity(orbitals)
    return Determinant(occ, norb), sign


def enumerate_basis(norb: int, eta: int) -> list[Determinant]:
    """All C(N, eta) determinants in lexicographic order."""
    if eta < 1 or eta > norb:
        raise InvalidCounts(f"eta={eta} not in [1, N={norb}]")
    return [
        Determinant(occ, norb)
        for occ in itertools.combinations(range(1, norb + 1), eta)
    ]


def basis_size(norb: int, eta: int) -> int:
    if eta < 1 or eta > norb:
        raise InvalidCounts(f"eta={eta} not in [1, N={norb}]")
    return comb(norb, eta)


def index_of(det: Determinant) -> int:
    """Lexicographic rank of a determinant within its basis."""
    rank = 0
    prev = 0
    eta = det.eta
    for i, c in enumerate(det.occ, start=1):
        for v in range(prev + 1, c):
            rank += comb(det.norb - v, eta - i)
        prev = c
    return rank


def determinant_at(rank: int, norb: int, eta: int) -> Determinant:
    """Inverse of index_of: the rank-th determinant in lexicographic order."""
    if not 0 <= rank < basis_size(norb, eta):
        raise IndexOutOfRange(f"rank {rank} out of range for ({norb},{eta})")
    occ = []
    v = 1
    remaining = rank
    for i in range(1, eta + 1):
        while True:
            block = comb(norb - v, eta - i)
            if remaining < block:
                break
            remaining -= block
            v += 1
        occ.append(v)
        v += 1
    return Determinant(tuple(occ), norb)


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
