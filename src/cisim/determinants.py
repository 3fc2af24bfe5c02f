"""Slater determinants as sorted occupied-orbital lists.

A determinant is the ascending tuple of its eta occupied spin-orbital
indices, each in 1..N.  The basis of all such tuples is ordered
lexicographically; a determinant's index is its position in that list.

`excitations` lists every single and double excitation of every
determinant at once, as integer columns with the partner's index and the
alignment sign (Scemama & Giner, arXiv:1311.6244), with no coloring;
`align_and_diff` is the per-pair reference it is held to.  Its singles
and the coloring's move-rule kernel read one enumeration,
`single_excitations`, with the partners' `lex_ranks`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields, is_dataclass
from math import comb

import numpy as np

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


@dataclass(frozen=True)
class Moves:
    """Excitations of one order (1 or 2), one column entry each, ordered
    by determinant: determinant ``row[e]`` moves the orbitals
    ``holes[:, e]`` to ``particles[:, e]`` (both ascending and 1-based,
    paired in that order) and becomes determinant ``partner[e]``;
    ``sign[e]`` is the alignment sign `align_and_diff` gives the pair."""

    row: np.ndarray
    partner: np.ndarray
    sign: np.ndarray
    holes: np.ndarray
    particles: np.ndarray


@dataclass(frozen=True)
class Excitations:
    """The lexicographic basis as the (xi, eta) array ``occ`` of occupied
    lists, which the diagonal entries read, and every single and double
    excitation of each of its determinants."""

    occ: np.ndarray
    singles: Moves
    doubles: Moves


def lex_ranks(rows: np.ndarray, norb: int) -> np.ndarray:
    """Index of each ascending row of orbitals (the last axis) in the
    lexicographic basis: C(N, eta) - 1 - sum_i C(N - row_i, eta - i), i
    from 0, one position at a time.  A binomial past C(N, eta) is never
    summed, so it is clipped."""
    eta = rows.shape[-1]
    xi = basis_size(norb, eta)
    binom = np.array([[min(comb(n, r), xi) for r in range(eta, 0, -1)]
                      for n in range(norb + 1)], dtype=np.intp)
    rank = np.full(rows.shape[:-1], xi - 1, dtype=np.intp)
    for i in range(eta):
        rank -= binom[norb - rows[..., i], i]
    return rank


def single_excitations(occ: np.ndarray, norb: int):
    """Every single excitation of each ascending row of occ on the grid (row,
    hole position p, particle position j among the row's virtual orbitals):
    the (rows, N - eta) virtual orbitals, ascending, the (rows, eta, N - eta,
    eta) moved rows, sorted, and their `lex_ranks`, orbitals as occ's type."""
    rows, eta = occ.shape
    free = np.ones((rows, norb + 1), dtype=bool)
    free[np.arange(rows)[:, None], occ] = False
    virt = free[:, 1:].nonzero()[1].reshape(rows, -1).astype(occ.dtype) + 1
    moved = np.where(np.eye(eta, dtype=bool)[:, None], virt[:, None, :, None],
                     occ[:, None, None])
    moved.sort(axis=-1)
    return virt, moved, lex_ranks(moved, norb)


def _read_only(obj):
    """obj, with every array its dataclass fields reach, and each array's
    bases, made read-only: a write into a shared result raises ValueError."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if is_dataclass(value):
            _read_only(value)
        while isinstance(value, np.ndarray):
            value.setflags(write=False)
            value = value.base
    return obj


@functools.lru_cache(maxsize=1)
def excitations(norb: int, eta: int) -> Excitations:
    """Every single k -> l and double (x1 < x2) -> (y1 < y2) of each
    determinant of the (N, eta) basis, as integer arrays, built once per
    process for each (N, eta): the last is cached, shared and read-only.

    A single's sign is (-1) to the number of occupied orbitals strictly
    between k and l, counted from positions in the occupied and virtual
    lists, so no bitmask caps N.  A double is the single x1 -> y1 followed
    by the single x2 -> y2 of its result: its partner and sign are read
    off the singles, the sign as the product of the two steps'.
    """
    xi = basis_size(norb, eta)
    n_virt = norb - eta
    occ = np.array(list(itertools.combinations(range(1, norb + 1), eta)),
                   dtype=np.intp)
    virt, _, partner = single_excitations(occ, norb)

    # singles on the grid (row, position p of k, position j of l among
    # the virtuals): l has l - 1 - j occupied orbitals below it and k has
    # p, so l - 1 - j - p - [l > k] of them lie between, up to sign
    p, j = np.arange(eta)[:, None], np.arange(n_virt)
    k, l = occ[:, :, None], virt[:, None, :]
    sign = (1 - 2 * ((l - 1 - j - p - (l > k)) % 2)).astype(np.int8)
    singles = Moves(np.repeat(np.arange(xi), eta * n_virt), partner.ravel(),
                    sign.ravel(), _columns(sign.shape, norb, k),
                    _columns(sign.shape, norb, l))

    # doubles on the grid (row, positions p1 < p2, virtual positions
    # j1 < j2): in the first step's result x2 sits at p2 - 1 + [y1 < x2]
    # and y2 at virtual position j2 - 1 + [x1 < y2]
    (p1, p2), (j1, j2) = (
        np.array(list(itertools.combinations(range(n), 2)),
                 dtype=np.intp).reshape(-1, 2).T for n in (eta, n_virt))
    x1, x2 = occ[:, p1, None], occ[:, p2, None]
    y1, y2 = virt[:, None, j1], virt[:, None, j2]
    first = (np.arange(xi)[:, None, None] * eta + p1[:, None]) * n_virt + j1
    second = ((singles.partner[first] * eta + p2[:, None] - 1 + (y1 < x2))
              * n_virt + j2 - 1 + (x1 < y2))
    doubles = Moves(np.repeat(np.arange(xi), len(p1) * len(j1)),
                    singles.partner[second].ravel(),
                    (singles.sign[first] * singles.sign[second]).ravel(),
                    _columns(first.shape, norb, x1, x2),
                    _columns(first.shape, norb, y1, y2))
    return _read_only(Excitations(occ, singles, doubles))


def _columns(shape, norb: int, *grids) -> np.ndarray:
    """Orbital arrays broadcast to one grid shape, each flattened into one
    row of a (len(grids), size) array of the narrowest type that holds N."""
    out = np.empty((len(grids),) + shape, dtype=np.min_scalar_type(norb))
    for row, grid in zip(out, grids):
        row[...] = grid
    return out.reshape(len(grids), -1)
