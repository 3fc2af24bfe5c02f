"""Unique reversible edge coloring of the CI connectivity graph.

Determinants differing in at most two orbitals are connected; simulation
runs on the bipartite double cover (an extra side label), so every color
must map a node on one side to at most one partner on the other side,
and the two directions must be mutual inverses.

A color is the 8-tuple (a1, b1, l1, p, a2, b2, l2, q).  Each 4-tuple
(a, b, l, shift) is one move rule, read left to right: an occupied
orbital of the left node shifts by `shift` (signed, not modular) into
the right node.  The spacing predicate gives a = 0 when the right list
is at least as spread out around the move as the left list (ties too),
else a = 1; l is the moved orbital's position in the sorted list of the
left node (a = 0) or the right node (a = 1).  The node whose list l
indexes moves directly, then checks the predicate and that b picks it
back; the other node searches for the at most two candidates the
predicate admits, and b picks one.  A single difference puts its move in
the second 4-tuple with p = 0; p = q = 0 is the diagonal family.  Two
differences compose two moves, in order from the left node and reversed
from the right node, and only the composition that maps the smaller
differing orbital of the left node to the smaller differing orbital of
the right node first is accepted, so each edge keeps exactly one color.

Moving off either end of the occupied list uses the sentinel values 0
and N+1.  Whenever a shift leaves [1, N], collides with an occupied
orbital, or fails a spacing or back-check, the color gives that node no
partner (None): the matrix element is zero and the node is unchanged.

The census tabulates the valid left moves of every node as integer
columns ordered by node (node, move id, partner, x, y, undone).  It
evaluates each (a, l, shift) from the left once for both b, through
`_move_partners`, which `_apply_move` reads one b of, and undoes each
valid left move from the right once, when it is tabulated.  Each row is
a single edge.  The double edges through a middle node are the pairs of
its incoming and outgoing rows that `_alt1_ok` accepts, judged on that
node's in x out block at once; a double edge is undone when both of its
rows are.  Edges are tallied as integer codes, and the census never
calls `apply_color`'s composition.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb

import numpy as np

from .determinants import Determinant, basis_size, check_dense
from .errors import TooManyDifferences

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True, slots=True)
class ColorTuple:
    a1: int
    b1: int
    l1: int
    p: int
    a2: int
    b2: int
    l2: int
    q: int


DIAGONAL_COLOR = ColorTuple(0, 0, 1, 0, 0, 0, 1, 0)


def _orb(occ: tuple, norb: int, i: int) -> int:
    if i == 0:
        return 0
    if i == len(occ) + 1:
        return norb + 1
    return occ[i - 1]


def _spacing(occ: tuple, norb: int, i: int) -> int:
    return _orb(occ, norb, i + 1) - _orb(occ, norb, i - 1)


def _move_to(occ: tuple, k: int, v: int, norb: int):
    """occ with occ[k-1] replaced by v, and v's position; None when v
    leaves [1, N] or lands on another occupied orbital."""
    if v == occ[k - 1]:
        return occ, k
    if not 1 <= v <= norb or v in occ:
        return None
    rest = occ[:k - 1] + occ[k:]
    pos = bisect_left(rest, v)
    return rest[:pos] + (v,) + rest[pos:], pos + 1


def _spacing_a(occ: tuple, k: int, new: tuple, pos: int, side: str,
               norb: int) -> int:
    """Spacing predicate a (0 or 1) of a move from occ, on side, to new."""
    here, there = _spacing(occ, norb, k), _spacing(new, norb, pos)
    left, right = (here, there) if side == LEFT else (there, here)
    return int(right < left)


def _candidates(occ: tuple, a: int, l: int, shift: int, norb: int):
    """Partners of occ, the node whose list l does not index, in b order.

    Each is (partner, x, y) with x -> y the moved orbital read left to right.
    """
    side, s = (RIGHT, -shift) if a == 0 else (LEFT, shift)
    out = []
    for k, x in enumerate(occ, 1):
        if bisect_left(occ, x + s) + (s <= 0) != l:
            continue  # x + s would not sit at position l of the partner
        moved = _move_to(occ, k, x + s, norb)
        if moved is not None and _spacing_a(occ, k, *moved, side, norb) == a:
            out.append((moved[0], x, x + s) if a else (moved[0], x + s, x))
    return out


def _move_partners(a, l, shift, occ, side, norb):
    """The results of the moves (a, b, l, shift) of occ, indexed by b:
    each (new_occ, moved_from, moved_to) or None, and a b past the end
    gives no partner either.

    moved_from / moved_to are oriented left-to-right: the orbital value
    occupied in the left node and the value it becomes in the right
    node, regardless of which side the input node is on.
    """
    if not 1 <= l <= len(occ):
        return []
    if side != (LEFT if a == 0 else RIGHT):
        # l indexes the partner's list: b picks one of the candidates
        return _candidates(occ, a, l, shift, norb)
    # l indexes this node's list: move directly, then b must pick it back
    s = shift if side == LEFT else -shift
    moved = _move_to(occ, l, occ[l - 1] + s, norb)
    if moved is None or _spacing_a(occ, l, *moved, side, norb) != a:
        return []
    cands = _candidates(moved[0], a, l, shift, norb)
    if len(cands) > 2:
        return []
    return [(moved[0],) + c[1:] if c[0] == occ else None for c in cands]


def _apply_move(a, b, l, shift, occ, side, norb):
    """One 4-tuple move; returns (new_occ, moved_from, moved_to) or None."""
    res = _move_partners(a, l, shift, occ, side, norb)
    return res[b] if b < len(res) else None


def _alt1_ok(x1, y1, x2, y2):
    """Accept only the canonical composition for a genuine double move.

    Rejects chained moves (which collapse to fewer than two differences)
    and any pairing other than smaller-to-smaller applied first.  One
    elementwise rule: a bool on Python ints, a bool array on arrays.
    """
    return (x2 != y1) & (y2 != x1) & (x1 < x2) & (y1 < y2)


def _apply_color_occ(c: ColorTuple, occ: tuple, side: str, norb: int):
    """The color's moves in order from the left, reversed from the right;
    a double move is judged on its pairs read left to right."""
    if c.p == 0 and c.q == 0:
        return occ
    moves = [(c.a2, c.b2, c.l2, c.q)]
    if c.p != 0:
        moves.insert(0, (c.a1, c.b1, c.l1, c.p))
    if side == RIGHT:
        moves.reverse()
    pairs = []
    for move in moves:
        res = _apply_move(*move, occ, side, norb)
        if res is None:
            return None
        occ = res[0]
        pairs.append(res[1:])
    if side == RIGHT:
        pairs.reverse()
    if len(pairs) == 2 and not _alt1_ok(*pairs[0], *pairs[1]):
        return None
    return occ


# ---------------------------------------------------------------------------
# public operations on Determinant values


def apply_color(color: ColorTuple, node: Determinant, side: str):
    """The partner of node under color, or None when it has none."""
    res = _apply_color_occ(color, node.occ, side, node.norb)
    return None if res is None else Determinant(res, node.norb)


def _single_color_parts(src: tuple, dst: tuple, norb: int):
    """(a, b, l, shift) of the unique move src -> dst (one difference)."""
    x = next(v for v in src if v not in dst)
    y = next(v for v in dst if v not in src)
    i = src.index(x) + 1
    j = dst.index(y) + 1
    shift = y - x
    a = _spacing_a(src, i, dst, j, LEFT, norb)
    l, node, partner = (i, dst, src) if a == 0 else (j, src, dst)
    cands = _candidates(node, a, l, shift, norb)
    b = next(k for k, (c, _, _) in enumerate(cands) if c == partner)
    return a, b, l, shift


def color_of(alpha: Determinant, beta: Determinant) -> ColorTuple:
    """The unique color connecting an ordered pair (left, right)."""
    aocc, bocc, norb = alpha.occ, beta.occ, alpha.norb
    only_a = sorted(set(aocc) - set(bocc))
    only_b = sorted(set(bocc) - set(aocc))
    count = len(only_a)
    if count > 2:
        raise TooManyDifferences(f"{count} differing orbitals")
    if count == 0:
        return DIAGONAL_COLOR
    if count == 1:
        a, b, l, shift = _single_color_parts(aocc, bocc, norb)
        return ColorTuple(0, 0, 1, 0, a, b, l, shift)
    chi, _ = _move_to(aocc, aocc.index(only_a[0]) + 1, only_b[0], norb)
    a1, b1, l1, p = _single_color_parts(aocc, chi, norb)
    a2, b2, l2, q = _single_color_parts(chi, bocc, norb)
    return ColorTuple(a1, b1, l1, p, a2, b2, l2, q)


# ---------------------------------------------------------------------------
# color family enumeration and the exhaustive census


def movement_tuples(norb: int, eta: int):
    """All (a, b, l, shift) with a nonzero shift."""
    shifts = [s for s in range(-(norb - 1), norb) if s != 0]
    return [(a, b, l, s)
            for a in (0, 1) for b in (0, 1)
            for l in range(1, eta + 1) for s in shifts]


def single_colors(norb: int, eta: int):
    return [ColorTuple(0, 0, 1, 0, a, b, l, s)
            for a, b, l, s in movement_tuples(norb, eta)]


def double_colors(norb: int, eta: int):
    moves = movement_tuples(norb, eta)
    return [ColorTuple(*m1, *m2) for m1 in moves for m2 in moves]


@dataclass
class ColoringCensus:
    norb: int
    eta: int
    n_nodes: int
    n_single_colors: int
    n_double_colors: int
    edges_expected: int
    edges_found: int
    duplicate_edges: int
    uncovered_edges: int
    inverse_failures: int
    injectivity_failures: int

    @property
    def valid(self) -> bool:
        return (self.duplicate_edges == 0 and self.uncovered_edges == 0
                and self.inverse_failures == 0
                and self.injectivity_failures == 0
                and self.edges_found == self.edges_expected)


def coloring_census(norb: int, eta: int) -> ColoringCensus:
    """Exhaustively verify uniqueness, coverage, reversibility, injectivity.

    Tabulates once the valid moves from the LEFT of every node, one
    `_move_partners` evaluation of each (a, l, shift) serving both b,
    and undoes each from the RIGHT as it enters the table.  The table is
    integer columns ordered by node: node, move id, partner, x, y and
    undone.  Each row is a single edge node -> chi; the double edges
    node -> chi -> beta are, one middle node chi at a time, the pairs of
    chi's incoming and outgoing rows that `_alt1_ok` accepts on their
    in x out block, and a double edge is undone when both rows are.  A
    node has C(eta, k) C(N - eta, k) partners k orbitals away, so an
    edge counts when its nodes share at least eta - 2 orbitals.  Bad
    counts raise before any work.
    """
    xi = basis_size(norb, eta)
    check_dense(xi)
    dets = list(itertools.combinations(range(1, norb + 1), eta))
    index = {occ: i for i, occ in enumerate(dets)}
    moves = movement_tuples(norb, eta)
    groups = {}  # (a, l, shift) -> its move ids, in b order
    for m, (a, _, l, shift) in enumerate(moves):
        groups.setdefault((a, l, shift), []).append(m)
    rows = []  # (node, move id, partner, x, y, undone), ordered by node
    for i, occ in enumerate(dets):
        for (a, l, shift), group in groups.items():
            partners = _move_partners(a, l, shift, occ, LEFT, norb)
            for m, res in zip(group, partners):
                if res is not None:
                    back = _apply_move(*moves[m], res[0], RIGHT, norb)
                    undone = back is not None and back[0] == occ
                    rows.append((i, m, index[res[0]], *res[1:], undone))
    node, move, partner, x, y, undone = (
        np.array(rows, dtype=np.int32).reshape(-1, 6).T)
    x, y, undone = x.astype(np.int16), y.astype(np.int16), undone == 1

    # xi <= 2048, so an edge code node * xi + partner fits int32
    singles = node * xi + partner
    injectivity_failures = len(rows) - len(np.unique(
        move.astype(np.int64) * xi + partner))
    inverse_failures = int(np.count_nonzero(~undone))
    by_partner = np.argsort(partner, kind="stable")
    in_node, in_x, in_y, in_undone = (col[by_partner]
                                      for col in (node, x, y, undone))
    bounds = np.arange(xi + 1)
    in_at = np.searchsorted(partner[by_partner], bounds)
    out_at = np.searchsorted(node, bounds)
    doubles = []
    for chi in range(xi):
        inc = slice(in_at[chi], in_at[chi + 1])  # rows node -> chi
        out = slice(out_at[chi], out_at[chi + 1])  # rows chi -> beta
        ok = np.broadcast_to(
            _alt1_ok(in_x[inc, None], in_y[inc, None], x[out], y[out]),
            (inc.stop - inc.start, out.stop - out.start))
        src, dst = np.nonzero(ok)
        doubles.append(in_node[inc][src] * xi + partner[out][dst])
        inverse_failures += int(np.count_nonzero(
            ~(in_undone[inc][src] & undone[out][dst])))

    diagonal = np.arange(xi, dtype=np.int32) * (xi + 1)
    edges, counts = np.unique(np.concatenate([diagonal, singles, *doubles]),
                              return_counts=True)
    orbs = np.array(dets, dtype=np.int16).reshape(xi, eta)
    left, right = orbs[edges // xi], orbs[edges % xi]
    shared = (left[:, :, None] == right[:, None, :]).sum(axis=(1, 2))
    near = shared >= eta - 2
    found = int(np.count_nonzero(near))
    expected = xi * sum(comb(eta, k) * comb(norb - eta, k) for k in range(3))
    return ColoringCensus(
        norb=norb, eta=eta, n_nodes=xi,
        n_single_colors=len(moves),
        n_double_colors=len(moves) ** 2,
        edges_expected=expected, edges_found=found,
        duplicate_edges=int(np.count_nonzero((counts > 1) | ~near)),
        uncovered_edges=expected - found,
        inverse_failures=inverse_failures,
        injectivity_failures=injectivity_failures,
    )
