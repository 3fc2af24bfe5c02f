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

`edge_table` builds every edge from the move rule alone.  It tabulates
the valid left moves of every node as integer columns ordered by node,
evaluating each (a, l, shift) from the left once for both b through
`_move_partners`, which `_apply_move` reads one b of, and undoing each
valid left move from the right once, when it is tabulated.  Each row is
a single edge.  The double edges through a middle node are the pairs of
its incoming and outgoing rows that `_alt1_ok` accepts, judged on that
node's in x out block at once.  The table never calls `apply_color`'s
composition.  `coloring_census` is its tally; the family build reads its
labelled terms off the same table's integer columns once that tally is
valid, so every run checks the coloring at its own size.  `color_of`,
the inverse map from a pair to its color, is the reference the tests
pin the coloring with.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .determinants import Determinant, basis_size, check_dense, sparsity_d
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


ZERO_MOVE = (0, 0, 1, 0)  # shifts nothing
DIAGONAL_COLOR = ColorTuple(*ZERO_MOVE, *ZERO_MOVE)


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
        return ColorTuple(*ZERO_MOVE, a, b, l, shift)
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
    return [ColorTuple(*ZERO_MOVE, *m) for m in movement_tuples(norb, eta)]


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
        # uncovered_edges is edges_expected - edges_found
        return not (self.duplicate_edges or self.uncovered_edges
                    or self.inverse_failures or self.injectivity_failures)


@dataclass(frozen=True)
class EdgeTable:
    """Every edge the coloring makes, one row each, as integer columns.

    Node k is ``dets[k]`` and move id m is ``moves[m]``.  Row r is the
    edge ``left[r]`` -> ``right[r]`` with color ``color(m1[r], m2[r])``,
    where move id -1 is the zero move: the diagonal edges have m1 = m2 =
    -1, the single edges m1 = -1, and a double edge's m1 and m2 are its
    first and second move.  ``undone[r]`` holds when the color's moves,
    applied from the right, lead back.
    """

    norb: int
    eta: int
    dets: list
    moves: list
    left: np.ndarray
    right: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    undone: np.ndarray

    def color(self, m1: int, m2: int) -> ColorTuple:
        """The color of move ids m1 then m2; id -1 is the zero move."""
        return ColorTuple(*itertools.chain.from_iterable(
            self.moves[m] if m >= 0 else ZERO_MOVE for m in (m1, m2)))

    def census(self) -> ColoringCensus:
        """Tally the rows against the edges a valid coloring makes: an
        edge counts when its nodes share at least eta - 2 orbitals, and a
        row whose nodes do not, or that repeats an edge, is a duplicate."""
        xi, eta = len(self.dets), self.eta
        # xi <= 2048, so an edge code left * xi + right fits int32
        edges, counts = np.unique(self.left.astype(np.int32) * xi + self.right,
                                  return_counts=True)
        single = (self.m1 < 0) & (self.m2 >= 0)
        # sorted rather than np.unique'd: a plain np.unique imports numpy.ma,
        # 1.3 MB resident, into every run that builds a family
        images = np.sort(self.m2[single].astype(np.int64) * xi
                         + self.right[single])
        orbs = np.array(self.dets, dtype=np.int16).reshape(xi, eta)
        left, right = orbs[edges // xi], orbs[edges % xi]
        # int16 counts (eta <= 2048) keep the census's peak memory down
        shared = (left[:, :, None] == right[:, None, :]).sum(axis=(1, 2),
                                                            dtype=np.int16)
        near = shared >= eta - 2
        found = int(np.count_nonzero(near))
        expected = xi * sparsity_d(self.norb, eta)
        return ColoringCensus(
            norb=self.norb, eta=eta, n_nodes=xi,
            n_single_colors=len(self.moves),
            n_double_colors=len(self.moves) ** 2,
            edges_expected=expected, edges_found=found,
            duplicate_edges=int(np.count_nonzero((counts > 1) | ~near)),
            uncovered_edges=expected - found,
            inverse_failures=int(np.count_nonzero(~self.undone)),
            injectivity_failures=int(np.count_nonzero(images[1:]
                                                      == images[:-1])),
        )


def edge_table(norb: int, eta: int) -> EdgeTable:
    """The coloring's edges, built from the move rule alone as the module
    docstring describes; a double edge is undone when both of its single
    rows are.  Bad counts raise before any work."""
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
    # nodes fit int16 (xi <= 2048), and so do the 8 eta (N - 1) move ids
    # unless eta is close to N
    dtype = np.int16 if len(moves) <= 2**15 else np.int32
    node, move, partner, x, y, undone = (
        np.array(rows, dtype=np.int32).reshape(-1, 6).T)
    node, move, partner = (col.astype(dtype) for col in (node, move, partner))
    x, y, undone = x.astype(np.int16), y.astype(np.int16), undone == 1

    by_partner = np.argsort(partner, kind="stable")
    in_x, in_y = x[by_partner], y[by_partner]
    bounds = np.arange(xi + 1)
    in_at = np.searchsorted(partner[by_partner], bounds)
    out_at = np.searchsorted(node, bounds)
    # diagonal rows, then single rows, then the double rows of each chi
    diagonal = np.arange(xi, dtype=dtype)
    left, right = [diagonal, node], [diagonal, partner]
    m1 = [np.full(xi + len(node), -1, dtype)]
    m2 = [np.full(xi, -1, dtype), move]
    done = [np.ones(xi, dtype=bool), undone]
    for chi in range(xi):
        inc = slice(in_at[chi], in_at[chi + 1])  # rows node -> chi
        out = slice(out_at[chi], out_at[chi + 1])  # rows chi -> beta
        ok = np.broadcast_to(
            _alt1_ok(in_x[inc, None], in_y[inc, None], x[out], y[out]),
            (inc.stop - inc.start, out.stop - out.start))
        src, dst = np.nonzero(ok)
        first, second = by_partner[inc][src], out.start + dst
        left.append(node[first])
        right.append(partner[second])
        m1.append(move[first])
        m2.append(move[second])
        done.append(undone[first] & undone[second])
    return EdgeTable(norb, eta, dets, moves,
                     *(np.concatenate(c) for c in (left, right, m1, m2)),
                     undone=np.concatenate(done))


def coloring_census(norb: int, eta: int) -> ColoringCensus:
    """Exhaustively verify uniqueness, coverage, reversibility, injectivity.

    This is the tally of `edge_table`.  The family build reads its
    labelled terms off the same table's columns, and checks this tally
    first (`cimatrix.labelled_terms`).  Bad counts raise before any work.
    """
    return edge_table(norb, eta).census()
