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

`single_moves` is the move rule's array kernel: one pass over the single
excitations x -> v of some nodes (`determinants.single_excitations`) and
one tally of their candidates give every move (a, b, l, shift) of each
from both sides, on integer columns.  `edge_table` builds every edge
from one such pass: its single rows are the moves from the left, ordered
by node, and a row is undone when the same move from the right leads
back.  The double edges through a middle node are the pairs of its
incoming and outgoing rows that `_alt1_ok` accepts, judged a `row_blocks`
block of middle nodes at a time, their rows padded to the widest fan.
`coloring_census` is the table's tally, a block of edges at a time; the
family build reads its labelled terms off the same table's integer
columns once that tally is valid, and confirms each row's color with the
table's left kernel, so the coloring is checked at every size it is built.
The scalar rule (`_move_partners`, which `_apply_move` reads one b of,
and `apply_color`'s composition) and `color_of`, the inverse map from a
pair to its color, are the references the tests pin the kernel and the
coloring with.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .determinants import (Determinant, basis_size, check_dense, lex_ranks,
                           single_excitations, sparsity_d)
from .errors import TooManyDifferences
from .selfinverse import row_blocks

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


# ---------------------------------------------------------------------------
# the move rule on integer columns


def _excitations(occ: np.ndarray, norb: int):
    """Every single excitation x -> v of each int16 row of occ, in row, k,
    v order, as columns (node, k, x, v, pos, here, there, partner, new).

    x sits at position k of the node and v at position pos of the partner,
    the node with x replaced by v; nodes and partners are ranks in
    combinations order, and ``new`` holds the partners' rows.  here and
    there are `_spacing` around x in the node and around v in the partner.
    """
    rows, eta = occ.shape
    virt, new, partner = single_excitations(occ, norb)
    # positions 0..eta+1 with the sentinels 0 and N+1, and N+1 once more so
    # that the orbital after any position up to eta can be read
    pad = np.zeros((rows, eta + 3), dtype=np.int16)
    pad[:, 1:eta + 1], pad[:, eta + 1:] = occ, norb + 1
    # one entry per (row, k, v), v the j-th virtual orbital of the row
    r, k, v, j = (np.broadcast_to(grid, (rows, eta, norb - eta)).ravel()
                  for grid in (np.arange(rows, dtype=np.int32)[:, None, None],
                               np.arange(1, eta + 1, dtype=np.int16)[:, None],
                               virt[:, None, :],
                               np.arange(norb - eta, dtype=np.int16)))
    x = pad[r, k]
    c = v - 1 - j  # the occupied orbitals below v
    # v's neighbours in the partner are the node's, with x skipped
    prev, after = pad[r, c], pad[r, c + 1]
    prev = np.where(prev == x, pad[r, c - 1], prev)
    after = np.where(after == x, pad[r, c + 2], after)
    return (lex_ranks(occ, norb)[r], k, x, v, c + (v < x),
            pad[r, k + 1] - pad[r, k - 1], after - prev, partner.ravel(),
            new.reshape(-1, eta))


def _move_code(node, a, l, shift, norb: int, eta: int):
    """Code of the group (node, a, l, shift), ordered as those four."""
    return ((node * 2 + a) * eta + l - 1) * (2 * norb - 1) + shift + norb - 1


@dataclass(frozen=True)
class SingleMoves:
    """The valid single moves of some nodes from one side, one row each,
    as integer columns ordered by node, then by (a, l, shift, b).

    Nodes are ranks in combinations order.  Row r is move id ``move[r]``
    (an index into `movement_tuples`) taking ``node[r]`` to
    ``partner[r]``, with ``x[r]`` -> ``y[r]`` the moved orbital read left
    to right.
    """

    n_moves: int
    node: np.ndarray
    move: np.ndarray
    partner: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def apply(self, move: np.ndarray, node: np.ndarray):
        """(partner, x, y) of each move id applied to each node: partner
        -1 where the move gives none, and move id -1, the zero move, keeps
        the node, with x = y = 0.  Node -1 has no partner: its keys are
        negative."""
        keys = self.node.astype(np.int64) * self.n_moves + self.move
        order = np.argsort(keys)
        # a sentinel past every key keeps each search in range
        keys = np.append(keys[order], np.iinfo(np.int64).max)
        want = node.astype(np.int64) * self.n_moves + move
        at = np.searchsorted(keys, want)
        hit = (keys[at] == want) & (move >= 0)
        row = np.append(order, 0)[at]
        cols = [np.where(hit, col[row], 0) if len(col) else np.zeros_like(want)
                for col in (self.partner, self.x, self.y)]
        cols[0] = np.where(hit, cols[0], np.where(move < 0, node, -1))
        return tuple(cols)


def single_moves(occ: np.ndarray, norb: int) -> tuple[SingleMoves, ...]:
    """Every valid single move (a, b, l, shift) of each node of occ, a set
    of distinct ascending rows, from the left and from the right.

    Each single excitation x -> v of a node is one move from each side,
    shift v - x from the left and x - v from the right: the spacing
    predicate gives its a.  One candidate tally serves both sides: it
    groups the excitations of the nodes and their partners by (node, a, l,
    shift) in k order, as the candidates the predicate admits: a = 0 ones
    for a right node, a = 1 ones for a left node.  On the candidate path
    (a = 1 from the left, a = 0 from the right) the move is the
    excitation's own place b in its group, l = pos; on the direct path
    (l = k) it is the place b of the node in its partner's group, which
    must hold at most two candidates.  Only b = 0 and b = 1 are moves.
    """
    eta = occ.shape[1]
    node, k, x, v, pos, here, there, partner, new = _excitations(occ, norb)
    # the tally: the nodes and either side's direct-path partners, once each
    tally = (node, k, x, v, pos, here, there)
    direct = np.flatnonzero(there >= here)
    extra, first = np.unique(partner[direct], return_index=True)
    extra = new[direct[first[~np.isin(extra, node)]]]
    if len(extra):
        tally = tuple(np.concatenate(cols) for cols in
                      zip(tally, _excitations(extra, norb)))
    t_node, t_k, t_x, t_v, t_pos, t_here, t_there = tally
    admitted = [np.flatnonzero(t_there <= t_here),
                np.flatnonzero(t_there < t_here)]
    # sorted, with a sentinel past every key that keeps each search in range
    key = np.sort(np.concatenate([
        _move_code(t_node[e], t_a, t_pos[e],
                   (t_v[e] - t_x[e]) * (2 * t_a - 1), norb, eta) * eta
        + t_k[e] - 1 for t_a, e in enumerate(admitted)]
        + [[np.iinfo(np.int64).max]]))
    group = key // eta
    start = np.searchsorted(group, group)
    place = np.arange(len(key)) - start
    size = np.searchsorted(group, group, side="right") - start

    def from_side(side):
        a = (there < here) if side == LEFT else (here < there)
        cand = a == (side == LEFT)
        shift = (v - x if side == LEFT else x - v).astype(np.int64)
        l = np.where(cand, pos, k)
        want = _move_code(np.where(cand, node, partner), a, l, shift, norb,
                          eta) * eta + np.where(cand, k, pos) - 1
        at = np.searchsorted(key, want)
        ok = (key[at] == want) & (place[at] < 2) & (cand | (size[at] <= 2))
        a, b, l, shift = a[ok], place[at[ok]], l[ok], shift[ok]
        # the table's rows, and so the family's lexsort, keep this order; a
        # move's id is its index in movement_tuples, which skips shift 0
        out = np.argsort(_move_code(node[ok], a, l, shift, norb, eta) * 2 + b)
        move = ((a * 2 + b) * eta + l - 1) * (2 * norb - 2) + shift + norb - 1
        x_to_y = (x, v) if side == LEFT else (v, x)
        return SingleMoves(
            8 * eta * (norb - 1), node[ok][out], (move - (shift > 0))[out],
            partner[ok][out], *(col[ok][out] for col in x_to_y))
    return from_side(LEFT), from_side(RIGHT)


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

    Node k has the orbitals ``orbs[k]``, move ids run below ``n_moves``,
    and ``kernel`` holds the valid moves from the left.  Row r is the edge
    ``left[r]`` -> ``right[r]`` with color ``color(m1[r], m2[r])``, where
    move id -1 is the zero move: the diagonal edges have m1 = m2 = -1, the
    single edges (the kernel's rows, in order) m1 = -1, and a double
    edge's m1 and m2 are its first and second move.  ``undone[r]`` holds
    when the color's moves, applied from the right, lead back.
    """

    norb: int
    orbs: np.ndarray
    n_moves: int
    kernel: SingleMoves
    left: np.ndarray
    right: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    undone: np.ndarray

    def color(self, m1: int, m2: int) -> ColorTuple:
        """The color of move ids m1 then m2; id -1 is the zero move.  The
        id of (a, b, l, shift) is its index in `movement_tuples`."""
        norb, eta = self.norb, self.orbs.shape[1]

        def move(m):
            if m < 0:
                return ZERO_MOVE
            rest, s = divmod(m, 2 * norb - 2)  # shift 0 is skipped
            ab, l = divmod(rest, eta)
            return (*divmod(ab, 2), l + 1, s - (norb - 1) + (s >= norb - 1))
        return ColorTuple(*move(m1), *move(m2))

    def census(self) -> ColoringCensus:
        """Tally the rows against the edges a valid coloring makes: an
        edge counts when its nodes share at least eta - 2 orbitals, and a
        row whose nodes do not, or that repeats an edge, is a duplicate."""
        xi, eta = self.orbs.shape
        # xi <= 2048, so an edge code left * xi + right fits int32; sorted
        # in place, an edge is each run's start, repeated when not its end
        codes = self.left.astype(np.int32) * xi
        codes += self.right
        codes.sort()
        new = np.ones(len(codes), dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        edges, repeated = codes[new], ~np.append(new[1:], True)[new]
        del codes, new
        single = (self.m1 < 0) & (self.m2 >= 0)
        # sorted rather than np.unique'd: a plain np.unique imports numpy.ma,
        # 1.3 MB resident, into every run that builds a family
        images = np.sort(self.m2[single].astype(np.int64) * xi
                         + self.right[single])
        # the orbitals both nodes of an edge hold, as int16 counts (eta <=
        # 2048) over a block of edges' (eta, edges) orbital columns at a time
        orbs = np.ascontiguousarray(self.orbs.T)
        shared = np.zeros(len(edges), dtype=np.int16)
        for rows in row_blocks(len(edges), eta):
            left, right = (np.take(orbs, k, axis=1) for k in
                           np.divmod(edges[rows].astype(np.intp), xi))
            for orbital in left:
                shared[rows] += (right == orbital).sum(axis=0, dtype=np.int16)
        near = shared >= eta - 2
        found = int(np.count_nonzero(near))
        expected = xi * sparsity_d(self.norb, eta)
        return ColoringCensus(
            norb=self.norb, eta=eta, n_nodes=xi,
            n_single_colors=self.n_moves,
            n_double_colors=self.n_moves ** 2,
            edges_expected=expected, edges_found=found,
            duplicate_edges=int(np.count_nonzero(repeated | ~near)),
            uncovered_edges=expected - found,
            inverse_failures=int(np.count_nonzero(~self.undone)),
            injectivity_failures=int(np.count_nonzero(images[1:]
                                                      == images[:-1])),
        )


def edge_table(norb: int, eta: int) -> EdgeTable:
    """The coloring's edges, built from the move rule alone as the module
    docstring describes: the single rows are `single_moves` from the left,
    undone where the kernel's same move from the right leads back, and a
    double edge is undone when both of its single rows are.  Bad counts
    raise before any work."""
    xi = basis_size(norb, eta)
    check_dense(xi)
    orbs = np.array(list(itertools.combinations(range(1, norb + 1), eta)),
                    dtype=np.int16).reshape(xi, eta)
    from_left, from_right = single_moves(orbs, norb)
    n_moves = from_left.n_moves
    # nodes fit int16 (xi <= 2048), and so do the 8 eta (N - 1) move ids
    # unless eta is close to N
    dtype = np.int16 if n_moves <= 2**15 else np.int32
    node, move, partner = (col.astype(dtype) for col in (
        from_left.node, from_left.move, from_left.partner))
    x, y = from_left.x, from_left.y  # int16
    kernel = SingleMoves(n_moves, node, move, partner, x, y)
    undone = from_right.apply(move, partner)[0] == node

    # the double rows: each middle node chi's incoming rows (node -> chi, in
    # by_partner order) by its outgoing rows (chi -> beta), padded to the
    # widest fans, the padding masked, and judged a block of chis at a time
    by_partner = np.argsort(partner, kind="stable")
    in_at = np.searchsorted(partner[by_partner], np.arange(xi + 1))
    out_at = np.searchsorted(node, np.arange(xi + 1))
    pads = []
    for at, rows in ((in_at, by_partner), (out_at, slice(None))):
        count = np.diff(at)
        slot = np.arange(count.max())
        real = slot < count[:, None]
        index = np.where(real, at[:-1, None] + slot, 0)
        pads.append((x[rows][index], y[rows][index], real))
    (in_x, in_y, in_real), (out_x, out_y, out_real) = pads
    # diagonal rows, then single rows, then the double rows of each chi
    diagonal = np.arange(xi, dtype=dtype)
    left, right = [diagonal, node], [diagonal, partner]
    m1 = [np.full(xi + len(node), -1, dtype)]
    m2 = [np.full(xi, -1, dtype), move]
    done = [np.ones(xi, dtype=bool), undone]
    for chis in row_blocks(xi, in_real.shape[1] * out_real.shape[1]):
        ok = (_alt1_ok(in_x[chis, :, None], in_y[chis, :, None],
                       out_x[chis, None], out_y[chis, None])
              & in_real[chis, :, None] & out_real[chis, None])
        # np.nonzero's order, but numpy's 1-d scan is the fast one
        chi, src, dst = np.unravel_index(np.flatnonzero(ok), ok.shape)
        chi += chis.start
        first, second = by_partner[in_at[chi] + src], out_at[chi] + dst
        left.append(node[first])
        right.append(partner[second])
        m1.append(move[first])
        m2.append(move[second])
        done.append(undone[first] & undone[second])
    return EdgeTable(norb, orbs, n_moves, kernel,
                     *(np.concatenate(c) for c in (left, right, m1, m2)),
                     undone=np.concatenate(done))


def coloring_census(norb: int, eta: int) -> ColoringCensus:
    """Exhaustively verify uniqueness, coverage, reversibility, injectivity.

    This is the tally of `edge_table`.  The family build reads its
    labelled terms off the same table's columns, and checks this tally
    first (`cimatrix.labelled_terms`).  Bad counts raise before any work.
    """
    return edge_table(norb, eta).census()
