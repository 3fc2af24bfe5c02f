import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisim.coloring import (DIAGONAL_COLOR, LEFT, RIGHT, ColorTuple,
                            SingleMoves, _alt1_ok, _apply_move, _candidates,
                            _move_partners, apply_color, color_of,
                            coloring_census, edge_table, movement_tuples,
                            single_colors, single_moves, double_colors)
from cisim.determinants import Determinant, enumerate_basis
from cisim.errors import DimensionTooLarge, InvalidCounts, TooManyDifferences

from oracles import census_by_counters


def occs(cands):
    return [c for c, _, _ in cands]


def test_find_alphas_traced_examples():
    assert occs(_candidates((1, 3, 5), 0, 2, 1, 6)) == [(1, 2, 5)]
    # sentinel beta_4 = N + 1 = 9 admits the second candidate
    assert occs(_candidates((1, 5, 7), 0, 2, 3, 8)) == [(1, 2, 7), (1, 4, 5)]
    assert occs(_candidates((1, 2, 3), 0, 1, 1, 6)) == []


def test_find_betas_traced_examples():
    # spacing tie (4 vs 4) fails the strict inequality: ties go to a = 0
    assert occs(_candidates((1, 2, 5), 1, 2, 1, 6)) == []
    # moving 4 -> 5 in (1, 4, 9) keeps the same neighbours, so the
    # spacing tie (8 vs 8) rejects it as well
    assert occs(_candidates((1, 4, 9), 1, 2, 1, 9)) == []
    # a crossing move shrinks the spacing: 5 -> 1 in (2, 3, 5) lands at
    # position 1 with spacing 2 < 4
    assert occs(_candidates((2, 3, 5), 1, 1, -4, 6)) == [(1, 2, 3)]
    # two candidates, disambiguated by b
    assert occs(_candidates((3, 4, 7), 1, 3, 5, 9)) == [(4, 7, 8), (3, 7, 9)]


def test_find_with_zero_shift():
    b = (2, 4, 6)
    assert occs(_candidates(b, 0, 2, 0, 8)) == [(2, 4, 6)]
    # the strict mirror has no zero-shift fixed point
    assert occs(_candidates(b, 1, 2, 0, 8)) == []


def test_apply_single_examples():
    assert _apply_move(0, 0, 2, 1, (1, 2, 5), LEFT, 6)[0] == (1, 3, 5)
    assert _apply_move(0, 1, 2, 3, (1, 5, 7), RIGHT, 8)[0] == (1, 4, 5)


def test_apply_single_out_of_range_is_invalid():
    a = (1, 2)
    assert _apply_move(0, 0, 2, 3, a, LEFT, 4) is None   # 2 + 3 > N
    assert _apply_move(0, 0, 1, -1, a, LEFT, 4) is None  # 1 - 1 < 1
    assert _apply_move(0, 0, 1, 1, a, LEFT, 4) is None   # collision with 2


def test_apply_color_diagonal():
    a = Determinant((2, 4), 5)
    assert apply_color(DIAGONAL_COLOR, a, LEFT).occ == (2, 4)
    assert apply_color(DIAGONAL_COLOR, a, RIGHT).occ == (2, 4)


def test_color_of_single_example():
    a, b = Determinant((1, 2, 5), 6), Determinant((1, 3, 5), 6)
    c = color_of(a, b)
    assert (c.a2, c.b2, c.l2, c.q) == (0, 0, 2, 1)
    assert (c.p, c.a1, c.b1) == (0, 0, 0)


def test_color_of_diagonal_and_errors():
    a = Determinant((1, 2), 5)
    assert color_of(a, a) == DIAGONAL_COLOR
    x = Determinant((1, 2, 3), 6)
    y = Determinant((4, 5, 6), 6)
    with pytest.raises(TooManyDifferences):
        color_of(x, y)


def test_round_trip_all_edges_6_3():
    dets = enumerate_basis(6, 3)
    for a in dets:
        for b in dets:
            ndiff = len(set(a.occ) - set(b.occ))
            if ndiff > 2 or a.occ == b.occ:
                continue
            c = color_of(a, b)
            assert apply_color(c, a, LEFT) == b
            assert apply_color(c, b, RIGHT) == a


def test_crossed_double_pairing_is_invalid():
    # alpha = (1, 2), beta = (3, 4): the canonical color maps 1 -> 3 then
    # 2 -> 4. Build the crossed composition 1 -> 4 then 2 -> 3 by hand;
    # its application must reject the edge.
    from cisim.coloring import _single_color_parts
    a = Determinant((1, 2), 6)
    b = Determinant((3, 4), 6)
    canonical = color_of(a, b)
    assert apply_color(canonical, a, LEFT) == b
    chi = (2, 4)  # 1 -> 4 first
    t1 = _single_color_parts(a.occ, chi, 6)
    t2 = _single_color_parts(chi, b.occ, 6)
    crossed = ColorTuple(*t1, *t2)
    assert apply_color(crossed, a, LEFT) is None


def test_single_color_count():
    assert len(movement_tuples(6, 2)) == 2 * 2 * 2 * (2 * 5)
    assert len(single_colors(6, 2)) == 80
    assert len(double_colors(6, 2)) == 80 * 80


@pytest.mark.parametrize("norb,eta", [(4, 2), (5, 2), (6, 3), (6, 2)])
def test_census_small(norb, eta):
    census = coloring_census(norb, eta)
    assert census.valid, census


def test_census_counts_diagonal_and_offdiagonal():
    census = coloring_census(4, 2)
    # 6 nodes: 6 diagonal pairs + 6*(d-1) off-diagonal neighbours
    assert census.edges_expected == 36
    assert census.edges_found == 36


def _redirect_one_left_move(a, l, shift, occ, side, norb):
    # the b = 0 result of (0, 0, 1, 1) on (1, 3, 5) from the left
    res = _move_partners(a, l, shift, occ, side, norb)
    if (a, l, shift, occ, side) == (0, 1, 1, (1, 3, 5), LEFT):
        return [((2, 3, 4),) + res[0][1:]] + res[1:]
    return res


def _drop_right_a1_b0(a, b, l, shift, occ, side, norb):
    if side == RIGHT and (a, b) == (1, 0):
        return None
    return _apply_move(a, b, l, shift, occ, side, norb)


def _kernel_redirect_one_left_move(occ, norb):
    # _redirect_one_left_move on the kernel's rows: the move (0, 0, 1, 1)
    # of (1, 3, 5) from the left lands on (2, 3, 4), x and y kept
    left, right = single_moves(occ, norb)
    eta = occ.shape[1]
    if eta != 3:
        return left, right
    dets = list(itertools.combinations(range(1, norb + 1), eta))
    row = ((left.node == dets.index((1, 3, 5)))
           & (left.move == movement_tuples(norb, eta).index((0, 0, 1, 1))))
    return dataclasses.replace(
        left, partner=np.where(row, dets.index((2, 3, 4)), left.partner)), right


def _kernel_drop_right_a1_b0(occ, norb):
    # _drop_right_a1_b0 on the kernel's rows
    left, right = single_moves(occ, norb)
    a, b = np.array(movement_tuples(norb, occ.shape[1]))[right.move, :2].T
    keep = (a != 1) | (b != 0)
    return left, SingleMoves(right.n_moves, right.node[keep],
                             right.move[keep], right.partner[keep],
                             right.x[keep], right.y[keep])


@pytest.mark.parametrize("name,fault,counts", [
    ("_alt1_ok", lambda *pairs: True, dict(duplicate_edges=380)),
    ("_alt1_ok", lambda *pairs: False,
     dict(edges_found=200, uncovered_edges=180)),
    ("single_moves", _kernel_drop_right_a1_b0, dict(inverse_failures=72)),
    ("single_moves", _kernel_redirect_one_left_move,
     dict(injectivity_failures=1, duplicate_edges=1, uncovered_edges=1,
          inverse_failures=5)),
], ids=["alt1-always", "alt1-never", "right-a1-b0-invalid", "left-redirect"])
def test_census_catches_each_fault(name, fault, counts, monkeypatch):
    # every other census test runs on the correct coloring
    import cisim.coloring as coloring
    monkeypatch.setattr(coloring, name, fault)
    census = coloring_census(6, 3)
    assert {k: getattr(census, k) for k in counts} == counts
    assert census.valid is False


@pytest.mark.parametrize("faults", [
    [],
    [("_alt1_ok", lambda *pairs: True)],
    [("_alt1_ok", lambda x1, y1, x2, y2: x1 < x2)],
    [("_apply_move", _drop_right_a1_b0),
     ("single_moves", _kernel_drop_right_a1_b0)],
    [("_move_partners", _redirect_one_left_move),
     ("single_moves", _kernel_redirect_one_left_move)],
], ids=["none", "alt1-always", "alt1-x-only", "right-a1-b0-invalid",
        "left-redirect"])
@pytest.mark.parametrize("norb,eta", [(5, 2), (6, 3), (7, 3)])
def test_census_matches_the_counter_walk(norb, eta, faults, monkeypatch):
    # the kernel's integer-column tally against tuple-keyed Counters over
    # the scalar rule, on the correct coloring and with each fault patched
    # into both: the scalar one for the walk, the kernel one for the census
    import cisim.coloring as coloring
    for name, fault in faults:
        monkeypatch.setattr(coloring, name, fault)
    expected = census_by_counters(norb, eta)
    census = coloring_census(norb, eta)
    assert {k: getattr(census, k) for k in expected} == expected


def test_census_makes_no_scalar_move_call(monkeypatch):
    # the table runs the move rule on the kernel's integer columns alone
    import cisim.coloring as coloring

    def scalar(*args):
        raise AssertionError("the census ran the scalar move rule")

    for name in ("_move_to", "_spacing_a", "_candidates", "_move_partners",
                 "_apply_move", "_apply_color_occ", "apply_color"):
        monkeypatch.setattr(coloring, name, scalar)
    assert coloring_census(6, 3).valid


def test_census_undoes_each_valid_left_move_once(monkeypatch):
    # a double edge's second move is a row of the table, so its undo is
    # that row's single-edge undo: one RIGHT lookup per valid left move
    import cisim.coloring as coloring
    sides, lookups = [], []
    apply = SingleMoves.apply

    def counted_moves(occ, norb):
        left, right = single_moves(occ, norb)
        sides.append((len(left.node), len(right.node)))
        return left, right

    def counted_apply(self, move, node):
        lookups.append(list(zip(move.tolist(), node.tolist())))
        return apply(self, move, node)

    monkeypatch.setattr(coloring, "single_moves", counted_moves)
    monkeypatch.setattr(coloring.SingleMoves, "apply", counted_apply)
    assert coloring_census(6, 3).valid
    assert sides == [(180, 180)]
    assert len(lookups) == 1
    assert len(lookups[0]) == len(set(lookups[0])) == 180


def test_census_evaluates_each_left_move_once_for_both_b(monkeypatch):
    # moves (a, 0, l, shift) and (a, 1, l, shift) share one evaluation:
    # each of the 20 nodes' 3 x 3 excitations at (6, 3) is evaluated once
    # for both sides, and its b is its place in the one tally, not a
    # second search
    import cisim.coloring as coloring
    rows = []
    excitations = coloring._excitations

    def counted(occ, norb):
        cols = excitations(occ, norb)
        rows.append((len(occ), len(cols[0])))
        return cols

    monkeypatch.setattr(coloring, "_excitations", counted)
    assert coloring_census(6, 3).valid
    assert rows == [(20, 20 * 3 * 3)]


def _scalar_moves(dets, side, norb, eta):
    """{(node, move id): (partner, x, y)} of every valid single move of
    the nodes in dets, by the scalar rule."""
    index = {occ: i for i, occ in
             enumerate(itertools.combinations(range(1, norb + 1), eta))}
    out = {}
    for occ in dets:
        for m, move in enumerate(movement_tuples(norb, eta)):
            res = _apply_move(*move, occ, side, norb)
            if res is not None:
                out[index[occ], m] = (index[res[0]], *res[1:])
    return out


def _kernel_moves(dets, side, norb, eta):
    moves = single_moves(np.array(dets, dtype=np.int16).reshape(-1, eta),
                         norb)[side == RIGHT]
    return {(n, m): (p, x, y) for n, m, p, x, y in zip(
        *(col.tolist() for col in (moves.node, moves.move, moves.partner,
                                   moves.x, moves.y)))}


@pytest.mark.parametrize("norb", range(2, 9))
def test_kernel_equals_the_scalar_rule_everywhere(norb):
    # every single move x node x side: the kernel's rows are the scalar
    # rule's valid moves, and its map gives -1 wherever the rule gives None
    for eta, side in itertools.product(range(1, norb + 1), (LEFT, RIGHT)):
        dets = list(itertools.combinations(range(1, norb + 1), eta))
        expected = _scalar_moves(dets, side, norb, eta)
        assert _kernel_moves(dets, side, norb, eta) == expected
        moves = single_moves(np.array(dets, dtype=np.int16).reshape(-1, eta),
                             norb)[side == RIGHT]
        node, move = (col.ravel() for col in np.meshgrid(
            np.arange(len(dets)), np.arange(moves.n_moves), indexing="ij"))
        mapped = zip(*(col.tolist() for col in moves.apply(move, node)))
        assert {(n, m): res for n, m, res in zip(node.tolist(), move.tolist(),
                                                   mapped)
                if res[0] >= 0} == expected


@pytest.mark.parametrize("norb,eta", [(12, 4), (14, 4)])
def test_kernel_equals_the_scalar_rule_on_sampled_nodes(norb, eta):
    dets = list(itertools.combinations(range(1, norb + 1), eta))
    rng = np.random.default_rng(norb)
    sample = [dets[i] for i in sorted(rng.choice(len(dets), 12,
                                                 replace=False))]
    for side in (LEFT, RIGHT):
        assert (_kernel_moves(sample, side, norb, eta)
                == _scalar_moves(sample, side, norb, eta))


@pytest.mark.parametrize("norb,eta", [(6, 3), (8, 4)])
def test_kernel_composes_each_color_as_apply_color(norb, eta):
    # each row's m1 then m2 from the left by the table's kept kernel, its
    # pair judged by _alt1_ok, is the select oracle's map of the row's color
    table = edge_table(norb, eta)
    chi, x1, y1 = table.kernel.apply(table.m1, table.left)
    partner, x2, y2 = table.kernel.apply(table.m2, chi)
    ok = (table.m1 < 0) | _alt1_ok(x1, y1, x2, y2)
    dets = [tuple(occ) for occ in table.orbs.tolist()]
    assert dets == list(itertools.combinations(range(1, norb + 1), eta))
    for m1, m2, left, mapped in zip(table.m1.tolist(), table.m2.tolist(),
                                    table.left.tolist(),
                                    np.where(ok, partner, -1).tolist()):
        beta = apply_color(table.color(m1, m2), Determinant(dets[left], norb),
                           LEFT)
        assert mapped == (-1 if beta is None else dets.index(beta.occ))


def test_census_pinned_past_acceptance_range():
    assert dataclasses.astuple(coloring_census(10, 4)) == (
        10, 4, 210, 288, 82944, 24150, 24150, 0, 0, 0, 0)


def test_census_pinned_at_benchmark_size():
    assert dataclasses.astuple(coloring_census(12, 4)) == (
        12, 4, 495, 352, 123904, 99495, 99495, 0, 0, 0, 0)


def test_census_never_holds_every_two_step_path():
    # (10,4) has 24,150 edges; the walk's temporaries are one middle
    # node's in x out block at a time, not every path at once
    coloring_census(10, 4)
    tracemalloc.start()
    try:
        coloring_census(10, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_census_finds_duplicate_edges_in_its_own_sorted_codes():
    # (64,2)'s 4,064,256 rows as int32 edge codes take 16 MB; a census that
    # sorts them in place and marks run starts peaks well under 60 MiB,
    # where np.unique(..., return_counts=True) alone peaks at 112 MiB
    table = edge_table(64, 2)
    tracemalloc.start()
    try:
        census = table.census()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.valid and census.edges_found == len(table.left)
    assert peak < 60 * 2**20, peak


@settings(max_examples=200)
@given(st.lists(st.tuples(*[st.integers(-3, 20)] * 4), min_size=1,
                max_size=30))
def test_alt1_ok_is_one_elementwise_rule(pairs):
    # the census judges a block of arrays, apply_color a pair of scalars
    scalars = [_alt1_ok(*p) for p in pairs]
    assert all(type(ok) is bool for ok in scalars)
    block = _alt1_ok(*np.array(pairs, dtype=np.int16).T)
    assert block.dtype == bool and block.tolist() == scalars


def test_degree_one_per_color():
    # fixed color, fixed side: the map hits each target at most once
    dets = enumerate_basis(6, 2)
    for color in double_colors(6, 2)[:200]:
        seen = set()
        for d in dets:
            res = apply_color(color, d, LEFT)
            if res is not None:
                assert res.occ not in seen
                seen.add(res.occ)


@pytest.mark.parametrize("norb,eta", [(10, 4), (16, 8)])
def test_round_trip_sampled_large(norb, eta):
    # beyond the exhaustive range: alpha and a partner one or two orbital
    # swaps away, so every sampled pair is connected
    import numpy as np
    rng = np.random.default_rng(33)
    orbitals = np.arange(1, norb + 1)
    for _ in range(500):
        occ = rng.choice(orbitals, size=eta, replace=False)
        empty = np.setdiff1d(orbitals, occ)
        k = int(rng.integers(1, 3))
        partner = set(occ) - set(rng.choice(occ, size=k, replace=False))
        partner |= set(rng.choice(empty, size=k, replace=False))
        a = Determinant(tuple(sorted(int(o) for o in occ)), norb)
        b = Determinant(tuple(sorted(int(o) for o in partner)), norb)
        c = color_of(a, b)
        assert apply_color(c, a, LEFT) == b
        assert apply_color(c, b, RIGHT) == a


# sha256 of repr((alpha.occ, beta.occ, color_of(alpha, beta))) over every
# ordered pair one or two orbitals apart, in enumerate_basis order.  A
# valid re-coloring only regroups edges among labels, which neither the
# census nor the reports can see, so the labels themselves are pinned.
COLORING_DIGESTS = {
    (6, 3): "1853b81c02c32ed1c53726c8850c20efcd73bf50578a1abf43be995da4381887",
    (8, 4): "b545e15f6afe321ed29774768396e85e5a37694b6cd1bcfc94137339c19a2e32",
}


@pytest.mark.parametrize("norb,eta", sorted(COLORING_DIGESTS))
def test_coloring_is_pinned(norb, eta):
    digest = hashlib.sha256()
    dets = enumerate_basis(norb, eta)
    for a in dets:
        for b in dets:
            if 1 <= len(set(a.occ) - set(b.occ)) <= 2:
                digest.update(repr((a.occ, b.occ, color_of(a, b))).encode())
    assert digest.hexdigest() == COLORING_DIGESTS[norb, eta]


# sha256 of the bytes, as stored, of the table's columns left, right, m1,
# m2 and undone and of its kernel's columns node, move, partner, x and y,
# in that order.  The family's lexsort and the report's sums read the rows
# in table order, so the order is pinned with the rows, and the column
# types with them.
EDGE_TABLE_DIGESTS = {
    (6, 3): "14b01471e4ab9aaa60a82ac697e5fc36e78336982aa331218b0ba9dd558a9f52",
    (8, 4): "19a180bbf9f3d1cb1e783a19ed2c7ec1d8e1eb08ae708ce6c8f3b4f97231cb6c",
    (10, 4): "8f793d36ba8bcc8ee5bd5eba212a8619a974e2271d81669e46b779260cf31bba",
    (12, 4): "730519513e85c008c3517721bda996b170e113e858e3c16ca204db80d31b9d42",
}


@pytest.mark.parametrize("norb,eta", sorted(EDGE_TABLE_DIGESTS))
def test_edge_table_is_pinned(norb, eta):
    table = edge_table(norb, eta)
    kernel = table.kernel
    digest = hashlib.sha256()
    for col in (table.left, table.right, table.m1, table.m2, table.undone,
                kernel.node, kernel.move, kernel.partner, kernel.x, kernel.y):
        digest.update(col.tobytes())
    assert digest.hexdigest() == EDGE_TABLE_DIGESTS[norb, eta]


@pytest.mark.parametrize("norb,eta", [(4, 2), (6, 3), (8, 4), (12, 4)])
def test_edge_table_enumerates_the_basis_once(norb, eta, monkeypatch):
    # one pass over the basis's single excitations and one tally give the
    # moves from both sides; every partner is a node of the basis, so no
    # second pass is made
    import cisim.coloring as coloring
    rows = []
    excitations = coloring._excitations

    def counted(occ, norb):
        rows.append(len(occ))
        return excitations(occ, norb)

    monkeypatch.setattr(coloring, "_excitations", counted)
    edge_table(norb, eta)
    assert rows == [math.comb(norb, eta)]


@pytest.mark.parametrize("block", [1, 1000])
@pytest.mark.parametrize("norb,eta", sorted(EDGE_TABLE_DIGESTS))
def test_edge_table_is_pinned_at_any_block(norb, eta, block, monkeypatch):
    # blocks of one middle node and one edge, and blocks cut inside the
    # table, give the pinned rows and the census of the default blocks
    import cisim.selfinverse as selfinverse
    census = edge_table(norb, eta).census()
    monkeypatch.setattr(selfinverse, "BLOCK_VALUES", block)
    test_edge_table_is_pinned(norb, eta)
    assert edge_table(norb, eta).census() == census


def test_edge_table_judges_the_double_rows_a_block_at_a_time(monkeypatch):
    # one acceptance test per block of middle nodes, each block padded to
    # the widest fan in and out, not one per middle node
    import cisim.coloring as coloring
    from cisim.selfinverse import row_blocks
    calls = []
    alt1_ok = coloring._alt1_ok

    def counted(*pairs):
        calls.append(1)
        return alt1_ok(*pairs)

    monkeypatch.setattr(coloring, "_alt1_ok", counted)
    table = edge_table(12, 4)
    xi = len(table.orbs)
    fan_in, fan_out = (np.bincount(col, minlength=xi).max()
                       for col in (table.kernel.partner, table.kernel.node))
    assert len(calls) == len(row_blocks(xi, fan_in * fan_out)) < xi


def test_edge_table_builds_no_move_list(monkeypatch):
    # the table decodes its move ids arithmetically: the list of every
    # (a, b, l, shift) is never built, and decodes to the same colors
    import cisim.coloring as coloring

    def no_move_list(*args):
        raise AssertionError("the edge table built the move list")

    monkeypatch.setattr(coloring, "movement_tuples", no_move_list)
    table = edge_table(6, 3)
    assert table.census().valid
    monkeypatch.undo()
    moves = movement_tuples(6, 3)
    assert table.n_moves == len(moves)
    for m1, m2 in zip(table.m1.tolist(), table.m2.tolist()):
        assert table.color(m1, m2) == ColorTuple(*itertools.chain.from_iterable(
            moves[m] if m >= 0 else coloring.ZERO_MOVE for m in (m1, m2)))


@st.composite
def connected_pairs(draw):
    """alpha and a partner one or two orbital changes away, N <= 16."""
    norb = draw(st.integers(2, 16))
    eta = draw(st.integers(1, min(8, norb - 1)))
    alpha = draw(st.lists(st.integers(1, norb), min_size=eta,
                          max_size=eta, unique=True))
    empty = sorted(set(range(1, norb + 1)) - set(alpha))
    k = draw(st.integers(1, min(2, eta, len(empty))))
    drop = draw(st.lists(st.sampled_from(alpha), min_size=k, max_size=k,
                         unique=True))
    add = draw(st.lists(st.sampled_from(empty), min_size=k, max_size=k,
                        unique=True))
    beta = (set(alpha) - set(drop)) | set(add)
    return norb, tuple(sorted(alpha)), tuple(sorted(beta))


@settings(max_examples=300)
@given(connected_pairs())
def test_each_move_is_undone_from_the_other_side(pair):
    # past the census range: every move of color_of(alpha, beta), applied
    # to each node of the path alpha -> chi -> beta from either side, is
    # undone by the same move from the other side with the same x -> y
    norb, alpha, beta = pair
    c = color_of(Determinant(alpha, norb), Determinant(beta, norb))
    moves = [(c.a2, c.b2, c.l2, c.q)]
    if c.p != 0:
        moves.insert(0, (c.a1, c.b1, c.l1, c.p))
    path = [alpha]
    for move in moves:
        path.append(_apply_move(*move, path[-1], LEFT, norb)[0])
    assert path[-1] == beta
    for move in moves:
        for node in path:
            for side, back in ((LEFT, RIGHT), (RIGHT, LEFT)):
                res = _apply_move(*move, node, side, norb)
                if res is not None:
                    new, x, y = res
                    assert _apply_move(*move, new, back, norb) == (node, x, y)


@st.composite
def nodes(draw):
    """A node of up to 16 orbitals and up to 8 electrons."""
    norb = draw(st.integers(2, 16))
    eta = draw(st.integers(1, min(8, norb - 1)))
    occ = draw(st.lists(st.integers(1, norb), min_size=eta, max_size=eta,
                        unique=True))
    return norb, tuple(sorted(occ))


@settings(max_examples=300)
@given(nodes())
def test_each_left_partner_is_colored_by_its_move(node):
    # past the census range: from the left, one evaluation of (a, l, shift)
    # yields at most two partners, and the one at index b is the edge
    # that color_of labels with the single move (a, b, l, shift)
    norb, occ = node
    alpha = Determinant(occ, norb)
    shifts = [s for s in range(1 - norb, norb) if s != 0]
    for a, l, shift in itertools.product((0, 1), range(1, len(occ) + 1),
                                         shifts):
        res = _move_partners(a, l, shift, occ, LEFT, norb)
        assert len(res) <= 2
        for b, partner in enumerate(res):
            if partner is not None:
                beta = Determinant(partner[0], norb)
                assert color_of(alpha, beta) == ColorTuple(
                    0, 0, 1, 0, a, b, l, shift)


@settings(max_examples=300, deadline=None)
@given(nodes())
def test_kernel_equals_the_scalar_rule_at_a_node(node):
    # past the census range: the kernel evaluates one node alone, its
    # tally covering the node and its direct partners
    norb, occ = node
    for side in (LEFT, RIGHT):
        assert (_kernel_moves([occ], side, norb, len(occ))
                == _scalar_moves([occ], side, norb, len(occ)))


@pytest.mark.parametrize("norb,eta,error", [
    (4, 0, InvalidCounts), (4, -1, InvalidCounts), (14, 7, DimensionTooLarge)])
def test_census_rejects_counts_before_any_work(norb, eta, error, monkeypatch):
    import types
    import cisim.coloring as coloring

    def no_enumeration(*args):
        raise AssertionError("the census enumerated determinants")

    monkeypatch.setattr(coloring, "itertools",
                        types.SimpleNamespace(combinations=no_enumeration))
    monkeypatch.setattr(coloring, "movement_tuples", no_enumeration)
    with pytest.raises(error):
        coloring_census(norb, eta)
