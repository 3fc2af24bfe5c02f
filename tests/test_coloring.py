import dataclasses
import hashlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisim.coloring import (DIAGONAL_COLOR, LEFT, RIGHT, ColorTuple,
                            _alt1_ok, _apply_move, _candidates,
                            _move_partners,
                            apply_color, color_of, coloring_census,
                            movement_tuples, single_colors, double_colors)
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


@pytest.mark.parametrize("name,fault,counts", [
    ("_alt1_ok", lambda *pairs: True, dict(duplicate_edges=380)),
    ("_alt1_ok", lambda *pairs: False,
     dict(edges_found=200, uncovered_edges=180)),
    ("_apply_move", _drop_right_a1_b0, dict(inverse_failures=72)),
    ("_move_partners", _redirect_one_left_move,
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


@pytest.mark.parametrize("name,fault", [
    (None, None),
    ("_alt1_ok", lambda *pairs: True),
    ("_alt1_ok", lambda x1, y1, x2, y2: x1 < x2),
    ("_apply_move", _drop_right_a1_b0),
    ("_move_partners", _redirect_one_left_move),
], ids=["none", "alt1-always", "alt1-x-only", "right-a1-b0-invalid",
        "left-redirect"])
@pytest.mark.parametrize("norb,eta", [(5, 2), (6, 3), (7, 3)])
def test_census_matches_the_counter_walk(norb, eta, name, fault, monkeypatch):
    # the integer-column tally against tuple-keyed Counters, on the
    # correct coloring and with each fault patched into both
    import cisim.coloring as coloring
    if name is not None:
        monkeypatch.setattr(coloring, name, fault)
    expected = census_by_counters(norb, eta)
    census = coloring_census(norb, eta)
    assert {k: getattr(census, k) for k in expected} == expected


def test_census_undoes_each_valid_left_move_once(monkeypatch):
    # a double edge's second move is a row of the table, so its undo is
    # that row's single-edge undo: one RIGHT call per valid left move
    import cisim.coloring as coloring
    calls = Counter()

    def counted(a, l, shift, occ, side, norb):
        res = _move_partners(a, l, shift, occ, side, norb)
        calls[side] += 1 if side == RIGHT else sum(r is not None for r in res)
        return res

    monkeypatch.setattr(coloring, "_move_partners", counted)
    assert coloring_census(6, 3).valid
    assert calls == {LEFT: 180, RIGHT: 180}


def test_census_evaluates_each_left_move_once_for_both_b(monkeypatch):
    # moves (a, 0, l, shift) and (a, 1, l, shift) share one evaluation:
    # 20 nodes x 60 (a, l, shift) at (6, 3), and fewer candidate searches
    import cisim.coloring as coloring
    calls = Counter()

    def counting(fn, key):
        def counted(*args):
            calls[key(args)] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(coloring, "_move_partners",
                        counting(_move_partners, lambda args: args[4]))
    monkeypatch.setattr(coloring, "_candidates",
                        counting(_candidates, lambda args: "_candidates"))
    assert coloring_census(6, 3).valid
    assert calls[LEFT] == 20 * 60
    assert calls["_candidates"] == 930


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
