import ast
import itertools
from math import comb
from pathlib import Path

import pytest

import cisim.determinants as determinants
from cisim.coloring import _orb
from cisim.determinants import (Determinant, _permutation_parity,
                                align_and_diff, basis_size, enumerate_basis,
                                excitations)
from cisim.errors import DuplicateOrbital, IndexOutOfRange, InvalidCounts

from conftest import inversion_parity

# The parity of sorting an orbital list is the parity of its rank
# sequence, which align_and_diff computes with _permutation_parity.


def test_make_determinant_sorted():
    assert _permutation_parity([0, 1, 2]) == +1


def test_make_determinant_one_swap():
    assert _permutation_parity([1, 0, 2]) == -1


def test_make_determinant_parity_oracle():
    # [3,1,2] has two inversions; cross-check with the brute-force count
    assert _permutation_parity([2, 0, 1]) == inversion_parity([3, 1, 2]) == +1


def test_sort_parity_matches_oracle_exhaustive():
    for perm in itertools.permutations([1, 2, 3, 4]):
        assert _permutation_parity([v - 1 for v in perm]) \
            == inversion_parity(perm)


def test_make_determinant_errors():
    with pytest.raises(DuplicateOrbital):
        Determinant((1, 1, 2), 4)
    with pytest.raises(IndexOutOfRange):
        Determinant((0, 2), 4)
    with pytest.raises(IndexOutOfRange):
        Determinant((2, 5), 4)
    with pytest.raises(InvalidCounts):
        Determinant((), 4)
    with pytest.raises(ValueError, match="not ascending"):
        Determinant((3, 1), 4)


def test_enumerate_basis_4_2():
    dets = enumerate_basis(4, 2)
    assert len(dets) == 6 == basis_size(4, 2)
    assert dets[0].occ == (1, 2) and dets[-1].occ == (3, 4)
    assert [d.occ for d in dets] == sorted(d.occ for d in dets)


def test_enumerate_basis_edges():
    assert [d.occ for d in enumerate_basis(3, 3)] == [(1, 2, 3)]
    assert [d.occ for d in enumerate_basis(4, 1)] == [(1,), (2,), (3,), (4,)]
    with pytest.raises(InvalidCounts):
        enumerate_basis(3, 4)
    with pytest.raises(InvalidCounts):
        enumerate_basis(3, 0)


def test_sentinel_accessors():
    # position 0 reads 0 and position eta + 1 reads N + 1
    occ = (2, 5)
    assert _orb(occ, 6, 0) == 0
    assert _orb(occ, 6, 1) == 2
    assert _orb(occ, 6, 2) == 5
    assert _orb(occ, 6, 3) == 7


def test_align_identity():
    a = Determinant((1, 2), 4)
    rep = align_and_diff(a, a)
    assert rep.count == 0 and rep.sign == +1 and rep.common == (1, 2)


def test_align_rejects_determinants_of_different_bases():
    a = Determinant((1, 2), 4)
    for other in (Determinant((1, 2), 5), Determinant((1,), 4)):
        with pytest.raises(InvalidCounts):
            align_and_diff(a, other)


def test_align_single_difference():
    rep = align_and_diff(Determinant((1, 2, 5), 6), Determinant((1, 3, 5), 6))
    assert rep.count == 1
    assert rep.positions_left == (2,) and rep.positions_right == (2,)
    assert rep.common == (1, 5)


def _alignment_sign_oracle(left, right):
    """Parity of the permutation carrying sorted(right) onto the aligned list."""
    lset, rset = set(left.occ), set(right.occ)
    only_left = [o for o in left.occ if o not in rset]
    only_right = [o for o in right.occ if o not in lset]
    replace = dict(zip(sorted(only_left), sorted(only_right)))
    aligned = [replace.get(o, o) for o in left.occ]
    order = {o: i for i, o in enumerate(right.occ)}
    return inversion_parity([order[o] for o in aligned])


def test_align_double_difference_sign_oracle():
    a, b = Determinant((1, 2), 4), Determinant((3, 4), 4)
    rep = align_and_diff(a, b)
    assert rep.count == 2
    assert rep.sign == _alignment_sign_oracle(a, b)


def test_align_sign_matches_oracle_everywhere():
    dets = enumerate_basis(6, 3)
    for a in dets:
        for b in dets:
            rep = align_and_diff(a, b)
            if rep.count <= 2:
                assert rep.sign == _alignment_sign_oracle(a, b)


def test_align_symmetry_and_set_oracle():
    for norb, eta in [(6, 2), (8, 4)]:
        dets = enumerate_basis(norb, eta)
        for a in dets:
            for b in dets:
                rep = align_and_diff(a, b)
                rev = align_and_diff(b, a)
                assert rep.count == rev.count == len(set(a.occ) - set(b.occ))
                assert rep.positions_left == rev.positions_right
                if rep.count <= 2:
                    assert rep.sign == rev.sign


def _excitation_entries(ex):
    """{(row, partner): (sign, holes, particles)} over every excitation,
    asserting that no pair is listed twice."""
    entries = {}
    for moves in (ex.singles, ex.doubles):
        for row, partner, sign, holes, particles in zip(
                moves.row.tolist(), moves.partner.tolist(),
                moves.sign.tolist(), moves.holes.T.tolist(),
                moves.particles.T.tolist()):
            assert (row, partner) not in entries
            entries[(row, partner)] = (sign, tuple(holes), tuple(particles))
    return entries


def _aligned_entries(basis, rows=None):
    """The same map from align_and_diff over every pair one or two
    orbitals apart (with its left determinant in ``rows`` when given)."""
    entries = {}
    for ia, a in enumerate(basis):
        if rows is not None and ia not in rows:
            continue
        for ib, b in enumerate(basis):
            diff = align_and_diff(a, b)
            if 1 <= diff.count <= 2:
                entries[(ia, ib)] = (
                    diff.sign,
                    tuple(a.occ[p - 1] for p in diff.positions_left),
                    tuple(b.occ[p - 1] for p in diff.positions_right))
    return entries


@pytest.mark.parametrize("norb,eta", [(n, e) for n in range(1, 9)
                                      for e in range(1, n + 1)])
def test_excitations_match_align_and_diff(norb, eta):
    # every pair one or two orbitals apart, once, with its alignment sign
    # and moved orbitals; eta = 1 has no doubles, eta = N no singles and
    # N - eta = 1 no doubles, so those arrays are empty
    ex = excitations(norb, eta)
    basis = enumerate_basis(norb, eta)
    assert [tuple(o) for o in ex.occ.tolist()] == [d.occ for d in basis]
    xi = len(basis)
    assert len(ex.singles.row) == xi * eta * (norb - eta)
    assert len(ex.doubles.row) == xi * comb(eta, 2) * comb(norb - eta, 2)
    assert _excitation_entries(ex) == _aligned_entries(basis)


def test_excitations_have_no_word_size_cap():
    # 70 orbitals do not fit one 64-bit mask: the generator counts on
    # positions, so its columns still match the per-pair reference
    ex = excitations(70, 1)
    basis = enumerate_basis(70, 1)
    assert [tuple(o) for o in ex.occ.tolist()] == [d.occ for d in basis]
    assert len(ex.doubles.row) == 0
    assert _excitation_entries(ex) == _aligned_entries(basis)


def test_excitations_match_align_and_diff_on_sampled_rows():
    basis = enumerate_basis(14, 4)
    rows = {0, 17, 500, 999, 1000}
    ex = excitations(14, 4)
    got = {pair: v for pair, v in _excitation_entries(ex).items()
           if pair[0] in rows}
    assert got == _aligned_entries(basis, rows)


def test_determinants_import_nothing_from_coloring():
    # the generator judges the coloring's family, so it must not share
    # its code, the coloring's rank included
    tree = ast.parse(Path(determinants.__file__).read_text())
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
    assert not [m for m in imported if m and "coloring" in m]
