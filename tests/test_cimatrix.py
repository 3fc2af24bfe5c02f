import ast
import functools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cisim.cimatrix as cimatrix
from cisim.cimatrix import (GammaIndex, assemble_from_gammas, build_ci_matrix,
                            ci_entry, count_gamma, enumerate_gammas,
                            gamma_census, gamma_entry, label_key,
                            labelled_edges, labelled_terms, sparsity_d,
                            term_value)
from cisim.coloring import (DIAGONAL_COLOR, ColorTuple, color_of,
                            edge_table, single_colors)
from cisim.determinants import Determinant, align_and_diff, enumerate_basis
from cisim.errors import InvalidCounts, MalformedGamma, PatternMismatch
from cisim.integrals import IntegralTable

from conftest import brute_ci_entry, random_spinless_basis, so
from oracles import pair_walk_edges
from test_coloring import _kernel_redirect_one_left_move


def test_single_electron_diagonal(mixed_table):
    det = Determinant((3,), mixed_table.n)
    assert ci_entry(det, det, mixed_table) == pytest.approx(
        mixed_table.h1(3, 3))


def test_two_electron_diagonal_formula(h2_table):
    det = Determinant((1, 2), 4)
    expected = (h2_table.h1(1, 1) + h2_table.h1(2, 2)
                + h2_table.g(1, 2, 1, 2) - h2_table.g(1, 2, 2, 1))
    assert ci_entry(det, det, h2_table) == pytest.approx(expected)


def test_full_matrix_against_brute_force(h2_table):
    dets = enumerate_basis(4, 2)
    for a in dets:
        for b in dets:
            sc = ci_entry(a, b, h2_table)
            bf = brute_ci_entry(a, b, h2_table)
            assert abs(sc - bf) < 1e-10


def test_full_matrix_against_brute_force_spinless(mixed_table):
    dets = enumerate_basis(mixed_table.n, 3)
    rng = np.random.default_rng(4)
    idx = rng.choice(len(dets), size=8, replace=False)
    for i in idx:
        for j in idx:
            sc = ci_entry(dets[i], dets[j], mixed_table)
            bf = brute_ci_entry(dets[i], dets[j], mixed_table)
            assert abs(sc - bf) < 1e-10


def test_more_than_two_differences_vanish(mixed_table):
    a = Determinant((1, 2, 3), 6)
    b = Determinant((4, 5, 6), 6)
    assert ci_entry(a, b, mixed_table) == 0


def test_hermiticity(h2_table):
    H = build_ci_matrix(h2_table, 2)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


@functools.cache
def _mixed_spin_table(norb):
    """The first ``norb`` of eight spin-orbitals, up and down on each of
    four s and p Gaussians at random centers, with two nuclei."""
    rng = np.random.default_rng(23)
    basis = []
    for powers in ((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 1)):
        center = rng.normal(scale=0.8, size=3)
        exponent = float(rng.uniform(0.5, 2.0))
        basis += [so(center, exponent, spin, powers) for spin in ("up", "down")]
    nuclei = [(1.0, (0.0, 0.0, 0.0)), (2.0, (0.9, 0.0, 0.2))]
    return IntegralTable(basis[:norb], nuclei)


@pytest.mark.parametrize("norb,eta", [(n, e) for n in range(1, 9)
                                      for e in range(1, n + 1)])
def test_ci_matrix_matches_ci_entry_on_every_pair(norb, eta):
    # mixed spins, so the spin rule zeroes some entries; eta = 1 (no
    # doubles), eta = N (no virtuals) and N - eta = 1 (no virtual pairs)
    # are among the cases
    table = _mixed_spin_table(norb)
    basis = enumerate_basis(norb, eta)
    want = np.array([[ci_entry(a, b, table) for b in basis] for a in basis])
    assert np.max(np.abs(build_ci_matrix(table, eta) - want)) < 1e-12


@pytest.fixture(scope="module", params=[(14, 4), (16, 4)],
                ids=["14-4", "16-4"])
def chain_matrix(request):
    """An H chain's table at (N, eta), past the census sizes, with its
    dense CI matrix and basis."""
    norb, eta = request.param
    atoms = [(0.0, 0.0, 1.45 * k) for k in range(norb // 2)]
    table = IntegralTable([so(z, 1.0, spin) for z in atoms
                           for spin in ("up", "down")],
                          [(1.0, z) for z in atoms])
    return table, build_ci_matrix(table, eta), enumerate_basis(norb, eta)


@settings(max_examples=8)
@given(data=st.data())
def test_ci_matrix_matches_ci_entry_on_sampled_rows(chain_matrix, data):
    table, H, basis = chain_matrix
    row = data.draw(st.integers(0, len(basis) - 1))
    want = [ci_entry(basis[row], b, table) for b in basis]
    assert np.max(np.abs(H[row] - want)) < 1e-12


def test_build_ci_matrix_names_nothing_from_coloring():
    # the CI matrix judges the coloring's family through criterion 2, so
    # it is built without the coloring
    tree = ast.parse(Path(cimatrix.__file__).read_text())
    from_coloring = {alias.asname or alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and node.module == "coloring" for alias in node.names}
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "build_ci_matrix")
    named = {node.id for node in ast.walk(build) if isinstance(node, ast.Name)}
    assert from_coloring and not named & from_coloring


def test_labelled_term_values_do_not_depend_on_the_block_size(mixed_table,
                                                              monkeypatch):
    # one term per block gives the bits of one block per kind, also for a
    # source whose h1 rows are narrower than its g rows, and so padded
    import cisim.selfinverse as selfinverse

    class Wide:
        def h1(self, i, j):
            return np.outer(mixed_table.h1(i, j), [1, 2j, 3])

        def g(self, *ijkl):
            return np.outer(mixed_table.g(*ijkl), [1, -1j, 2, 0.5, 1j])

    terms = labelled_terms(6, 3)
    sources = (mixed_table, Wide())
    whole = [terms.values(source) for source in sources]
    assert whole[1].shape == (len(terms.left), 5)
    assert not whole[1][terms.one_body, 3:].any()
    monkeypatch.setattr(selfinverse, "BLOCK_VALUES", 1)
    for source, want in zip(sources, whole):
        assert np.array_equal(terms.values(source), want)


def test_sparsity_formula_examples():
    assert sparsity_d(4, 2) == 6
    assert sparsity_d(8, 3) == 46
    with pytest.raises(InvalidCounts):
        sparsity_d(3, 4)


def test_sparsity_bound_and_attainment():
    rng = np.random.default_rng(17)
    for norb, eta in [(5, 2), (6, 3), (7, 4)]:
        basis = random_spinless_basis(rng, norb)
        table = IntegralTable(basis, [(1.0, (0.0, 0.0, 0.0))])
        H = build_ci_matrix(table, eta)
        nz = np.sum(np.abs(H) > 1e-12, axis=1)
        d = sparsity_d(norb, eta)
        assert np.max(nz) <= d
        assert np.max(nz) == d


def test_partition_identity(h2_table, mixed_table):
    for table, eta in [(h2_table, 2), (mixed_table, 2), (mixed_table, 3)]:
        H = build_ci_matrix(table, eta)
        Hg = assemble_from_gammas(table, eta)
        assert np.max(np.abs(H - Hg)) < 1e-12


def test_labelled_edges_reject_a_color_the_oracle_disagrees_with(monkeypatch):
    import dataclasses
    import cisim.cimatrix as cimatrix
    # per row: 3 diagonal selectors, 4 single partners x 2, 1 double partner
    assert len(list(labelled_edges(4, 2))) == 6 * (3 + 4 * 2 + 1)
    # every move of the table's kept kernel keeps its node: the census
    # does not read the kernel, and the first off-diagonal edge disagrees
    table = edge_table(4, 2)
    kernel = dataclasses.replace(table.kernel, partner=table.kernel.node)
    corrupted = dataclasses.replace(table, kernel=kernel)
    monkeypatch.setattr(cimatrix, "edge_table", lambda norb, eta: corrupted)
    # the terms read above are cached: build them again, off the patch
    cimatrix.labelled_terms.cache_clear()
    with pytest.raises(PatternMismatch, match="does not map"):
        list(labelled_edges(4, 2))


def test_labelled_edges_reject_a_coloring_that_fails_its_census(monkeypatch):
    import cisim.coloring as coloring
    # one left move redirected: the table's own census is not valid, so no
    # edge is read off it
    monkeypatch.setattr(coloring, "single_moves",
                        _kernel_redirect_one_left_move)
    edges = labelled_edges(6, 3)
    with pytest.raises(PatternMismatch, match="census"):
        next(edges)


def test_labelled_terms_reject_a_corrupted_right_column(monkeypatch):
    import dataclasses
    import cisim.cimatrix as cimatrix
    # two double rows of one node swap their right nodes: the table holds
    # the same edges and single rows, so its census stays valid, and the
    # confirmation stops at the first swapped row
    table = edge_table(6, 3)
    double = np.flatnonzero((table.m1 >= 0) & (table.left == 4))[:2]
    right = table.right.copy()
    right[double] = right[double[::-1]]
    corrupted = dataclasses.replace(table, right=right)
    assert corrupted.census().valid
    monkeypatch.setattr(cimatrix, "edge_table", lambda norb, eta: corrupted)
    first = (f"does not map {tuple(table.orbs[4].tolist())} to "
             f"{tuple(table.orbs[right[double[0]]].tolist())}")
    with pytest.raises(PatternMismatch, match=re.escape(first)):
        labelled_terms(6, 3)


def _keys(edges):
    """(gamma, ia, ib) counted: the keys are the set, the total the count."""
    return Counter(edges)


@pytest.mark.parametrize("norb,eta", [(n, e) for n in range(1, 9)
                                      for e in range(1, n + 1)])
def test_labelled_edges_match_the_pair_walk(norb, eta):
    table = labelled_edges(norb, eta)
    walk = pair_walk_edges(enumerate_basis(norb, eta))
    assert _keys(table) == _keys(walk)


def _sampled_rows(basis):
    """The 20 basis rows the (12, 4) checks sample."""
    return sorted(np.random.default_rng(16).choice(len(basis), 20,
                                                   replace=False).tolist())


def test_labelled_edges_match_the_pair_walk_on_sampled_rows():
    basis = enumerate_basis(12, 4)
    rows = _sampled_rows(basis)
    table = [e for e in labelled_edges(12, 4) if e[1] in rows]
    assert _keys(table) == _keys(pair_walk_edges(basis, rows))


def _check_signs(terms, basis, rows=None):
    """Each term's one column-wise sign is align_and_diff's read either
    way, and the terms cover every edge-table row (of ``rows`` when
    given)."""
    left, right = terms.left.tolist(), terms.right.tolist()
    keep = [t for t, ia in enumerate(left) if rows is None or ia in rows]
    got = [(terms.sign[t], terms.sign[t]) for t in keep]
    want = [(align_and_diff(basis[left[t]], basis[right[t]]).sign,
             align_and_diff(basis[right[t]], basis[left[t]]).sign)
            for t in keep]
    assert got == want
    table = terms.table
    edges = {(a, b) for a, b in zip(table.left.tolist(), table.right.tolist())
             if rows is None or a in rows}
    assert {(left[t], right[t]) for t in keep} == edges


@pytest.mark.parametrize("norb,eta", [(n, e) for n in range(1, 9)
                                      for e in range(1, n + 1)])
def test_labelled_term_signs_match_align_and_diff(norb, eta):
    _check_signs(labelled_terms(norb, eta), enumerate_basis(norb, eta))


def test_labelled_term_signs_match_align_and_diff_on_sampled_rows():
    basis = enumerate_basis(12, 4)
    _check_signs(labelled_terms(12, 4), basis, set(_sampled_rows(basis)))


@pytest.mark.parametrize("table_name,eta", [("h2_table", 2), ("mixed_table", 1),
                                            ("mixed_table", 2),
                                            ("mixed_table", 3)])
def test_labelled_term_values_match_term_value(table_name, eta, request):
    # every term's Hermitized value equals the bits of the per-edge
    # reference read both ways and averaged
    table = request.getfixturevalue(table_name)
    basis = enumerate_basis(table.n, eta)
    terms = labelled_terms(table.n, eta)
    values = terms.values(table)
    assert values.shape == (len(terms.left), 1)
    edges = list(labelled_edges(table.n, eta))
    assert len(edges) == len(values)
    for t, (gamma, ia, ib) in enumerate(edges):
        alpha, beta = basis[ia], basis[ib]
        fwd = term_value(gamma, alpha, beta, align_and_diff(alpha, beta),
                         table)
        rev = term_value(gamma, beta, alpha, align_and_diff(beta, alpha),
                         table)
        assert values[t, 0] == (fwd + np.conj(rev)) / 2


@pytest.mark.parametrize("norb,eta", [(1, 1), (5, 1), (5, 2), (6, 3)])
def test_labelled_terms_come_sorted_by_label(norb, eta):
    # the keys ascend as integer tuples, and each term's label counts the
    # distinct keys before its own
    terms = labelled_terms(norb, eta)
    keys = [tuple(k) for k in terms.key.tolist()]
    assert keys == sorted(keys)
    rank = {k: n for n, k in enumerate(sorted(set(keys)))}
    assert terms.label.tolist() == [rank[k] for k in keys]


@pytest.mark.parametrize("norb,eta", [(5, 1), (5, 2), (6, 3)])
def test_integer_label_keys_sort_as_label_key(norb, eta):
    terms = labelled_terms(norb, eta)
    gammas = [gamma for gamma, _, _ in labelled_edges(norb, eta)]
    by_key = [gammas[t] for t in np.lexsort(terms.key.T[::-1])]
    assert by_key == sorted(gammas, key=label_key(norb, eta))


def test_each_term_is_one_sparse(mixed_table):
    # every label of the edge table the family is built from holds at most
    # one entry per row and per column
    rows, cols = set(), set()
    for gamma, ia, ib in labelled_edges(mixed_table.n, 2):
        assert (gamma, ia) not in rows and (gamma, ib) not in cols
        rows.add((gamma, ia))
        cols.add((gamma, ib))


def test_count_gamma_matches_enumeration():
    for norb, eta in [(4, 2), (5, 3), (6, 1), (8, 4)]:
        assert count_gamma(norb, eta) == len(enumerate_gammas(norb, eta))


@pytest.mark.parametrize("norb,eta", [(4, 1), (5, 2), (6, 3)])
def test_label_key_sorts_labels_into_enumeration_order(norb, eta):
    labels = enumerate_gammas(norb, eta)
    shuffled = list(reversed(labels[1::2])) + labels[::2]
    assert sorted(shuffled, key=label_key(norb, eta)) == labels


def test_no_exchange_diagonal_labels_for_single_electron():
    labels = enumerate_gammas(5, 1)
    diag = [g for g in labels if g.color == DIAGONAL_COLOR]
    assert len(diag) == 1 and diag[0].i == diag[0].j == 1


def test_gamma_entry_diagonal_example(h2_table):
    alpha = Determinant((2, 4), 4)
    g = GammaIndex(DIAGONAL_COLOR, 1, 1)
    entry = gamma_entry(g, alpha, h2_table)
    assert entry.beta == alpha
    assert entry.value == pytest.approx(h2_table.h1(2, 2))


def test_gamma_entry_invalid_color_gives_none(h2_table):
    # shifting orbital 4 upward runs out of range for every node holding it
    color = ColorTuple(0, 0, 1, 0, 0, 0, 2, 1)
    alpha = Determinant((3, 4), 4)
    assert gamma_entry(GammaIndex(color, 1, 0), alpha, h2_table) is None


def test_gamma_entry_reconstructs_single_difference(h2_table):
    alpha, beta = Determinant((1, 2), 4), Determinant((1, 3), 4)
    color = color_of(alpha, beta)
    total = 0.0
    for i in range(1, 3):
        total += gamma_entry(GammaIndex(color, i, 0), alpha, h2_table).value
    assert total == pytest.approx(ci_entry(alpha, beta, h2_table))


def test_hermitian_partner_rule(h2_table):
    basis = enumerate_basis(4, 2)
    for a in basis:
        for b in basis:
            if a.occ == b.occ or len(set(a.occ) - set(b.occ)) > 2:
                continue
            fwd = color_of(a, b)
            rev = color_of(b, a)
            vf = sum(gamma_entry(g, a, h2_table).value
                     for g in enumerate_gammas(4, 2)
                     if g.color == fwd
                     and gamma_entry(g, a, h2_table) is not None
                     and gamma_entry(g, a, h2_table).beta.occ == b.occ)
            vr = sum(gamma_entry(g, b, h2_table).value
                     for g in enumerate_gammas(4, 2)
                     if g.color == rev
                     and gamma_entry(g, b, h2_table) is not None
                     and gamma_entry(g, b, h2_table).beta.occ == a.occ)
            assert vf == pytest.approx(np.conj(vr))


def test_malformed_gamma():
    single = single_colors(4, 2)[0]
    with pytest.raises(MalformedGamma):
        GammaIndex(DIAGONAL_COLOR, 2, 1)
    with pytest.raises(MalformedGamma):
        GammaIndex(ColorTuple(0, 0, 1, 1, 0, 0, 1, 0))
    with pytest.raises(MalformedGamma):
        GammaIndex(single, 0)
    # a single-difference selector past eta names no term
    src, dst = Determinant((1, 2), 4), Determinant((1, 3), 4)
    with pytest.raises(MalformedGamma, match="beyond eta"):
        term_value(GammaIndex(single, 3), src, dst, align_and_diff(src, dst),
                   None)


def test_gamma_census_shape():
    cen = gamma_census(6, 2)
    assert cen["total"] == count_gamma(6, 2)
    assert cen["diagonal"] == 3
    assert cen["sparsity_d"] == sparsity_d(6, 2)


def test_growth_is_quadratic_in_eta_n():
    # labelled-term count grows no faster than a constant times (eta N)^2
    ratios = [count_gamma(n, 2) / (4 * n * n) for n in (6, 12, 24, 48)]
    assert max(ratios) / min(ratios) < 1.5
    assert ratios[-1] < 64.5
