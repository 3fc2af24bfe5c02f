"""CI matrix elements and their split into one-sparse colored terms.

Matrix elements follow the Slater-Condon rules with the alignment sign
of the sorting permutation, using the integral conventions of
:mod:`cisim.integrals` (h1 and g = <ij|kl>):

    same orbitals:      sum_i h1(x_i, x_i)
                        + sum_{i<j} g(x_i,x_j,x_i,x_j) - g(x_i,x_j,x_j,x_i)
    one differs (k->l): h1(k,l) + sum_chi g(k,chi,l,chi) - g(k,chi,chi,l)
    two differ:         g(x1,x2,y1,y2) - g(x1,x2,y2,y1)
    more than two:      0

`build_ci_matrix` reads those rules off the integral tables at every
entry that `determinants.excitations` lists, with its alignment signs.
That generator is a function of (N, eta) alone and uses no coloring, so
the dense matrix stays an independent judge of the labelled terms below:
criterion 2 holds their sum to it.  `ci_entry`, on `align_and_diff`, is
the per-pair reference that both are held to.

Every color of :mod:`cisim.coloring` carries at most one matrix element
per row.  The diagonal and single-difference families are further
indexed by term selectors (i, j) so that each labelled term holds a
bounded number of integrals and the labelled terms sum back to the full
matrix entry.  A label is the pair (color, selectors); the admissible
label set is:

    diagonal family   one canonical color, selectors 1 <= i <= j <= eta
    single family     every nonzero move in the second 4-tuple,
                      selector i in 1..eta (i = eta picks the bare
                      one-electron part, smaller i the chi_i exchange
                      pair), j unused (0)
    double family     every pair of nonzero moves, selectors unused

The labelled terms are the rows of the coloring's edge table, each
expanded by its term selectors, read only once that table's census is
valid, and each row confirmed with the table's own left kernel, so the
coloring is checked at every size a process builds.  `labelled_terms`
holds them as integer columns sorted by label and applies the
Slater-Condon rules on bitstrings (Scemama & Giner, arXiv:1311.6244) to
all of them at once: each edge's left list, with the moves x1 -> y1 and
x2 -> y2 that confirmed it applied, gives the alignment sign as the
parity of its inversions and, read differing orbitals first, the
integral indices of every selector.  `term_value`, `gamma_entry` and `align_and_diff` are
the per-edge reference the tests hold those columns to.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .coloring import (DIAGONAL_COLOR, LEFT, ColorTuple, EdgeTable,
                       _alt1_ok, apply_color, double_colors, edge_table,
                       movement_tuples, single_colors)
from .determinants import (Determinant, _read_only, align_and_diff,
                           basis_size, check_dense, enumerate_basis,
                           excitations, sparsity_d)
from .errors import MalformedGamma, PatternMismatch
from .integrals import IntegralTable
from .selfinverse import row_blocks


@dataclass(frozen=True, slots=True)
class GammaIndex:
    """A one-sparse term label: a color plus Slater-Condon term selectors."""

    color: ColorTuple
    i: int = 0
    j: int = 0

    def __post_init__(self):
        c = self.color
        if c.q == 0 and c.p != 0:
            raise MalformedGamma("q = 0 requires p = 0")
        if c.p == 0 and c.q == 0:
            if not 1 <= self.i <= self.j:
                raise MalformedGamma("diagonal labels need 1 <= i <= j")
        elif c.p == 0:
            if self.i < 1:
                raise MalformedGamma("single-difference labels need i >= 1")


@dataclass(frozen=True, slots=True)
class OneSparseEntry:
    beta: Determinant
    value: complex


def ci_entry(alpha: Determinant, beta: Determinant, table: IntegralTable) -> complex:
    """<alpha| H |beta> by the Slater-Condon rules with alignment sign."""
    diff = align_and_diff(alpha, beta)
    if diff.count > 2:
        return 0.0 + 0.0j
    if diff.count == 0:
        occ = alpha.occ
        val = sum(table.h1(x, x) for x in occ)
        for a, b in itertools.combinations(occ, 2):
            val += table.g(a, b, a, b) - table.g(a, b, b, a)
        return complex(val)
    if diff.count == 1:
        k = alpha.occ[diff.positions_left[0] - 1]
        l = beta.occ[diff.positions_right[0] - 1]
        val = table.h1(k, l)
        for chi in diff.common:
            val += table.g(k, chi, l, chi) - table.g(k, chi, chi, l)
        return diff.sign * complex(val)
    x1, x2 = (alpha.occ[p - 1] for p in diff.positions_left)
    y1, y2 = (beta.occ[p - 1] for p in diff.positions_right)
    return diff.sign * complex(
        table.g(x1, x2, y1, y2) - table.g(x1, x2, y2, y1))


def build_ci_matrix(table: IntegralTable, eta: int) -> np.ndarray:
    """Dense CI matrix over the lexicographic determinant basis, in the
    integral tables' dtype: the module docstring's Slater-Condon rules read
    off the tables at every entry of `excitations`, with its signs."""
    check_dense(basis_size(table.n, eta))
    ex = excitations(table.n, eta)
    h1, g = table.h1_mat, table.h2_mat
    occ = ex.occ - 1
    H = np.zeros((len(occ), len(occ)), dtype=np.result_type(h1, g))
    a, b = occ[:, np.array(list(itertools.combinations(range(eta), 2)),
                           dtype=np.intp).reshape(-1, 2)].T
    H.flat[::len(occ) + 1] = (
        h1[occ, occ].sum(axis=1) + (g[a, b, a, b] - g[a, b, b, a]).sum(axis=0))
    s = ex.singles
    k, l = s.holes.T - 1, s.particles.T - 1
    # the eta - 1 orbitals a single leaves in place, ascending
    chi = occ[s.row]
    chi = chi[chi != k].reshape(len(k), eta - 1)
    H[s.row, s.partner] = s.sign * (
        h1[k, l][:, 0] + (g[k, chi, l, chi] - g[k, chi, chi, l]).sum(axis=1))
    d = ex.doubles
    (x1, x2), (y1, y2) = d.holes - 1, d.particles - 1
    value = g[x1, x2, y1, y2]
    value -= g[x1, x2, y2, y1]
    value *= d.sign
    H[d.row, d.partner] = value
    return H


# ---------------------------------------------------------------------------
# labelled one-sparse terms


def label_selectors(color: ColorTuple, eta: int) -> list[tuple[int, int]]:
    """Term selectors (i, j) that label a color, per the module docstring."""
    if color.p == 0 and color.q == 0:
        return [(i, j) for i in range(1, eta + 1) for j in range(i, eta + 1)]
    if color.p == 0:
        return [(i, 0) for i in range(1, eta + 1)]
    return [(0, 0)]


def enumerate_gammas(norb: int, eta: int) -> list[GammaIndex]:
    """All admissible term labels for a basis of size (N, eta)."""
    colors = ([DIAGONAL_COLOR] + single_colors(norb, eta)
              + double_colors(norb, eta))
    return [GammaIndex(c, i, j) for c in colors
            for i, j in label_selectors(c, eta)]


def label_key(norb: int, eta: int):
    """Sort key that puts labels in the order enumerate_gammas lists them."""
    rank = {move: k for k, move in enumerate(movement_tuples(norb, eta))}

    def key(gamma: GammaIndex):
        c = gamma.color
        # a zero-shift move (diagonal, a single's first move) ranks first
        return (rank.get((c.a1, c.b1, c.l1, c.p), -1),
                rank.get((c.a2, c.b2, c.l2, c.q), -1), gamma.i, gamma.j)
    return key


def count_gamma(norb: int, eta: int) -> int:
    """Closed-form size of the admissible label family."""
    return gamma_census(norb, eta)["total"]


def term_value(gamma: GammaIndex, src: Determinant, dst: Determinant,
               diff, table):
    """Value of one labelled term at (src, dst), given their diff report.

    ``table`` is any source of ``h1``/``g``: one value per integral from an
    :class:`IntegralTable`, an array of grid-point terms from quadrature.
    """
    c = gamma.color
    if c.p == 0 and c.q == 0:
        occ = src.occ
        i, j = gamma.i, gamma.j
        if j > src.eta:
            raise MalformedGamma("diagonal selector beyond eta")
        if i == j:
            return table.h1(occ[i - 1], occ[i - 1])
        a, b = occ[i - 1], occ[j - 1]
        return table.g(a, b, a, b) - table.g(a, b, b, a)
    if c.p == 0:
        k = src.occ[diff.positions_left[0] - 1]
        l = dst.occ[diff.positions_right[0] - 1]
        if gamma.i == src.eta:
            val = table.h1(k, l)
        elif gamma.i < src.eta:
            chi = diff.common[gamma.i - 1]
            val = table.g(k, chi, l, chi) - table.g(k, chi, chi, l)
        else:
            raise MalformedGamma("single-difference selector beyond eta")
        return diff.sign * val
    x1, x2 = (src.occ[p - 1] for p in diff.positions_left)
    y1, y2 = (dst.occ[p - 1] for p in diff.positions_right)
    return diff.sign * (table.g(x1, x2, y1, y2) - table.g(x1, x2, y2, y1))


def gamma_entry(gamma: GammaIndex, alpha: Determinant,
                table: IntegralTable) -> OneSparseEntry | None:
    """The single matrix element of one labelled term in row alpha: its
    column beta and its value.

    Resolves the partner through the coloring; returns None when the
    color gives alpha no partner (zero row, orbitals unchanged).
    """
    c = gamma.color
    if c.p == 0 and c.q == 0:
        return OneSparseEntry(
            alpha, term_value(gamma, alpha, alpha, None, table))
    beta = apply_color(c, alpha, LEFT)
    if beta is None:
        return None
    diff = align_and_diff(alpha, beta)
    return OneSparseEntry(beta, term_value(gamma, alpha, beta, diff, table))


@dataclass(frozen=True)
class LabelledTerms:
    """Every labelled term of the coloring's edge table, one row each, as
    integer columns sorted by label.

    Term t is label ``key[t]`` = (m1 + 1, m2 + 1, i, j) on the edge
    ``left[t]`` -> ``right[t]`` of ``table``: the row's move ids, shifted
    so that 0 is the zero move, then the term selectors.  Sorting the keys
    as integers puts the labels in `label_key` order, the terms' order;
    ``label[t]`` counts the distinct keys before term t's.  ``sign[t]`` is
    the edge's alignment sign, the same read either way.  Read left to
    right, the term is h1(a, c) when ``one_body[t]``, else g(a, b, c, d) -
    g(a, b, d, c), with (a, b, c, d) = ``orbs[t]``; read right to left it
    is the same with (c, d, a, b).
    """

    table: EdgeTable
    left: np.ndarray
    right: np.ndarray
    key: np.ndarray
    label: np.ndarray
    sign: np.ndarray
    orbs: np.ndarray
    one_body: np.ndarray

    def values(self, source) -> np.ndarray:
        """Each term's Hermitized value (forward + conj(reverse)) / 2, its
        `term_value` read both ways, as one row of mu grid-point values; the
        narrower kind (h1 or g) is zero-padded.  ``source.h1`` and
        ``source.g`` take index arrays and give one value per index (an
        ``IntegralTable``) or one row of grid-point values (riemann mode's
        ``quadrature.RiemannTable``), whose dtype the values take."""
        def block(one_body, at):
            a, b, c, d = self.orbs[at].T
            if one_body:
                h = source.h1(a, c)
                h += np.conj(source.h1(c, a))
            else:
                h = source.g(a, b, c, d)
                h -= source.g(a, b, d, c)
                back = source.g(c, d, a, b)
                back -= source.g(c, d, b, a)
                h += np.conj(back, out=back)
            h = h.reshape(len(at), -1)
            h *= 0.5 * self.sign[at, None]
            return h

        # the first term of each kind gives its width; the others fill their
        # padded rows a block at a time, so no whole kind's values are held
        kinds = {one_body: (at, block(one_body, at[:1]))
                 for one_body in (True, False)
                 if len(at := np.flatnonzero(self.one_body == one_body))}
        heads = [head for _, head in kinds.values()]
        values = np.zeros((len(self.left), max(h.shape[1] for h in heads)),
                          dtype=np.result_type(*heads))
        for one_body, (at, head) in kinds.items():
            width = head.shape[1]
            values[at[0], :width] = head[0]
            for rows in row_blocks(len(at) - 1, width):
                values[at[1:][rows], :width] = block(one_body, at[1:][rows])
        return values


def _inversion_sign(lists: np.ndarray) -> np.ndarray:
    """(-1)^(number of inversions) of each row."""
    first, second = np.triu_indices(lists.shape[1], 1)
    inversions = np.count_nonzero(lists[:, first] > lists[:, second], axis=1)
    return 1 - 2 * (inversions % 2)


@functools.lru_cache(maxsize=1)
def labelled_terms(norb: int, eta: int) -> LabelledTerms:
    """Every labelled term of the coloring's edge table, as the module
    docstring describes: the diagonal, single and double rows, each once
    per term selector.

    The table is read only once its own census is valid, and every row is
    confirmed by applying its first and then its second move from the left
    with the table's kernel, a double row's pair judged by `_alt1_ok`.  An
    invalid census or a row whose partner differs raises PatternMismatch.
    Built and checked once per process for each (N, eta): the last is
    cached, shared and read-only, its edge table and kernel too.
    """
    table = edge_table(norb, eta)
    census = table.census()
    if not census.valid:
        raise PatternMismatch(f"the coloring fails its census: {census}")
    chi, x1, y1 = table.kernel.apply(table.m1, table.left)
    partner, x2, y2 = table.kernel.apply(table.m2, chi)
    astray = (partner != table.right) | (
        (table.m1 >= 0) & ~_alt1_ok(x1, y1, x2, y2))
    if astray.any():
        r = int(np.argmax(astray))
        raise PatternMismatch(
            f"color {table.color(int(table.m1[r]), int(table.m2[r]))} does "
            f"not map {tuple(table.orbs[table.left[r]].tolist())} to "
            f"{tuple(table.orbs[table.right[r]].tolist())}")

    # the left list with x1 -> y1 and x2 -> y2 (0 -> 0, the zero move,
    # matches no orbital): its parity is the alignment sign read either way
    left = aligned = table.orbs[table.left]
    for x, y in ((x1, y1), (x2, y2)):
        aligned = np.where(left == x[:, None], y[:, None], aligned)
    # the differing positions first, then the shared ones, each ascending:
    # src is (k, chi...) on a single edge and (x1, x2, ...) on a double
    # one, and dst, read off aligned, is (l, chi...) and (y1, y2, ...)
    first = np.argsort(left == aligned, axis=1, kind="stable")
    src = np.take_along_axis(left, first, axis=1)
    dst = np.take_along_axis(aligned, first, axis=1)

    # per family (diagonal, single, double): each selector (i, j), and the
    # positions (p, q) in src and dst of the orbitals its term reads; a
    # single's i = eta reads h1, at p = q = 0
    selectors = [[(i, j, i - 1, j - 1)
                  for i, j in label_selectors(DIAGONAL_COLOR, eta)],
                 [(i, 0, 0, i % eta) for i in range(1, eta + 1)],
                 [(0, 0, 0, 1)]]
    family = (table.m1 >= 0).astype(np.intp) + (table.m2 >= 0)
    rows = [np.flatnonzero(family == f) for f in range(3)]
    row = np.concatenate([np.repeat(r, len(sel))
                          for r, sel in zip(rows, selectors)])
    i, j, p, q = np.concatenate([np.tile(sel, (len(r), 1)) for r, sel
                                 in zip(rows, selectors)]).T
    key = np.stack([table.m1[row] + 1, table.m2[row] + 1, i, j], axis=1)
    # label order; lexsort is stable, so a label keeps its rows' order
    order = np.lexsort(key.T[::-1])
    row, key, p, q = row[order], key[order], p[order], q[order]
    return _read_only(LabelledTerms(
        table=table, left=table.left[row].astype(np.intp),
        right=table.right[row].astype(np.intp), key=key,
        label=np.concatenate(
            [[0], np.cumsum(np.any(key[1:] != key[:-1], axis=1))]),
        sign=_inversion_sign(aligned)[row],
        orbs=np.stack([src[row, p], src[row, q], dst[row, p], dst[row, q]],
                      axis=1),
        one_body=p == q))


def labelled_edges(norb: int, eta: int):
    """(gamma, ia, ib) for every ordered pair of basis indices whose
    determinants differ in at most two orbitals, once per term selector:
    the rows of `labelled_terms`, with their labels as GammaIndex values.
    """
    terms = labelled_terms(norb, eta)
    for (k1, k2, i, j), ia, ib in zip(terms.key.tolist(), terms.left.tolist(),
                                      terms.right.tolist()):
        yield GammaIndex(terms.table.color(k1 - 1, k2 - 1), i, j), ia, ib


def assemble_from_gammas(table: IntegralTable, eta: int) -> np.ndarray:
    """Sum of all labelled one-sparse terms; equals the CI matrix.

    Equivalent to accumulating gamma_entry over enumerate_gammas, but
    visits only the labelled edges, the entries where some label is
    nonzero.
    """
    basis = enumerate_basis(table.n, eta)
    H = np.zeros((len(basis), len(basis)), dtype=complex)
    for gamma, ia, ib in labelled_edges(table.n, eta):
        alpha, beta = basis[ia], basis[ib]
        H[ia, ib] += term_value(gamma, alpha, beta,
                                align_and_diff(alpha, beta), table)
    return H


def gamma_census(norb: int, eta: int) -> dict:
    """Counts of the admissible label family, by family."""
    d = sparsity_d(norb, eta)
    n_moves = 8 * eta * (norb - 1)
    families = {"diagonal": eta * (eta + 1) // 2, "single": n_moves * eta,
                "double": n_moves**2}
    return {"norb": norb, "eta": eta, **families,
            "total": sum(families.values()), "sparsity_d": d}
