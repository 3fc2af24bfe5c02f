"""Independent models the tests judge the program against.

Gate-level model of the paper's oracle walk over a term family.  The
pipeline applies each H_{l, rho} as one array operation on the pattern
that ``TermFamily.term_pattern`` returns.  The paper builds the same
action from oracles on binary registers: Q_col XORs the encoding of a
node's color partner into a scratch register (the node itself when the
color gives it no partner), Q_val supplies the +-1 entry and never moves
amplitude into a list that is not a valid determinant, and a second
partner XOR uncomputes the scratch.  The tests check this model against
the family as claims of the paper.

The coloring census tallied by Counters over tuple-keyed edges: each
single move applied from the left one b at a time, the walk the census
replaced with integer columns and per-middle-node blocks.

The labelled edges found by walking every ordered pair of determinants
and asking `color_of` for its color, the walk the family build replaced
with the rows of the coloring's edge table.

The dense Taylor entry: the amplified segment as a matrix against
exp(-i H~ t / r) by eigendecomposition, measured in the 2-norm.

The term family with every label padded to a dense (dim x mu) block and
split label by label: the layout the family's edge table replaced.

The integral tables filled one spin-orbital entry at a time, with each
ERI cached under its spin-orbital quartet: the build the integral table
replaced with one evaluation per spatial quartet spread by spin deltas.

The midpoint terms of one Riemann sum, each kind's formula written out
for one tuple of spatial functions, its products in their original
order: the sums that the quadrature kernels, which form every tuple on a
grid at once, must give bit for bit.

Sampled maxima of an orbital's value, gradient and Laplacian, found by a
dense three-dimensional grid and a local optimizer.  A sample is a lower
bound on a supremum, so the certified caps must lie above it.
"""

import itertools
from collections import Counter

import numpy as np
from scipy.optimize import minimize

from cisim import coloring
from cisim.cimatrix import GammaIndex, label_selectors
from cisim.coloring import LEFT, RIGHT, apply_color, color_of
from cisim.determinants import Determinant, align_and_diff
from cisim.errors import PatternMismatch
from cisim.integrals import eri_chemist, kinetic, nuclear_attraction, overlap
from cisim.lcu import (TermFamily, hermitian_norm, oaa_block, plan_segments,
                       taylor_block)
from cisim.orbitals import _axis_parts, d2_terms, eval_gradient, eval_value
from cisim.quadrature import (ZETA_PRIME, _cube_centers, _sphere_grid,
                              _unit_vectors)
from cisim.selfinverse import slice_values, split_arrays


def flat_ell(family: TermFamily, s: int, m: int, g: int) -> int:
    """Pack (s in 1..2, m in 1..M_g, stored label g) into a flat l: label
    g's 2 M_g terms follow those of every label before it."""
    first = sum(2 * int(family.M_g[h]) for h in range(g))
    return first + 2 * (m - 1) + (s - 1)


def apply_term(family: TermFamily, ell: int, rho: int,
               psi: np.ndarray) -> np.ndarray:
    """psi -> H_{l, rho} psi (the select oracle's system action)."""
    perm, vals = family.term_pattern(ell, rho)
    return vals * psi[perm]


def q_col(color, node: Determinant, side: str = LEFT) -> Determinant:
    """Partner determinant under a color; the node itself when it has none."""
    res = apply_color(color, node, side)
    return node if res is None else res


def encode_det(det: Determinant) -> int:
    """Pack occupied orbitals into eta fields of ceil(log2(N+1)) bits."""
    width = max(1, (det.norb).bit_length())
    out = 0
    for k in det.occ:
        out = (out << width) | k
    return out


def q_col_xor(color, node: Determinant, scratch: int, side: str = LEFT) -> int:
    """XOR the partner's encoding into a scratch register."""
    return scratch ^ encode_det(q_col(color, node, side))


def is_valid_occ(occ, norb: int) -> bool:
    return (len(occ) >= 1 and all(1 <= v <= norb for v in occ)
            and all(a < b for a, b in zip(occ, occ[1:])))


def q_val(family: TermFamily, ell: int, rho: int, row: int, col: int,
          row_occ=None, col_occ=None, norb: int = 0) -> complex:
    """Entry of H_{l, rho} at (row, col); zero off the sparsity pattern.

    When raw orbital lists are supplied, entries between distinct nodes
    vanish if either list is not a valid determinant, so no amplitude
    ever flows into Pauli-forbidden configurations.
    """
    if row_occ is not None and row != col:
        if not (is_valid_occ(row_occ, norb) and is_valid_occ(col_occ, norb)):
            return 0.0
    perm, vals = family.term_pattern(ell, rho)
    return complex(vals[row]) if perm[row] == col else 0.0


def select_h_with_scratch(family: TermFamily, ell: int, rho: int,
                          joint: np.ndarray, encodings: np.ndarray) -> np.ndarray:
    """select on (system x scratch) through the four-step oracle walk.

    ``joint`` has shape (dim, 2^W); ``encodings[x]`` is the W-bit code
    of node x.  The walk XORs the partner's code into the scratch,
    picks up the +-1 entry, swaps the two registers, and uncomputes by
    a second partner XOR, so a state entering with scratch |0> leaves
    with scratch |0> and the system multiplied by H_{l, rho}.
    """
    perm, vals = family.term_pattern(ell, rho)
    code_to_node = {int(c): x for x, c in enumerate(encodings)}
    width = joint.shape[1]
    out = np.zeros_like(joint)
    for x in range(family.dim):
        y = int(perm[x])
        for s in range(width):
            amp = joint[x, s]
            if amp == 0.0:
                continue
            s1 = s ^ int(encodings[y])          # compute partner code
            amp = amp * vals[x]                 # value oracle phase
            node2 = code_to_node.get(s1)        # swap system <-> scratch
            if node2 is None:
                continue                        # unreachable on clean input
            s2 = int(encodings[x])
            s3 = s2 ^ int(encodings[int(perm[node2])])  # uncompute
            out[node2, s3] += amp
    return out


def census_by_counters(norb: int, eta: int) -> dict:
    """edges_found, duplicate_edges, inverse_failures and
    injectivity_failures of the census, by Counters over tuple keys.

    Reads the scalar `_apply_move` and `_alt1_ok` off the module at call
    time, so a fault patched into either reaches this walk; the census
    takes `_alt1_ok` faults the same way, and move faults through its
    kernel `single_moves`, whose one call gives both sides' moves.
    """
    dets = list(itertools.combinations(range(1, norb + 1), eta))
    table = {occ: [] for occ in dets}
    for occ in dets:
        for move in coloring.movement_tuples(norb, eta):
            res = coloring._apply_move(*move, occ, LEFT, norb)
            if res is not None:
                back = coloring._apply_move(*move, res[0], RIGHT, norb)
                table[occ].append((move, res, back is not None
                                   and back[0] == occ))
    edges = Counter((occ, occ) for occ in dets)
    images = Counter()
    inverse_failures = 0
    for occ in dets:
        for m1, (chi, x1, y1), undone1 in table[occ]:
            edges[occ, chi] += 1
            images[m1, chi] += 1
            inverse_failures += not undone1
            for _, (beta, x2, y2), undone2 in table[chi]:
                if coloring._alt1_ok(x1, y1, x2, y2):
                    edges[occ, beta] += 1
                    inverse_failures += not (undone1 and undone2)
    near = {pair for pair in edges if len(set(pair[0]) - set(pair[1])) <= 2}
    return dict(
        edges_found=len(near),
        duplicate_edges=sum(c > 1 or pair not in near
                            for pair, c in edges.items()),
        inverse_failures=inverse_failures,
        injectivity_failures=sum(c - 1 for c in images.values()))


def pair_walk_edges(basis: list[Determinant], rows=None):
    """(gamma, ia, ib) for every ordered pair of basis indices whose
    determinants differ in at most two orbitals, once per term selector;
    only the rows ia in ``rows`` when it is given.

    Each partner is confirmed with the select oracle's map apply_color;
    a disagreement with color_of raises PatternMismatch.
    """
    for ia in range(len(basis)) if rows is None else rows:
        alpha = basis[ia]
        for ib, beta in enumerate(basis):
            if align_and_diff(alpha, beta).count > 2:
                continue
            color = color_of(alpha, beta)
            if apply_color(color, alpha, LEFT) != beta:
                raise PatternMismatch(
                    f"color {color} does not map {alpha.occ} to {beta.occ}")
            for i, j in label_selectors(color, alpha.eta):
                yield GammaIndex(color, i, j), ia, ib


def dense_taylor_entry(family: TermFamily, t: float, eps: float) -> float:
    """r |seg - exp(-i H~ t / r)|_2 for the plan evolve makes, with seg the
    dense-block amplified segment and the exponential built by eigh."""
    Htilde = family.rounded_dense()
    plan = plan_segments(hermitian_norm(Htilde), t, eps, family.meta)
    seg = oaa_block(taylor_block(family, plan), plan.lam)
    evals, vecs = np.linalg.eigh(Htilde)
    exact = (vecs * np.exp(-1j * evals * t / plan.r)) @ vecs.conj().T
    return plan.r * float(np.linalg.norm(seg - exact, 2))


def padded_family(perms, values, zeta: float) -> dict:
    """What a family of dense labels exposes, with every label kept as a
    padded (dim x mu) block: ``M_g``, ``L``, the dense ``rounded`` and
    ``unrounded`` sums, ``ell_parts`` (s, m, g) of each flat l and
    ``terms``, the (perm, vals) of each (l, rho)."""
    perms = np.asarray(perms)
    values = np.asarray(values, dtype=complex)
    _, dim, mu = values.shape
    split = [split_arrays(v, zeta) for v in values]
    M_g = [int(C.max(initial=0)) // 2 for C, _ in split]
    parts = [(s, m, g) for g, M in enumerate(M_g)
             for m in range(1, M + 1) for s in (1, 2)]
    rows = np.arange(dim)
    rounded = np.zeros((dim, dim), dtype=complex)
    unrounded = np.zeros((dim, dim), dtype=complex)
    for perm, v, (C, phase) in zip(perms, values, split):
        np.add.at(rounded, (rows, perm), (zeta * C * phase).sum(axis=1))
        np.add.at(unrounded, (rows, perm), v.sum(axis=1))
    terms = {(ell, rho): (perms[g], slice_values(split[g][0][:, rho],
                                                 split[g][1][:, rho], m, s))
             for ell, (s, m, g) in enumerate(parts) for rho in range(mu)}
    return {"M_g": M_g, "L": len(parts), "rounded": rounded,
            "unrounded": unrounded, "ell_parts": parts, "terms": terms}


# ---------------------------------------------------------------------------
# integral tables, one spin-orbital entry at a time


def spin_orbital_tables(basis, nuclei=()):
    """(overlap, h1, h2) of a spin-orbital basis with h2[i,j,k,l] = <ij|kl>:
    every entry tests its own spins, and each ERI is computed once per
    spin-orbital quartet under the 8-fold symmetry of real functions."""
    n = len(basis)
    S, h1 = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            bi, bj = basis[i], basis[j]
            if bi.spin == bj.spin:
                S[i, j] = S[j, i] = overlap(bi, bj)
                h = kinetic(bi, bj)
                for Z, R in nuclei:
                    h += nuclear_attraction(bi, bj, Z, R)
                h1[i, j] = h1[j, i] = h
    cache = {}
    h2 = np.zeros((n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        bi, bj, bk, bl = (basis[x] for x in (i, j, k, l))
        if bi.spin != bk.spin or bj.spin != bl.spin:
            continue
        # chemist pairs (ik| and |jl)
        ik, jl = tuple(sorted((i, k))), tuple(sorted((j, l)))
        key = min(ik + jl, jl + ik)
        if key not in cache:
            cache[key] = eri_chemist(bi, bk, bj, bl)
        h2[i, j, k, l] = cache[key]
    return S, h1, h2


# ---------------------------------------------------------------------------
# Riemann sums, one tuple at a time


def riemann_one_tuple(spec, basis, nuclei, i, j, k=None, l=None):
    """The spec's mu midpoint terms for the 1-based functions (i, j) or
    (i, j, k, l), spins ignored."""
    phi = [basis[x - 1] for x in (i, j, k, l) if x is not None]
    n, x = spec.grid_n, spec.x_trunc
    if spec.kind == "s0":
        pts = _cube_centers(phi[0].center, x, n)
        vol = (2.0 * x / n) ** 3
        gi, gj = eval_gradient(phi[0], pts), eval_gradient(phi[1], pts)
        return 0.5 * np.sum(gi * gj, axis=-1) * vol
    if spec.kind == "s1":
        Zq = float(nuclei[spec.q][0])
        Rq = np.asarray(nuclei[spec.q][1], dtype=float)
        if spec.coordinate_system == "cartesian":
            pts = _cube_centers(phi[0].center, x, n)
            vol = (2.0 * x / n) ** 3
            dist = np.linalg.norm(Rq - pts, axis=-1)
            return -Zq * eval_value(phi[0], pts) * eval_value(phi[1], pts) \
                / dist * vol
        s, th, ph = _sphere_grid(n)
        pts = 4.0 * x * s[:, None] * _unit_vectors(th, ph) + Rq
        f1 = eval_value(phi[0], pts) * eval_value(phi[1], pts) * s * np.sin(th)
        return -16.0 * x**2 * Zq * f1 * (2.0 * np.pi**2 / n**3)
    if spec.coordinate_system == "cartesian":
        p1 = _cube_centers(phi[0].center, x, n)
        p2 = _cube_centers(phi[1].center, x, n)
        vol = (2.0 * x / n) ** 6
        f1 = eval_value(phi[0], p1) * eval_value(phi[2], p1)
        f2 = eval_value(phi[1], p2) * eval_value(phi[3], p2)
        dist = np.linalg.norm(p1[:, None, :] - p2[None, :, :], axis=-1)
        return (f1[:, None] * f2[None, :] / dist).ravel() * vol
    ax = (np.arange(n) + 0.5) * 2.0 / n - 1.0
    svec = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    t, th, ph = _sphere_grid(n)
    tvec = t[:, None] * _unit_vectors(th, ph)
    r1 = x * svec + np.asarray(phi[0].center, dtype=float)
    eta_ik = eval_value(phi[0], r1) * eval_value(phi[2], r1)
    r2 = r1[:, None, :] - ZETA_PRIME * x * tvec[None, :, :]
    eta_jl = eval_value(phi[1], r2) * eval_value(phi[3], r2)
    f2 = eta_ik[:, None] * eta_jl * (t * np.sin(th))[None, :]
    return (ZETA_PRIME**2 * x**5 * f2).ravel() * (16.0 * np.pi**2 / n**6)


# ---------------------------------------------------------------------------
# sampled maxima of the certified quantities


def eval_laplacian(phi, pts: np.ndarray) -> np.ndarray:
    """laplacian of phi at an (..., 3) array of points."""
    out = np.zeros(np.shape(pts)[:-1])
    for _, part in _axis_parts(phi, pts, d2_terms):
        out += part
    return out


# the pointwise magnitude behind each certified cap
MAGNITUDES = {
    "phi_max": lambda phi, pts: np.abs(eval_value(phi, pts)),
    "gamma1": lambda phi, pts: np.linalg.norm(eval_gradient(phi, pts),
                                              axis=-1),
    "gamma2": lambda phi, pts: np.abs(eval_laplacian(phi, pts)),
}


def sampled_max(basis, quantity: str, half_width: float,
                n: int = 64) -> float:
    """Largest magnitude of ``quantity`` over the basis at the points of an
    n^3 grid over the centers' bounding box widened by ``half_width``,
    refined by Nelder-Mead from the best point."""
    magnitude = MAGNITUDES[quantity]
    centers = np.array([phi.center for phi in basis])
    axes = [np.linspace(lo, hi, n) for lo, hi in
            zip(centers.min(axis=0) - half_width,
                centers.max(axis=0) + half_width)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    best, best_phi, best_pt = -1.0, basis[0], grid[0]
    for phi in basis:
        vals = magnitude(phi, grid)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_phi, best_pt = float(vals[k]), phi, grid[k]
    res = minimize(lambda x: -magnitude(best_phi, x[None, :])[0], best_pt,
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return max(best, float(-res.fun))
