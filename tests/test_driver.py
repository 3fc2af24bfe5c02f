import copy
import csv
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cisim import cimatrix, determinants, driver, lcu, quadrature
from cisim.cimatrix import (assemble_from_gammas, build_ci_matrix,
                            enumerate_gammas, gamma_census, gamma_entry,
                            labelled_terms, sparsity_d, term_value)
from cisim.cli import main as cli_main
from cisim.determinants import align_and_diff, enumerate_basis
from cisim.driver import (ProblemConfig, budget_errors, build_term_family,
                          config_from_dict, doubled, exact_evolve, ingest,
                          load_config, run_budget, run_pipeline,
                          validate_config)
from cisim.errors import (BudgetInfeasible, DeltaTooSmall, DimensionTooLarge,
                          InvalidConfig, InvalidCounts,
                          NonOrthonormalBasisWarning, PatternMismatch)
from cisim.integrals import IntegralTable
from cisim.lcu import TermFamily, hermitian_norm, segment_count
from cisim.quadrature import (RiemannTable, delta_for_grid, plan_quadrature,
                              riemann_S0, riemann_terms)
from cisim.orbitals import derive_bounds

from conftest import primitive_norm, so
from oracles import dense_taylor_entry, flat_ell
from test_coloring import _kernel_redirect_one_left_move

H2_PATH = "configs/h2.json"


def h2_config():
    return load_config(H2_PATH)


def _h_chain(n_atoms, eta, spacing=1.45):
    """Config dict of a linear H_n along z: one up and one down s-Gaussian
    of exponent 1 per atom, 2 n_atoms spin-orbitals."""
    zs = [(k - (n_atoms - 1) / 2.0) * spacing for k in range(n_atoms)]
    return {"nuclei": [{"Z": 1.0, "R": [0.0, 0.0, z]} for z in zs],
            "orbitals": [{"center": [0.0, 0.0, z], "spin": spin,
                          "primitives": [[1.0, primitive_norm(1.0)]]}
                         for z in zs for spin in ("up", "down")],
            "eta": eta}


def test_budget_worked_example():
    delta, zeta, eps_taylor = budget_errors(3e-3, 1.0, 100)
    assert delta == pytest.approx(1e-5)
    assert zeta == pytest.approx(1e-5)
    assert eps_taylor == pytest.approx(1e-3)


def test_budget_scales_linearly():
    d1, z1, e1 = budget_errors(1e-3, 2.0, 50)
    d3, z3, e3 = budget_errors(3e-3, 2.0, 50)
    assert (d3, z3, e3) == pytest.approx((3 * d1, 3 * z1, 3 * e1))


def test_budget_infeasible():
    with pytest.raises(BudgetInfeasible):
        budget_errors(0.0, 1.0, 10)
    with pytest.raises(BudgetInfeasible):
        budget_errors(1e-3, -1.0, 10)


def test_exact_evolve_basics():
    rng = np.random.default_rng(31)
    H = rng.normal(size=(5, 5))
    H = H + H.T
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi /= np.linalg.norm(psi)
    assert np.allclose(exact_evolve(H, psi, 0.0), psi)
    out = exact_evolve(H, psi, 1.3)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    D = np.diag([0.5, -1.0, 2.0])
    e = np.zeros(3, complex)
    e[1] = 1.0
    assert exact_evolve(D, e, 0.7)[1] == pytest.approx(np.exp(0.7j))


def test_exact_evolve_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        exact_evolve(np.eye(3000), np.zeros(3000), 1.0)


def test_config_roundtrip(tmp_path):
    cfg = h2_config()
    assert cfg.norb == 4 and cfg.eta == 2
    data = {
        "nuclei": [{"Z": 1.0, "R": [0, 0, 0]}],
        "orbitals": [{"center": [0, 0, 0], "primitives": [[1.0, 1.0]]}],
        "eta": 1,
    }
    cfg2 = config_from_dict(data)
    assert cfg2.orbitals[0].spin == "up"
    validate_config(cfg2)


def test_validate_rejects_bad_counts():
    data = {
        "nuclei": [{"Z": 1.0, "R": [0, 0, 0]}],
        "orbitals": [{"center": [0, 0, 0], "primitives": [[1.0, 1.0]]}],
        "eta": 3,
    }
    with pytest.raises(InvalidCounts):
        validate_config(config_from_dict(data))


def test_overlap_warning_fires():
    cfg = h2_config()
    with pytest.warns(NonOrthonormalBasisWarning):
        ingest(cfg)


def test_run_pipeline_rejects_an_unknown_mode_before_ingest(monkeypatch):
    # the mode is read first: no integral table is built for a run that
    # cannot go on
    built = []
    monkeypatch.setattr(driver, "IntegralTable",
                        lambda *args: built.append(args) or IntegralTable(*args))
    with pytest.raises(ValueError, match="unknown mode 'dense'"):
        run_pipeline(h2_config(), mode="dense")
    assert built == []


def test_partition_verifier(h2_table):
    H = build_ci_matrix(h2_table, 2)
    assert np.max(np.abs(H - assemble_from_gammas(h2_table, 2))) < 1e-12


def _per_label_family(table, eta, source=None):
    """{label: (perm, values)} on the double cover, one label at a time.

    Each label's rows come from gamma_entry, the per-label apply_color
    path, with h1/g read from ``source`` (default: ``table``), and are
    Hermitized as (fwd + conj(rev)) / 2 with the per-edge term_value;
    labels whose pattern stays the identity are left out.
    """
    source = table if source is None else source
    basis = enumerate_basis(table.n, eta)
    xi = len(basis)
    index = {d.occ: k for k, d in enumerate(basis)}
    out = {}
    for gamma in enumerate_gammas(table.n, eta):
        perm = np.arange(2 * xi)
        rows = {}
        for ia, alpha in enumerate(basis):
            entry = gamma_entry(gamma, alpha, source)
            if entry is None:
                continue
            beta = entry.beta
            rev = term_value(gamma, beta, alpha, align_and_diff(beta, alpha),
                             source)
            x, y = ia, xi + index[beta.occ]
            perm[x], perm[y] = y, x
            rows[x] = 0.5 * (np.atleast_1d(entry.value)
                             + np.conj(np.atleast_1d(rev)))
            rows[y] = np.conj(rows[x])
        if rows:
            vals = np.zeros((2 * xi, len(rows[x])), dtype=complex)
            for row, v in rows.items():
                vals[row] = v
            out[gamma] = perm, vals
    return out


class _OneIndexAtATime:
    """A source of h1/g values read one spin-orbital index tuple per call,
    as the per-edge term_value reads them: each distinct tuple is its own
    Riemann sum on the spin-orbital basis, zeroed there by its spins."""

    def __init__(self, basis, nuclei, bounds, delta):
        self.basis, self.nuclei = basis, nuclei
        self.bounds, self.delta = bounds, delta
        self._cache = {}

    def _terms(self, kind, indices, q=None):
        key = (kind, indices, q)
        if key not in self._cache:
            self._cache[key] = riemann_terms(
                kind, indices, self.delta[kind], self.bounds, self.basis,
                self.nuclei, q).values
        return self._cache[key]

    def h1(self, *ij):
        return np.concatenate([self._terms("s0", ij)]
                              + [self._terms("s1", ij, q)
                                 for q in range(len(self.nuclei))])

    def g(self, *ijkl):
        return self._terms("s2", ijkl)


def _coarsest_riemann(table):
    """(table, its RiemannTable) on 3-point grids."""
    bounds = derive_bounds(table.basis)
    delta = {kind: delta_for_grid(kind, 3, bounds) for kind in ("s0", "s1",
                                                               "s2")}
    return table, RiemannTable(table.basis, table.nuclei, delta)


@pytest.fixture(scope="module")
def h2_riemann(h2_table):
    """H2 on the coarsest grids, h1 labels narrower than g labels."""
    return _coarsest_riemann(h2_table)


@pytest.fixture(scope="module")
def odd_spin_riemann():
    """Spin orbitals listed down before up, over three spatial functions of
    which one is only up and one only down, on the coarsest grids."""
    a, b, c = (0.0, 0.0, -0.7), (0.0, 0.0, 0.7), (0.5, 0.0, 0.0)
    basis = [so(a, 1.0, "down"), so(b, 1.0, "up"), so(a, 1.0, "up"),
             so(c, 1.2, "down")]
    return _coarsest_riemann(IntegralTable(basis, [(1.0, a), (1.0, b)]))


@pytest.fixture(scope="module")
def h2_chargeless_riemann(h2_basis):
    """H2 with a third, chargeless nucleus, whose s1 block is one zero
    column, on the coarsest grids."""
    basis, nuclei = h2_basis
    return _coarsest_riemann(IntegralTable(
        basis, [*nuclei, (0.0, (0.0, 0.0, 3.0))]))


@pytest.mark.parametrize("name", ["odd_spin_riemann", "h2_chargeless_riemann"])
def test_riemann_table_rows_match_the_per_tuple_oracle(name, request):
    # every spin-orbital pair and quartet, read as one array per kind,
    # against one Riemann sum per tuple on the spin-orbital basis
    table, source = request.getfixturevalue(name)
    oracle = _OneIndexAtATime(table.basis, table.nuclei,
                              derive_bounds(table.basis), source.delta)
    spins = [phi.spin for phi in table.basis]
    for kind, n_indices in (("h1", 2), ("g", 4)):
        tuples = list(itertools.product(range(1, table.n + 1),
                                        repeat=n_indices))
        rows = getattr(source, kind)(*np.array(tuples).T)
        assert np.array_equal(rows, np.array(
            [getattr(oracle, kind)(*ix) for ix in tuples]))
        half = n_indices // 2
        forbidden = [[spins[x - 1] for x in ix[:half]]
                     != [spins[x - 1] for x in ix[half:]] for ix in tuples]
        assert any(forbidden) and not np.any(rows[forbidden])
    # s0 and one s1 block per charged nucleus at 27 points, 1 if chargeless
    charges = [z for z, _ in table.nuclei]
    width = 27 * (1 + sum(z != 0 for z in charges)) + charges.count(0.0)
    assert source.h1(np.array([1]), np.array([1])).shape == (1, width)


@pytest.fixture(scope="module")
def far_riemann():
    """s, p and d functions on two centers 40 bohr apart, a chargeless third
    nucleus, on the coarsest grids: s1 and s2 each take both branches."""
    a, b = (0.0, 0.0, 0.0), (0.0, 0.0, 40.0)
    basis = [so(a, 1.0, "up"), so(a, 1.0, "down"), so(b, 0.8, "up", (0, 0, 1)),
             so(a, 1.2, "down", (1, 1, 0)), so(b, 1.0, "down")]
    nuclei = [(1.0, a), (1.0, b), (0.0, (3.0, 0.0, 0.0))]
    return _coarsest_riemann(IntegralTable(basis, nuclei))


def test_riemann_table_rows_are_the_per_integral_sums_on_every_branch(
        far_riemann):
    # as the per-tuple oracle test, on a basis where s1 and s2 each take
    # both branches: every spin-orbital tuple's row is the Riemann sum of
    # that tuple alone, s1 blocks concatenated per nucleus, and zero where
    # the spins forbid it
    table, source = far_riemann
    n, bounds = table.n, derive_bounds(table.basis)
    branches = {(kind, plan_quadrature(
        kind, i, j, source.delta[kind], bounds, table.basis, table.nuclei,
        i, j, q=q).coordinate_system)
        for i, j in itertools.product(range(1, n + 1), repeat=2)
        for kind, q in (("s1", 0), ("s1", 1), ("s2", None))}
    assert branches == {(kind, coord) for kind in ("s1", "s2")
                        for coord in ("cartesian", "spherical_polar")}
    oracle = _OneIndexAtATime(table.basis, table.nuclei, bounds, source.delta)
    spins = [phi.spin for phi in table.basis]
    for kind, n_indices in (("h1", 2), ("g", 4)):
        tuples = list(itertools.product(range(1, n + 1), repeat=n_indices))
        rows = getattr(source, kind)(*np.array(tuples).T)
        half = n_indices // 2
        for ix, row in zip(tuples, rows):
            assert np.array_equal(row, getattr(oracle, kind)(*ix))
            if [spins[x - 1] for x in ix[:half]] != [spins[x - 1]
                                                     for x in ix[half:]]:
                assert not np.any(row)
    # s0 and one s1 block per charged nucleus at 27 points, 1 if chargeless
    charges = [z for z, _ in table.nuclei]
    width = 27 * (1 + sum(z != 0 for z in charges)) + charges.count(0.0)
    assert source.h1(np.array([1]), np.array([1])).shape == (1, width)


@pytest.mark.parametrize("table_name,eta", [("h2_table", 2),
                                            ("mixed_table", 2),
                                            ("h2_riemann", 2),
                                            ("odd_spin_riemann", 2)])
def test_family_labels_match_per_label_oracle(table_name, eta, request):
    # assemble_from_gammas sees only the sum of the labels; this checks that
    # every edge is filed under the label whose color reaches it, that the
    # stored labels keep enumeration order and that the others are counted
    # but add no term
    table, source, oracle = request.getfixturevalue(table_name), None, None
    if table_name.endswith("_riemann"):
        table, source = table
        oracle = _OneIndexAtATime(table.basis, table.nuclei,
                                  derive_bounds(table.basis), source.delta)
    # riemann grid-point terms are small: a finer zeta keeps some slices
    zeta = 0.002 if source else 0.25
    expected = _per_label_family(table, eta, oracle)
    fam = build_term_family(source or table, eta, zeta=zeta)
    n_stored = len(fam.perms)
    labels = enumerate_gammas(table.n, eta)
    stored = [g for g in labels if g in expected]
    assert n_stored == len(stored)
    slices = []
    for g in range(n_stored):
        perm, vals = expected[stored[g]]
        vals = np.pad(vals, ((0, 0), (0, fam.mu - vals.shape[1])))
        assert np.array_equal(fam.perms[g], perm)
        assert np.array_equal(fam.values[g], vals)
        # M_g = max C_g / 2, with C the modulus rounded to even multiples
        slices.append(int(np.max(np.round(np.abs(vals) / (2 * zeta)))))
    assert list(fam.M_g) == slices
    assert fam.L > 0
    # the flat l values address exactly the 2 M_g terms of each stored label
    addressed = [fam.ell_parts(ell) for ell in range(fam.L)]
    assert addressed == [(s, m, g) for g in range(n_stored)
                         for m in range(1, slices[g] + 1) for s in (1, 2)]
    assert all(fam.term(flat_ell(fam, s, m, g), 0).gamma == g
               for s, m, g in addressed)


@pytest.fixture(scope="module")
def h2_complex(h2_table):
    """h2_table with spin-orbital k taken times the phase e^{i theta_k}: a
    complex Hermitian table with the same symmetries, whose CI matrix is
    the real one's in a rephased basis."""
    d = np.exp(1j * np.array([0.3, 1.1, -0.7, 2.0]))
    table = copy.copy(h2_table)
    table.h1_mat = d.conj()[:, None] * h2_table.h1_mat * d
    table.h2_mat = np.einsum("i,j,k,l,ijkl->ijkl", d.conj(), d.conj(), d, d,
                             h2_table.h2_mat)
    return table


@pytest.mark.parametrize("mode", ["exact", "riemann", "complex"])
def test_every_array_takes_the_dtype_of_its_integral_source(
        mode, h2_riemann, h2_complex):
    # a real source keeps the CI matrix, the family and its terms real,
    # and a complex test table runs complex through the same code
    table, source = h2_riemann
    if mode != "riemann":
        table = source = h2_complex if mode == "complex" else table
    zeta = 0.002 if mode == "riemann" else 0.25
    H = build_ci_matrix(table, 2)
    fam = build_term_family(source, 2, zeta)
    arrays = [table.h1_mat, table.h2_mat, H,
              labelled_terms(table.n, 2).values(source), fam._raw,
              fam._sums, fam.rounded_dense(), fam.unrounded_dense(),
              *(fam.term_pattern(ell, fam.mu - 1)[1]
                for ell in (0, fam.L - 1))]
    want = np.complex128 if mode == "complex" else np.float64
    assert [a.dtype for a in arrays] == [want] * len(arrays)
    if mode == "complex":
        # the rephasing reaches H, which still matches its oracles
        assert np.max(np.abs(H.imag)) > 0.1
        assert np.max(np.abs(H - assemble_from_gammas(table, 2))) < 1e-12
        assert np.max(np.abs(fam.rounded_dense() - doubled(H))) <= 3 * zeta
        assert np.allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(
            build_ci_matrix(h2_riemann[0], 2)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "riemann"])
def test_family_stores_each_labelled_term_once(mode, h2_riemann):
    # one table row per labelled term, standing for both directions of its
    # edge, its mu values and a few integers; no array keeps a label padded
    # to every row and grid point
    table, source = h2_riemann
    fam = build_term_family(source if mode == "riemann" else table, 2,
                            zeta=0.002)
    n_rows, n_labels = len(fam.row), len(fam.M_g)
    assert n_rows == len(labelled_terms(table.n, 2).left)
    arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) \
        <= 16 * fam.mu * n_rows + 64 * (n_rows + n_labels)
    assert all(a.shape != (n_labels, fam.dim, fam.mu) for a in arrays)


def test_riemann_engine_sums_each_spin_allowed_spatial_tuple_once(
        odd_spin_riemann, monkeypatch):
    # the family asks its RiemannTable for h1/g on spin-orbital tuples; each
    # reads the row of its spatial tuple, summed once for the whole table,
    # when its spins are allowed and the zero row when not.  Every grid of
    # this basis is spherical-polar, laid on a nucleus or on c_i, so no
    # kernel runs twice for one grid exactly when no function is evaluated
    # twice at one set of points
    table, coarsest = odd_spin_riemann
    # a table of its own: the fixture's has filled its tables in other tests
    source = RiemannTable(table.basis, table.nuclei, coarsest.delta)
    spatial = source.spatial + 1
    spins = [phi.spin for phi in table.basis]
    requests = []
    for name in ("h1", "g"):
        def recording(self, *index, _name=name,
                      _fn=getattr(RiemannTable, name)):
            rows = _fn(self, *index)
            # a copy: the family sums into the rows it is given
            requests.extend(zip(itertools.repeat(_name), zip(*(
                np.asarray(x).tolist() for x in index)), rows.copy()))
            return rows
        monkeypatch.setattr(RiemannTable, name, recording)
    evaluated = Counter()
    for name in ("eval_value", "eval_gradient"):
        def counted(phi, pts, _name=name, _fn=getattr(quadrature, name)):
            evaluated[_name, phi, np.asarray(pts).tobytes()] += 1
            return _fn(phi, pts)
        monkeypatch.setattr(quadrature, name, counted)
    build_term_family(source, 2, zeta=0.002)
    assert evaluated and set(evaluated.values()) == {1}
    # the per-integral sums of the spin-free functions, as the oracle
    monkeypatch.undo()
    oracle = _OneIndexAtATime(source.functions, table.nuclei, source.bounds,
                              source.delta)
    n_forbidden = 0
    for name, ix, row in requests:
        half = len(ix) // 2
        if [spins[x - 1] for x in ix[:half]] != [spins[x - 1]
                                                 for x in ix[half:]]:
            n_forbidden += 1
            assert not np.any(row)
        else:
            functions = [int(spatial[x - 1]) for x in ix]
            assert np.array_equal(row, getattr(oracle, name)(*functions))
    # every spin-orbital h1/g tuple was asked for, so some were zeroed
    assert 0 < n_forbidden < len(requests)


def test_riemann_run_evaluates_each_function_once_per_grid(monkeypatch):
    # riemann-h2's shape: H2 at grids 6/6/3.  Each function is evaluated
    # once on each grid: s0's two cubes, s1's ball at each nucleus and s2's
    # r1 and r2 at each center take 4 gradients and 12 values; plans are
    # made per function and per (i, q) or (i, j) pair, not per spin-orbital
    # tuple
    data = _h_chain(2, 2, spacing=1.4)
    basis = config_from_dict(data).orbitals
    bounds = derive_bounds(basis)
    grids = {"s0": 6, "s1": 6, "s2": 3}
    data.update(epsilon=0.5, overrides={"zeta": 0.02, "delta": {
        k: delta_for_grid(k, n, bounds) for k, n in grids.items()}})
    cfg = config_from_dict(data)
    calls = Counter()
    for name in ("eval_value", "eval_gradient", "plan_quadrature"):
        def counted(*args, _name=name, _fn=getattr(quadrature, name),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(quadrature, name, counted)
    with pytest.warns(NonOrthonormalBasisWarning):
        run_pipeline(cfg, mode="riemann")
    assert calls["eval_value"] <= 12
    assert calls["eval_gradient"] <= 4
    assert 0 < calls["plan_quadrature"] <= 12


def test_family_build_makes_no_per_edge_slater_condon_call(mixed_table,
                                                           monkeypatch):
    # signs and values come off the edge table's columns: neither the
    # per-edge diff nor the per-edge term value runs, though the same
    # counters see the label-sum reference make both
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (determinants, cimatrix, driver):
        for name in ("align_and_diff", "term_value"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    build_term_family(mixed_table, 3, zeta=0.25)
    assert calls == Counter()
    assemble_from_gammas(mixed_table, 3)
    assert calls["align_and_diff"] > 0 and calls["term_value"] > 0


def test_family_build_reads_each_term_once(mixed_table, monkeypatch):
    # a term's value is read forward and reversed, once each: h1 receives
    # two index rows per one-body term and g four per two-body term, the
    # first term of each kind too
    rows = Counter()

    def counted(name, read):
        def wrapper(self, *index):
            rows[name] += len(index[0])
            return read(self, *index)
        return wrapper

    for name in ("h1", "g"):
        monkeypatch.setattr(IntegralTable, name,
                            counted(name, getattr(IntegralTable, name)))
    build_term_family(mixed_table, 3, zeta=0.25)
    one_body = labelled_terms(mixed_table.n, 3).one_body
    assert rows == Counter(h1=2 * np.count_nonzero(one_body),
                           g=4 * np.count_nonzero(~one_body))


def test_family_build_confirms_every_partner_with_apply_color(mixed_table,
                                                              monkeypatch):
    # the confirming kernel sends the table's last edge elsewhere: the
    # build still maps every edge, that last one too
    from cisim import coloring
    n_edges = 20 * sparsity_d(6, 3)
    apply, calls = coloring.SingleMoves.apply, []

    def last_goes_astray(self, move, node):
        calls.append(len(move))
        partner, x, y = apply(self, move, node)
        if len(move) == n_edges:
            partner[-1] = node[-1]
        return partner, x, y

    monkeypatch.setattr(coloring.SingleMoves, "apply", last_goes_astray)
    table = coloring.edge_table(6, 3)
    last = (f"does not map {tuple(table.orbs[table.left[-1]].tolist())} to "
            f"{tuple(table.orbs[table.right[-1]].tolist())}")
    with pytest.raises(PatternMismatch, match=re.escape(last)):
        build_term_family(mixed_table, 3, zeta=0.25)
    assert calls.count(n_edges) == 2  # m1, then m2, of every edge


def test_pipeline_makes_one_kernel_pass_per_side(monkeypatch):
    # the family confirms its rows with the edge table's kept left kernel,
    # and one kernel call gives both sides, so a run evaluates the move
    # rule once per table; every module that binds the name calls through
    # the counter
    from cisim import coloring
    single_moves, calls = coloring.single_moves, []

    def counted(occ, norb):
        calls.append(len(occ))
        return single_moves(occ, norb)

    for module in (coloring, cimatrix):
        if hasattr(module, "single_moves"):
            monkeypatch.setattr(module, "single_moves", counted)
    with pytest.warns(NonOrthonormalBasisWarning):
        run_pipeline(h2_config(), mode="exact")
    assert calls == [6]  # the C(4, 2) nodes of H2, once


def test_a_broken_coloring_fails_the_family_build(mixed_table, monkeypatch):
    # the family reads its edges off the census table, so a move rule the
    # census rejects stops the build
    import cisim.coloring as coloring
    monkeypatch.setattr(coloring, "single_moves",
                        _kernel_redirect_one_left_move)
    with pytest.raises(PatternMismatch):
        build_term_family(mixed_table, 3, zeta=0.25)


@pytest.fixture(scope="module")
def h2_report():
    cfg = h2_config()
    with pytest.warns(NonOrthonormalBasisWarning):
        return run_pipeline(cfg, mode="exact")


def test_pipeline_h2_ok(h2_report):
    rep = h2_report
    assert rep.status == "OK"
    assert rep.error_ledger["total"] <= 0.01
    assert rep.dims["N"] == 4 and rep.dims["xi"] == 6
    assert rep.dims["Gamma"] == 2403


def test_pipeline_ledger_sound(h2_report):
    # the measured error never exceeds what the ledger claims
    assert h2_report.l2_error_vs_exact <= h2_report.error_ledger["total"]
    assert h2_report.fidelity > 1 - 2 * h2_report.error_ledger["total"]


def test_pipeline_ledger_total_leaves_out_projection(h2_report):
    # the summed norm loss is bounded by the taylor entry, so it is a
    # diagnostic: the total adds the three layers once each
    ledger = h2_report.error_ledger
    assert ledger["total"] == (ledger["taylor"] + ledger["rounding"]
                               + ledger["quadrature"])
    assert 0.0 <= ledger["projection"] <= ledger["taylor"] * (1 + 1e-3)


def test_pipeline_reports_the_paper_cost(h2_report):
    # the run pays for the terms that exist; the paper's 2 M Gamma layout
    # and the segment count it would need sit beside them
    dims = h2_report.dims
    assert dims["Gamma"] == len(enumerate_gammas(dims["N"], dims["eta"]))
    assert dims["Gamma_live"] == 37
    assert dims["lambda_paper"] == pytest.approx(
        dims["zeta"] * 2 * dims["M"] * dims["Gamma"] * dims["mu"])
    assert dims["r_paper"] == int(np.ceil(dims["lambda_paper"] / np.log(2)))
    assert dims["L"] <= 2 * dims["M"] * dims["Gamma_live"]
    assert dims["r"] <= 20 < dims["r_paper"]
    # the run's own LCU weight, which sets its segment count
    assert dims["lambda_weight"] == pytest.approx(
        dims["zeta"] * dims["L"] * dims["mu"])
    assert dims["r"] == segment_count(dims["lambda_weight"], 1.0)


def test_pipeline_zeta_that_rounds_every_entry_to_zero():
    # no term survives the rounding, so L = 0, |H~| = 0 bounds the plan and
    # the pad pair carries the whole weight of one segment
    cfg = h2_config()
    cfg.overrides = {"zeta": 100.0}
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(cfg, mode="exact")
    assert rep.dims["L"] == 0 and rep.dims["M"] == 0
    assert rep.dims["r"] == 1
    assert rep.status == "OVER_BUDGET"
    assert rep.l2_error_vs_exact <= rep.error_ledger["total"]


def test_pipeline_builds_rounded_dense_once(monkeypatch):
    # run_pipeline and evolve's eigh share one dense scatter
    calls = []
    scatter = TermFamily._scatter

    def counted(self, label_values):
        calls.append(1)
        return scatter(self, label_values)

    monkeypatch.setattr(TermFamily, "_scatter", counted)
    with pytest.warns(NonOrthonormalBasisWarning):
        run_pipeline(h2_config(), mode="exact")
    assert len(calls) == 1


def test_pipeline_deterministic():
    cfg = h2_config()
    with pytest.warns(NonOrthonormalBasisWarning):
        a = run_pipeline(cfg, mode="exact")
    with pytest.warns(NonOrthonormalBasisWarning):
        b = run_pipeline(cfg, mode="exact")
    da, db = a.to_dict(), b.to_dict()
    da.pop("timings"), db.pop("timings")
    assert da == db


# ---------------------------------------------------------------------------
# one topology per (N, eta): a bond scan builds its coloring once


TOPOLOGY_BUILDERS = ("edge_table", "single_moves", "single_excitations")


def _h2_at(spacing, mode):
    """H2 at one bond length; in riemann mode at grids 6/6/3, zeta 0.02."""
    data = _h_chain(2, 2, spacing=spacing)
    if mode == "riemann":
        bounds = derive_bounds(config_from_dict(data).orbitals)
        data.update(epsilon=0.5, overrides={"zeta": 0.02, "delta": {
            k: delta_for_grid(k, n, bounds)
            for k, n in {"s0": 6, "s1": 6, "s2": 3}.items()}})
    return config_from_dict(data)


def _report(config, mode):
    """The run's report, less its timings."""
    with pytest.warns(NonOrthonormalBasisWarning):
        out = run_pipeline(config, mode=mode).to_dict()
    out.pop("timings")
    return out


def _count_topology_builds(monkeypatch):
    """Count the calls of TOPOLOGY_BUILDERS, in every module that binds one."""
    from cisim import coloring
    calls = Counter()
    for module in (determinants, coloring, cimatrix):
        for name in TOPOLOGY_BUILDERS:
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["exact", "riemann"])
def test_a_bond_scan_builds_its_topology_once(mode, monkeypatch):
    # the coloring and the excitations depend on (N, eta) alone: the second
    # bond length reads the first's, and each report equals a cold run's
    calls = _count_topology_builds(monkeypatch)
    scan = [_h2_at(spacing, mode) for spacing in (1.4, 1.8)]
    reports = []
    for k, config in enumerate(scan):
        before = calls.copy()
        reports.append(_report(config, mode))
        # the first bond length calls each builder, the second none
        assert set(calls - before) == (set(TOPOLOGY_BUILDERS) if k == 0
                                       else set())
    assert reports[0] != reports[1]
    for config, report in zip(scan, reports):
        labelled_terms.cache_clear()
        determinants.excitations.cache_clear()
        assert _report(config, mode) == report


def _arrays(obj):
    """Every array a result's dataclass fields reach, and their bases."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from _arrays(value)
        while isinstance(value, np.ndarray):
            yield value
            value = value.base


def test_a_cached_topology_is_read_only():
    # a caller that writes into a shared result fails, rather than change
    # the next run's; the family's terms reach their edge table and kernel
    cached = {labelled_terms: 18, determinants.excitations: 11}
    for build, n_fields in cached.items():
        result = build(4, 2)
        assert build(4, 2) is result
        arrays = list(_arrays(result))
        assert len({id(a) for a in arrays}) >= n_fields
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array


def test_a_run_at_a_second_size_keeps_one_topology():
    _report(_h2_at(1.4, "exact"), "exact")
    _report(config_from_dict(_h_chain(3, 2)), "exact")
    for build in (labelled_terms, determinants.excitations):
        info = build.cache_info()
        assert (info.misses, info.currsize) == (2, 1)
    assert labelled_terms(6, 2) is labelled_terms(6, 2)


def _record_decompositions(monkeypatch, pause=0.0):
    """Log each numpy eigvalsh, eigh and svd call as (name, argument), and
    sleep ``pause`` seconds in it; np.linalg.norm's own svd is included."""
    calls = []
    linalg = inspect.unwrap(np.linalg.norm).__globals__
    for name in ("eigvalsh", "eigh", "svd"):
        def wrapped(a, *args, _name=name, _fn=getattr(np.linalg, name), **kw):
            calls.append((_name, a))
            time.sleep(pause)
            return _fn(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setitem(linalg, name, wrapped)
    return calls


def test_pipeline_decomposes_h_tilde_once_and_no_double_cover(monkeypatch):
    # one eigh of H~ bounds the plan, gives the Taylor entry and runs the
    # segments; no other decomposition runs on a 2 xi x 2 xi matrix of the
    # double cover: the ledger takes its norms on the xi block
    rounded = TermFamily.rounded_dense
    seen = []

    def keep(self):
        seen.append(rounded(self))
        return seen[-1]

    monkeypatch.setattr(TermFamily, "rounded_dense", keep)
    calls = _record_decompositions(monkeypatch)
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(h2_config(), mode="exact")
    Htilde = seen[0]
    assert [name for name, a in calls if a is Htilde] == ["eigh"]
    assert [name for name, a in calls if a is not Htilde
            and np.shape(a)[0] == 2 * rep.dims["xi"]] == []


def test_exact_pipeline_takes_no_quadrature_norm(monkeypatch):
    # exact mode's unrounded block is H itself, so its quadrature entry is
    # 0 by construction: the only 2 xi x 2 xi decomposition is the eigh of
    # H~, since the rounding norm is taken on the xi block
    calls = _record_decompositions(monkeypatch)
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(h2_config(), mode="exact")
    assert [name for name, a in calls
            if np.shape(a)[0] == 2 * rep.dims["xi"]] == ["eigh"]
    assert rep.error_ledger["quadrature"] == 0.0


def test_pipeline_stages_time_every_dense_decomposition(monkeypatch):
    # each decomposition sleeps 50 ms, so one outside every stage shows as
    # wall time that the timings do not add up to
    _record_decompositions(monkeypatch, pause=0.05)
    start = time.perf_counter()
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(h2_config(), mode="exact")
    wall = time.perf_counter() - start
    assert sum(rep.timings.values()) >= 0.95 * wall


TAYLOR_PROBLEMS = {
    "h2": (lambda tmp_path: h2_config(), "exact"),
    "chain-8-2": (lambda tmp_path: config_from_dict(_h_chain(4, 2)), "exact"),
    "chain-8-4": (lambda tmp_path: config_from_dict(_h_chain(4, 4)), "exact"),
    "riemann-h2": (lambda tmp_path: load_config(_riemann_h2_config(tmp_path)),
                   "riemann"),
}


@pytest.mark.parametrize("name", TAYLOR_PROBLEMS)
def test_spectral_taylor_entry_matches_the_dense_oracle(name, tmp_path):
    make, mode = TAYLOR_PROBLEMS[name]
    cfg = make(tmp_path)
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(cfg, mode=mode)
    with pytest.warns(NonOrthonormalBasisWarning):
        table = ingest(cfg)
    delta, zeta, eps_taylor = run_budget(cfg)
    source = (RiemannTable(cfg.orbitals, cfg.nuclei, delta)
              if mode == "riemann" else table)
    family = build_term_family(source, cfg.eta, zeta)
    assert rep.error_ledger["taylor"] == pytest.approx(
        dense_taylor_entry(family, cfg.time, eps_taylor), rel=1e-4)


@pytest.mark.parametrize("name", ["h2", "riemann-h2"])
def test_pipeline_builds_no_dense_segment_block(name, tmp_path, monkeypatch):
    # evolve applies each segment in H~'s eigenbasis: the dense U~ and its
    # amplified block are references that only the tests build
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline built a dense segment block")

    monkeypatch.setattr(lcu, "taylor_block", refuse)
    monkeypatch.setattr(lcu, "oaa_block", refuse)
    make, mode = TAYLOR_PROBLEMS[name]
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(make(tmp_path), mode=mode)
    assert rep.dims["r"] >= 1


@pytest.mark.parametrize("name", ["h2", "riemann-h2"])
def test_a_real_hamiltonian_is_decomposed_in_real_arithmetic(
        name, tmp_path, monkeypatch):
    # every eigvalsh and eigh of a run on real integrals takes a real
    # matrix: a complex one would cost several times as much
    make, mode = TAYLOR_PROBLEMS[name]
    cfg = make(tmp_path)
    calls = _record_decompositions(monkeypatch)
    with pytest.warns(NonOrthonormalBasisWarning):
        run_pipeline(cfg, mode=mode)
    dtypes = [np.asarray(a).dtype for fn, a in calls
              if fn in ("eigvalsh", "eigh")]
    assert len(dtypes) >= 3 and set(dtypes) == {np.dtype(np.float64)}


def _pipeline_family(config, mode):
    """(H, family) as run_pipeline builds them for ``config``."""
    table = IntegralTable(config.orbitals, config.nuclei)
    delta, zeta, _ = run_budget(config)
    source = (RiemannTable(config.orbitals, config.nuclei, delta)
              if mode == "riemann" else table)
    return (build_ci_matrix(table, config.eta),
            build_term_family(source, config.eta, zeta))


BLOCK_PROBLEMS = {
    "exact-4-2": (lambda: config_from_dict(_h_chain(2, 2)), "exact"),
    "exact-8-2": (lambda: config_from_dict(_h_chain(4, 2)), "exact"),
    "exact-8-4": (lambda: config_from_dict(_h_chain(4, 4)), "exact"),
    "exact-10-4": (lambda: config_from_dict(_h_chain(5, 4)), "exact"),
    "riemann-h2": (lambda: _h2_at(1.45, "riemann"), "riemann"),
}


@pytest.mark.parametrize("name", [*BLOCK_PROBLEMS, "complex"])
def test_the_dense_family_is_sigma_x_times_a_hermitian_xi_block(name,
                                                               h2_complex):
    # every table row runs from side 0 to side 1, and a pair's values are
    # exact conjugates: so the ledger takes its norms on the xi block
    if name == "complex":
        H, fam = None, build_term_family(h2_complex, 2, zeta=0.002)
    else:
        make, mode = BLOCK_PROBLEMS[name]
        H, fam = _pipeline_family(make(), mode)
    xi = fam.dim // 2
    for dense in (fam.rounded_dense(), fam.unrounded_dense()):
        A = dense[:xi, xi:]
        assert not dense[:xi, :xi].any() and not dense[xi:, xi:].any()
        assert np.array_equal(A, A.conj().T)
        assert np.array_equal(dense[xi:, :xi], A)
    # the complex table's H is Hermitian only to rounding
    if H is not None:
        assert np.array_equal(H, H.conj().T)


@pytest.mark.parametrize("name", TAYLOR_PROBLEMS)
def test_ledger_norms_equal_the_double_cover_norms(name, tmp_path,
                                                   monkeypatch):
    # each ledger norm, taken on the xi block, is the norm of sigma_x (x)
    # that block, and the run's only decomposition on the double cover is
    # the eigh of H~
    make, mode = TAYLOR_PROBLEMS[name]
    cfg = make(tmp_path)
    calls = _record_decompositions(monkeypatch)
    with pytest.warns(NonOrthonormalBasisWarning):
        rep = run_pipeline(cfg, mode=mode)
    cover = [(fn, a) for fn, a in calls
             if np.shape(a)[0] == 2 * rep.dims["xi"]]
    H, fam = _pipeline_family(cfg, mode)
    assert [fn for fn, _ in cover] == ["eigh"]
    assert np.array_equal(cover[0][1], fam.rounded_dense())
    H2 = doubled(H)
    unrounded = fam.unrounded_dense() if mode == "riemann" else H2
    want = {"rounding": hermitian_norm(unrounded - fam.rounded_dense())}
    if mode == "riemann":
        want["quadrature"] = hermitian_norm(H2 - unrounded)
    for key, norm in want.items():
        assert rep.error_ledger[key] == pytest.approx(norm * cfg.time,
                                                      rel=1e-12, abs=0)


def test_pipeline_schema(h2_report):
    d = h2_report.to_dict()
    assert d["schema"] == 1
    assert set(d["error_ledger"]) == {"taylor", "rounding", "quadrature",
                                      "projection", "total"}
    for key in ("N", "eta", "xi", "d", "Gamma", "L", "M", "mu", "r", "K",
                "lambda", "lambda_weight"):
        assert key in d["dims"]


@pytest.fixture(scope="module")
def tiny_riemann():
    basis = [so((0, 0, -0.5), 1.0), so((0, 0, 0.5), 1.4)]
    nuclei = [(1.0, (0, 0, -0.5)), (1.0, (0, 0, 0.5))]
    bounds = derive_bounds(basis)
    table = IntegralTable(basis, nuclei)
    deltas = {"s0": delta_for_grid("s0", 6, bounds),
              "s1": delta_for_grid("s1", 6, bounds),
              "s2": delta_for_grid("s2", 3, bounds)}
    return basis, nuclei, RiemannTable(basis, nuclei, deltas), table, deltas


def test_riemann_mode_family_consistency(tiny_riemann):
    basis, nuclei, source, table, deltas = tiny_riemann
    fam = build_term_family(source, 1, zeta=0.02)
    H2 = doubled(build_ci_matrix(table, 1))
    unrounded = fam.unrounded_dense()
    assert np.max(np.abs(unrounded - unrounded.conj().T)) < 1e-12
    # each entry combines at most two integrals, each within its delta
    worst = 2 * max(deltas.values())
    assert np.max(np.abs(H2 - unrounded)) <= worst
    assert np.max(np.abs(unrounded - fam.rounded_dense())) \
        <= 0.02 * fam.mu + 1e-12


def test_riemann_mode_pipeline_schema(tiny_riemann):
    basis, nuclei, _, _, deltas = tiny_riemann
    cfg = ProblemConfig(nuclei=nuclei, orbitals=basis, eta=1, time=0.2,
                        epsilon=0.5,
                        overrides={"delta": deltas, "zeta": 0.02})
    rep = run_pipeline(cfg, mode="riemann")
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["error_ledger"]["quadrature"] > 0
    assert rep.l2_error_vs_exact <= rep.error_ledger["total"]


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_coloring_check(tmp_path):
    out = tmp_path / "census.json"
    rc = cli_main(["coloring-check", "--norb", "5", "--eta", "2",
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["valid"] is True
    # 3 diagonal + 64 moves x 2 selectors + 64^2 double labels
    assert data["gamma_count"] == 3 + 128 + 4096


def test_cli_build_hamiltonian(tmp_path):
    out = tmp_path / "h.json"
    rc = cli_main(["build-hamiltonian", "--config", H2_PATH,
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["matrix_re"]) == 6
    assert data["gamma_census"]["total"] == 2403
    out_csv = tmp_path / "h.csv"
    rc = cli_main(["build-hamiltonian", "--config", H2_PATH,
                   "--output", "csv", "--out", str(out_csv)])
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == "row,col,re,im"


def test_cli_build_hamiltonian_json_is_pinned(tmp_path):
    # the basis is read off the cached excitations, and the document is the
    # one a list of enumerate_basis' determinants gives, byte for byte
    out = tmp_path / "h.json"
    assert cli_main(["build-hamiltonian", "--config", H2_PATH,
                     "--out", str(out)]) == 0
    with pytest.warns(NonOrthonormalBasisWarning):
        H = build_ci_matrix(ingest(h2_config()), 2)
    expected = {"basis": [list(d.occ) for d in enumerate_basis(4, 2)],
                "matrix_re": H.real.tolist(), "matrix_im": H.imag.tolist(),
                "gamma_census": gamma_census(4, 2)}
    assert out.read_text() == json.dumps(expected, indent=2,
                                         sort_keys=True) + "\n"


def test_cli_quadrature(tmp_path):
    out = tmp_path / "terms.csv"
    rc = cli_main(["quadrature", "--config", H2_PATH, "--kind", "s0",
                   "--orbitals", "1,3", "--grid-n", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,re,im,bound"
    assert len(lines) == 1 + 8**3
    cfg = h2_config()
    bounds = derive_bounds(cfg.orbitals)
    delta = delta_for_grid("s0", 8, bounds)
    spec = plan_quadrature("s0", 1, 3, delta, bounds, cfg.orbitals)
    terms = riemann_S0(1, 3, spec, cfg.orbitals)
    assert lines[1:] == [
        f"{rho},{float(v.real)!r},{float(v.imag)!r},{terms.bound!r}"
        for rho, v in enumerate(terms.values)]


def test_cli_quadrature_grid_n_is_the_row_count(tmp_path):
    # at 63 per axis, scale / (scale / u) once rounded above u, and the
    # plan took 64
    out = tmp_path / "terms.csv"
    assert cli_main(["quadrature", "--config", H2_PATH, "--kind", "s0",
                     "--orbitals", "1,3", "--grid-n", "63",
                     "--out", str(out)]) == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 + 63**3


def test_cli_quadrature_plans_with_the_config_delta(tmp_path):
    # with no --grid-n, the config's delta for the kind, or --delta for
    # every kind, sets the grid
    with open(H2_PATH) as fh:
        data = json.load(fh)
    bounds = derive_bounds(load_config(H2_PATH).orbitals)
    data["overrides"] = {"delta": {k: delta_for_grid(k, 8, bounds)
                                   for k in ("s0", "s1", "s2")}}
    path = tmp_path / "h2_delta.json"
    path.write_text(json.dumps(data))
    outs = []
    for argv in (["--config", str(path)],
                 ["--config", H2_PATH, "--grid-n", "8"],
                 ["--config", H2_PATH,
                  "--delta", repr(data["overrides"]["delta"]["s0"])]):
        out = tmp_path / f"terms{len(outs)}.csv"
        assert cli_main(["quadrature", "--kind", "s0", "--orbitals", "1,3",
                         *argv, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 8**3


def test_cli_quadrature_spin_forbidden_evaluates_no_orbital(tmp_path,
                                                           monkeypatch):
    # orbitals 1 and 2 of configs/h2.json have opposite spins, so the s2
    # sum is zero: no orbital is evaluated, and the bytes are the ones the
    # full grid gave before it was skipped
    calls = Counter()
    for name in ("eval_value", "eval_gradient"):
        def counted(*args, _name=name, _fn=getattr(quadrature, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quadrature, name, counted)
    out = tmp_path / "terms.csv"
    assert cli_main(["quadrature", "--config", H2_PATH, "--kind", "s2",
                     "--orbitals", "1,2,2,1", "--grid-n", "3",
                     "--out", str(out)]) == 0
    assert calls == Counter()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "eda5855d212f3b1a14f7ac81d176276187cf5f2ed7fa6c083dab216aa317f80a")


def test_cli_evolve(tmp_path):
    out = tmp_path / "evolve.json"
    rc = cli_main(["evolve", "--config", H2_PATH, "--epsilon", "0.03",
                   "--time", "0.5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data) == {"r", "K", "lambda", "max_segment_deviation",
                         "final_error_vs_exact"}
    assert data["final_error_vs_exact"] <= 0.03


def test_cli_evolve_output_does_not_grow_with_r(tmp_path):
    # 141,113 segments print as a few scalars, not one number each
    out = tmp_path / "evolve.json"
    assert cli_main(["evolve", "--config", H2_PATH, "--time", "10000",
                     "--out", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    assert data["r"] > 10**5
    assert len(text.encode()) < 1024
    assert not any(isinstance(v, (list, dict)) for v in data.values())


def test_cli_build_hamiltonian_rejects_oversized_basis(tmp_path, monkeypatch,
                                                      capsys):
    import cisim.cimatrix as cimatrix

    def no_entry(*args):
        raise AssertionError("a CI entry computed past the dense cap")

    monkeypatch.setattr(cimatrix, "excitations", no_entry)
    # an H7 chain, (N, eta) = (14, 7): xi = 3432 > 2048
    path = tmp_path / "h7.json"
    path.write_text(json.dumps(_h_chain(7, 7)))
    with pytest.warns(NonOrthonormalBasisWarning):
        rc = cli_main(["build-hamiltonian", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: DimensionTooLarge: ") and err.count("\n") == 1


def test_cli_report(tmp_path):
    out = tmp_path / "report.json"
    rc = cli_main(["report", "--config", H2_PATH, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1 and data["status"] == "OK"


def test_cli_report_csv_dims_are_numbers(tmp_path):
    out = tmp_path / "report.csv"
    rc = cli_main(["report", "--config", H2_PATH, "--output", "csv",
                   "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        dims = {k: v for k, v in csv.reader(fh) if k.startswith("dims.")}
    assert {"dims.delta.s0", "dims.delta.s1", "dims.delta.s2"} <= set(dims)
    for value in dims.values():
        float(value)


def _scipy_modules_after_run(path, mode):
    """The scipy modules a fresh process holds after one pipeline run."""
    code = ("import sys, warnings; warnings.simplefilter('ignore'); "
            "from cisim.driver import load_config, run_pipeline; "
            f"run_pipeline(load_config({path!r}), mode={mode!r}); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


CENSUS_HEADER = ("norb,eta,nodes,single_colors,double_colors,"
                 "edges_expected,edges_found,duplicate_edges,"
                 "uncovered_edges,inverse_failures,injectivity_failures,"
                 "valid,gamma_count")


@pytest.mark.parametrize("norb,eta,row,json_sha256", [
    (6, 3, "6,3,20,120,14400,380,380,0,0,0,0,True,14766",
     "a888a3dc1cff630af36cc7e63dd84077103bb831f34d9fd4897766118e710284"),
    (8, 4, "8,4,70,224,50176,3710,3710,0,0,0,0,True,51082",
     "a69501fb4d9b410d5d67cabcb138fb4664c7a1c4ed2b7c2878af991a0410efd9"),
])
def test_cli_coloring_check_bytes(norb, eta, row, json_sha256, tmp_path):
    # the census payload's keys, in order, and values, as CSV and as JSON
    argv = ["coloring-check", "--norb", str(norb), "--eta", str(eta)]
    csv_out, json_out = tmp_path / "census.csv", tmp_path / "census.json"
    assert cli_main([*argv, "--output", "csv", "--out", str(csv_out)]) == 0
    assert cli_main([*argv, "--out", str(json_out)]) == 0
    assert csv_out.read_bytes() == f"{CENSUS_HEADER}\r\n{row}\r\n".encode()
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == json_sha256


def test_exact_pipeline_does_not_load_scipy():
    assert _scipy_modules_after_run(H2_PATH, "exact") == "[]\n"


def test_riemann_pipeline_does_not_load_scipy(tmp_path):
    # certifying the basis bounds needs no optimizer either
    path = _riemann_h2_config(tmp_path)
    assert _scipy_modules_after_run(path, "riemann") == "[]\n"


def test_exact_pipeline_does_not_load_numpy_ma():
    # the coloring's census runs in every family build; numpy.ma, which a
    # plain np.unique imports, would add 1.3 MB to each run's resident set
    code = ("import sys, warnings; warnings.simplefilter('ignore'); "
            "from cisim.driver import load_config, run_pipeline; "
            f"run_pipeline(load_config({H2_PATH!r})); "
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_source_file_names_scipy():
    sources = Path(__file__).resolve().parents[1] / "src" / "cisim"
    assert [p.name for p in sorted(sources.glob("*.py"))
            if "scipy" in p.read_text()] == []


@pytest.mark.parametrize("argv,error", [
    pytest.param(["report", "--config", H2_PATH, "--time", "0"],
                 "BudgetInfeasible", id="report"),
    pytest.param(["evolve", "--config", H2_PATH, "--time", "0"],
                 "BudgetInfeasible", id="evolve"),
    pytest.param(["report", "--config", H2_PATH, "--time", "nan"],
                 "BudgetInfeasible", id="time-nan"),
    pytest.param(["evolve", "--config", H2_PATH, "--time", "inf"],
                 "BudgetInfeasible", id="time-inf"),
    # the budget's zeta, or the override, would round entries to counts
    # past int64
    pytest.param(["report", "--config", H2_PATH, "--time", "1e300"],
                 "BudgetInfeasible", id="time-1e300"),
    pytest.param(["report", "--config", H2_PATH, "--zeta", "1e-20"],
                 "BudgetInfeasible", id="zeta-1e-20"),
    # about 7.8e13 evolution segments, past the plan's cap
    pytest.param(["report", "--config", H2_PATH, "--time", "1e10"],
                 "BudgetInfeasible", id="time-1e10"),
    pytest.param(["coloring-check", "--norb", "4", "--eta", "-1"],
                 "InvalidCounts", id="coloring-check"),
    # --out into a missing directory, and --out naming a directory
    pytest.param(["coloring-check", "--norb", "6", "--eta", "3",
                  "--out", "/nonexistent/x.json"],
                 "OutputUnwritable", id="out-missing-directory"),
    pytest.param(["coloring-check", "--norb", "6", "--eta", "3",
                  "--out", "."], "OutputUnwritable", id="out-directory"),
    # 1-based orbital and 0-based nucleus indices; negative ones are not
    # Python's count from the end
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s0",
                  "--orbitals", "0,4", "--grid-n", "4"],
                 "IndexOutOfRange", id="quadrature-orbital-0"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s0",
                  "--orbitals", "1,9", "--grid-n", "4"],
                 "IndexOutOfRange", id="quadrature-orbital-9"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s1",
                  "--orbitals", "1,3", "--q", "-1", "--grid-n", "4"],
                 "IndexOutOfRange", id="quadrature-nucleus--1"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s1",
                  "--orbitals", "1,3", "--q", "5", "--grid-n", "4"],
                 "IndexOutOfRange", id="quadrature-nucleus-5"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s0",
                  "--orbitals", "1", "--grid-n", "4"],
                 "InvalidCounts", id="quadrature-one-index"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s2",
                  "--orbitals", "1,2", "--grid-n", "4"],
                 "InvalidCounts", id="quadrature-s2-two-indices"),
    pytest.param(["report", "--config", H2_PATH, "--epsilon", "1.5"],
                 "BudgetInfeasible", id="epsilon-1.5"),
    pytest.param(["report", "--config", H2_PATH, "--epsilon", "0"],
                 "BudgetInfeasible", id="epsilon-0"),
    # u = scale / delta is a float, but the grid count it needs is not
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s2",
                  "--orbitals", "1,3,1,3", "--delta", "1e-300"],
                 "DeltaTooSmall", id="quadrature-delta-1e-300"),
    pytest.param(["report", "--config", H2_PATH, "--mode", "riemann",
                  "--delta", "1e-300"],
                 "DeltaTooSmall", id="report-riemann-delta-1e-300"),
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s0",
                  "--orbitals", "1,3", "--grid-n", "1" + "0" * 400],
                 "DeltaTooSmall", id="quadrature-grid-n-1e400"),
])
def test_cli_error_is_one_line_and_exit_2(argv, error, capsys):
    rc = cli_main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cisim: {error}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("t", ["1e-322", "5e-324", "1e308"])
def test_cli_time_past_the_budget_split_is_budget_infeasible(t, capsys):
    # epsilon / (3 t Gamma) overflows to inf, or underflows to 0: the error
    # names the budget, not overrides the config does not have
    assert cli_main(["report", "--config", H2_PATH, "--time", t]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: BudgetInfeasible: ")
    assert err.count("\n") == 1 and "overrides" not in err


def test_riemann_delta_past_the_grid_cap_builds_no_ci_matrix(monkeypatch,
                                                             capsys):
    # riemann mode plans its h1 grids in the ingest stage, so a delta past
    # the cap is refused before the CI matrix and the labelled terms are
    # built; the same counters see an exact report build both
    calls = Counter()
    for module in (driver, cimatrix):
        for name in ("build_ci_matrix", "labelled_terms"):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
    argv = ["report", "--config", H2_PATH]
    with pytest.warns(NonOrthonormalBasisWarning):
        rc = cli_main([*argv, "--mode", "riemann", "--delta", "1e-300"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("cisim: DeltaTooSmall: ")
    assert calls == Counter()
    with pytest.warns(NonOrthonormalBasisWarning):
        assert cli_main(argv) == 0
    assert calls["build_ci_matrix"] > 0 and calls["labelled_terms"] > 0


@pytest.mark.parametrize("out", ["/nonexistent/x.json", "."],
                         ids=["out-missing-directory", "out-directory"])
@pytest.mark.parametrize("argv", [
    ["coloring-check", "--norb", "6", "--eta", "3"],
    ["report", "--config", H2_PATH]], ids=["coloring-check", "report"])
def test_cli_checks_out_before_the_run(argv, out, capsys, monkeypatch):
    import cisim.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "coloring_census", no_run)
    monkeypatch.setattr(cli, "run_pipeline", no_run)
    assert cli_main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: OutputUnwritable: ")
    assert err.count("\n") == 1


def test_cli_out_is_untouched_when_the_run_fails(tmp_path):
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("before")
    for path in (kept, new):
        assert cli_main(["coloring-check", "--norb", "4", "--eta", "-1",
                         "--out", str(path)]) == 2
    assert kept.read_text() == "before" and not new.exists()


def test_cli_report_survives_a_subnormal_coefficient(tmp_path, capsys):
    # a subnormal entry once got a NaN phase, and the run ended in a
    # LinAlgError traceback
    config = json.loads(Path(H2_PATH).read_text())
    config["orbitals"][0]["primitives"] = [[0.1, 5e-324]]
    path = tmp_path / "h2.json"
    path.write_text(json.dumps(config))
    with pytest.warns(NonOrthonormalBasisWarning):
        rc = cli_main(["report", "--config", str(path),
                       "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err


def test_cli_report_fails_on_a_broken_coloring(tmp_path, monkeypatch,
                                              capsys):
    import cisim.coloring as coloring
    monkeypatch.setattr(coloring, "single_moves",
                        _kernel_redirect_one_left_move)
    path, out = tmp_path / "h3.json", tmp_path / "report.json"
    path.write_text(json.dumps(_h_chain(3, 3)))  # N = 6, eta = 3
    out.write_text("before")
    with pytest.warns(NonOrthonormalBasisWarning):
        rc = cli_main(["report", "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: PatternMismatch: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out.read_text() == "before"


def test_epsilon_below_the_evolve_floor_fails_before_any_integral(
        monkeypatch, capsys):
    import cisim.driver as driver

    def no_table(*args):
        raise AssertionError("integrals built for an epsilon evolve rejects")

    monkeypatch.setattr(driver, "IntegralTable", no_table)
    # the Taylor share epsilon/3 = 6.7e-11 is below evolve's 1e-10 floor
    rc = cli_main(["report", "--config", H2_PATH, "--epsilon", "2e-10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: BudgetInfeasible: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["build-hamiltonian"], ["quadrature", "--kind", "s0", "--orbitals", "1,3"],
    ["evolve"], ["report"]], ids=lambda argv: argv[0])
def test_cli_requires_config(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "required: --config" in capsys.readouterr().err


@pytest.mark.parametrize("orbitals", ["a,b", "1,", "1.5,2"])
def test_cli_quadrature_rejects_non_integer_orbitals(orbitals, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["quadrature", "--config", H2_PATH, "--kind", "s0",
                  "--orbitals", orbitals, "--grid-n", "4"])
    assert exc.value.code == 2
    assert "argument --orbitals: invalid" in capsys.readouterr().err


def _drop_eta(data):
    del data["eta"]


def _set(*keys, value):
    """Edit that puts value at data[k0][k1]...[kn]."""
    def edit(data):
        *path, last = keys
        for key in path:
            data = data[key]
        data[last] = value
    return edit


def _zero_coefficients(data):
    for orbital in data["orbitals"]:
        orbital["primitives"] = [[1.0, 0.0]]


def _overrides(**overrides):
    def edit(data):
        data["overrides"] = overrides
    return edit


# an unusable override is found by validate_config, not by a failed parse
NO_CAUSE = type(None)
DELTAS = {"s0": 0.1, "s1": 0.1, "s2": 0.1}


@pytest.mark.parametrize("text,edit,cause", [
    pytest.param(None, None, FileNotFoundError, id="missing"),
    pytest.param("{eta: 2", None, json.JSONDecodeError, id="not-json"),
    pytest.param(None, _drop_eta, KeyError, id="no-eta"),
    pytest.param(None, _set("orbitals", 0, "primitives", 0, 0, value=-1.0),
                 ValueError, id="negative-exponent"),
    pytest.param(None, _set("orbitals", 0, "primitives", 0, 0,
                            value=float("inf")),
                 ValueError, id="infinite-exponent"),
    pytest.param(None, _set("orbitals", 0, "primitives", 0, 1,
                            value=float("nan")),
                 ValueError, id="nan-coefficient"),
    pytest.param(None, _set("orbitals", 0, "center", value=[0.0, 0.0]),
                 ValueError, id="center-of-2"),
    pytest.param(None, _set("orbitals", 0, "center", 2, value=float("nan")),
                 ValueError, id="nan-center"),
    pytest.param(None, _set("orbitals", 0, "powers", value=[0, 0]),
                 ValueError, id="powers-of-2"),
    pytest.param(None, _set("orbitals", 0, "powers", value=[0, 0, 1.5]),
                 ValueError, id="fractional-power"),
    pytest.param(None, _set("nuclei", 0, "Z", value=float("nan")),
                 ValueError, id="nan-charge"),
    pytest.param(None, _set("nuclei", 0, "R", value=[0.0, 0.0]),
                 ValueError, id="position-of-2"),
    pytest.param(None, _set("eta", value=2.5), ValueError, id="eta-2.5"),
    pytest.param(None, _set("eta", value="2"), ValueError, id="eta-text"),
    pytest.param(None, _set("eta", value=True), ValueError, id="eta-bool"),
    pytest.param(None, _set("time", value=True), ValueError, id="time-bool"),
    pytest.param(None, _set("epsilon", value="0.02"), ValueError,
                 id="epsilon-text"),
    pytest.param(None, _zero_coefficients, ValueError,
                 id="all-zero-coefficients"),
    pytest.param(None, _set("nuclei", 0, "Z", value=True), ValueError,
                 id="charge-bool"),
    pytest.param(None, _set("nuclei", 0, "Z", value="1.0"), ValueError,
                 id="charge-text"),
    pytest.param(None, _set("orbitals", 0, "primitives", value=[["1.0", 0.7]]),
                 ValueError, id="exponent-text"),
    pytest.param(None, _set("orbitals", 0, "primitives", value=[[1.0, True]]),
                 ValueError, id="coefficient-bool"),
    pytest.param(None, _set("time", value=10**400), ValueError,
                 id="time-int-past-a-float"),
    pytest.param(None, _set("nuclei", 0, "Z", value=10**400), ValueError,
                 id="charge-int-past-a-float"),
    pytest.param(None, _overrides(zeta="abc"), NO_CAUSE, id="zeta-text"),
    pytest.param(None, _overrides(zeta=-1), NO_CAUSE, id="zeta-negative"),
    pytest.param(None, _overrides(zeta=float("nan")), NO_CAUSE,
                 id="zeta-nan"),
    pytest.param(None, _overrides(zeta=True), NO_CAUSE, id="zeta-bool"),
    pytest.param(None, _overrides(zetta=0.1), NO_CAUSE, id="misspelt-key"),
    pytest.param(None, _overrides(grid_cap=8), NO_CAUSE, id="grid-cap"),
    pytest.param(None, _overrides(alpha_decay=2.0), NO_CAUSE,
                 id="alpha-decay"),
    pytest.param(None, _overrides(delta=0), NO_CAUSE, id="delta-zero"),
    pytest.param(None, _overrides(delta=float("inf")), NO_CAUSE,
                 id="delta-inf"),
    pytest.param(None, _overrides(delta={"s0": 0.1, "s1": 0.1}), NO_CAUSE,
                 id="delta-missing-kind"),
    pytest.param(None, _overrides(delta={**DELTAS, "s3": 0.1}), NO_CAUSE,
                 id="delta-extra-kind"),
    pytest.param(None, _overrides(delta={**DELTAS, "s2": "x"}), NO_CAUSE,
                 id="delta-kind-text"),
])
def test_unusable_config_is_one_typed_error(text, edit, cause, tmp_path,
                                            capsys):
    if edit is not None:
        with open(H2_PATH) as fh:
            data = json.load(fh)
        edit(data)
        text = json.dumps(data)
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InvalidConfig) as exc:
        validate_config(load_config(str(path)))
    assert type(exc.value.__cause__) is cause
    assert cli_main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: InvalidConfig: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit,key", [
    pytest.param(_set("epsilom", value=0.5), "epsilom", id="top-level"),
    pytest.param(_set("orbitals", 0, "power", value=[1, 0, 0]), "power",
                 id="orbital"),
    pytest.param(_set("nuclei", 0, "charge", value=3), "charge", id="nucleus"),
])
def test_cli_rejects_a_misspelt_config_key(edit, key, tmp_path, capsys):
    # a misspelt key once ran on the defaults, as if it were not there
    with open(H2_PATH) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: InvalidConfig: ") and err.count("\n") == 1
    assert f"key {key!r}" in err


def test_config_takes_integer_numbers_as_floats():
    # an int is a finite number, unlike a bool or a string, and is stored
    # as the float of the same value
    with open(H2_PATH) as fh:
        data = json.load(fh)
    data["nuclei"][0]["Z"] = 1
    data["orbitals"][0]["primitives"] = [[1, 2]]
    cfg = config_from_dict(data)
    assert cfg.nuclei[0][0] == 1.0 and type(cfg.nuclei[0][0]) is float
    assert cfg.orbitals[0].primitives == ((1.0, 2.0),)
    assert all(type(x) is float for x in cfg.orbitals[0].primitives[0])


@pytest.mark.parametrize("edit,error", [
    pytest.param(_zero_coefficients, "InvalidConfig", id="zero-coefficients"),
    # each puts an integral, and the s0 scale quadrature plans with, past
    # a float
    pytest.param(_set("orbitals", 0, "primitives", value=[[1e-300, 0.7]]),
                 "NumericOverflow", id="exponent-1e-300"),
    pytest.param(_set("orbitals", 0, "primitives", value=[[1e300, 0.7]]),
                 "NumericOverflow", id="exponent-1e300"),
    pytest.param(_set("orbitals", 0, "primitives", value=[[1.0, 1e300]]),
                 "NumericOverflow", id="coefficient-1e300"),
])
@pytest.mark.parametrize("argv", [
    ["report"], ["report", "--mode", "riemann"],
    ["quadrature", "--kind", "s0", "--orbitals", "1,3", "--grid-n", "8"]],
    ids=["report-exact", "report-riemann", "quadrature"])
def test_cli_basis_past_a_float_is_one_typed_error(edit, error, argv,
                                                   tmp_path, capsys):
    with open(H2_PATH) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    # recorded, a warning cannot hide from the stderr check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cisim: {error}: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_cli_eri_prefactor_underflow_is_one_typed_error(tmp_path, capsys):
    # at exponent 1e-150 the ERI prefactor's p q sqrt(p + q) is 0.0
    with open(H2_PATH) as fh:
        data = json.load(fh)
    data["orbitals"][0]["primitives"] = [[1e-150, 0.7]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli_main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: NumericOverflow: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,flag,value", [
    ("evolve", "--output", "csv"),
    ("quadrature", "--output", "json"),
    ("quadrature", "--mode", "riemann"),
    ("quadrature", "--zeta", "0.1"),
    ("build-hamiltonian", "--time", "0.5"),
    ("build-hamiltonian", "--delta", "0.1"),
    ("build-hamiltonian", "--zeta", "0.1"),
    ("build-hamiltonian", "--mode", "riemann"),
    ("build-hamiltonian", "--epsilon", "0.03"),
])
def test_cli_rejects_a_flag_its_command_ignores(command, flag, value,
                                               capsys):
    argv = [command, "--config", H2_PATH, flag, value]
    if command == "quadrature":
        argv += ["--kind", "s0", "--orbitals", "1,3", "--grid-n", "4"]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _riemann_h2_config(tmp_path) -> str:
    """A copy of configs/h2.json small enough for riemann mode, with the
    per-kind delta mapping that the README documents (grids 4/4/3)."""
    with open(H2_PATH) as fh:
        data = json.load(fh)
    bounds = derive_bounds(load_config(H2_PATH).orbitals)
    grids = {"s0": 4, "s1": 4, "s2": 3}
    data.update(eta=1, epsilon=0.5, time=0.2, overrides={
        "zeta": 0.05,
        "delta": {k: delta_for_grid(k, n, bounds) for k, n in grids.items()}})
    path = tmp_path / "h2_riemann.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_riemann_run_takes_each_envelope_supremum_once(tmp_path, monkeypatch):
    # H2's orbitals share one shape: derive_bounds takes its 3 caps and
    # 3 decay checks, and does not recompute them to certify itself
    from cisim import orbitals
    cfg = load_config(_riemann_h2_config(tmp_path))
    envelope_sup, calls = orbitals.envelope_sup, []

    def counted(*args):
        calls.append(args[1])
        return envelope_sup(*args)

    monkeypatch.setattr(orbitals, "envelope_sup", counted)
    with pytest.warns(NonOrthonormalBasisWarning):
        run_pipeline(cfg, mode="riemann")
    assert Counter(calls) == {"phi_max": 4, "gamma1": 1, "gamma2": 1}


def test_riemann_eta_1_run_plans_no_s2_grid(tmp_path):
    # an eta = 1 family reads no g, so an s2 delta with no grid within the
    # cap leaves its run as it was; at eta = 2 the first g request refuses it
    path = _riemann_h2_config(tmp_path)
    with pytest.warns(NonOrthonormalBasisWarning):
        coarse = run_pipeline(load_config(path), mode="riemann").to_dict()
    cfg = load_config(path)
    cfg.overrides["delta"]["s2"] = cfg.overrides["delta"]["s0"]
    with pytest.warns(NonOrthonormalBasisWarning):
        fine = run_pipeline(cfg, mode="riemann").to_dict()
    for report in (coarse, fine):
        del report["timings"], report["dims"]["delta"]
    assert fine == coarse
    cfg.eta = 2
    with pytest.warns(NonOrthonormalBasisWarning), \
            pytest.raises(DeltaTooSmall, match="for s2"):
        run_pipeline(cfg, mode="riemann")


@pytest.mark.parametrize("argv", [
    ["quadrature", "--kind", "s1", "--orbitals", "1,1", "--q", "0",
     "--grid-n", "4"],
    ["report"]], ids=["quadrature", "report"])
def test_cli_rejects_a_negative_nuclear_charge(argv, tmp_path, capsys):
    # a negative Z made a negative s1 delta and term bound; Z = 0 is valid
    with open(H2_PATH) as fh:
        data = json.load(fh)
    data["nuclei"][0]["Z"] = 0.0
    assert config_from_dict(data).nuclei[0][0] == 0.0
    data["nuclei"][0]["Z"] = -1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli_main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cisim: InvalidConfig: ") and err.count("\n") == 1
    assert "Z >= 0" in err


def test_cli_evolve_riemann_per_kind_delta(tmp_path, capsys):
    path = _riemann_h2_config(tmp_path)
    rc = cli_main(["evolve", "--config", path, "--mode", "riemann"])
    assert rc == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "r", "K", "lambda", "max_segment_deviation", "final_error_vs_exact"}


def test_pipeline_rejects_oversized_basis_before_ingest(monkeypatch):
    import cisim.driver as driver

    def no_ingest(config):
        raise AssertionError("ingest ran for a basis past the dense cap")

    monkeypatch.setattr(driver, "ingest", no_ingest)
    # (N, eta) = (14, 7): xi = 3432 > 2048; (13, 5): xi = 1287, but
    # evolve's eigh runs on the double cover, 2 xi = 2574 > 2048
    for norb, eta in [(14, 7), (13, 5)]:
        orbitals = [so((0, 0, 0.5 * k), 1.0) for k in range(norb)]
        cfg = ProblemConfig(nuclei=[(1.0, (0, 0, 0))], orbitals=orbitals,
                            eta=eta)
        with pytest.raises(DimensionTooLarge):
            run_pipeline(cfg)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cisim.cli", "coloring-check",
         "--norb", "4", "--eta", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.parametrize("argv", [
    pytest.param(["coloring-check", "--norb", "1000", "--eta", "999"],
                 id="coloring-check"),  # 1.86 GiB of moved rows
    pytest.param(["quadrature", "--config", H2_PATH, "--kind", "s2",
                  "--orbitals", "1,1,1,1", "--grid-n", "24"],
                 id="quadrature"),  # 4.27 GiB of s2 grid points at once
])
def test_cli_reports_a_refused_allocation_in_one_line(argv, tmp_path):
    # inputs the CLI accepts, under a 1.5 GB address-space limit: the
    # allocation that fails is a one-line diagnosis with exit 2, and --out
    # keeps what it held
    limit = 1536 * 2**20
    out = tmp_path / "out.txt"
    out.write_text("before")
    proc = subprocess.run(
        [sys.executable, "-m", "cisim.cli", *argv, "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("cisim: MemoryError: Unable to allocate ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert out.read_text() == "before"


def test_pipeline_segment_deviation_small(h2_report):
    # renormalization removes only a tiny per-segment defect at desk scale
    assert h2_report.max_segment_deviation < 1e-6
