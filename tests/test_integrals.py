import itertools
import warnings
from dataclasses import replace
from math import gamma as gamma_fn
from math import pi, sqrt

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from cisim import integrals
from cisim.errors import NumericOverflow, UnsupportedAngularMomentum
from cisim.integrals import (BOYS_SWITCH, IntegralTable, boys, boys_array,
                             eri_chemist, kinetic, kinetic_gradient_form,
                             nuclear_attraction, overlap)
from cisim.orbitals import SpinOrbital, eval_gradient, eval_value

from conftest import so
from oracles import eval_laplacian, spin_orbital_tables


def _boys_oracle(m, T):
    """Regularized incomplete gamma form of the Boys function."""
    if T == 0.0:
        return 1.0 / (2 * m + 1)
    return gammainc(m + 0.5, T) * gamma_fn(m + 0.5) / (2.0 * T ** (m + 0.5))


def test_boys_against_gamma_oracle():
    for T in [0.0, 1e-8, 0.1, 1.0, 5.0, 24.9, 25.0, 25.1, 40.0, 200.0]:
        vals = boys(12, T)
        for m in range(13):
            assert abs(vals[m] - _boys_oracle(m, T)) < 1e-13


@pytest.mark.parametrize("T", [
    np.array([0.0]),
    np.logspace(-12, 3, 400),
    np.array([BOYS_SWITCH, np.nextafter(BOYS_SWITCH, np.inf)]),
    # both branches in one array, with a leading shape
    np.array([[30.0, 0.5, BOYS_SWITCH], [1e3, 0.0, 24.99]])],
    ids=["zero", "log-grid", "switch", "mixed"])
def test_boys_array_matches_scalar(T):
    for mmax in range(9):
        got = boys_array(mmax, T)
        assert got.shape == T.shape + (mmax + 1,)
        for x, row in zip(T.ravel(), got.reshape(-1, mmax + 1)):
            want = boys(mmax, float(x))
            assert np.all(np.abs(row - want) <= 1e-14 * np.abs(want))


def test_kinetic_s_gaussian_with_quadrature_cross_check():
    g = so((0.0, 0.0, 0.0), 1.0)
    assert kinetic(g, g) == pytest.approx(1.5, abs=1e-12)
    # radial quadrature of -1/2 phi lap(phi), independent route
    val = quad(lambda r: -0.5 * 4 * pi * r * r
               * eval_value(g, (r, 0.0, 0.0))
               * eval_laplacian(g, (r, 0.0, 0.0)), 0, 12,
               limit=200)[0]
    assert val == pytest.approx(1.5, abs=1e-9)


def test_nuclear_zero_charge():
    g = so((0.0, 0.0, 0.0), 1.0)
    assert nuclear_attraction(g, g, 0.0, (0.3, 0.0, 0.0)) == 0.0


def test_nuclear_on_center_analytic():
    g = so((0.0, 0.0, 0.0), 1.0)
    assert nuclear_attraction(g, g, 1.0, (0.0, 0.0, 0.0)) \
        == pytest.approx(-2.0 * sqrt(2.0 / pi), abs=1e-12)


def test_eri_same_center_quadrature_oracle():
    # Coulomb self-energy of the normalized gaussian density, as a 1d
    # radial integral over the erf potential
    g = so((0.0, 0.0, 0.0), 1.0)
    from scipy.special import erf
    a2 = 2.0
    oracle = quad(lambda r: 4 * pi * r * (a2 / pi) ** 1.5
                  * np.exp(-a2 * r * r) * erf(sqrt(a2) * r), 0, 14,
                  limit=200)[0]
    assert eri_chemist(g, g, g, g) == pytest.approx(oracle, abs=1e-10)


def test_eri_p_function_monte_carlo_oracle():
    """<pp|ss> checked against importance-sampled Monte Carlo."""
    p = so((0.0, 0.0, 0.0), 1.1, powers=(1, 0, 0), normalized=False)
    s = so((0.4, 0.0, 0.0), 0.9, normalized=False)
    exact = eri_chemist(p, p, s, s)
    rng = np.random.default_rng(21)
    n = 400_000
    # electron 1 ~ product gaussian of the two p factors, electron 2 of the s's
    a1, c1 = 2.2, np.zeros(3)
    a2, c2 = 1.8, np.array([0.4, 0.0, 0.0])
    r1 = rng.normal(size=(n, 3)) / sqrt(2 * a1) + c1
    r2 = rng.normal(size=(n, 3)) / sqrt(2 * a2) + c2
    z1 = (pi / a1) ** 1.5
    z2 = (pi / a2) ** 1.5
    w = r1[:, 0] ** 2 * z1 * z2 / np.linalg.norm(r1 - r2, axis=1)
    est, err = w.mean(), w.std(ddof=1) / sqrt(n)
    assert abs(est - exact) < 4.0 * err


def test_eri_electron_relabel_symmetry(mixed_table):
    n = mixed_table.n
    rng = np.random.default_rng(2)
    for _ in range(60):
        i, j, k, l = rng.integers(1, n + 1, size=4)
        assert abs(mixed_table.g(i, j, k, l)
                   - mixed_table.g(j, i, l, k)) < 1e-12


def test_h1_hermitian(mixed_table):
    h = mixed_table.h1_mat
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_green_identity_all_pairs(mixed_table):
    basis = mixed_table.basis
    for bi, bj in itertools.product(basis, repeat=2):
        assert abs(kinetic(bi, bj) - kinetic_gradient_form(bi, bj)) < 1e-9


def test_orthogonal_p_pair():
    px = so((0.0, 0.0, 0.0), 1.0, powers=(1, 0, 0), normalized=False)
    py = so((0.0, 0.0, 0.0), 1.0, powers=(0, 1, 0), normalized=False)
    assert abs(kinetic_gradient_form(px, py)) < 1e-15


def test_separated_gaussians_negligible():
    a = so((0.0, 0.0, 0.0), 1.0)
    b = so((20.0, 0.0, 0.0), 1.0)
    assert abs(kinetic_gradient_form(a, b)) < 1e-20


def test_spin_orthogonality():
    up = so((0.0, 0.0, 0.0), 1.0, spin="up")
    dn = so((0.0, 0.0, 0.0), 1.0, spin="down")
    table = IntegralTable([up, dn], [(1.0, (0, 0, 0))])
    assert table.h1(1, 2) == 0
    assert table.g(1, 1, 2, 1) == 0      # bra/ket spin flip on electron 1
    assert table.g(1, 2, 1, 2) != 0      # spins conserved per electron


def test_angular_momentum_rejected_at_construction():
    with pytest.raises(UnsupportedAngularMomentum):
        SpinOrbital((0, 0, 0), ((1.0, 1.0),), (3, 0, 0), "up")


def test_overlap_normalization(mixed_table):
    for i, phi in enumerate(mixed_table.basis):
        # random contracted coefficients are not normalized; just check
        # the diagonal is positive and matches the direct routine
        assert mixed_table.overlap_mat[i, i] == pytest.approx(
            overlap(phi, phi), rel=1e-12)


def test_eri_d_function_monte_carlo_oracle():
    """<dd|ss> with a z^2 bra pair, against importance-sampled MC."""
    d = so((0.0, 0.0, 0.0), 1.0, powers=(0, 0, 2), normalized=False)
    s = so((0.0, 0.3, 0.2), 1.2, normalized=False)
    exact = eri_chemist(d, d, s, s)
    rng = np.random.default_rng(27)
    n = 400_000
    a1, c1 = 2.0, np.zeros(3)
    a2, c2 = 2.4, np.array([0.0, 0.3, 0.2])
    r1 = rng.normal(size=(n, 3)) / sqrt(2 * a1) + c1
    r2 = rng.normal(size=(n, 3)) / sqrt(2 * a2) + c2
    z1 = (pi / a1) ** 1.5
    z2 = (pi / a2) ** 1.5
    w = r1[:, 2] ** 4 * z1 * z2 / np.linalg.norm(r1 - r2, axis=1)
    est, err = w.mean(), w.std(ddof=1) / sqrt(n)
    assert abs(est - exact) < 4.0 * err


def test_kinetic_numeric_grid_cross_check():
    """p-d kinetic element against a dense midpoint grid of the
    gradient-product integrand (independent of the Hermite expansion)."""
    p = so((0.1, 0.0, 0.0), 0.9, powers=(1, 0, 0), normalized=False)
    d = so((0.0, 0.2, 0.0), 1.1, powers=(0, 1, 1), normalized=False)
    exact = kinetic_gradient_form(p, d)
    n, half = 160, 6.0
    axis = (np.arange(n) + 0.5) * (2 * half / n) - half
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    gp = eval_gradient(p, pts)
    gd = eval_gradient(d, pts)
    numeric = 0.5 * np.sum(gp * gd) * (2 * half / n) ** 3
    assert abs(numeric - exact) < 1e-5


A, B, C = (0.0, 0.0, -0.7), (0.0, 0.0, 0.7), (0.5, -0.3, 0.2)
TWO_PROTONS = [(1.0, A), (1.0, B)]


def _both_spins(functions):
    return [replace(f, spin=spin) for f in functions for spin in ("up", "down")]


SPIN_BASES = {
    "interleaved": (_both_spins([so(A, 1.0), so(B, 1.0)]), TWO_PROTONS),
    "up-then-down": ([so(c, e, spin) for spin in ("up", "down")
                      for c, e in ((A, 1.0), (B, 1.2), (C, 0.8))],
                     TWO_PROTONS),
    "spin-dependent": ([so(A, 1.0, "up"), so(A, 1.3, "down"),
                        so(B, 0.9, "up"), so(C, 1.1, "down")], TWO_PROTONS),
    # a p and a d_xy contraction whose coefficients differ in sign
    "p-d-mixed-sign": (
        [SpinOrbital(A, ((1.3, 0.8), (0.35, -0.45)), (1, 0, 0), "up"),
         SpinOrbital(B, ((0.9, 0.6), (2.1, -0.25)), (1, 1, 0), "down"),
         SpinOrbital(A, ((1.3, 0.8), (0.35, -0.45)), (1, 0, 0), "down"),
         so(C, 1.1, "up")], TWO_PROTONS),
    "zero-charge": (_both_spins([so(A, 1.0), so(C, 0.7)]),
                    TWO_PROTONS + [(0.0, C)]),
}


@pytest.mark.parametrize("name", sorted(SPIN_BASES))
def test_table_matches_spin_orbital_build(name):
    # one integral per spatial function, spread by spin deltas, against the
    # build that computes and spin-checks every spin-orbital entry itself
    basis, nuclei = SPIN_BASES[name]
    table = IntegralTable(basis, nuclei)
    S, h1, h2 = spin_orbital_tables(basis, nuclei)
    assert np.max(np.abs(table.overlap_mat - S)) <= 1e-14
    assert np.max(np.abs(table.h1_mat - h1)) <= 1e-14
    assert np.max(np.abs(table.h2_mat - h2)) <= 1e-14
    assert np.count_nonzero(table.h2_mat) == np.count_nonzero(h2)


def test_table_accepts_array_centers():
    # the spatial functions are told apart by value, whatever the sequence
    # type of a center
    basis, nuclei = SPIN_BASES["interleaved"]
    arrays = [replace(phi, center=np.array(phi.center)) for phi in basis]
    table = IntegralTable(arrays, nuclei)
    assert np.array_equal(table.h2_mat, IntegralTable(basis, nuclei).h2_mat)


def test_each_eri_once_per_spatial_quartet(monkeypatch):
    # four spatial s functions, both spins: 10 pairs give 55 quartets
    # (ab|cd) up to the 8-fold symmetry, where spin orbitals give 210.  The
    # array kernel takes its quartets as rows of two pair groups; each row
    # names four spatial functions by position
    quartets = []
    kernel = integrals._eri

    def counted(bra, ket, r1, r2):
        quartets.extend(zip(bra.a[r1].tolist(), bra.b[r1].tolist(),
                            ket.a[r2].tolist(), ket.b[r2].tolist()))
        return kernel(bra, ket, r1, r2)

    monkeypatch.setattr(integrals, "_eri", counted)
    functions = [so(c, 1.0) for c in (A, B, C, (0.4, 0.4, 0.0))]
    IntegralTable(_both_spins(functions), TWO_PROTONS)

    def canonical(q):
        a, b, c, d = q
        ab, cd = tuple(sorted((a, b))), tuple(sorted((c, d)))
        return min(ab + cd, cd + ab)

    assert len(quartets) == 55
    assert len({canonical(q) for q in quartets}) == 55


# s, p, d and d_xy powers for the fuzz of random bases
FUZZ_POWERS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0), (0, 1, 1),
               (1, 1, 0))


def _random_basis(rng):
    """2 or 3 spatial functions on 2 or 3 centers, each of 1 to 3
    primitives with alternating-sign coefficients and taken with one spin
    or both, both spins in the basis; 1 to 3 nuclei, the first at Z = 0."""
    centers = [tuple(rng.normal(scale=0.8, size=3).tolist())
               for _ in range(rng.integers(2, 4))]
    basis = []
    for k in range(rng.integers(2, 4)):
        primitives = tuple(
            (float(rng.uniform(0.4, 2.5)),
             float((-1) ** n * rng.uniform(0.2, 1.0)))
            for n in range(rng.integers(1, 4)))
        powers = FUZZ_POWERS[rng.integers(len(FUZZ_POWERS))]
        spins = (("up",), ("down",), ("up", "down"))[rng.integers(3)]
        basis += [SpinOrbital(centers[k % len(centers)], primitives, powers,
                              spin) for spin in spins]
    if len({phi.spin for phi in basis}) == 1:
        basis.append(replace(basis[0], spin="down"
                             if basis[0].spin == "up" else "up"))
    nuclei = [(0.0, centers[0])] + [
        (float(rng.uniform(0.5, 3.0)), tuple(rng.normal(size=3).tolist()))
        for _ in range(rng.integers(0, 3))]
    return basis, nuclei


def test_table_matches_spin_orbital_build_on_random_bases():
    rng = np.random.default_rng(20261020)
    seen, sizes = set(), set()
    for _ in range(12):
        basis, nuclei = _random_basis(rng)
        seen |= {phi.powers for phi in basis}
        sizes |= {len(phi.primitives) for phi in basis}
        table = IntegralTable(basis, nuclei)
        S, h1, h2 = spin_orbital_tables(basis, nuclei)
        assert np.max(np.abs(table.overlap_mat - S)) <= 1e-14
        assert np.max(np.abs(table.h1_mat - h1)) <= 1e-14
        assert np.max(np.abs(table.h2_mat - h2)) <= 1e-14
    # the draw reached s, p, d and d_xy functions of 1 to 3 primitives
    assert {(0, 0, 0), (1, 1, 0)} <= seen and sizes == {1, 2, 3}
    assert {(1, 0, 0), (0, 0, 1)} & seen and {(2, 0, 0), (0, 1, 1)} & seen


@pytest.mark.parametrize("primitive", [(1e300, 0.7), (1e-150, 0.7),
                                       (1.0, 1e300)],
                         ids=["exponent-1e300", "exponent-1e-150",
                              "coefficient-1e300"])
def test_p_and_d_basis_past_a_float_is_numeric_overflow(primitive):
    basis = [SpinOrbital(A, (primitive,), (1, 0, 0), "up"),
             SpinOrbital(B, (primitive,), (1, 1, 0), "down")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericOverflow, match="past a float"):
            IntegralTable(basis, TWO_PROTONS)
    assert caught == []
