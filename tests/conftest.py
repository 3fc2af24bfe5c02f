"""Shared fixtures and independent oracles used across the suite."""

import itertools
from math import factorial, pi, sqrt

import numpy as np
import pytest
from hypothesis import settings

from cisim.cimatrix import labelled_terms
from cisim.determinants import excitations
from cisim.integrals import IntegralTable
from cisim.orbitals import SpinOrbital

# property tests draw the same examples on every run, with no time limit
settings.register_profile("cisim", derandomize=True, deadline=None)
settings.load_profile("cisim")


@pytest.fixture(autouse=True)
def fresh_topology():
    """Each test builds its own (N, eta) topology: one an earlier test
    cached would hide a fault that this test patches into the build."""
    labelled_terms.cache_clear()
    excitations.cache_clear()


def primitive_norm(exponent: float, powers=(0, 0, 0)) -> float:
    """L2 normalization constant of a single Cartesian primitive."""
    def fac2(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    nx, ny, nz = powers
    l = nx + ny + nz
    return (
        (2 * exponent / pi) ** 0.75
        * (4 * exponent) ** (l / 2)
        / sqrt(fac2(2 * nx - 1) * fac2(2 * ny - 1) * fac2(2 * nz - 1))
    )


def so(center, exponent, spin="up", powers=(0, 0, 0), normalized=True):
    coef = primitive_norm(exponent, powers) if normalized else 1.0
    return SpinOrbital(tuple(center), ((exponent, coef),), tuple(powers), spin)


def random_spinless_basis(rng, n, spread=0.8, powers_pool=((0, 0, 0),)):
    """n same-spin Gaussians with random centers and exponents."""
    out = []
    for _ in range(n):
        powers = powers_pool[rng.integers(len(powers_pool))]
        out.append(so(rng.normal(scale=spread, size=3),
                      float(rng.uniform(0.5, 2.0)), "up", powers))
    return out


def inversion_parity(seq):
    """Brute-force permutation parity by counting inversions."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def brute_ci_entry(alpha, beta, table):
    """First-quantized matrix element by full permutation expansion.

    Expands both antisymmetrized wavefunctions into their eta! product
    terms and integrates term by term assuming orthonormal orbitals;
    independent of the Slater-Condon shortcut.
    """
    eta = alpha.eta
    total = 0.0 + 0.0j
    for sig in itertools.permutations(range(eta)):
        ps = inversion_parity(sig)
        A = [alpha.occ[sig[m]] for m in range(eta)]
        for tau in itertools.permutations(range(eta)):
            sgn = ps * inversion_parity(tau)
            B = [beta.occ[tau[m]] for m in range(eta)]
            for m in range(eta):
                if all(A[k] == B[k] for k in range(eta) if k != m):
                    total += sgn * table.h1(A[m], B[m])
            for m in range(eta):
                for mp in range(m + 1, eta):
                    if all(A[k] == B[k] for k in range(eta)
                           if k not in (m, mp)):
                        total += sgn * table.g(A[m], A[mp], B[m], B[mp])
    return total / factorial(eta)


@pytest.fixture(scope="session")
def h2_basis():
    """Two s-Gaussians on two protons, both spins: N = 4 spin-orbitals."""
    centers = [(0.0, 0.0, -0.7), (0.0, 0.0, 0.7)]
    expos = [1.0, 1.0]
    basis = []
    for c, e in zip(centers, expos):
        for spin in ("up", "down"):
            basis.append(so(c, e, spin))
    nuclei = [(1.0, centers[0]), (1.0, centers[1])]
    return basis, nuclei


@pytest.fixture(scope="session")
def h2_table(h2_basis):
    basis, nuclei = h2_basis
    return IntegralTable(basis, nuclei)


@pytest.fixture(scope="session")
def mixed_table():
    """Six same-spin orbitals mixing s, p and d shapes, two nuclei."""
    rng = np.random.default_rng(11)
    pool = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2))
    basis = random_spinless_basis(rng, 6, powers_pool=pool)
    nuclei = [(1.0, (0.0, 0.0, 0.0)), (2.0, (0.9, 0.0, 0.2))]
    return IntegralTable(basis, nuclei)
