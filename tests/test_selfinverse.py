import warnings

import numpy as np
import pytest

from cisim.errors import BudgetInfeasible
from cisim.lcu import TermFamily
from cisim.selfinverse import slice_values, split_arrays


def _rounded(values, zeta):
    """zeta C phase: the value the split must reproduce."""
    C, phase = split_arrays(np.asarray(values, dtype=complex), zeta)
    return zeta * C * phase


def _one_label(perm, vals, zeta):
    """A family holding one label at one grid point."""
    return TermFamily([perm], [np.asarray(vals, dtype=complex)[:, None]], zeta)


def _term_sum(fam):
    """zeta-weighted dense sum of every emitted term of a one-point family."""
    rows = np.arange(fam.dim)
    H = np.zeros((fam.dim, fam.dim), dtype=complex)
    for ell in range(fam.L):
        term = fam.term(ell, 0)
        H[rows, term.perm] += fam.zeta * term.vals
    return H


def test_round_examples():
    def r(value, zeta):
        return _rounded([value], zeta)[0]

    assert r(1.3, 0.5) == 1.0
    assert r(0.0, 0.3) == 0.0
    # value exactly zeta: 0.5 steps from zero, ties go to the even multiple
    assert r(0.5, 0.5) == 0.0
    assert r(1.5, 0.5) == 2.0  # 1.5 steps -> even multiple 2
    # a complex entry keeps its phase and rounds its modulus (1.48 -> 1)
    z = 1.3 + 0.7j
    assert abs(r(z, 0.5) - z / abs(z)) < 1e-15
    C, _ = split_arrays(np.array([1.3, 0.0, 0.5, 1.5, z]), 0.5)
    assert C.dtype == np.int64 and list(C) == [2, 0, 0, 4, 2]


def test_round_error_within_zeta():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.normal(), rng.normal())
        zeta = float(rng.uniform(0.01, 0.5))
        rm = _rounded([z], zeta)[0]
        assert abs(rm.real - z.real) <= zeta + 1e-12
        assert abs(rm.imag - z.imag) <= zeta + 1e-12
        assert abs(abs(rm) - abs(z)) <= zeta + 1e-12
        assert abs(rm - z) <= zeta + 1e-12


def _slice_pair_sum(C, phase, m):
    return slice_values(C, phase, m, 1) + slice_values(C, phase, m, 2)


def test_split_two_sided_rule():
    # C = 4 contributes +2 at the first two thresholds and nothing after;
    # a negative entry carries its sign in the phase
    zeta = 0.25
    C, phase = split_arrays(np.array([4, -4, 0], dtype=complex) * zeta, zeta)
    assert [list(_slice_pair_sum(C, phase, m)) for m in (1, 2, 3)] \
        == [[2, -2, 0], [2, -2, 0], [0, 0, 0]]


def test_split_reconstructs_even_integers():
    # the scaled entries are always even after rounding; the threshold
    # slices sum back exactly
    M, zeta = 5, 0.25
    for c in range(-10, 11, 2):
        C, phase = split_arrays(np.array([c * zeta], dtype=complex), zeta)
        assert sum(_slice_pair_sum(C, phase, m)[0]
                   for m in range(1, M + 1)) == c


def test_split_rejects_counts_past_int64():
    # C = 2 round(v / (2 zeta)) fits up to 2^63 - 1024, the largest float
    # below 2^63; from 2^63 on the cast to int64 would wrap
    C, _ = split_arrays(np.array([2.0**62 - 512]), 0.5)
    assert C[0] == 2**63 - 1024
    with pytest.raises(BudgetInfeasible):
        split_arrays(np.array([2.0**62]), 0.5)


def test_split_rounds_a_subnormal_entry_to_zero():
    # dividing by a subnormal modulus overflows to a NaN phase
    values = np.array([5e-324, -5e-324j, 1e-310 + 2e-310j, -0.5])
    with np.errstate(all="raise"):
        C, phase = split_arrays(values, 0.25)
    assert C.tolist() == [0, 0, 0, 2]
    assert phase.tolist() == [1, 1, 1, -1]


def test_split_casts_no_complex_value_to_real():
    # a real input once went through a complex-to-real cast, which numpy
    # warns about and an error filter turns into a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C, phase = split_arrays(np.array([0.5, -0.3, 0.0]), 0.1)
    assert C.tolist() == [4, 2, 0]
    assert phase.tolist() == [1, -1, 1]


def _random_involution_matrix(rng, dim):
    idx = list(range(dim))
    rng.shuffle(idx)
    perm = np.arange(dim)
    for a, b in zip(idx[0::2], idx[1::2]):
        perm[a], perm[b] = b, a
    vals = np.zeros(dim, dtype=complex)
    for x in range(dim):
        y = perm[x]
        if y > x:
            v = rng.normal()
            vals[x] = vals[y] = v
        elif y == x:
            vals[x] = rng.normal()
    return perm, vals


def test_remove_zeros_placement():
    # C = 2 on the pair (0, 1), C = 0 on the pair (2, 3)
    perm = np.array([1, 0, 3, 2])
    fam = _one_label(perm, [0.5, 0.5, 0.0, 0.0], zeta=0.25)
    t1, t2 = fam.term(0, 0), fam.term(1, 0)   # m = 1, s = 1 and s = 2
    assert (t1.m, t1.s, t2.m, t2.s) == (1, 1, 1, 2)
    assert np.array_equal(t1.perm, perm) and np.array_equal(t2.perm, perm)
    # nonzero entries split equally; zero columns get +1 / -1 fixups
    assert list(t1.vals) == [1, 1, 1, 1]
    assert list(t2.vals) == [1, 1, -1, -1]
    for d in (t1.as_dense(), t2.as_dense()):
        assert np.allclose(d @ d, np.eye(4))
        assert np.allclose(d, d.conj().T)


def test_terms_are_hermitian_involutions():
    rng = np.random.default_rng(11)
    for trial in range(20):
        dim = int(rng.integers(4, 64))
        perm, vals = _random_involution_matrix(rng, dim)
        fam = _one_label(perm, vals, zeta=0.1)
        terms = [fam.term(ell, 0) for ell in range(fam.L)]
        assert len(terms) == 2 * fam.M
        for t in terms:
            D = t.as_dense()
            assert np.allclose(D, D.conj().T)
            assert np.allclose(D @ D, np.eye(dim), atol=1e-12)
            mags = np.abs(D)
            assert np.all((mags < 1e-12) | (np.abs(mags - 1.0) < 1e-12))
            assert np.max(np.sum(mags > 0, axis=1)) == 1


def test_decompose_exact_multiples_reconstruct_exactly():
    perm = np.array([1, 0, 2, 4, 3])
    zeta = 0.05
    vals = np.array([4, 4, -2, 6, 6], dtype=complex) * 2 * zeta
    fam = _one_label(perm, vals, zeta)
    H = _term_sum(fam)
    dense = np.zeros((5, 5), complex)
    dense[np.arange(5), perm] = vals
    assert np.max(np.abs(H - dense)) < 1e-14
    assert np.max(np.abs(fam.rounded_dense() - dense)) < 1e-14


def test_decompose_random_within_zeta():
    rng = np.random.default_rng(23)
    dim, zeta = 32, 1e-3
    perm, vals = _random_involution_matrix(rng, dim)
    fam = _one_label(perm, vals, zeta)
    H = _term_sum(fam)
    dense = np.zeros((dim, dim), complex)
    dense[np.arange(dim), perm] = vals
    assert np.max(np.abs(H - dense)) <= zeta + 1e-12
    # and the reconstruction equals the modulus-rounded values exactly
    rounded = np.zeros_like(dense)
    for x in range(dim):
        v = vals[x]
        step = 2.0 * zeta * np.round(abs(v) / (2.0 * zeta))
        rounded[x, perm[x]] = v / abs(v) * step if v != 0 else 0.0
    assert np.max(np.abs(H - rounded)) < 1e-12
    assert np.max(np.abs(fam.rounded_dense() - rounded)) < 1e-12


def test_decompose_diagonal_entries():
    # self-paired rows (alpha = beta) go through the same construction
    fam = _one_label(np.arange(4), [0.2, -0.4, 0.0, 0.6], zeta=0.1)
    H = _term_sum(fam)
    assert np.allclose(np.diag(H), [0.2, -0.4, 0.0, 0.6])
    for ell in range(fam.L):
        D = fam.term(ell, 0).as_dense()
        assert np.allclose(D @ D, np.eye(4))


def test_decompose_dense_roundtrip():
    A = np.zeros((4, 4), complex)
    A[0, 1] = A[1, 0] = 0.35
    A[2, 2] = -0.15
    fam = _one_label(np.array([1, 0, 2, 3]), [0.35, 0.35, -0.15, 0.0],
                     zeta=0.05)
    assert np.max(np.abs(fam.rounded_dense() - A)) <= 0.05 + 1e-12
    assert np.max(np.abs(_term_sum(fam) - A)) <= 0.05 + 1e-12
