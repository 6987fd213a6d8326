from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksep.linalg
from ksep import check_density, kron_all
from ksep.linalg import _dominance_accepts


def _rand_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def test_kron_basis_vectors():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    out = kron_all((e0, e1))
    assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))


def test_kron_scalar_identity():
    v = np.array([0.3 + 0.1j, -0.2j, 0.5], dtype=complex)
    assert np.array_equal(kron_all((np.array([1.0 + 0j]), v)), v)


def test_kron_index_convention():
    # result[i * dim(b) + j] = a[i] * b[j]; integer-valued entries so the
    # products are exact whatever multiply path numpy picks
    rng = np.random.default_rng(3)
    a = (rng.integers(-4, 5, size=3) + 1j * rng.integers(-4, 5, size=3)).astype(complex)
    b = (rng.integers(-4, 5, size=4) + 1j * rng.integers(-4, 5, size=4)).astype(complex)
    out = kron_all((a, b))
    for i in range(3):
        for j in range(4):
            assert out[i * 4 + j] == a[i] * b[j]


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_kron_associative(seed, da, db, dc):
    rng = np.random.default_rng(seed)
    a, b, c = _rand_vec(rng, da), _rand_vec(rng, db), _rand_vec(rng, dc)
    left = kron_all((kron_all((a, b)), c))
    right = kron_all((a, kron_all((b, c))))
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kron_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = _rand_vec(rng, 3), _rand_vec(rng, 5)
    assert np.linalg.norm(kron_all((a, b))) == pytest.approx(
        np.linalg.norm(a) * np.linalg.norm(b), rel=1e-13
    )


def test_kron_all_chain():
    rng = np.random.default_rng(5)
    factors = [_rand_vec(rng, d) for d in (2, 3, 2)]
    expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.array_equal(kron_all(factors), expected)


def test_check_density_accepts_maximally_mixed():
    diag = check_density(np.eye(4, dtype=complex) / 4)
    assert diag.accepted
    assert diag.hermiticity_defect == 0.0
    assert diag.trace_defect == pytest.approx(0.0, abs=1e-15)
    assert diag.min_eigenvalue == pytest.approx(0.25, abs=1e-12)


def test_check_density_trace_defect():
    diag = check_density(np.eye(2, dtype=complex))  # trace 2
    assert not diag.accepted
    assert diag.trace_defect == pytest.approx(1.0, abs=1e-12)
    assert diag.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_check_density_hermiticity_defect():
    mat = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    diag = check_density(mat)
    assert not diag.accepted
    assert diag.hermiticity_defect == pytest.approx(1.0, abs=1e-12)


def test_check_density_negative_eigenvalue():
    mat = np.diag([1.2, -0.2]).astype(complex)
    diag = check_density(mat)
    assert not diag.accepted
    assert diag.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)
    # a generous tolerance accepts the same matrix
    assert check_density(mat, tol=0.5).accepted


def test_check_density_respects_tolerance_on_near_misses():
    mat = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
    assert check_density(mat, tol=1e-9).accepted
    assert not check_density(mat, tol=1e-12).accepted


# --- the eigensolve-free acceptance of diagonally dominant matrices ----------

# tolerances from the default down to 0, where rounding alone decides
REFEREE_TOLS = (1e-9, 1e-12, 1e-15, 0.0)


def _tight_hermitian(rng, d, lowest):
    """A hermitian unit-trace d x d matrix whose Gershgorin bound equals its
    smallest eigenvalue ``lowest``, for d a power of two (so the trace is 1
    exactly).

    H = I/d - U C U^dagger with U a random diagonal phase and C a symmetric
    nonnegative circulant with zero diagonal whose rows sum to r = 1/d - lowest;
    the phased all-ones vector is an eigenvector of C's largest eigenvalue r.
    """
    c = rng.random(d)
    c[0] = 0.0
    c = c + c[-np.arange(d) % d]  # c[j] = c[d - j]: C is symmetric
    c *= (1.0 / d - lowest) / c.sum()
    circulant = c[(np.arange(d)[None, :] - np.arange(d)[:, None]) % d]
    phase = np.exp(2j * np.pi * rng.random(d))
    h = np.eye(d) / d - phase[:, None] * circulant * phase.conj()[None, :]
    return 0.5 * (h + h.conj().T)


def _referee_case(seed, d, tol, kind):
    """One matrix for the referee: ``kind`` 0 is diagonally dominant, 1 and 2
    put the smallest eigenvalue at -tol * (1 - 1e-3) and -tol * (1 + 1e-3)."""
    rng = np.random.default_rng(seed)
    lowest = (rng.random() / d, -tol * (1 - 1e-3), -tol * (1 + 1e-3))[kind]
    return _tight_hermitian(rng, d, lowest)


def _referee_holds(mat, tol) -> bool:
    accepted = _dominance_accepts(mat, tol)
    assert not accepted or check_density(mat, tol).accepted, (mat, tol)
    return accepted


# the default block of rows, and blocks of 1 to 12 rows with a ragged last one
@pytest.mark.parametrize("block_entries", [ksep.linalg._BLOCK_ENTRIES, 24])
def test_dominance_check_never_accepts_what_the_eigensolve_rejects(monkeypatch, block_entries):
    monkeypatch.setattr(ksep.linalg, "_BLOCK_ENTRIES", block_entries)
    verdicts = {}
    for seed in range(20):
        for d in (2, 4, 8, 32, 64):
            for tol in REFEREE_TOLS:
                for kind in range(3):
                    mat = _referee_case(seed, d, tol, kind)
                    verdicts.setdefault((tol, kind), []).append(_referee_holds(mat, tol))
    # sharp at the default tolerance: every matrix 1e-3 * tol inside the
    # bound is accepted without an eigensolve, every one outside goes on
    assert all(verdicts[1e-9, 1]) and not any(verdicts[1e-9, 2])
    assert all(all(verdicts[tol, 0]) for tol in REFEREE_TOLS)
    # at tol = 0 the margin sends the zero-eigenvalue matrices on
    assert not any(verdicts[0.0, 1]) and not any(verdicts[0.0, 2])


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((2, 4, 8, 16)),
    st.sampled_from(REFEREE_TOLS),
    st.integers(0, 2),
    st.floats(0.0, 1e-9),
)
@settings(max_examples=200, deadline=None)
def test_dominance_check_referee_property(seed, d, tol, kind, skew):
    mat = _referee_case(seed, d, tol, kind)
    # a small anti-hermitian part: the hermiticity check must see it
    mat = mat + 1j * skew * np.triu(np.ones((d, d)), 1)
    _referee_holds(mat, tol)


@pytest.mark.parametrize(
    "mat",
    [
        np.diag([1.5, -0.5]),  # negative eigenvalue
        np.array([[0.5, 0.1], [0.3, 0.5]]),  # not hermitian; hermitian part dominant
        np.diag([0.6, 0.6]),  # trace 1.2; dominant
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
    ],
)
def test_dominance_check_refuses_invalid_matrices(mat):
    assert not _dominance_accepts(mat.astype(complex), 1e-9)
