from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksep import check_density, kron_all


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
