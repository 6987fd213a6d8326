from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksep.linalg
import ksep.states
from ksep import (
    DensityMatrix,
    DimensionError,
    FormatError,
    GuardError,
    NoisyPureState,
    NormalizationError,
    ParameterError,
    ProductProbe,
    PureState,
    StateValidationError,
    WeightError,
    check_density,
    ghz,
    load_state,
    maximally_mixed,
    mix,
    partition_product_pure,
    product_pure,
    random_density,
    random_product_pure,
    random_pure,
    save_state,
    w_state,
    white_noise,
)


# --- containers --------------------------------------------------------------


def test_density_matrix_shape_check():
    with pytest.raises(DimensionError):
        DensityMatrix((2, 2), np.eye(3, dtype=complex) / 3)


def test_density_matrix_rejects_nonfinite():
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = np.nan
    with pytest.raises(ParameterError):
        DensityMatrix((2,), mat)


def test_density_matrix_is_defensive_and_readonly():
    src = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix((2,), src)
    src[0, 0] = 99.0
    assert rho.mat[0, 0] == 0.5
    with pytest.raises((ValueError, RuntimeError)):
        rho.mat[0, 0] = 0.0


def test_density_matrix_properties_and_validate():
    rho = maximally_mixed((2, 3))
    assert rho.site_count == 2
    assert rho.dims == (2, 3)
    assert rho.dim == 6
    rho.validate()  # should not raise
    bad = DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(StateValidationError) as err:
        bad.validate()
    assert err.value.diagnostics is not None
    assert err.value.diagnostics.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def _counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(ksep.linalg.np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize(
    "build",
    [
        lambda: white_noise(ghz(10).to_density(), 0.8),
        lambda: ghz(10).to_density(),
        lambda: white_noise(ghz(10).to_density(), 0.3),
        lambda: maximally_mixed((2,) * 10),
    ],
    ids=["noisy-ghz-n10-p0.8", "ghz-n10", "noisy-ghz-n10-p0.3", "mixed-n10"],
)
def test_validate_accepts_dominant_states_without_eigensolve(monkeypatch, build):
    rho = build()
    calls = _counting_eigvalsh(monkeypatch)
    rho.validate()
    assert calls == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: w_state(5).to_density(),
        lambda: ghz(4, 3).to_density(),
        lambda: random_density((2, 3, 2), np.random.default_rng(8)),
    ],
    ids=["w-n5", "ghz-n4-d3", "random-density"],
)
def test_validate_eigensolves_states_the_bound_cannot_accept(monkeypatch, build):
    rho = build()
    calls = _counting_eigvalsh(monkeypatch)
    rho.validate()
    assert calls == [1]


INVALID_MATRICES = [
    (
        np.diag([1.5, -0.5]),
        "hermiticity defect 0.000e+00, trace defect 0.000e+00, min eigenvalue -5.000e-01",
    ),
    (
        np.array([[0.5, 0.1], [0.3, 0.5]]),
        "hermiticity defect 2.000e-01, trace defect 0.000e+00, min eigenvalue 3.000e-01",
    ),
    (
        np.diag([0.6, 0.6]),
        "hermiticity defect 0.000e+00, trace defect 2.000e-01, min eigenvalue 6.000e-01",
    ),
]


@pytest.mark.parametrize("mat, defects", INVALID_MATRICES, ids=["negative", "non-hermitian", "trace"])
def test_rejection_carries_the_eigensolve_record(tmp_path, mat, defects):
    mat = mat.astype(complex)
    with pytest.raises(StateValidationError) as err:
        DensityMatrix((2,), mat).validate()
    assert str(err.value) == f"not a valid density matrix: {defects} (tol 1.0e-09)"
    assert err.value.diagnostics == check_density(mat)

    path = tmp_path / "bad.json"
    rows = [[[z.real, z.imag] for z in row] for row in mat.tolist()]
    path.write_text(json.dumps({"dims": [2], "matrix": rows}))
    with pytest.raises(StateValidationError) as err:
        load_state(path)
    assert str(err.value) == f"{path}: not a valid density matrix: {defects} (tol 1.0e-09)"
    assert err.value.diagnostics == check_density(mat)


def test_density_matrix_rejects_tiny_dims():
    with pytest.raises(ParameterError):
        DensityMatrix((1, 2), np.eye(2, dtype=complex) / 2)
    with pytest.raises(ParameterError):
        DensityMatrix((), np.eye(1, dtype=complex))


def test_pure_state_norm_check():
    with pytest.raises(NormalizationError):
        PureState((2,), np.array([1.0, 1.0], dtype=complex))
    ok = PureState((2,), np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    assert ok.dim == 2


def test_pure_state_to_density():
    psi = ghz(2)
    rho = psi.to_density()
    assert rho.dims == (2, 2)
    np.testing.assert_allclose(rho.mat, np.outer(psi.vec, psi.vec.conj()))
    rho.validate()


# --- reference families ------------------------------------------------------


def test_ghz_qubits_explicit():
    psi = ghz(3)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    np.testing.assert_array_equal(psi.vec, expected)


def test_ghz_qutrits_explicit():
    psi = ghz(2, d=3)
    # |00>, |11>, |22> live at flat indices 0, 4, 8
    expected = np.zeros(9, dtype=complex)
    expected[[0, 4, 8]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(psi.vec, expected, atol=1e-15)


def test_ghz_repeated_label_indices():
    for n, d in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        psi = ghz(n, d)
        support = np.flatnonzero(psi.vec)
        assert list(support) == [j * ((d**n - 1) // (d - 1)) for j in range(d)]
        assert np.linalg.norm(psi.vec) == pytest.approx(1.0, abs=1e-14)


def test_ghz_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        ghz(1)
    with pytest.raises(ParameterError):
        ghz(3, d=1)


def test_w_state_explicit():
    psi = w_state(3)
    # |100>, |010>, |001> -> indices 4, 2, 1 with site 0 most significant
    expected = np.zeros(8, dtype=complex)
    expected[[4, 2, 1]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(psi.vec, expected, atol=1e-15)


def test_w_state_rejects_single_site():
    with pytest.raises(ParameterError):
        w_state(1)


def test_product_pure_matches_kron():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi = product_pure([a, b])
    assert psi.dims == (2, 3)
    expected = np.zeros(6, dtype=complex)
    expected[1] = 1.0  # index 0*3 + 1
    np.testing.assert_array_equal(psi.vec, expected)


def test_product_pure_rejects_unnormalized_factor():
    with pytest.raises(NormalizationError):
        product_pure([np.array([1.0, 1.0], dtype=complex)])


def test_partition_product_pure_contiguous_blocks():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b /= np.linalg.norm(b)
    psi = partition_product_pure((2, 2, 2), [(0, 1), (2,)], [a, b])
    np.testing.assert_allclose(psi.vec, np.kron(a, b), atol=1e-15)


def test_partition_product_pure_interleaved_blocks():
    # blocks {0,2} and {1}: entry (i0,i1,i2) must be a[i0,i2] * b[i1]
    rng = np.random.default_rng(8)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b /= np.linalg.norm(b)
    psi = partition_product_pure((2, 2, 2), [(0, 2), (1,)], [a, b])
    a2 = a.reshape(2, 2)
    for i0 in range(2):
        for i1 in range(2):
            for i2 in range(2):
                assert psi.vec[4 * i0 + 2 * i1 + i2] == pytest.approx(
                    a2[i0, i2] * b[i1], abs=1e-15
                )


def test_partition_product_pure_rejects_bad_cover():
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ParameterError):
        partition_product_pure((2, 2), [(0,)], [v])
    with pytest.raises(DimensionError):
        partition_product_pure((2, 2), [(0,), (1,)], [v])
    with pytest.raises(DimensionError):
        partition_product_pure((2, 2), [(0, 1)], [v])


# --- mixtures and noise ------------------------------------------------------


def test_mix_two_projectors():
    e0 = product_pure([np.array([1, 0], dtype=complex)]).to_density()
    e1 = product_pure([np.array([0, 1], dtype=complex)]).to_density()
    rho = mix([(0.25, e0), (0.75, e1)])
    np.testing.assert_allclose(rho.mat, np.diag([0.25, 0.75]).astype(complex))


def test_mix_weight_validation():
    rho = maximally_mixed((2,))
    with pytest.raises(WeightError):
        mix([])
    with pytest.raises(WeightError):
        mix([(-0.1, rho), (1.1, rho)])
    with pytest.raises(WeightError):
        mix([(0.5, rho), (0.4, rho)])  # sums to 0.9
    with pytest.raises(DimensionError):
        mix([(0.5, rho), (0.5, maximally_mixed((3,)))])


def test_mix_accepts_fsum_exact_weights():
    rho = maximally_mixed((2,))
    parts = [(0.1, rho)] * 10  # naive sum of 0.1 ten times is not exactly 1
    out = mix(parts)
    np.testing.assert_allclose(out.mat, rho.mat, atol=1e-15)


def test_maximally_mixed():
    rho = maximally_mixed((2, 2))
    np.testing.assert_array_equal(rho.mat, np.eye(4, dtype=complex) / 4)


def test_white_noise_endpoints():
    target = ghz(3).to_density()
    np.testing.assert_allclose(white_noise(target, 1.0).mat, target.mat, atol=1e-15)
    np.testing.assert_allclose(
        white_noise(target, 0.0).mat, maximally_mixed((2, 2, 2)).mat, atol=1e-15
    )


@given(st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_white_noise_is_affine(p):
    target = ghz(2).to_density()
    out = white_noise(target, p)
    expected = p * target.mat + (1 - p) * np.eye(4) / 4
    np.testing.assert_allclose(out.mat, expected, atol=1e-15)
    out.validate()


def test_white_noise_rejects_out_of_range():
    target = ghz(2).to_density()
    for p in (-0.01, 1.01, math.nan):
        with pytest.raises(ParameterError):
            white_noise(target, p)


# --- random generators -------------------------------------------------------


def test_random_pure_is_normalized_and_seeded():
    rng = np.random.default_rng(42)
    psi = random_pure((2, 3), rng)
    assert psi.dims == (2, 3)
    assert np.linalg.norm(psi.vec) == pytest.approx(1.0, abs=1e-12)
    again = random_pure((2, 3), np.random.default_rng(42))
    np.testing.assert_array_equal(psi.vec, again.vec)


def test_random_product_pure_has_product_structure():
    rng = np.random.default_rng(43)
    psi = random_product_pure((2, 2), rng)
    # a product state of two qubits has a rank-1 2x2 coefficient matrix
    coeff = psi.vec.reshape(2, 2)
    s = np.linalg.svd(coeff, compute_uv=False)
    assert s[1] == pytest.approx(0.0, abs=1e-12)


def test_random_density_is_valid_and_seeded():
    rho = random_density((2, 2), np.random.default_rng(44))
    rho.validate()
    again = random_density((2, 2), np.random.default_rng(44))
    np.testing.assert_array_equal(rho.mat, again.mat)


# --- persistence -------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    rho = random_density((2, 2), np.random.default_rng(9))
    path = tmp_path / "state.json"
    save_state(rho, path)
    back = load_state(path)
    assert back.dims == rho.dims
    assert np.array_equal(back.mat, rho.mat)  # repr round-trip, no drift


def test_load_vector_file_builds_projector(tmp_path):
    psi = ghz(2)
    doc = {"dims": [2, 2], "vector": [[float(z.real), float(z.imag)] for z in psi.vec]}
    path = tmp_path / "pure.json"
    path.write_text(json.dumps(doc))
    rho = load_state(path)
    np.testing.assert_allclose(rho.mat, psi.to_density().mat, atol=1e-15)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2], "matrix": [[')
    with pytest.raises(FormatError) as err:
        load_state(path)
    assert "line" in str(err.value)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_state(tmp_path / "nope.json")


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2, 3],
        {"matrix": [[[1.0, 0.0]]]},
        {"dims": [], "matrix": []},
        {"dims": [2.5], "matrix": []},
        {"dims": [True, 2], "matrix": []},
        {"dims": [1], "matrix": [[[1.0, 0.0]]]},
        {"dims": [2]},
        {"dims": [2], "matrix": [[[1.0, 0.0]]]},  # 1 row, need 2
        {"dims": [2], "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]},  # short rows
        {"dims": [2], "matrix": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, "x"]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, True]], [[0.0, 0.0], [0.0, 0.0]]]},
        {"dims": [2], "vector": [[1.0, 0.0]]},  # wrong length
        {"dims": [2], "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]},  # no float holds it
    ],
)
def test_load_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_state(path)


def test_load_rejects_invalid_density(tmp_path):
    doc = {
        "dims": [2],
        "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    }
    path = tmp_path / "notdensity.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateValidationError) as err:
        load_state(path)
    assert err.value.diagnostics is not None
    assert not err.value.diagnostics.accepted


def test_load_rejects_unreadable_numbers_and_text(tmp_path):
    # an integer past Python's 4300-digit limit, and bytes that are not UTF-8
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [2], "vector": [[1' + "0" * 5000 + ', 0], [0, 0]]}')
    with pytest.raises(FormatError, match="invalid JSON"):
        load_state(path)
    path.write_bytes(b'{"dims": [2], "vector": [[1, 0], [0, 0]]} \xff')
    with pytest.raises(FormatError, match="invalid JSON"):
        load_state(path)


def test_save_state_writes_the_per_entry_format(tmp_path):
    # one [re, im] pair per entry, floats by repr, a -0.0 kept, one line
    rho = random_density((2, 3), np.random.default_rng(12))
    mat = rho.mat.copy()
    mat[0, 1] = complex(-0.0, mat[0, 1].imag)
    mat[1, 0] = complex(-0.0, -mat[0, 1].imag)
    rho = DensityMatrix((2, 3), mat)
    path = tmp_path / "state.json"
    save_state(rho, path)
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in rho.mat]
    assert path.read_text() == json.dumps({"dims": [2, 3], "matrix": rows}) + "\n"
    assert "-0.0" in path.read_text()


def test_dense_dimension_guard_reads_only_what_it_needs():
    for dims in ((2,) * 12, (4,) * 6, (3, 3, 3, 3, 3, 3, 5)):  # 4096, 4096, 3645
        ksep.states._check_dense_dim(dims)
    for dims in ((2,) * 13, (3,) * 8, (4096, 2), itertools.repeat(2)):
        with pytest.raises(GuardError, match="exceeds the guard 4096"):
            ksep.states._check_dense_dim(dims)


@pytest.mark.parametrize("dims", [[2] * 13, [2] * 40, [3] * 8, [2] * 20])
@pytest.mark.parametrize("field", ["matrix", "vector"])
def test_load_refuses_a_dense_state_past_the_guard(tmp_path, monkeypatch, dims, field):
    # refused after reading dims, before any entry is parsed or a matrix built
    def no_work(*args, **kwargs):
        raise AssertionError("the guard must come first")

    monkeypatch.setattr(ksep.states, "_parse_pair", no_work)
    monkeypatch.setattr(ksep.states, "_require_density", no_work)
    monkeypatch.setattr(ksep.states, "DensityMatrix", no_work)
    count = math.prod(dims) if math.prod(dims) <= 8192 else 1
    entries = [[1.0, 0.0]] + [[0.0, 0.0]] * (count - 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": dims, field: entries if field == "vector" else [entries]}))
    with pytest.raises(GuardError) as err:
        load_state(path)
    assert str(err.value).startswith(f"{path}: state dimension exceeds the guard 4096")


# one-qubit matrix rows and probe factors; each case breaks one of them
_ROW0, _ROW1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]
_E0, _E1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
_PAIR = "expected a [re, im] pair, got"


@pytest.mark.parametrize(
    "case",
    [
        ({"dims": [2], "matrix": {"a": 1}}, "{path}: field 'matrix' must be a 2x2 array, got dict rows"),
        ({"dims": [2], "matrix": [_ROW0]}, "{path}: field 'matrix' must be a 2x2 array, got 1 rows"),
        ({"dims": [2], "matrix": [_ROW0, "ab"]}, "{path}: matrix row 1 must have 2 entries"),
        ({"dims": [2], "matrix": [_ROW0, _ROW1 * 2]}, "{path}: matrix row 1 must have 2 entries"),
        ({"dims": [2], "matrix": [_ROW0, [[0.0, 0.0], [0.0]]]}, f"{{path}}: matrix entry (1, 1): {_PAIR} [0.0]"),
        ({"dims": [2], "matrix": [[[1.0, 0.0], [0.0, "1.5"]], _ROW1]}, f"{{path}}: matrix entry (0, 1): {_PAIR} [0.0, '1.5']"),
        ({"dims": [2], "matrix": [_ROW0, [[True, 0.0], [0.0, 0.0]]]}, f"{{path}}: matrix entry (1, 0): {_PAIR} [True, 0.0]"),
        ({"dims": [2], "matrix": [_ROW0, [[0.0, None], [0.0, 0.0]]]}, f"{{path}}: matrix entry (1, 0): {_PAIR} [0.0, None]"),
        ({"dims": [2], "matrix": [[[1.0, 0.0], [[0, 0], 0]], _ROW1]}, f"{{path}}: matrix entry (0, 1): {_PAIR} [[0, 0], 0]"),
        ({"dims": [2], "matrix": [[[1.0, 0.0], 0.0], _ROW1]}, f"{{path}}: matrix entry (0, 1): {_PAIR} 0.0"),
        ({"dims": [2], "matrix": [[[1.0, 0.0], [0, 10**400]], _ROW1]}, f"{{path}}: matrix entry (0, 1): {_PAIR} [0, {10**400}]"),
        # two faults: the first entry in reading order, and a row before the entries after it
        ({"dims": [2], "matrix": [[[1.0], [0.0, True]], _ROW1]}, f"{{path}}: matrix entry (0, 0): {_PAIR} [1.0]"),
        ({"dims": [2], "matrix": [[[1.0, 0.0], [0.0]], [_ROW1[0]]]}, f"{{path}}: matrix entry (0, 1): {_PAIR} [0.0]"),
        ({"dims": [2], "matrix": [[_ROW0[0]], [[0.0, 0.0], [0.0]]]}, "{path}: matrix row 0 must have 2 entries"),
        ({"dims": [2], "vector": [[1.0, 0.0]]}, "{path}: field 'vector' must have 2 entries, got 1"),
        ({"dims": [2], "vector": "ab"}, "{path}: field 'vector' must have 2 entries, got str"),
        ({"dims": [2], "vector": [[1.0, 0.0], [0, None]]}, f"{{path}}: vector entry 1: {_PAIR} [0, None]"),
        ({"dims": [2, 2], "vector": [[1.0, 0.0], [0, 0], [0, 0], [0, 0, 0]]}, f"{{path}}: vector entry 3: {_PAIR} [0, 0, 0]"),
    ],
)
def test_state_file_errors_name_the_first_fault(tmp_path, case):
    doc, message = case
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_state(path)
    assert str(err.value) == message.replace("{path}", str(path))


@pytest.mark.parametrize(
    "case",
    [
        ({"u": [_E0, _E0]}, "probe file needs 'u' and 'v' fields"),
        ({"u": [_E0, _E0], "v": [_E1]}, "field 'v' must list one factor per site (2 sites)"),
        ({"u": [_E0, _E0 + _E0[:1]], "v": [_E1, _E1]}, "u[1] must have 2 [re, im] entries"),
        ({"u": [_E0, _E0], "v": [_E1, "ab"]}, "v[1] must have 2 [re, im] entries"),
        ({"u": [_E0, [[1.0, 0.0], [0.0, True]]], "v": [_E1, _E1]}, f"u[1][1]: {_PAIR} [0.0, True]"),
        ({"u": [_E0, _E0], "v": [[[0.0, 0.0], [10**400, 0]], _E1]}, f"v[0][1]: {_PAIR} [{10**400}, 0]"),
        # u is read before v, and the first bad entry of a factor is reported
        ({"u": [_E0, [[1.0], [None, 0]]], "v": [_E1, [[0]]]}, f"u[1][0]: {_PAIR} [1.0]"),
    ],
)
def test_probe_file_errors_name_the_first_fault(case):
    doc, message = case
    with pytest.raises(FormatError) as err:
        ProductProbe.from_json_dict(doc, (2, 2))
    assert str(err.value) == message


# signed zeros, an int, ints that round (2**53 + 1) or exceed int64, the
# smallest subnormal, the largest float, and infinities (json reads 1e400 so)
_EDGE_NUMBERS = [-0.0, 0, 2**53 + 1, 2**70, -(2**70), 5e-324, -5e-324, 1.7976931348623157e308, 1e400, -1e400]


def test_pair_reader_is_bit_identical_to_per_entry_floats():
    def no_location(i):
        raise AssertionError(f"entry {i} was read one at a time")

    entries = [[re, im] for re in _EDGE_NUMBERS for im in _EDGE_NUMBERS]
    want = np.array([complex(float(re), float(im)) for re, im in entries]).tobytes()
    assert ksep.states._complex_entries(entries, no_location).tobytes() == want
    assert ksep.states._complex_entries(json.loads(json.dumps(entries)), no_location).tobytes() == want
    # numbers that are float subclasses take the per-entry route to the same bits
    entries = [(np.float64(re), im) for re, im in entries]
    assert ksep.states._complex_entries(entries, lambda i: "").tobytes() == want


@pytest.mark.parametrize(
    "entries, bad",
    [
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], 0),  # converts to shape (2, 4)
        ([[1.0], [0.0]], 0),
        ([1.0, 0.0], 0),
        ([[1.0, 0.0], [0.0, 0.0, 0.0]], 1),  # ragged
        ([[1.0, 0.0], [0.0, None]], 1),  # np.array reads None as nan
        ([[1.0, 0.0], [0.0, False]], 1),
        ([range(2), range(2)], 0),  # a sequence, but not a pair
        ([np.array([1.0, 0.0], dtype=object)] * 2, 0),
    ],
)
def test_pair_reader_refuses_what_the_per_entry_reader_refuses(entries, bad):
    with pytest.raises(FormatError, match=rf"^entry {bad}: expected a \[re, im\] pair, got "):
        ksep.states._complex_entries(entries, lambda i: f"entry {i}")


def test_save_load_keeps_every_bit(tmp_path):
    noisy = white_noise(ghz(8).to_density(), 0.7).mat.copy()
    noisy[0, 0] = complex(noisy[0, 0].real, -0.0)
    noisy[1, 2], noisy[2, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    for rho in (random_density((2, 3, 4), np.random.default_rng(31)), DensityMatrix((2,) * 8, noisy)):
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert load_state(path).mat.tobytes() == rho.mat.tobytes()
    assert "-0.0" in path.read_text()


# --- non-finite state file entries ----------------------------------------------


_FINITE = "expected a finite [re, im] pair, got"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dims": [2], "matrix": [[[1.0, 0.0], [NaN, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}', f"matrix entry (0, 1): {_FINITE} [nan, 0.0]"),
        ('{"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, Infinity], [0.0, 0.0]]]}', f"matrix entry (1, 0): {_FINITE} [0.0, inf]"),
        ('{"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-Infinity, 0.0]]]}', f"matrix entry (1, 1): {_FINITE} [-inf, 0.0]"),
        ('{"dims": [2], "matrix": [[[1e400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}', f"matrix entry (0, 0): {_FINITE} [inf, 0.0]"),
        ('{"dims": [2], "vector": [[1.0, 0.0], [NaN, NaN]]}', f"vector entry 1: {_FINITE} [nan, nan]"),
        ('{"dims": [2], "vector": [[1e400, 0.0], [0.0, 0.0]]}', f"vector entry 0: {_FINITE} [inf, 0.0]"),
        ('{"dims": [2, 2], "vector": [[0.5, 0.0], [0.5, 0.0], [0.5, -1e400], [0.5, 0.0]]}', f"vector entry 2: {_FINITE} [0.5, -inf]"),
        # two faults: the first one in reading order, of either kind
        ('{"dims": [2], "matrix": [[[NaN, 0.0], [0.0, true]], [[0.0, 0.0], [0.0, 0.0]]]}', f"matrix entry (0, 0): {_FINITE} [nan, 0.0]"),
        ('{"dims": [2], "matrix": [[[1.0, 0.0], [0.0, true]], [[NaN, 0.0], [0.0, 0.0]]]}', f"matrix entry (0, 1): {_PAIR} [0.0, True]"),
        ('{"dims": [2], "matrix": [[[1.0, 0.0], [0.0, NaN]], [[0.0, 0.0]]]}', f"matrix entry (0, 1): {_FINITE} [0.0, nan]"),
        ('{"dims": [2], "vector": [[0.0], [NaN, 0.0]]}', f"vector entry 0: {_PAIR} [0.0]"),
    ],
)
def test_state_file_refuses_non_finite_entries_without_warnings(tmp_path, text, message):
    # the entry is named before any arithmetic reads it: no numpy warning,
    # no density-check record of nan defects
    path = tmp_path / "bad.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as err:
            load_state(path)
    assert str(err.value) == f"{path}: {message}"


def test_probe_reader_still_takes_non_finite_numbers():
    # probe files refuse them through the unit-norm check instead
    entries = [[math.nan, 0.0], [math.inf, -math.inf]]
    got = ksep.states._complex_entries(entries, lambda i: f"entry {i}")
    assert got.tobytes() == np.array([complex(math.nan, 0.0), complex(math.inf, -math.inf)]).tobytes()
    with pytest.raises(FormatError, match=r"^entry 0: expected a finite \[re, im\] pair, got \[nan, 0.0\]$"):
        ksep.states._complex_entries(entries, lambda i: f"entry {i}", finite=True)


# --- pure states under white noise -------------------------------------------------


def _kets():
    rng = np.random.default_rng(8)
    return [ghz(3), ghz(2, 3), w_state(4), random_pure((2, 3), rng), random_pure((2,) * 5, rng)]


@pytest.mark.parametrize("p", [-0.01, 1.01, math.nan, math.inf, -math.inf])
def test_noisy_pure_state_refuses_p_as_white_noise_does(p):
    with pytest.raises(ParameterError) as dense:
        white_noise(ghz(2).to_density(), p)
    for build in (lambda: NoisyPureState(ghz(2), p), lambda: white_noise(ghz(2), p)):
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value) == str(dense.value)
    # the outer p is checked before it scales an inner one
    with pytest.raises(ParameterError) as err:
        white_noise(NoisyPureState(ghz(2), 0.5), p)
    assert str(err.value) == str(dense.value)


def test_noisy_pure_state_needs_a_pure_state():
    with pytest.raises(ParameterError):
        NoisyPureState(ghz(2).to_density(), 0.5)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0, 1])
def test_noisy_pure_state_is_white_noise_on_its_ket(p):
    for psi in _kets():
        state = white_noise(psi, p)
        assert type(state) is NoisyPureState
        assert state.pure is psi and type(state.p) is float and state.p == p
        assert (state.dims, state.site_count, state.dim) == (psi.dims, len(psi.dims), psi.vec.shape[0])
        want = white_noise(psi.to_density(), p)
        assert state.to_density().dims == want.dims
        assert state.to_density().mat.tobytes() == want.mat.tobytes()


# measured largest deviation 5.6e-17 over the cases below
DOUBLE_NOISE_TOL = 1e-15


def test_white_noise_twice_on_a_ket_is_the_dense_double_application():
    for psi in _kets():
        for p0, p in itertools.product((1.0, 0.9, 0.35, 0.0), (1.0, 0.7, 0.2)):
            twice = white_noise(white_noise(psi, p0), p)
            assert type(twice) is NoisyPureState and twice.pure is psi and twice.p == p * p0
            dense = white_noise(white_noise(psi.to_density(), p0), p)
            assert np.abs(twice.to_density().mat - dense.mat).max() <= DOUBLE_NOISE_TOL


def test_noisy_pure_state_record_matches_check_density():
    for psi in _kets():
        for p in (0.0, 0.4, 1.0):
            state = white_noise(psi, p)
            got = state.diagnostics()
            want = check_density(state.to_density().mat)
            assert got.accepted and want.accepted
            assert got.hermiticity_defect == 0.0 and want.hermiticity_defect <= 1e-16
            assert got.trace_defect == pytest.approx(want.trace_defect, abs=1e-14)
            assert got.min_eigenvalue == pytest.approx(want.min_eigenvalue, abs=1e-14)
            assert got.tol == want.tol


def test_noisy_pure_state_validates_without_its_matrix(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("a noisy ket is validated from its ket")

    monkeypatch.setattr(ksep.states, "_dominance_accepts", no_dense)
    monkeypatch.setattr(ksep.states, "check_density", no_dense)
    monkeypatch.setattr(NoisyPureState, "to_density", no_dense)
    for psi in _kets():
        white_noise(psi, 0.6).validate()
    # a norm off by 8e-13 passes PureState's check, not a tighter trace tolerance
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0 + 8e-13
    state = white_noise(PureState((2, 2), vec), 0.5)
    with pytest.raises(StateValidationError) as err:
        state.validate(1e-13)
    assert not err.value.diagnostics.accepted
    assert err.value.diagnostics.trace_defect == pytest.approx(8e-13, rel=1e-3)
