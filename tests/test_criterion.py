from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksep import (
    CriterionReport,
    DensityMatrix,
    DimensionError,
    FormatError,
    GuardError,
    KPartition,
    NormalizationError,
    NumericalError,
    ParameterError,
    ProductProbe,
    enumerate_kpartitions,
    evaluate,
    first_term,
    ghz,
    maximally_mixed,
    mix,
    oracle_evaluate,
    partition_product_pure,
    partition_term,
    random_density,
    random_product_pure,
    random_pure,
    stirling2,
    swap_sets,
    w_state,
    white_noise,
)
from ksep import search
from ksep.criterion import PartitionTerms, _interleaved, _partition_plan, _stack, _weights, evaluate_batch
from ksep.partitions import _label_rows, _notations, _partitions_of
from ksep.search import GHZ_PAIR, canonical_probe


def _random_probe(dims, rng):
    def factors():
        out = []
        for d in dims:
            raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            out.append(raw / np.linalg.norm(raw))
        return tuple(out)

    return ProductProbe(factors(), factors())


def _basis(d, i):
    e = np.zeros(d, dtype=np.complex128)
    e[i] = 1.0
    return e


# --- ProductProbe -------------------------------------------------------------


def test_probe_validation():
    e0, e1 = _basis(2, 0), _basis(2, 1)
    with pytest.raises(DimensionError):
        ProductProbe((e0,), (e0, e1))  # factor count mismatch
    with pytest.raises(DimensionError):
        ProductProbe((), ())
    with pytest.raises(DimensionError):
        ProductProbe((np.ones(1, dtype=complex),), (np.ones(1, dtype=complex),))
    with pytest.raises(NormalizationError):
        ProductProbe((2 * e0,), (e1,))
    with pytest.raises(DimensionError):
        ProductProbe((e0,), (_basis(3, 0),))  # site dims differ between copies


def test_probe_properties_and_copies():
    e0, e1 = _basis(2, 0), _basis(2, 1)
    probe = ProductProbe((e0, e0, e0), (e1, e1, e1))
    assert probe.dims == (2, 2, 2)
    assert probe.site_count == 3
    phi1, phi2 = probe.copy_vectors()
    assert phi1[0] == 1.0 and np.count_nonzero(phi1) == 1
    assert phi2[7] == 1.0 and np.count_nonzero(phi2) == 1
    back = probe.swapped()
    assert np.array_equal(back.u[0], e1)
    assert np.array_equal(back.v[0], e0)


def test_probe_factors_are_readonly():
    src = _basis(2, 0)
    probe = ProductProbe((src,), (_basis(2, 1),))
    src[0] = 5.0  # the probe keeps its own copy
    assert probe.u[0][0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        probe.u[0][0] = 0.0


def test_probe_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(23)
    for dims in ((2, 2, 2), (3, 3)):
        probe = _random_probe(dims, rng)
        doc = probe.to_json_dict()
        for parsed in (doc, json.loads(json.dumps(doc))):
            back = ProductProbe.from_json_dict(parsed, probe.dims)
            for a, b in zip(probe.u + probe.v, back.u + back.v):
                assert a.tobytes() == b.tobytes()


def _probe_doc(**fields):
    e0, e1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
    doc = {"u": [e0, e0], "v": [e1, e1]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize(
    "doc, error",
    [
        ([[1.0, 0.0]], FormatError),  # not an object
        ({"u": _probe_doc()["u"]}, FormatError),  # missing v
        (_probe_doc(v=[[[0.0, 0.0], [1.0, 0.0]]]), FormatError),  # one factor for two sites
        (_probe_doc(u=[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2), FormatError),  # length 3
        (_probe_doc(u=[[[1.0, 0.0], [0.0]]] * 2), FormatError),  # not a pair
        (_probe_doc(u=[[[True, 0.0], [0.0, 0.0]]] * 2), FormatError),  # bool entry
        (_probe_doc(u=[[[2.0, 0.0], [0.0, 0.0]]] * 2), NormalizationError),
        (_probe_doc(u=[[[10**400, 0], [0, 0]]] * 2), FormatError),  # no float holds it
        (_probe_doc(u=[[[math.nan, 0.0], [0.0, 0.0]]] * 2), NormalizationError),  # NaN norm
        (_probe_doc(u=[[[1e400, 0.0], [0.0, 0.0]]] * 2), NormalizationError),  # inf, as json reads 1e400
    ],
)
def test_probe_json_rejects_malformed_documents(doc, error):
    with pytest.raises(error):
        ProductProbe.from_json_dict(doc, (2, 2))


# --- first and partition terms --------------------------------------------------


def test_first_term_reads_offdiagonal_element():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    # <000| rho |111> = 1/2 for the uniform two-branch superposition
    assert first_term(rho, probe) == pytest.approx(0.5, abs=1e-15)


def test_first_term_dimension_check():
    rho = ghz(3).to_density()
    with pytest.raises(DimensionError):
        first_term(rho, canonical_probe(GHZ_PAIR, (2, 2)))


def test_partition_term_on_maximally_mixed():
    # every diagonal weight of I/D is 1/D, so each term is
    # prod (1/D^2)^(mult/(2k^2)) = (1/D^2)^(1/2) = 1/D for any probe
    rho = maximally_mixed((2, 2, 2))
    rng = np.random.default_rng(1)
    probe = _random_probe((2, 2, 2), rng)
    for k in (1, 2, 3):
        for part in enumerate_kpartitions(3, k):
            value = partition_term(rho, probe, part)
            assert value == pytest.approx(1 / 8, abs=1e-14)


def test_partition_term_rejects_mismatched_partition():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    with pytest.raises(DimensionError):
        partition_term(rho, probe, KPartition(2, 2, (0, 1)))


def test_partition_term_matches_naive_double_product():
    # merged swap sets with multiplicities must reproduce the plain product
    # over all ordered block pairs
    rng = np.random.default_rng(2)
    rho = random_density((2, 2, 2), rng)
    probe = _random_probe((2, 2, 2), rng)
    for k in (1, 2, 3):
        for part in enumerate_kpartitions(3, k):
            blocks = part.blocks()
            naive = 1.0
            for i in range(k):
                for j in range(k):
                    sites = set(blocks[i]) | set(blocks[j])
                    # the swapped sites take the other copy's factor
                    x1 = [probe.v[m] if m in sites else probe.u[m] for m in range(3)]
                    x2 = [probe.u[m] if m in sites else probe.v[m] for m in range(3)]
                    f1 = np.array([1.0 + 0j])
                    f2 = np.array([1.0 + 0j])
                    for a, b in zip(x1, x2):
                        f1 = np.kron(f1, a)
                        f2 = np.kron(f2, b)
                    naive *= complex(np.vdot(f1, rho.mat @ f1)).real
                    naive *= complex(np.vdot(f2, rho.mat @ f2)).real
            expected = naive ** (1.0 / (2.0 * k * k)) if naive > 0 else 0.0
            assert partition_term(rho, probe, part) == pytest.approx(
                expected, rel=1e-12, abs=1e-14
            )


def test_exact_zero_short_circuit():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    for part in enumerate_kpartitions(3, 2):
        # any proper swap set lands on a basis state outside the GHZ support
        assert partition_term(rho, probe, part) == 0.0


# --- evaluate -------------------------------------------------------------------


def test_evaluate_ghz3_detects():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    report = evaluate(rho, probe, k=2)
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert report.first_term == pytest.approx(0.5, abs=1e-12)
    assert [t for _, t in report.partition_terms] == [0.0, 0.0, 0.0]
    assert report.verdict == "not_k_separable"
    assert report.detected
    assert report.k == 2
    assert report.tolerance == 1e-9


def test_evaluate_maximally_mixed_is_inconclusive():
    rho = maximally_mixed((2, 2, 2))
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    report = evaluate(rho, probe, k=2)
    # first term vanishes, each of the three partition terms is 1/8
    assert report.first_term == pytest.approx(0.0, abs=1e-15)
    assert report.lhs == pytest.approx(-3 / 8, abs=1e-13)
    assert report.verdict == "inconclusive"
    assert not report.detected


def test_evaluate_k_bounds():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    for bad in (0, 4, -1):
        with pytest.raises(ParameterError):
            evaluate(rho, probe, k=bad)


def test_plan_guard_refuses_before_enumerating():
    # S(12, 6) = 1 323 652 partitions is past the guard and refused at
    # once; S(10, 5) = 42 525 is built
    started = time.perf_counter()
    with pytest.raises(GuardError):
        _partition_plan(12, 6)
    assert time.perf_counter() - started < 1.0
    plan = _partition_plan(10, 5)
    assert len(plan.partitions) == stirling2(10, 5) == 42525
    assert plan.masks.shape == (42525, 15)


def test_plan_masks_match_swap_sets_route():
    # referee: masks and exponents built from one swap_sets frozenset per
    # partition, site 0 the most significant bit
    for n in range(1, 9):
        for k in range(1, n + 1):
            plan = _partition_plan(n, k)
            rows = [swap_sets(part) for part in plan.partitions]
            masks = np.array(
                [[sum(1 << (n - 1 - s) for s in sites) for _i, _j, sites, _m in row] for row in rows],
                dtype=np.int64,
            )
            for row in rows:
                expo = np.array([mult for _i, _j, _sites, mult in row]) * (1.0 / (2.0 * k * k))
                assert np.array_equal(plan.expo, expo)
            assert plan.masks.dtype == np.int64
            assert plan.masks.shape == (stirling2(n, k), k * (k + 1) // 2)
            assert np.array_equal(plan.masks, masks)


def test_evaluate_dims_mismatch():
    rho = ghz(3).to_density()
    with pytest.raises(DimensionError):
        evaluate(rho, canonical_probe(GHZ_PAIR, (2, 2)), k=2)


def test_evaluate_tolerance_moves_verdict():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    assert evaluate(rho, probe, 2, tolerance=0.4).detected
    assert not evaluate(rho, probe, 2, tolerance=0.6).detected


def test_evaluate_rejects_indefinite_matrix():
    # trace-one Hermitian matrix with a decidedly negative eigenvalue
    mat = np.diag([1.1, -0.1]).astype(complex)
    rho = DensityMatrix((2,), mat)
    probe = ProductProbe((_basis(2, 1),), (_basis(2, 1),))
    with pytest.raises(NumericalError):
        evaluate(rho, probe, k=1)


def test_report_json_schema():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    doc = evaluate(rho, probe, k=2).to_json_dict()
    assert set(doc) == {"k", "lhs", "first_term", "terms", "verdict", "tolerance"}
    assert doc["k"] == 2
    assert [t["partition"] for t in doc["terms"]] == ["0,1|2", "0,2|1", "0|1,2"]
    assert all(set(t) == {"partition", "value"} for t in doc["terms"])


def test_report_lhs_consistency():
    # at n=6, k=3 (90 terms) numpy's pairwise sum differs from the left-to-right loop
    for seed, dims, k in ((3, (2, 2, 2), 2), (8, (2,) * 6, 3)):
        rng = np.random.default_rng(seed)
        rho = random_density(dims, rng)
        probe = _random_probe(dims, rng)
        report = evaluate(rho, probe, k=k)
        total = 0.0
        for _, t in report.partition_terms:
            total += t
        assert report.lhs == report.first_term - total  # same reduction order


# --- cache semantics ------------------------------------------------------------


def test_cache_complement_seeding():
    rng = np.random.default_rng(4)
    rho = random_density((2, 2, 2), rng)
    probe = _random_probe((2, 2, 2), rng)
    cache: dict = {}
    part = KPartition(3, 2, (0, 0, 1))  # 0,1 | 2
    partition_term(rho, probe, part, cache=cache)
    s01 = frozenset({0, 1})
    s2 = frozenset({2})
    assert s01 in cache and s2 in cache
    # the complement pair is the same floats with the roles exchanged
    assert cache[s2] == (cache[s01][1], cache[s01][0])


def test_shared_cache_is_bit_transparent():
    rng = np.random.default_rng(5)
    rho = random_density((2, 2, 2), rng)
    probe = _random_probe((2, 2, 2), rng)
    shared: dict = {}
    got = [evaluate(rho, probe, k, cache=shared).lhs for k in (1, 2, 3)]
    fresh = [evaluate(rho, probe, k).lhs for k in (1, 2, 3)]
    assert got == fresh  # exact equality, not approx


def test_parallel_matches_serial_bitwise():
    # one evaluation core serves both APIs: each term of the report is the
    # per-partition value bit for bit
    rng = np.random.default_rng(6)
    rho = random_density((2, 2, 2, 2), rng)
    probe = _random_probe((2, 2, 2, 2), rng)
    for k in (2, 3):
        report = evaluate(rho, probe, k)
        assert [t for _, t in report.partition_terms] == [
            partition_term(rho, probe, part) for part, _ in report.partition_terms
        ]


# --- cached interleaved layout ---------------------------------------------------


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _report_bytes(report):
    return _bits(report.lhs, report.first_term, *(t for _, t in report.partition_terms))


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 2, 2), (2,) * 6, (3, 3, 3), (4, 4), (2, 3, 2), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_interleaved_copy_is_per_state_and_bit_transparent(dims):
    # referee for the layout the evaluation core starts from: it must be the
    # state's own matrix, and a warm state must evaluate like a fresh one
    rng = np.random.default_rng(sum(dims) * 31 + len(dims))
    rho = random_density(dims, rng)
    other = random_density(dims, rng)
    n = len(dims)
    axes = [ax for m in range(n) for ax in (m, n + m)]
    for state in (rho, other):
        want = np.ascontiguousarray(state.mat.reshape(dims + dims).transpose(axes))
        got = state.interleaved
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        assert state.interleaved is got
    probe = _random_probe(dims, rng)
    for k in range(1, n + 1):
        warm = evaluate(rho, probe, k)
        fresh = evaluate(DensityMatrix(rho.dims, rho.mat), probe, k)
        assert _report_bytes(warm) == _report_bytes(fresh)
        for part, _ in warm.partition_terms:
            again = partition_term(DensityMatrix(rho.dims, rho.mat), probe, part)
            assert _bits(partition_term(rho, probe, part)) == _bits(again)
    fresh_first = first_term(DensityMatrix(rho.dims, rho.mat), probe)
    assert _bits(first_term(rho, probe)) == _bits(fresh_first)
    # a replaced state builds its own copy instead of keeping rho's
    replaced = dataclasses.replace(rho, mat=other.mat)
    for k in range(1, n + 1):
        assert _report_bytes(evaluate(replaced, probe, k)) == _report_bytes(evaluate(other, probe, k))


def test_warm_evaluate_does_not_copy_the_state():
    # a copy of rho per call would add one rho.mat.nbytes to the peak (1.75x)
    rho = white_noise(ghz(9).to_density(), 0.8)
    probe = canonical_probe(GHZ_PAIR, rho.dims)
    evaluate(rho, probe, 2)
    tracemalloc.start()
    try:
        evaluate(rho, probe, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * rho.mat.nbytes


# --- batched evaluation ------------------------------------------------------------


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 2, 2), (2, 2, 2, 2), (2,) * 5, (3, 3), (2, 3, 2), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_evaluate_batch_matches_per_probe_evaluate(dims):
    # referee for the batch entry point: every entry is the lhs that
    # evaluate gives on its own probe, bit for bit, whatever the batch
    rng = np.random.default_rng(sum(dims) * 17 + len(dims))
    rho = random_density(dims, rng)
    probes = [_random_probe(dims, rng) for _ in range(9)]
    probes.append(canonical_probe(GHZ_PAIR, dims))
    ks = list(range(1, len(dims) + 1))
    batch = evaluate_batch(rho, probes, ks)
    assert batch.shape == (len(ks), len(probes)) and batch.dtype == np.float64
    cache: dict = {}
    for i, k in enumerate(ks):
        want = [evaluate(rho, probe, k).lhs for probe in probes]
        assert _bits(*batch[i]) == _bits(*want)
        assert _bits(*evaluate_batch(rho, probes[3:5], [k])[0]) == _bits(*want[3:5])
        assert _bits(evaluate(rho, probes[0], k, cache=cache).lhs) == _bits(batch[i, 0])


def test_evaluate_batch_rejects_bad_input_before_evaluating():
    rho = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, rho.dims)
    with pytest.raises(ParameterError):
        evaluate_batch(rho, [], [2])
    with pytest.raises(DimensionError):
        evaluate_batch(rho, [probe, canonical_probe(GHZ_PAIR, (2, 2))], [2])
    with pytest.raises(ParameterError):
        evaluate_batch(rho, [probe], [2, 4])
    assert evaluate_batch(rho, [probe], []).shape == (0, 1)


def test_core_rows_read_their_own_state():
    # S states of a (state, probe) batch, R probes each: every row gets the
    # bytes of its state's batch of one
    dims = (2, 3, 2)
    rng = np.random.default_rng(12)
    states = [random_density(dims, rng) for _ in range(3)]
    probes = [_random_probe(dims, rng) for _ in range(4)]
    factors = _stack(probes * len(states), dims)
    first, weights = _weights(_interleaved(states), factors)
    assert first.shape == (12,) and weights.shape == (12, 2**3)
    for s, rho in enumerate(states):
        for r, probe in enumerate(probes):
            one_first, one_weights = _weights(_interleaved([rho]), _stack([probe], dims))
            row = s * len(probes) + r
            assert _bits(first[row]) == _bits(*one_first)
            assert weights[row].tobytes() == one_weights[0].tobytes()


# --- criterion properties ---------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_k1_never_detects(seed):
    # the single-block test value is |<phi1|rho|phi2>| - sqrt(<phi1|rho|phi1><phi2|rho|phi2>),
    # nonpositive for every state by Cauchy-Schwarz
    rng = np.random.default_rng(seed)
    rho = random_density((2, 2), rng)
    probe = _random_probe((2, 2), rng)
    report = evaluate(rho, probe, k=1)
    assert report.lhs <= 1e-12
    assert not report.detected


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_global_phase_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = random_density((2, 2, 2), rng)
    probe = _random_probe((2, 2, 2), rng)
    theta = rng.uniform(0, 2 * math.pi, size=3)
    u = tuple(np.exp(1j * theta[m]) * probe.u[m] for m in range(3))
    turned = ProductProbe(u, probe.v)
    for k in (1, 2, 3):
        a = evaluate(rho, probe, k)
        b = evaluate(rho, turned, k)
        assert b.lhs == pytest.approx(a.lhs, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_copy_exchange_invariance(seed):
    # exchanging the roles of the two probe copies conjugates the first term
    # and maps every swap set to its complement, so the lhs is unchanged
    rng = np.random.default_rng(seed)
    rho = random_density((2, 2, 2), rng)
    probe = _random_probe((2, 2, 2), rng)
    for k in (1, 2, 3):
        a = evaluate(rho, probe, k)
        b = evaluate(rho, probe.swapped(), k)
        assert b.lhs == pytest.approx(a.lhs, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_soundness_on_product_mixtures(seed):
    # fully separable states never trip the test at any k
    rng = np.random.default_rng(seed)
    parts = int(rng.integers(1, 5))
    weights = rng.random(parts)
    weights /= weights.sum()
    rho = mix(
        [(float(w), random_product_pure((2, 2, 2), rng).to_density()) for w in weights]
    )
    probe = _random_probe((2, 2, 2), rng)
    for k in (1, 2, 3):
        assert evaluate(rho, probe, k).lhs <= 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_lhs_convex_in_the_state(seed):
    # the first term is convex in rho, every subtracted term is a weighted
    # geometric mean of linear functionals and hence concave
    rng = np.random.default_rng(seed)
    rho1 = random_density((2, 2, 2), rng)
    rho2 = random_density((2, 2, 2), rng)
    lam = float(rng.uniform(0.1, 0.9))
    mixed = mix([(lam, rho1), (1.0 - lam, rho2)])
    probe = _random_probe((2, 2, 2), rng)
    for k in (2, 3):
        lhs_mix = evaluate(mixed, probe, k).lhs
        bound = lam * evaluate(rho1, probe, k).lhs + (1.0 - lam) * evaluate(rho2, probe, k).lhs
        assert lhs_mix <= bound + 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_partition_product_state_cancellation(seed):
    # a pure state that factorizes across some partition alpha: every swap
    # set of alpha leaves the diagonal pair product at first_term^2, so the
    # alpha term cancels the first term and the lhs cannot be positive
    rng = np.random.default_rng(seed)
    parts = list(enumerate_kpartitions(3, 2))
    alpha = parts[int(rng.integers(0, len(parts)))]
    blocks = alpha.blocks()
    vecs = []
    for block in blocks:
        d = 2 ** len(block)
        raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vecs.append(raw / np.linalg.norm(raw))
    rho = partition_product_pure((2, 2, 2), blocks, vecs).to_density()
    probe = _random_probe((2, 2, 2), rng)
    report = evaluate(rho, probe, k=2)
    cache: dict = {}
    term_alpha = partition_term(rho, probe, alpha, cache=cache)
    f = first_term(rho, probe)
    assert term_alpha == pytest.approx(f, rel=1e-10, abs=1e-12)
    for _i, _j, sites, _mult in swap_sets(alpha):
        a, b = cache[sites]
        assert a * b == pytest.approx(f * f, rel=1e-10, abs=1e-12)
    assert report.lhs <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_noisy_ghz_lhs_decreases_with_noise(n):
    target = ghz(n).to_density()
    probe = canonical_probe(GHZ_PAIR, (2,) * n)
    values = [evaluate(white_noise(target, p), probe, 2).lhs for p in (1.0, 0.8, 0.5, 0.2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_noisy_ghz3_matches_closed_form():
    # for the ghz-pair probe on p GHZ_3 + (1-p) I/8 the test value reduces to
    # p/2 - 3 * ((1-p)/8)^(1/2) * ((1-p)/8 + p/2)^(1/2)
    target = ghz(3).to_density()
    probe = canonical_probe(GHZ_PAIR, (2, 2, 2))
    for p in (0.0, 0.3, 0.6, 0.712403, 0.9, 1.0):
        got = evaluate(white_noise(target, p), probe, 2).lhs
        a = (1.0 - p) / 8.0
        expected = p / 2.0 - 3.0 * math.sqrt(a) * math.sqrt(a + p / 2.0)
        assert got == pytest.approx(expected, abs=1e-12)


def _three_block_partitions(n):
    """Every partition of sites 0..n-1 into three nonempty blocks, from all
    3^n labellings, independently of the package's enumerator."""
    out = set()
    for labels in itertools.product(range(3), repeat=n):
        blocks = frozenset(frozenset(s for s in range(n) if labels[s] == b) for b in range(3))
        if frozenset() not in blocks:
            out.add(blocks)
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_k2_and_k3_match_their_closed_forms(n):
    # third referee: with f(S) = W[S] W[complement of S], read from the
    # cache, merging the swap sets of a partition (the union of two blocks
    # is the complement of the rest) gives
    #   k=2: lhs = first - f(all)^(1/4) * sum over S with 0 in S, S != all, of f(S)^(1/4)
    #   k=3: lhs = first - sum over 3-block partitions of prod_i f(B_i)^(1/6)
    rng = np.random.default_rng(4200 + n)
    sites = frozenset(range(n))
    halves = [
        frozenset({0} | {s for s in range(1, n) if bits >> (s - 1) & 1})
        for bits in range(2 ** (n - 1) - 1)
    ]
    triples = _three_block_partitions(n)
    assert len(triples) == (3**n - 3 * 2**n + 3) // 6
    noisy = white_noise(ghz(n).to_density(), 0.7)
    cases = [
        (random_density((2,) * n, rng), _random_probe((2,) * n, rng)),
        (noisy, _random_probe((2,) * n, rng)),
        (noisy, canonical_probe(GHZ_PAIR, (2,) * n)),
    ]
    for rho, probe in cases:
        for k in (2, 3):
            cache: dict = {}
            report = evaluate(rho, probe, k, cache=cache)

            def f(s):
                a, b = cache[frozenset(s)]
                return a * b

            if k == 2:
                terms = [f(sites) ** 0.25 * f(s) ** 0.25 for s in halves]
            else:
                terms = [math.prod(f(b) ** (1 / 6) for b in blocks) for blocks in triples]
            expected = report.first_term - math.fsum(terms)
            assert abs(report.lhs - expected) <= 1e-12 * (report.first_term + math.fsum(terms))


# --- pure states under white noise: the ket route ------------------------------------


def _ket_cases():
    """(name, ket) pairs: GHZ (d = 2, 3), W and random kets, n <= 10."""
    rng = np.random.default_rng(2024)
    cases = [(f"ghz{n}", ghz(n)) for n in (2, 3, 5, 10)]
    cases += [(f"ghz{n}d3", ghz(n, 3)) for n in (2, 4)]
    cases += [(f"w{n}", w_state(n)) for n in (3, 6, 9)]
    for dims in [(2,) * 4, (2,) * 7, (2, 3, 4), (3, 3), (4, 2, 3, 2)]:
        cases.append(("rand" + "x".join(map(str, dims)), random_pure(dims, rng)))
    return cases


# largest |ket - dense| measured over every case, probe and p below:
# weights 2.2e-16, first terms 1.1e-16
KET_DENSE_TOL = 1e-15


@pytest.mark.parametrize("case", _ket_cases(), ids=lambda case: case[0])
def test_ket_core_matches_the_dense_core(case):
    # referee: the ket route's weights and first terms against the dense
    # contraction of the same state's matrix
    _, psi = case
    rng = np.random.default_rng(psi.dim)
    probes = [canonical_probe(GHZ_PAIR, psi.dims)] + [_random_probe(psi.dims, rng) for _ in range(6)]
    factors = _stack(probes, psi.dims)
    for p in (1.0, 0.8, 0.35, 0.0):
        state = white_noise(psi, p)
        first, weights = _weights(_interleaved([state]), factors)
        want_first, want_weights = _weights(_interleaved([state.to_density()]), factors)
        assert weights.shape == want_weights.shape == (len(probes), 2 ** len(psi.dims))
        assert np.abs(weights - want_weights).max() <= KET_DENSE_TOL, p
        assert np.abs(first - want_first).max() <= KET_DENSE_TOL, p
        assert weights.min() >= 0.0


# n <= 4, and D <= 64: the oracle's two-copy space holds D^2 <= 4096 entries
@pytest.mark.parametrize(
    "case", [c for c in _ket_cases() if c[1].site_count <= 4 and c[1].dim <= 64], ids=lambda case: case[0]
)
def test_ket_route_matches_the_oracle(case):
    # referee: evaluate on the ket against the explicit two-copy operators on
    # its matrix; with noise (p < 1) every weight is at least (1 - p) / D, so
    # the roots of the terms stay well conditioned
    _, psi = case
    rng = np.random.default_rng(psi.dim + 1)
    probes = [canonical_probe(GHZ_PAIR, psi.dims)] + [_random_probe(psi.dims, rng) for _ in range(3)]
    for p in (1.0, 0.9, 0.5):
        state = white_noise(psi, p)
        for probe in probes if p < 1.0 else probes[1:]:
            for k in range(1, psi.site_count + 1):
                fast = evaluate(state, probe, k)
                slow = oracle_evaluate(state.to_density(), probe, k)
                assert fast.lhs == pytest.approx(slow.lhs, abs=1e-10)
                assert fast.first_term == pytest.approx(slow.first_term, abs=1e-12)
                for (part_f, tf), (part_s, ts) in zip(fast.partition_terms, slow.partition_terms):
                    assert part_f == part_s
                    assert tf == pytest.approx(ts, abs=1e-10)


@pytest.mark.parametrize(
    "dims",
    [(2,), (2, 2, 2), (2,) * 5, (3, 3), (2, 3, 2), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_ket_batch_and_core_rows_match_batches_of_one(dims):
    # evaluate_batch and a (state, probe) core batch on kets: every entry is
    # the bits of its own probe and state alone
    rng = np.random.default_rng(sum(dims) * 13 + len(dims))
    psi = random_pure(dims, rng)
    states = [white_noise(psi, p) for p in (1.0, 0.6)] + [white_noise(random_pure(dims, rng), 0.9)]
    probes = [_random_probe(dims, rng) for _ in range(7)] + [canonical_probe(GHZ_PAIR, dims)]
    ks = list(range(1, len(dims) + 1))
    for state in states:
        batch = evaluate_batch(state, probes, ks)
        for i, k in enumerate(ks):
            want = [evaluate(state, probe, k).lhs for probe in probes]
            assert _bits(*batch[i]) == _bits(*want)
            assert _bits(*evaluate_batch(state, probes[2:5], [k])[0]) == _bits(*want[2:5])
        cache: dict = {}
        for part, value in evaluate(state, probes[0], len(dims)).partition_terms:
            assert _bits(partition_term(state, probes[0], part, cache)) == _bits(value)
        assert _bits(first_term(state, probes[0])) == _bits(evaluate(state, probes[0], 1).first_term)
    first, weights = _weights(_interleaved(states), _stack(probes * len(states), dims))
    for s, state in enumerate(states):
        for r, probe in enumerate(probes):
            one_first, one_weights = _weights(_interleaved([state]), _stack([probe], dims))
            row = s * len(probes) + r
            assert _bits(first[row]) == _bits(*one_first)
            assert weights[row].tobytes() == one_weights[0].tobytes()


@pytest.mark.parametrize("kind", ["dense", "ket"])
def test_evaluate_batch_chunks_keep_every_bit(kind, monkeypatch):
    dims = (2, 3, 2, 2)
    rng = np.random.default_rng(77)
    state = random_density(dims, rng) if kind == "dense" else white_noise(random_pure(dims, rng), 0.7)
    probes = [_random_probe(dims, rng) for _ in range(11)]
    ks = [1, 2, 4]
    whole = evaluate_batch(state, probes, ks)
    # 2 D^2 / d^2 = 288 entries per probe: chunks of 1, 3 and 11 probes
    for cap in (1, 3 * 288, 3 * 288 + 287, 11 * 288):
        monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", cap)
        assert evaluate_batch(state, probes, ks).tobytes() == whole.tobytes(), cap


def test_evaluate_batch_stays_within_memory_cap():
    # unchunked, 64 probes on a 9-qubit state would hold 64 x 2 x 4^8
    # complex entries (128 MiB) in the evaluation core at once
    rho = white_noise(ghz(9).to_density(), 0.8)
    probes = [_random_probe(rho.dims, np.random.default_rng(r)) for r in range(64)]
    evaluate_batch(rho, probes[:1], [2])
    tracemalloc.start()
    try:
        evaluate_batch(rho, probes, [2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_ket_core_keeps_the_factor_norms():
    # the noise part is (1 - p) / D <x_a|x_a>: with factors scaled off the
    # unit sphere, differently per copy and site, the ket route must still
    # agree with the dense contraction, which sees the norms implicitly
    rng = np.random.default_rng(5)
    for dims in [(2, 2, 2), (2, 3, 4), (3, 2)]:
        psi = random_pure(dims, rng)
        probes = [_random_probe(dims, rng) for _ in range(3)]
        factors = _stack(probes, dims)
        for f in factors.values():
            f *= rng.uniform(0.5, 2.0, size=f.shape[1:3])[None, :, :, None]
        for p in (0.8, 0.0):
            state = white_noise(psi, p)
            first, weights = _weights(_interleaved([state]), factors)
            want_first, want_weights = _weights(_interleaved([state.to_density()]), factors)
            np.testing.assert_allclose(weights, want_weights, rtol=1e-13, atol=0)
            np.testing.assert_allclose(first, want_first, rtol=1e-13, atol=0)


# --- partition terms as label rows --------------------------------------------


def _old_json_terms(pairs):
    # the report's term list as it was written from a tuple of pairs: the
    # notations of the rows rebuilt from every KPartition, then the values
    notations = _notations([part.rgs for part, _value in pairs])
    return [{"partition": s, "value": v} for s, (_part, v) in zip(notations, pairs)]


def test_partition_terms_equal_the_pair_tuple():
    # referee: for every (n, k) with n <= 8 the sequence is the tuple of
    # (KPartition, term) pairs, and every term is partition_term's
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        rho = random_density((2,) * n, rng)
        probe = _random_probe(rho.dims, rng)
        cache = {}
        for k in range(1, n + 1):
            terms = evaluate(rho, probe, k, cache=cache).partition_terms
            rows = _label_rows(n, k)
            want = tuple(zip(_partitions_of(n, k, rows), terms.values.tolist()))
            assert terms == want and want == terms, (n, k)
            assert not terms != want and not want != terms
            assert tuple(terms) == want and list(terms) == list(want)
            assert len(terms) == len(want) == stirling2(n, k)
            assert np.array_equal(terms.rows, rows) and terms.k == k
            for part, value in terms:
                assert type(part) is KPartition and type(value) is float
                got = partition_term(rho, probe, part, cache)
                assert _bits(value) == _bits(got), (n, k, part.rgs)
            for i in (0, len(want) - 1, -1, -len(want), len(want) // 2, -(len(want) // 3) - 1):
                assert terms[i] == want[i], (n, k, i)
                assert type(terms[i][1]) is float
            for bad in (len(want), -len(want) - 1):
                with pytest.raises(IndexError):
                    terms[bad]
            for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                        slice(1, 7, 2), slice(-3, None), slice(5, 2)):
                assert terms[cut] == want[cut] and want[cut] == terms[cut], (n, k, cut)
                assert type(terms[cut]) is PartitionTerms and tuple(terms[cut]) == want[cut]
            assert hash(terms) == hash(want)
            assert repr(terms) == repr(want)


def test_partition_terms_differ_where_the_tuples_do():
    rho = random_density((2, 2, 2, 2), np.random.default_rng(2))
    probe = _random_probe(rho.dims, np.random.default_rng(3))
    terms = evaluate(rho, probe, 2).partition_terms
    pairs = tuple(terms)
    moved = pairs[:1] + ((pairs[1][0], pairs[1][1] + 1.0),) + pairs[2:]
    parts, values = zip(*pairs)
    # the same values against other partitions, as a reordered oracle gives
    swapped = dataclasses.replace(evaluate(rho, probe, 2), partition_terms=tuple(zip(parts[::-1], values)))
    for other in (pairs[::-1], pairs[:-1], moved, evaluate(rho, probe, 3).partition_terms,
                  swapped.partition_terms):
        assert terms != other and other != terms
        assert not terms == other
    # a list is not a tuple, as before
    assert terms != list(pairs)


def test_partition_terms_leave_the_callers_arrays_alone():
    # writable arrays are copied, not marked read-only, so the caller's
    # arrays stay writable and writing to them changes neither the sequence
    # nor its hash; read-only arrays, as evaluate and the plan give, are kept
    rows = _label_rows(4, 2).copy()
    values = np.linspace(0.1, 0.7, len(rows))
    terms = PartitionTerms(rows, 2, values)
    assert rows.flags.writeable and values.flags.writeable
    assert not terms.rows.flags.writeable and not terms.values.flags.writeable
    pairs, before = tuple(terms), hash(terms)
    rows[0] = rows[1]
    values[0] = 9.0
    assert terms == pairs and hash(terms) == before
    with pytest.raises(ValueError):
        terms.values[0] = 9.0
    report = evaluate(white_noise(ghz(4), 0.8), canonical_probe("ghz-pair", (2,) * 4), 2)
    plan = _partition_plan(4, 2)
    assert report.partition_terms.rows is plan.rows
    assert not report.partition_terms.values.flags.writeable


def test_reports_from_pairs_and_from_evaluate_agree():
    # a report given a tuple of pairs holds the same sequence, so reports
    # built by the oracle's route and by evaluate compare equal either way
    rng = np.random.default_rng(21)
    for n in range(1, 5):
        rho = random_density((2,) * n, rng)
        probe = _random_probe(rho.dims, rng)
        for k in range(1, n + 1):
            report = evaluate(rho, probe, k)
            oracle = oracle_evaluate(rho, probe, k)
            assert [p for p, _ in oracle.partition_terms] == [p for p, _ in report.partition_terms]
            values = [t for _, t in report.partition_terms]
            built = dataclasses.replace(
                oracle,
                lhs=report.lhs,
                first_term=report.first_term,
                probe=probe,
                partition_terms=tuple(zip(enumerate_kpartitions(n, k), values)),
            )
            assert report == built and built == report, (n, k)
            assert report.partition_terms == built.partition_terms
            assert dataclasses.replace(built, lhs=math.nextafter(report.lhs, 2.0)) != report
    # hashing a report still fails at the probe's arrays, as it did
    with pytest.raises(TypeError):
        hash(report)


def test_report_json_matches_the_tuple_route():
    rng = np.random.default_rng(8)
    rho = random_density((2, 2, 3, 2), rng)
    probe = _random_probe(rho.dims, rng)
    for k in range(1, 5):
        report = evaluate(rho, probe, k)
        pairs = tuple(report.partition_terms)
        # the parts reversed against the values, as a reordered oracle does
        parts, values = zip(*pairs)
        for given in (pairs, tuple(zip(parts[::-1], values)), pairs[::-1], ()):
            built = dataclasses.replace(report, partition_terms=given)
            doc = built.to_json_dict()
            assert doc["terms"] == _old_json_terms(given)
            assert doc["terms"] == [
                {"partition": part.notation(), "value": value} for part, value in given
            ]
            assert tuple(built.partition_terms) == given
        assert report.to_json_dict() == dataclasses.replace(report, partition_terms=pairs).to_json_dict()
        assert json.dumps(report.to_json_dict()) == json.dumps(
            {**report.to_json_dict(), "terms": _old_json_terms(pairs)}
        )


def test_partition_plan_holds_only_arrays():
    # no object per partition: the (10, 5) plan is its int8 label rows, its
    # int64 masks and the exponents, within a small margin of their bytes
    tracemalloc.start()
    try:
        plan = _partition_plan.__wrapped__(10, 5)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(field) is np.ndarray for field in plan)
    assert plan.rows.dtype == np.int8 and plan.rows.shape == (42525, 10)
    assert not any(field.flags.writeable for field in plan)
    assert size < plan.rows.nbytes + plan.masks.nbytes + 256 * 2**10
    assert plan.partitions == tuple(enumerate_kpartitions(10, 5))


def test_warm_evaluate_builds_no_object_per_partition():
    rho = white_noise(ghz(10), 0.8)
    probe = _random_probe(rho.dims, np.random.default_rng(4))
    evaluate(rho, probe, 5)
    collections = []

    def record(phase, info):
        collections.append(phase)

    gc.collect()
    before = len(gc.get_objects())
    gc.callbacks.append(record)
    try:
        report = evaluate(rho, probe, 5)
    finally:
        gc.callbacks.remove(record)
    # nothing is kept per partition, and too little is made to start the
    # collector, which one object per partition would (every 700 objects)
    assert len(gc.get_objects()) - before < 200
    assert collections == []
    assert len(report.partition_terms) == 42525


def test_evaluate_batch_sizes_its_chunks_by_state_kind(monkeypatch):
    # a noisy ket at n=10 holds 2 D / d = 1024 entries per probe (more than
    # the k=2 plan's 767), so 40 probes are one core call; held densely
    # they are 20 calls of 2
    import ksep.criterion as criterion

    calls = []

    def counted(inter, factors):
        calls.append(len(next(iter(factors.values()))))
        return _weights(inter, factors)

    state = white_noise(ghz(10), 0.8)
    probes = [_random_probe(state.dims, np.random.default_rng(r)) for r in range(40)]
    monkeypatch.setattr(criterion, "_weights", counted)
    whole = evaluate_batch(state, probes, [2])
    assert calls == [40]
    calls.clear()
    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", 1)
    assert evaluate_batch(state, probes, [2]).tobytes() == whole.tobytes()
    assert calls == [1] * 40
    monkeypatch.undo()
    monkeypatch.setattr(criterion, "_weights", counted)
    calls.clear()
    evaluate_batch(state.to_density(), probes[:4], [2])
    assert calls == [2, 2]


def test_evaluate_batch_counts_the_plan_in_its_chunks(monkeypatch):
    # at n=10, k=5 a probe's gathered swap-set factors (42 525 x 15 floats)
    # outgrow a noisy ket's core, so chunks hold 3 probes; at k=2 they do not
    import ksep.criterion as criterion

    calls = []

    def counted(inter, factors):
        calls.append(len(next(iter(factors.values()))))
        return _weights(inter, factors)

    state = white_noise(ghz(10), 0.8)
    probes = [_random_probe(state.dims, np.random.default_rng(r)) for r in range(8)]
    _partition_plan(10, 5)
    monkeypatch.setattr(criterion, "_weights", counted)
    tracemalloc.start()
    try:
        whole = evaluate_batch(state, probes, [2, 5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [3, 3, 2]
    # 31.9 MB measured; 8 probes in one chunk peak at 83 MB
    assert peak < 40e6
    calls.clear()
    assert evaluate_batch(state, probes, [2]).tobytes() == whole[:1].tobytes()
    assert calls == [8]
    calls.clear()
    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", 1)
    assert evaluate_batch(state, probes, [2, 5]).tobytes() == whole.tobytes()
    assert calls == [1] * 8
