from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksep import (
    GuardError,
    KPartition,
    ParameterError,
    enumerate_kpartitions,
    stirling2,
    swap_sets,
)
from ksep.criterion import _partition_plan
from ksep.partitions import _label_rows, _notations


def _brute_force_partitions(n, k):
    """All ways to split range(n) into k nonempty unordered blocks.

    Independent of the library's generator: assigns a block label to every
    site, keeps surjective label maps in canonical (restricted-growth) form.
    """
    out = []
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        seen = {}
        canon = []
        for lab in labels:
            if lab not in seen:
                seen[lab] = len(seen)
            canon.append(seen[lab])
        if tuple(canon) == labels:
            out.append(labels)
    return out


def test_spot_counts():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(4, 3) == 6
    assert stirling2(5, 2) == 15


def test_stirling_boundaries():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 3) == 0
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0


def test_stirling_recurrence():
    # S(n, k) = k S(n-1, k) + S(n-1, k-1)
    for n in range(2, 12):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4)])
def test_enumeration_matches_brute_force(n, k):
    got = [p.rgs for p in enumerate_kpartitions(n, k)]
    expected = _brute_force_partitions(n, k)
    assert sorted(got) == sorted(expected)
    assert len(got) == stirling2(n, k)


def test_enumeration_is_lexicographic():
    notations = [p.notation() for p in enumerate_kpartitions(3, 2)]
    assert notations == ["0,1|2", "0,2|1", "0|1,2"]
    rgs = [p.rgs for p in enumerate_kpartitions(4, 2)]
    assert rgs == sorted(rgs)
    assert len(rgs) == len(set(rgs)) == 7


def test_enumeration_count_n10():
    assert sum(1 for _ in enumerate_kpartitions(10, 2)) == stirling2(10, 2) == 511


def test_enumeration_guard_raises_when_called():
    # S(12, 6) = 1 323 652 is past the guard: refused at the call, before
    # any row or partition is built
    for call in (_label_rows, enumerate_kpartitions):
        started = time.perf_counter()
        with pytest.raises(GuardError, match="1323652 partitions of 12 sites into 6 blocks"):
            call(12, 6)
        assert time.perf_counter() - started < 1.0


def test_label_rows_are_the_enumerated_strings():
    rows = _label_rows(10, 5)
    assert rows.dtype == np.int8 and rows.shape == (42525, 10)
    assert [tuple(row) for row in rows.tolist()] == [p.rgs for p in enumerate_kpartitions(10, 5)]


@pytest.mark.parametrize("n,k", [(129, 128), (130, 129)])
def test_enumeration_past_int8_labels(n, k):
    # label 127 is the last an int8 holds; S(n, n-1) = C(n, 2)
    assert _label_rows(n, k).dtype == (np.int8 if k <= 128 else np.int16)
    rgs = [p.rgs for p in enumerate_kpartitions(n, k)]
    assert len(rgs) == len(set(rgs)) == math.comb(n, 2)
    assert rgs == sorted(rgs)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        enumerate_kpartitions(0, 1)
    with pytest.raises(ParameterError):
        enumerate_kpartitions(3, 0)
    with pytest.raises(ParameterError):
        enumerate_kpartitions(3, 4)


def test_kpartition_validates_rgs():
    KPartition(3, 2, (0, 0, 1))  # fine
    with pytest.raises(ParameterError):
        KPartition(3, 2, (0, 1, 2))  # wrong block count
    with pytest.raises(ParameterError):
        KPartition(3, 2, (1, 0, 0))  # not restricted-growth
    with pytest.raises(ParameterError):
        KPartition(3, 2, (0, 2, 1))  # skips a label
    with pytest.raises(ParameterError):
        KPartition(2, 2, (0, 0, 1))  # length mismatch


def test_blocks_first_occurrence_order():
    part = KPartition(5, 3, (0, 1, 0, 2, 1))
    assert part.blocks() == [(0, 2), (1, 4), (3,)]


def test_notation_roundtrip_through_from_blocks():
    part = KPartition(5, 3, (0, 1, 0, 2, 1))
    # block order is irrelevant; the canonical relabeling restores it
    rebuilt = KPartition.from_blocks([(3,), (1, 4), (0, 2)])
    assert rebuilt == part
    assert rebuilt.notation() == "0,2|1,4|3"


def _reference_notation(row, names):
    """Blocks in order of first use, sites ascending, written out by hand;
    ``names[site]`` is the site's decimal name."""
    blocks: dict[int, list[str]] = {}
    for name, label in zip(names, row):
        blocks.setdefault(label, []).append(name)
    return "|".join(",".join(block) for block in blocks.values())


# every 1 <= k <= n <= 9, and two-digit site names at n = 12, 15, 20
NOTATION_CASES = [(n, k) for n in range(1, 10) for k in range(1, n + 1)] + [
    (n, k) for n in (12, 15, 20) for k in (1, 2, n - 1)
]


@pytest.mark.parametrize("n,k", NOTATION_CASES)
def test_bulk_notations_match_a_reference(n, k):
    labels = _label_rows(n, k)
    rows = labels.tolist()
    names = [str(site) for site in range(n)]
    want = [_reference_notation(row, names) for row in rows]
    assert _notations(labels) == want
    # one row at a time, through the public method, on up to ~200 rows
    step = max(1, len(rows) // 200)
    assert [KPartition(n, k, row).notation() for row in rows[::step]] == want[::step]


@pytest.mark.parametrize("n", range(1, 9))
def test_trusted_partitions_equal_validated_ones(n):
    for k in range(1, n + 1):
        want = [KPartition(n, k, row) for row in _label_rows(n, k).tolist()]
        for got in (_partition_plan(n, k).partitions, list(enumerate_kpartitions(n, k))):
            assert list(got) == want
            assert [hash(part) for part in got] == [hash(part) for part in want]
            assert all(type(part.rgs) is tuple for part in got)
            assert all(type(label) is int for part in got for label in part.rgs)
            assert json.dumps([part.rgs for part in got]) == json.dumps([part.rgs for part in want])


def test_from_blocks_rejects_bad_covers():
    with pytest.raises(ParameterError):
        KPartition.from_blocks([(0,), (2,)])  # skips site 1
    with pytest.raises(ParameterError):
        KPartition.from_blocks([(0, 1), (1, 2)])  # overlap
    with pytest.raises(ParameterError):
        KPartition.from_blocks([(0, 1), ()])  # empty block


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_rgs_properties(n, data):
    k = data.draw(st.integers(1, n))
    parts = list(enumerate_kpartitions(n, k))
    assert len(parts) == stirling2(n, k)
    assert len(set(parts)) == len(parts)
    for part in parts:
        assert part.rgs[0] == 0
        running_max = 0
        for value in part.rgs[1:]:
            assert value <= running_max + 1
            running_max = max(running_max, value)
        blocks = part.blocks()
        assert len(blocks) == k
        assert sorted(site for block in blocks for site in block) == list(range(n))


@given(st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_swap_sets_structure(n, data):
    k = data.draw(st.integers(1, n))
    part = data.draw(st.sampled_from(list(enumerate_kpartitions(n, k))))
    sets = swap_sets(part)
    # one entry per ordered-unordered block pair: k diagonal + C(k,2) merged
    assert len(sets) == k + k * (k - 1) // 2
    assert sum(mult for _, _, _, mult in sets) == k * k
    blocks = part.blocks()
    for i, j, sites, mult in sets:
        assert i <= j
        expected = set(blocks[i]) | set(blocks[j])
        assert sites == frozenset(expected)
        assert mult == (1 if i == j else 2)


def test_swap_sets_singleton_partition():
    # k = 1 has a single diagonal entry covering every site
    part = KPartition(4, 1, (0, 0, 0, 0))
    sets = swap_sets(part)
    assert len(sets) == 1
    i, j, sites, mult = sets[0]
    assert (i, j, mult) == (0, 0, 1)
    assert sites == frozenset(range(4))


def test_swap_sets_explicit_three_party():
    part = KPartition(3, 2, (0, 0, 1))  # 0,1 | 2
    entries = {(i, j): (sites, mult) for i, j, sites, mult in swap_sets(part)}
    assert entries[(0, 0)] == (frozenset({0, 1}), 1)
    assert entries[(1, 1)] == (frozenset({2}), 1)
    assert entries[(0, 1)] == (frozenset({0, 1, 2}), 2)
