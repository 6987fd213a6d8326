"""End-to-end acceptance campaign.

Each test is one numbered criterion with its tolerance and (where stated) a
wall-clock budget, and prints a single PASS/FAIL line.  Run with ``-s`` to
see the lines while the suite is green; they are also embedded in the
assertion messages on failure.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ksep import (
    ProductProbe,
    enumerate_kpartitions,
    evaluate,
    first_term,
    ghz,
    mix,
    partition_product_pure,
    partition_term,
    random_density,
    random_product_pure,
    random_pure,
    stirling2,
    swap_sets,
    white_noise,
)
from ksep.criterion import evaluate_batch
from ksep.oracle import equivalence_campaign
from ksep.search import GHZ_PAIR, SearchConfig, canonical_probe, optimize_probe, scan_noise


def _line(num: int, slug: str, ok: bool, detail: str) -> str:
    text = f"[criterion {num:02d}] {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(text, flush=True)
    return text


def _random_probe(dims, rng) -> ProductProbe:
    def factors():
        out = []
        for d in dims:
            raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            out.append(raw / np.linalg.norm(raw))
        return tuple(out)

    return ProductProbe(factors(), factors())


def _random_probes(dims, count, rng) -> list[ProductProbe]:
    """``count`` calls of ``_random_probe`` on sites of one dimension, from
    one draw: the same normals in the same order, and the same factor bits
    (the norm is the sqrt(re.re + im.im) of ``np.linalg.norm``)."""
    assert len(set(dims)) == 1
    n, d = len(dims), dims[0]
    g = rng.standard_normal(count * 2 * n * 2 * d).reshape(count, 2, n, 2, d)
    raw = g[..., 0, :] + 1j * g[..., 1, :]
    norm = np.sqrt(np.vecdot(raw.real, raw.real) + np.vecdot(raw.imag, raw.imag))
    factors = raw / norm[..., None]
    return [ProductProbe(tuple(f[0]), tuple(f[1])) for f in factors]


def _basis_probe(dims, rng) -> ProductProbe:
    u = []
    v = []
    for d in dims:
        i1, i2 = rng.integers(0, d, size=2)
        e1 = np.zeros(d, dtype=np.complex128)
        e2 = np.zeros(d, dtype=np.complex128)
        e1[i1] = 1.0
        e2[i2] = 1.0
        u.append(e1)
        v.append(e2)
    return ProductProbe(tuple(u), tuple(v))


def _separable_mixture(n, max_components, rng):
    count = int(rng.integers(1, max_components + 1))
    weights = rng.random(count)
    weights /= weights.sum()
    dims = (2,) * n
    return mix(
        [(float(w), random_product_pure(dims, rng).to_density()) for w in weights]
    )


def test_criterion_01_oracle_equivalence():
    # fast path vs explicit two-copy operators: 500 random cases over
    # n in {2, 3} with site dimensions in {2, 3}, every k and partition,
    # agreement within 1e-10, under 60 s
    started = time.perf_counter()
    s2 = equivalence_campaign(n=2, dmax=3, trials=250, seed=20260101, threshold=1e-10)
    s3 = equivalence_campaign(n=3, dmax=3, trials=250, seed=20260102, threshold=1e-10)
    elapsed = time.perf_counter() - started
    max_term = max(s2.max_term_deviation, s3.max_term_deviation)
    max_lhs = max(s2.max_lhs_deviation, s3.max_lhs_deviation)
    ok = s2.passed and s3.passed and elapsed < 60.0
    text = _line(
        1,
        "oracle-equivalence",
        ok,
        f"500 trials, {s2.comparisons + s3.comparisons} term comparisons, "
        f"max term dev {max_term:.3e}, max lhs dev {max_lhs:.3e}, {elapsed:.1f}s",
    )
    assert ok, text


def test_criterion_02_soundness_on_separable_states():
    # 200 random fully separable mixtures (up to 20 product pure components,
    # 3 and 4 qubits), of which each faces 1000 random product probes plus an
    # optimized probe for every k in 2..n; the test value never exceeds 1e-9,
    # all within 5 minutes
    started = time.perf_counter()
    rng = np.random.default_rng(20260201)
    cfg_seed = 20260202
    worst = -math.inf
    evaluations = 0
    for case in range(200):
        n = 3 if case % 2 == 0 else 4
        rho = _separable_mixture(n, 20, rng)
        ks = range(2, n + 1)
        # one batched core call per state; every entry equals the lhs of its
        # own evaluate call bit for bit
        probes = _random_probes(rho.dims, 1000, rng)
        lhs = evaluate_batch(rho, probes, ks)
        worst = max([worst, *lhs.ravel().tolist()])
        evaluations += lhs.size
        cfg = SearchConfig(restarts=3, max_iters=50, seed=cfg_seed + case)
        for k in ks:
            worst = max(worst, optimize_probe(rho, k, cfg).lhs)
            evaluations += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 300.0
    text = _line(
        2,
        "soundness-separable",
        ok,
        f"200 states, {evaluations} evaluations, max lhs {worst:.3e}, {elapsed:.1f}s",
    )
    assert ok, text


def test_criterion_03_ghz_detection():
    # the uniform two-branch superposition on n in 2..5 qubits with its
    # natural probe pair: lhs = 1/2 within 1e-12 and a detection verdict
    results = []
    ok = True
    for n in range(2, 6):
        rho = ghz(n).to_density()
        probe = canonical_probe(GHZ_PAIR, (2,) * n)
        report = evaluate(rho, probe, k=2)
        results.append((n, report.lhs, report.verdict))
        ok = ok and abs(report.lhs - 0.5) <= 1e-12 and report.detected
    detail = ", ".join(f"n={n}: lhs={lhs:.15f} {verdict}" for n, lhs, verdict in results)
    text = _line(3, "ghz-detection", ok, detail)
    assert ok, text


def test_criterion_04_single_block_cauchy_schwarz():
    # k = 1 reduces to |<phi1|rho|phi2>| <= sqrt(<phi1|rho|phi1><phi2|rho|phi2>),
    # so no state of any kind may exceed 1e-12 over 1000 random cases
    rng = np.random.default_rng(20260401)
    worst = -math.inf
    for case in range(1000):
        n = 2 + case % 2
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        kind = case % 3
        if kind == 0:
            rho = random_density(dims, rng)
        elif kind == 1:
            rho = random_pure(dims, rng).to_density()
        else:
            count = int(rng.integers(1, 4))
            weights = rng.random(count)
            weights /= weights.sum()
            rho = mix(
                [(float(w), random_product_pure(dims, rng).to_density()) for w in weights]
            )
        probe = _basis_probe(dims, rng) if case % 7 == 0 else _random_probe(dims, rng)
        worst = max(worst, evaluate(rho, probe, k=1).lhs)
    ok = worst <= 1e-12
    text = _line(4, "single-block-cauchy-schwarz", ok, f"1000 cases, max lhs {worst:.3e}")
    assert ok, text


def test_criterion_05_convexity_in_the_state():
    # mixing two states never increases the test value beyond the mixture of
    # the individual values: 200 cases, slack 1e-10
    rng = np.random.default_rng(20260501)
    worst = -math.inf
    for case in range(200):
        lam = float(rng.uniform(0.1, 0.9))
        dims = (2, 2, 2)
        draw = case % 2
        rho1 = random_density(dims, rng) if draw == 0 else _separable_mixture(3, 5, rng)
        rho2 = random_density(dims, rng)
        mixed = mix([(lam, rho1), (1.0 - lam, rho2)])
        probe = _random_probe(dims, rng)
        for k in (2, 3):
            gap = evaluate(mixed, probe, k).lhs - (
                lam * evaluate(rho1, probe, k).lhs
                + (1.0 - lam) * evaluate(rho2, probe, k).lhs
            )
            worst = max(worst, gap)
    ok = worst <= 1e-10
    text = _line(5, "state-convexity", ok, f"200 cases, max convexity gap {worst:.3e}")
    assert ok, text


def test_criterion_06_pure_product_cancellation():
    # for a pure state that factorizes across a partition alpha, every swap
    # set of alpha keeps the product of the two diagonal weights equal to
    # the squared first term, so the alpha term cancels the first term and
    # the test value stays at or below 1e-10: 200 cases
    rng = np.random.default_rng(20260601)
    worst_pair = -math.inf
    worst_term = -math.inf
    worst_lhs = -math.inf
    for case in range(200):
        n = 3 if case % 2 == 0 else 4
        k = 2 + case % 2 if n == 4 else 2
        parts = list(enumerate_kpartitions(n, k))
        alpha = parts[int(rng.integers(0, len(parts)))]
        blocks = alpha.blocks()
        vecs = []
        for block in blocks:
            d = 2 ** len(block)
            raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(raw / np.linalg.norm(raw))
        rho = partition_product_pure((2,) * n, blocks, vecs).to_density()
        probe = _random_probe((2,) * n, rng)
        f = first_term(rho, probe)
        cache: dict = {}
        term = partition_term(rho, probe, alpha, cache=cache)
        worst_term = max(worst_term, abs(term - f))
        for _i, _j, sites, _mult in swap_sets(alpha):
            a, b = cache[sites]
            worst_pair = max(worst_pair, abs(a * b - f * f))
        worst_lhs = max(worst_lhs, evaluate(rho, probe, k).lhs)
    ok = worst_term <= 1e-10 and worst_pair <= 1e-10 and worst_lhs <= 1e-10
    text = _line(
        6,
        "pure-product-cancellation",
        ok,
        f"200 cases, max |term - first| {worst_term:.3e}, "
        f"max pair-product defect {worst_pair:.3e}, max lhs {worst_lhs:.3e}",
    )
    assert ok, text


def _all_partitions_brute(n):
    """Every set partition of range(n), grown item by item.

    Independent of the package's enumerator: item m either joins an existing
    block or opens a new one.  Blocks stay ordered by first element, so the
    per-site label string is already canonical.
    """
    parts = [[[0]]]
    for m in range(1, n):
        grown = []
        for p in parts:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(m)
                grown.append(q)
            grown.append([list(b) for b in p] + [[m]])
        parts = grown
    return parts


def test_criterion_07_partition_enumeration_matches_brute_force():
    # the lexicographic enumerator agrees with an independent set-partition
    # construction for every n <= 10 and k, and the tabulated counts hit the
    # standard spot values
    started = time.perf_counter()
    ok = stirling2(3, 2) == 3 and stirling2(4, 2) == 7
    ok = ok and stirling2(4, 3) == 6 and stirling2(5, 2) == 15
    checked = 0
    for n in range(1, 11):
        by_k: dict[int, set] = {}
        for p in _all_partitions_brute(n):
            rgs = [0] * n
            for label, block in enumerate(p):
                for site in block:
                    rgs[site] = label
            by_k.setdefault(len(p), set()).add(tuple(rgs))
        for k in range(1, n + 1):
            mine = set(part.rgs for part in enumerate_kpartitions(n, k))
            brute = by_k.get(k, set())
            ok = ok and mine == brute and len(mine) == stirling2(n, k)
            checked += len(mine)
    elapsed = time.perf_counter() - started
    text = _line(
        7,
        "partition-enumeration",
        ok,
        f"n <= 10, {checked} partitions cross-checked, {elapsed:.1f}s",
    )
    assert ok, text


def test_criterion_08_noise_threshold_scan():
    # the bisected white-noise threshold of the 3-qubit uniform-superposition
    # family at k = 2 agrees with an independent dense sweep to 1e-3 and is
    # reproducible run to run
    started = time.perf_counter()
    target = ghz(3).to_density()
    cfg = SearchConfig(restarts=2, max_iters=40, seed=3)
    scan_a = scan_noise(target, 2, 1e-3, cfg)
    scan_b = scan_noise(target, 2, 1e-3, cfg)
    reproducible = (
        scan_a.p_star == scan_b.p_star
        and scan_a.bracket == scan_b.bracket
        and [(e.p, e.lhs) for e in scan_a.trace] == [(e.p, e.lhs) for e in scan_b.trace]
    )

    def detected(p):
        return optimize_probe(white_noise(target, p), 2, cfg).detected

    flags = [detected(i / 16) for i in range(17)]
    first_hit = flags.index(True)
    lo = (first_hit - 1) / 16
    hi = first_hit / 16
    p_dense = hi
    steps = math.ceil((hi - lo) / 1e-3)
    for j in range(1, steps + 1):
        p = min(lo + j * 1e-3, hi)
        if detected(p):
            p_dense = p
            break
    gap = abs(p_dense - scan_a.p_star)
    elapsed = time.perf_counter() - started
    ok = reproducible and gap <= 1e-3
    text = _line(
        8,
        "noise-threshold-scan",
        ok,
        f"bisect p*={scan_a.p_star:.6f}, dense p*={p_dense:.6f}, gap {gap:.2e}, "
        f"reproducible={reproducible}, {elapsed:.1f}s",
    )
    assert ok, text


def test_criterion_09_parallel_bit_equality():
    # ten qubits, k = 2 (511 partitions): the ghz-pair probe on p GHZ_10 +
    # (1-p) I/2^10 gives p/2 - (2^9 - 1) sqrt(a (p/2 + a)), a = (1-p)/2^10,
    # within 1e-12; a random probe gives the same floats run to run and with
    # a shared or a fresh cache
    started = time.perf_counter()
    n, p = 10, 0.8
    rho = white_noise(ghz(n).to_density(), p)
    a = (1.0 - p) / 2**n
    expected = p / 2.0 - (2 ** (n - 1) - 1) * math.sqrt(a * (p / 2.0 + a))
    ghz_report = evaluate(rho, canonical_probe(GHZ_PAIR, (2,) * n), 2)
    gap = abs(ghz_report.lhs - expected)
    closed_ok = gap <= 1e-12

    rng = np.random.default_rng(20260901)
    probe = _random_probe((2,) * n, rng)
    fresh = evaluate(rho, probe, 2)
    again = evaluate(rho, probe, 2)
    shared: dict = {}
    evaluate(rho, probe, 3, cache=shared)
    cached = evaluate(rho, probe, 2, cache=shared)
    eval_ok = all(
        r.lhs == fresh.lhs
        and r.first_term == fresh.first_term
        and [t for _, t in r.partition_terms] == [t for _, t in fresh.partition_terms]
        for r in (again, cached)
    )
    elapsed = time.perf_counter() - started
    ok = closed_ok and eval_ok
    text = _line(
        9,
        "bit-equality",
        ok,
        f"n=10 ghz-pair closed-form gap {gap:.2e}, random probe identical "
        f"run to run and across caches={eval_ok}, "
        f"{len(ghz_report.partition_terms)} partitions, {elapsed:.1f}s",
    )
    assert ok, text
