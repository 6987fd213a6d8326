from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from ksep import (
    GuardError,
    NoisyPureState,
    ParameterError,
    ProductProbe,
    enumerate_kpartitions,
    evaluate,
    ghz,
    maximally_mixed,
    partition_product_pure,
    random_density,
    random_product_pure,
    random_pure,
    w_state,
    white_noise,
)
from ksep import search
from ksep.criterion import _partition_plan, _probe_at, _slots, _stack
from ksep.search import (
    BASIS_PAIR,
    GHZ_PAIR,
    RANDOM,
    NoiseScanResult,
    ScanEvaluation,
    SearchConfig,
    _climb,
    _kicks,
    _perturbed,
    canonical_probe,
    optimize_probe,
    scan_noise,
)

FAST = SearchConfig(restarts=3, max_iters=60, seed=7)


# --- configuration ---------------------------------------------------------------


def test_search_config_defaults_and_json():
    cfg = SearchConfig()
    assert cfg.restarts == 32
    assert cfg.max_iters == 500
    doc = cfg.to_json_dict()
    assert doc == {
        "restarts": 32,
        "max_iters": 500,
        "step_init": 0.3,
        "step_decay": 0.97,
        "seed": 1,
        "convergence_eps": 1e-10,
    }


@pytest.mark.parametrize(
    "kwargs",
    [
        {"restarts": 0},
        {"max_iters": 0},
        {"step_init": 0.0},
        {"step_init": -1.0},
        {"step_decay": 0.0},
        {"step_decay": 1.0},
        {"seed": -1},
        {"convergence_eps": 0.0},
        {"step_init": math.inf},
        {"convergence_eps": math.inf},
    ],
)
def test_search_config_validation(kwargs):
    with pytest.raises(ParameterError):
        SearchConfig(**kwargs)


# --- canonical probes --------------------------------------------------------------


def test_ghz_pair_probe():
    probe = canonical_probe(GHZ_PAIR, (2, 3, 2))
    for f, d in zip(probe.u, (2, 3, 2)):
        assert f[0] == 1.0 and np.count_nonzero(f) == 1
    for f, d in zip(probe.v, (2, 3, 2)):
        assert f[d - 1] == 1.0 and np.count_nonzero(f) == 1


def test_basis_pair_probe():
    probe = canonical_probe(BASIS_PAIR, (3, 3), indices=(1, 2))
    assert all(f[1] == 1.0 for f in probe.u)
    assert all(f[2] == 1.0 for f in probe.v)
    with pytest.raises(ParameterError):
        canonical_probe(BASIS_PAIR, (2, 2), indices=(0, 2))
    with pytest.raises(ParameterError):
        canonical_probe(BASIS_PAIR, (2, 2), indices=(-1, 0))


def test_random_probe_needs_generator():
    with pytest.raises(ParameterError):
        canonical_probe(RANDOM, (2, 2))
    probe = canonical_probe(RANDOM, (2, 2), rng=np.random.default_rng(3))
    again = canonical_probe(RANDOM, (2, 2), rng=np.random.default_rng(3))
    for a, b in zip(probe.u + probe.v, again.u + again.v):
        assert np.array_equal(a, b)


def test_unknown_style_and_bad_dims():
    with pytest.raises(ParameterError):
        canonical_probe("made-up", (2, 2))
    with pytest.raises(ParameterError):
        canonical_probe(GHZ_PAIR, (1, 2))
    with pytest.raises(ParameterError):
        canonical_probe(GHZ_PAIR, ())


# --- climbing internals ---------------------------------------------------------------


def _per_site(factors, dims):
    """Per site the (R, 2, d) factors of a probe stack."""
    return [factors[d][:, :, j] for d, j in _slots(dims)]


def test_perturbed_keeps_unit_norm():
    rng = np.random.default_rng(4)
    dims = (2, 3, 4)
    factors = _stack([canonical_probe(GHZ_PAIR, dims)], dims)
    for step in (1e-6, 0.3, 10.0):
        out = _per_site(_perturbed(factors, step, _kicks([rng], 1, dims)[:, 0], dims), dims)
        assert len(out) == 3
        for site in out:
            for f in site.reshape(-1, site.shape[-1]):
                assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_zero_step_is_identity():
    rng = np.random.default_rng(5)
    dims = (2, 2)
    factors = _stack([canonical_probe(GHZ_PAIR, dims)], dims)
    out = _perturbed(factors, 0.0, _kicks([rng], 1, dims)[:, 0], dims)
    for a, b in zip(_per_site(out, dims), _per_site(factors, dims)):
        np.testing.assert_allclose(a, b, atol=0)


def test_climb_history_never_decreases():
    rho = white_noise(ghz(3).to_density(), 0.85)
    plan = _partition_plan(3, 2)
    rng = np.random.default_rng(6)
    probe = canonical_probe(RANDOM, (2, 2, 2), rng=rng)
    history: list = []
    cfg = SearchConfig(restarts=1, max_iters=80, seed=1)
    best, factors = _climb(rho, plan, [probe], [rng], cfg, history=history)
    history = [h[0] for h in history]
    best = best[0]
    assert history[-1] == best
    assert all(b >= a for a, b in zip(history, history[1:]))
    # the returned factors reproduce the reported value
    report = evaluate(rho, _probe_at(factors, (2, 2, 2), 0), 2)
    assert report.lhs == best


def test_climb_stops_when_step_collapses():
    rho = maximally_mixed((2, 2))
    plan = _partition_plan(2, 2)
    rng = np.random.default_rng(7)
    probe = canonical_probe(GHZ_PAIR, (2, 2))
    history: list = []
    # step_init 1e-4 decays below eps 1e-5 after ~76 iterations
    cfg = SearchConfig(max_iters=10_000, step_init=1e-4, convergence_eps=1e-5, seed=1)
    _climb(rho, plan, [probe], [rng], cfg, history=history)
    spent = len(history) - 1
    expected = math.ceil(math.log(1e-5 / 1e-4) / math.log(cfg.step_decay))
    assert spent == expected


# --- referee: the serial climb that the lockstep climb replaced ---------------------


def _serial_perturbed(factors, step, rng):
    out = []
    for f in factors:
        g = rng.standard_normal((2, f.shape[0]))
        cand = f + step * (g[0] + 1j * g[1])
        norm = float(np.linalg.norm(cand))
        out.append(f if norm == 0.0 else cand / norm)
    return out


def _serial_climb(rho, k, u0, v0, rng, cfg):
    u = list(u0)
    v = list(v0)
    best = evaluate(rho, ProductProbe(tuple(u), tuple(v)), k).lhs
    step = cfg.step_init
    for _ in range(cfg.max_iters):
        if step < cfg.convergence_eps:
            break
        cand_u = _serial_perturbed(u, step, rng)
        cand_v = _serial_perturbed(v, step, rng)
        value = evaluate(rho, ProductProbe(tuple(cand_u), tuple(cand_v)), k).lhs
        if value > best:
            best = value
            u = cand_u
            v = cand_v
        step *= cfg.step_decay
    return best, u, v


def _serial_restarts(rho, k, cfg):
    """(best lhs, u, v) of each restart climbed alone, one after the other."""
    results = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed ^ r)
        if r == 0:
            probe = canonical_probe(GHZ_PAIR, rho.dims)
        elif r == 1:
            probe = canonical_probe(BASIS_PAIR, rho.dims, indices=(0, 0))
        else:
            probe = canonical_probe(RANDOM, rho.dims, rng=rng)
        results.append(_serial_climb(rho, k, probe.u, probe.v, rng, cfg))
    return results


@pytest.mark.parametrize(
    "dims",
    [(2, 2), (2, 2, 2), (2, 2, 2, 2), (2,) * 5, (3, 3, 3), (4, 4), (2, 3, 2), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_lockstep_climb_matches_serial_route(dims, monkeypatch):
    rho = random_density(dims, np.random.default_rng(len(dims) + sum(dims)))
    # the default cap, then one restart per batch
    caps = (search.MAX_BATCH_ENTRIES, 1)
    for k in range(1, len(dims) + 1):
        for seed in (0, 3, 10):
            serial = _serial_restarts(rho, k, SearchConfig(restarts=5, max_iters=12, seed=seed))
            for restarts in (1, 2, 3, 5):
                # first strictly greater value over the first `restarts` climbs
                value, u, v = serial[0]
                for cand in serial[1:restarts]:
                    if cand[0] > value:
                        value, u, v = cand
                cfg = SearchConfig(restarts=restarts, max_iters=12, seed=seed)
                for cap in caps:
                    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", cap)
                    report = optimize_probe(rho, k, cfg)
                    case = (dims, k, seed, restarts, cap)
                    assert report.lhs == value, case
                    for got, want in zip(report.probe.u + report.probe.v, u + v):
                        assert got.tobytes() == want.tobytes(), case


def test_lockstep_restarts_stay_within_memory_cap():
    # unbatched, 32 restarts on a 10-qubit state would hold 32 x 2 x 4^9
    # complex entries (256 MiB) in the evaluation core at once
    rho = white_noise(ghz(10).to_density(), 0.8)
    _partition_plan(10, 2)
    tracemalloc.start()
    try:
        optimize_probe(rho, 2, SearchConfig(restarts=32, max_iters=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# --- referee: the serial scan that the batched grid replaced --------------------------


def _serial_scan(target, k, resolution, cfg, tolerance):
    """The scan of one optimize_probe per noise level, one level after the other."""
    trace = []

    def run(p, phase):
        report = optimize_probe(white_noise(target, p), k, cfg, tolerance)
        trace.append(ScanEvaluation(phase, p, report.lhs, report.detected))
        return report

    def result(p_star, bracket, probe, fallback=False):
        return NoiseScanResult(p_star, bracket, fallback, len(trace), probe, tuple(trace))

    grid = [run(i / 16, "grid") for i in range(17)]
    flags = [report.detected for report in grid]
    if not any(flags):
        return result(1.0, (1.0, 1.0), grid[-1].probe)
    first_hit = flags.index(True)
    if not all(flags[first_hit:]):
        dense = [min(i * resolution, 1.0) for i in range(math.ceil(1.0 / resolution) + 1)]
        if dense[-1] != 1.0:
            dense.append(1.0)
        for p in dense:
            report = run(p, "dense")
            if report.detected:
                return result(p, (max(p - resolution, 0.0), p), report.probe, True)
        return result(1.0, (1.0, 1.0), report.probe, True)
    if first_hit == 0:
        return result(0.0, (0.0, 0.0), grid[0].probe)
    lo, hi = (first_hit - 1) / 16, first_hit / 16
    probe = grid[first_hit].probe
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        report = run(mid, "bisect")
        if report.detected:
            hi, probe = mid, report.probe
        else:
            lo = mid
    return result(hi, (lo, hi), probe)


def _scan_target(name):
    if name.startswith("ghz"):
        return ghz(int(name[3:])).to_density()
    if name == "w3":
        return w_state(3).to_density()
    dims = {"rand3x3": (3, 3), "rand2x3x2": (2, 3, 2)}[name]
    return random_density(dims, np.random.default_rng(sum(dims)))


# (target, k, restarts, tolerance): monotone bisection, never detected (the
# full-rank random states), detected at p = 0 (tolerance -1) and a grid on
# which detection flickers (W_3 at k = 3), so a dense sweep takes over
SCAN_CASES = [
    ("ghz2", 2, 1, 1e-9),
    ("ghz3", 2, 2, 1e-9),
    ("ghz3", 3, 3, 1e-9),
    ("ghz4", 2, 3, 1e-9),
    ("ghz4", 3, 1, 1e-9),
    ("w3", 2, 2, 1e-9),
    ("w3", 3, 1, 1e-9),
    ("rand3x3", 2, 3, 1e-9),
    ("rand2x3x2", 2, 2, 1e-9),
    ("rand2x3x2", 3, 1, 1e-9),
    ("ghz3", 2, 1, -1.0),
    ("rand3x3", 2, 2, -1.0),
    ("rand2x3x2", 3, 3, -1.0),
]


@pytest.mark.parametrize("case", SCAN_CASES, ids=lambda c: f"{c[0]}-k{c[1]}-r{c[2]}-tol{c[3]:g}")
def test_grid_batch_matches_serial_scan(case, monkeypatch):
    name, k, restarts, tolerance = case
    target = _scan_target(name)
    cfg = SearchConfig(restarts=restarts, max_iters=15, seed=3 * restarts + k)
    want = json.dumps(_serial_scan(target, k, 1e-2, cfg, tolerance).to_json_dict(include_trace=True))
    # the default cap batches all 17 grid levels, a cap of 1 one level per batch
    for cap in (search.MAX_BATCH_ENTRIES, 1):
        monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", cap)
        got = scan_noise(target, k, 1e-2, cfg, tolerance).to_json_dict(include_trace=True)
        assert json.dumps(got) == want, (case, cap)


def test_grid_batch_cases_cover_every_branch():
    branches = set()
    for name, k, restarts, tolerance in SCAN_CASES:
        cfg = SearchConfig(restarts=restarts, max_iters=15, seed=3 * restarts + k)
        result = scan_noise(_scan_target(name), k, 1e-2, cfg, tolerance)
        phases = {e.phase for e in result.trace}
        if "bisect" in phases:
            branches.add("bisect")
        elif "dense" in phases:
            branches.add("dense")
        elif result.p_star == 0.0:
            branches.add("detected at 0")
        elif result.p_star == 1.0 and not any(e.detected for e in result.trace):
            branches.add("never detected")
    assert branches == {"bisect", "dense", "detected at 0", "never detected"}


def test_grid_levels_stay_within_memory_cap():
    # 17 noisy 10-qubit levels held at once would take 17 x 2 x 16 MiB
    # (matrix and interleaved copy, 544 MiB); the grid builds one per batch
    target = ghz(10).to_density()
    _partition_plan(10, 2)
    cfg = SearchConfig(restarts=2, max_iters=1)
    tracemalloc.start()
    try:
        levels = (white_noise(target, i / 16) for i in range(17))
        reports = search._search_levels(target.dims, levels, 2, cfg, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 17
    assert peak < 100 * 2**20
    # about 4 matrices: one level's state and its build or climb temporaries;
    # a batch kept alive while the next one builds adds 2 more
    assert peak < 5 * target.mat.nbytes


# --- probe search -------------------------------------------------------------------


def test_optimize_probe_finds_ghz_violation():
    report = optimize_probe(ghz(3).to_density(), 2, FAST)
    assert report.detected
    # the ghz-pair start is already optimal here
    assert report.lhs == pytest.approx(0.5, abs=1e-12)


def test_optimize_probe_on_separable_state_stays_nonpositive():
    report = optimize_probe(maximally_mixed((2, 2, 2)), 2, FAST)
    assert not report.detected
    assert report.lhs <= 1e-9


def test_optimize_probe_detects_w_state():
    # the single-excitation state needs superposition probes, so this
    # exercises the random restarts rather than the deterministic ones
    report = optimize_probe(w_state(3).to_density(), 2, SearchConfig(restarts=8, max_iters=300, seed=11))
    assert report.detected
    assert report.lhs > 0.01


def test_optimize_probe_is_deterministic():
    rho = white_noise(ghz(3).to_density(), 0.9)
    a = optimize_probe(rho, 2, FAST)
    b = optimize_probe(rho, 2, FAST)
    assert a.lhs == b.lhs
    for fa, fb in zip(a.probe.u + a.probe.v, b.probe.u + b.probe.v):
        assert np.array_equal(fa, fb)


def test_optimize_probe_thread_count_is_invisible():
    # the result does not depend on whether the partition plan was cached
    rho = white_noise(ghz(3).to_density(), 0.9)
    _partition_plan.cache_clear()
    cold = optimize_probe(rho, 2, FAST)
    warm = optimize_probe(rho, 2, FAST)
    assert cold.lhs == warm.lhs
    for fa, fb in zip(cold.probe.u + cold.probe.v, warm.probe.u + warm.probe.v):
        assert np.array_equal(fa, fb)


def test_optimize_probe_k_bounds():
    with pytest.raises(ParameterError):
        optimize_probe(ghz(3).to_density(), 0, FAST)
    with pytest.raises(ParameterError):
        optimize_probe(ghz(3).to_density(), 4, FAST)


# --- noise scans ---------------------------------------------------------------------


def test_scan_validation():
    with pytest.raises(ParameterError):
        scan_noise(ghz(2).to_density(), 2, 0.0, FAST)
    with pytest.raises(ParameterError):
        scan_noise(ghz(2).to_density(), 3, 0.1, FAST)


def test_scan_bad_k_fails_before_any_search(monkeypatch):
    import ksep.search as search_mod

    def no_search(*args, **kwargs):
        raise AssertionError("no search may run for a bad k")

    monkeypatch.setattr(search_mod, "_search_levels", no_search)
    for bad in (0, 3):
        with pytest.raises(ParameterError):
            search_mod.scan_noise(ghz(2).to_density(), bad, 0.1, FAST)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_or_resolution_fails_before_any_work(monkeypatch, bad):
    import ksep.criterion

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ksep.criterion, "_partition_plan", no_work)
    monkeypatch.setattr(search, "_search_levels", no_work)
    rho = ghz(2).to_density()
    calls = [
        lambda: evaluate(rho, canonical_probe(GHZ_PAIR, rho.dims), 2, bad),
        lambda: optimize_probe(rho, 2, FAST, bad),
        lambda: scan_noise(rho, 2, 0.1, FAST, bad),
    ]
    if bad > 0:
        calls.append(lambda: scan_noise(rho, 2, bad, FAST))
    for call in calls:
        with pytest.raises(ParameterError, match="finite"):
            call()


def test_scan_never_detected_reports_top():
    result = scan_noise(maximally_mixed((2, 2)), 2, 0.25, FAST)
    assert result.p_star == 1.0
    assert result.bracket == (1.0, 1.0)
    assert not result.grid_fallback
    assert result.evaluations == 17  # the coarse grid only
    assert all(e.phase == "grid" for e in result.trace)
    assert not any(e.detected for e in result.trace)


def test_scan_ghz2_threshold():
    # ghz-pair probe on p * Bell + (1-p) I/4 gives p/2 - sqrt(1-p^2)/4,
    # positive exactly for p > 1/sqrt(5)
    cfg = SearchConfig(restarts=2, max_iters=40, seed=3)
    result = scan_noise(ghz(2).to_density(), 2, 1e-3, cfg)
    assert not result.grid_fallback
    lo, hi = result.bracket
    assert hi - lo <= 1e-3
    assert result.p_star == hi
    assert abs(result.p_star - 1 / math.sqrt(5)) <= 2e-3
    assert result.evaluations == len(result.trace)
    phases = {e.phase for e in result.trace}
    assert phases == {"grid", "bisect"}
    # scanning is reproducible run to run
    again = scan_noise(ghz(2).to_density(), 2, 1e-3, cfg)
    assert again.p_star == result.p_star
    assert again.bracket == result.bracket


def test_scan_at_k1_never_detects():
    # the k = 1 test value is nonpositive for every state, so the scan runs
    # the whole grid and reports the never-detected sentinel
    result = scan_noise(ghz(2).to_density(), 1, 0.1, FAST)
    assert result.p_star == 1.0 and result.bracket == (1.0, 1.0)


def test_scan_detected_at_zero_noise():
    # with a negative detection threshold even the p = 0 grid point trips,
    # which is the degenerate all-detected branch
    result = scan_noise(ghz(2).to_density(), 2, 0.1, FAST, tolerance=-1.0)
    assert result.p_star == 0.0
    assert result.bracket == (0.0, 0.0)
    assert not result.grid_fallback
    assert result.evaluations == 17


def _flicker_optimize(calls: list):
    """Fake search seam on noisy GHZ_2 levels that records each p it searches.

    Detection holds only in two islands, p = 0.25 and p = 0.5, so it
    flickers on the coarse grid: bisection is unsound and the dense sweep
    must take over.
    """
    import types

    probe = canonical_probe(GHZ_PAIR, (2, 2))

    def fake_optimize(rho, k, cfg, tolerance=1e-9):
        p = 4.0 * rho.mat[0, 0].real - 1.0  # invert the noise mixing
        calls.append(p)
        hit = min(abs(p - 0.25), abs(p - 0.5)) < 1e-9
        return types.SimpleNamespace(
            verdict="not_k_separable" if hit else "inconclusive",
            lhs=1.0 if hit else -1.0,
            probe=probe,
        )

    def fake_search(dims, states, k, cfg, tolerance=1e-9):
        return [fake_optimize(rho, k, cfg, tolerance) for rho in states]

    return fake_search


def test_scan_nonmonotone_grid_falls_back_to_dense_sweep(monkeypatch):
    import ksep.search as search_mod

    monkeypatch.setattr(search_mod, "_search_levels", _flicker_optimize([]))
    result = search_mod.scan_noise(ghz(2).to_density(), 2, 0.1, FAST)
    assert result.grid_fallback
    # 0.25 is not on the dense 0.1 grid, so 0.5 is the first dense hit
    assert result.p_star == 0.5
    assert result.bracket == (0.4, 0.5)
    dense = [e for e in result.trace if e.phase == "dense"]
    assert [e.p for e in dense] == pytest.approx([0.1 * i for i in range(6)])
    assert result.evaluations == 17 + 6


def test_scan_dense_sweep_guard_refuses_before_searching(monkeypatch):
    import ksep.search as search_mod

    calls = []
    monkeypatch.setattr(search_mod, "_search_levels", _flicker_optimize(calls))
    # 10^6 + 1 dense points: refused after the 17 grid searches, before any dense one
    with pytest.raises(GuardError):
        search_mod.scan_noise(ghz(2).to_density(), 2, 1e-6, FAST)
    assert len(calls) == 17
    # the CLI default resolution still sweeps
    calls.clear()
    result = search_mod.scan_noise(ghz(2).to_density(), 2, 1e-3, FAST)
    assert result.grid_fallback and result.p_star == pytest.approx(0.25)
    assert len(calls) == 17 + 251


def test_scan_trace_records_every_noise_level():
    cfg = SearchConfig(restarts=2, max_iters=30, seed=5)
    result = scan_noise(ghz(2).to_density(), 2, 0.01, cfg)
    grid_ps = [e.p for e in result.trace if e.phase == "grid"]
    assert grid_ps == [i / 16 for i in range(17)]
    for e in result.trace:
        assert e.detected == (e.lhs > 1e-9)


def test_scan_result_validates_bracket():
    probe = canonical_probe(GHZ_PAIR, (2, 2))
    with pytest.raises(ParameterError):
        NoiseScanResult(
            p_star=0.5,
            bracket=(0.6, 0.7),
            grid_fallback=False,
            evaluations=1,
            probe_at_threshold=probe,
            trace=(ScanEvaluation("grid", 0.5, 0.1, True),),
        )


def test_scan_result_json_shape():
    probe = canonical_probe(GHZ_PAIR, (2, 2))
    result = NoiseScanResult(
        p_star=0.5,
        bracket=(0.4, 0.5),
        grid_fallback=False,
        evaluations=3,
        probe_at_threshold=probe,
        trace=(ScanEvaluation("grid", 0.5, 0.1, True),),
    )
    doc = result.to_json_dict()
    assert set(doc) == {"p_star", "bracket", "grid_fallback", "evaluations", "probe_at_threshold"}
    doc_t = result.to_json_dict(include_trace=True)
    assert doc_t["trace"] == [{"phase": "grid", "p": 0.5, "lhs": 0.1, "detected": True}]
    assert doc["probe_at_threshold"]["u"][0][0] == [1.0, 0.0]


# --- pure states under white noise -------------------------------------------------


@pytest.mark.parametrize(
    "dims",
    [(2, 2), (2, 2, 2), (2,) * 5, (3, 3, 3), (2, 3, 4)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_lockstep_climb_on_kets_matches_serial_route(dims, monkeypatch):
    rng = np.random.default_rng(len(dims) * 7 + sum(dims))
    for state in (white_noise(random_pure(dims, rng), 1.0), white_noise(random_pure(dims, rng), 0.8)):
        for k in range(1, len(dims) + 1):
            for seed in (0, 3):
                serial = _serial_restarts(state, k, SearchConfig(restarts=4, max_iters=12, seed=seed))
                value, u, v = serial[0]
                for cand in serial[1:]:
                    if cand[0] > value:
                        value, u, v = cand
                cfg = SearchConfig(restarts=4, max_iters=12, seed=seed)
                for cap in (search.MAX_BATCH_ENTRIES, 1):
                    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", cap)
                    report = optimize_probe(state, k, cfg)
                    case = (dims, state.p, k, seed, cap)
                    assert report.lhs == value, case
                    for got, want in zip(report.probe.u + report.probe.v, u + v):
                        assert got.tobytes() == want.tobytes(), case


@pytest.mark.parametrize(
    "case",
    [("ghz2", 2, 1), ("ghz3", 2, 2), ("ghz3", 3, 1), ("w3", 2, 2), ("w3", 3, 1)],
    ids=lambda c: f"{c[0]}-k{c[1]}-r{c[2]}",
)
def test_grid_batch_on_a_ket_matches_serial_scan(case, monkeypatch):
    # a ket target climbs ket levels, white_noise(target, p); the grid batch
    # gives every level the bits of its own search
    name, k, restarts = case
    target = ghz(int(name[3:])) if name.startswith("ghz") else w_state(3)
    cfg = SearchConfig(restarts=restarts, max_iters=15, seed=3 * restarts + k)
    want = json.dumps(_serial_scan(target, k, 1e-2, cfg, 1e-9).to_json_dict(include_trace=True))
    levels = []
    monkeypatch.setattr(search, "white_noise", lambda x, p: levels.append(white_noise(x, p)) or levels[-1])
    for cap in (search.MAX_BATCH_ENTRIES, 1):
        monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", cap)
        got = scan_noise(target, k, 1e-2, cfg).to_json_dict(include_trace=True)
        assert json.dumps(got) == want, (case, cap)
    assert levels and all(type(level) is NoisyPureState for level in levels)
    # the same state held as a ket under white noise scans the same
    got = scan_noise(white_noise(target, 1.0), k, 1e-2, cfg).to_json_dict(include_trace=True)
    assert json.dumps(got) == want


# --- soundness on kets ----------------------------------------------------------------


def test_default_search_does_not_certify_the_biseparable_ket():
    # |a> x |psi_BC> is 2-separable; held densely, the default search at k=2
    # reaches lhs 2.16e-9 on it from rounding alone
    rng = np.random.default_rng(11)
    vecs = [random_pure((2,), rng).vec, random_pure((2, 2), rng).vec]
    state = white_noise(partition_product_pure((2, 2, 2), [(0,), (1, 2)], vecs), 1.0)
    report = optimize_probe(state, 2, SearchConfig())
    assert not report.detected, report.lhs


def _separable_kets(seed):
    """(ket, k) pairs that are k-separable: a biseparable ket on every cut of
    3 and 4 qubits at k=2, and a product ket at k=n."""
    rng = np.random.default_rng(100 + seed)
    out = []
    for n in (3, 4):
        dims = (2,) * n
        for part in enumerate_kpartitions(n, 2):
            blocks = part.blocks()
            vecs = [random_pure((2,) * len(block), rng).vec for block in blocks]
            out.append((partition_product_pure(dims, blocks, vecs), 2))
        out.append((random_product_pure(dims, rng), n))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_default_search_never_certifies_separable_kets(seed):
    cfg = SearchConfig(seed=seed)
    for psi, k in _separable_kets(seed):
        report = optimize_probe(white_noise(psi, 1.0), k, cfg)
        assert not report.detected, (psi.dims, k, report.lhs)


# --- batch sizes by state kind --------------------------------------------------------


def _climb_sizes(monkeypatch):
    """Record (states, restarts) of every lockstep climb."""
    sizes = []

    def counted(rho, plan, starts, rngs, cfg, history=None):
        sizes.append((len(rho), len(starts)))
        return _climb(rho, plan, starts, rngs, cfg, history)

    monkeypatch.setattr(search, "_climb", counted)
    return sizes


def _report_json(report):
    return json.dumps([report.to_json_dict(), report.probe.to_json_dict()])


def test_ket_search_climbs_its_restarts_in_one_batch(monkeypatch):
    # a noisy ket's core holds 2 D / d entries per probe, so at n=10 all 32
    # restarts fit one batch, where a dense state climbs 2 at a time
    state = white_noise(ghz(10), 0.8)
    cfg = SearchConfig(restarts=32, max_iters=20)
    sizes = _climb_sizes(monkeypatch)
    batched = optimize_probe(state, 2, cfg)
    assert sizes == [(1, 32)]
    sizes.clear()
    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", 1)
    alone = optimize_probe(state, 2, cfg)
    assert sizes == [(1, 1)] * 32
    assert _report_json(batched) == _report_json(alone)
    sizes.clear()
    monkeypatch.undo()
    sizes = _climb_sizes(monkeypatch)
    optimize_probe(state.to_density(), 2, SearchConfig(restarts=4, max_iters=1))
    assert sizes == [(1, 2), (1, 2)]


def test_ket_search_counts_the_plan_in_its_batches(monkeypatch):
    # at n=10, k=5 a restart's gathered swap-set factors (42 525 x 15 floats)
    # outgrow a ket's core (1 024 entries), so 3 restarts fill the cap
    state = white_noise(ghz(10), 0.8)
    cfg = SearchConfig(restarts=8, max_iters=1)
    _partition_plan(10, 5)
    sizes = _climb_sizes(monkeypatch)
    tracemalloc.start()
    try:
        batched = optimize_probe(state, 5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [(1, 3), (1, 3), (1, 2)]
    # two gathered arrays of at most 16 MiB each are alive at once (31.5 MB
    # measured); all 8 restarts in one batch peak at 83 MB
    assert peak < 40e6
    sizes.clear()
    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", 1)
    assert _report_json(optimize_probe(state, 5, cfg)) == _report_json(batched)
    assert sizes == [(1, 1)] * 8


def test_ket_scan_climbs_its_grid_in_one_batch(monkeypatch):
    # 17 ket levels at n=10 share one batch; dense ones would climb one at a time
    target = ghz(10)
    cfg = SearchConfig(restarts=2, max_iters=3, seed=5)
    sizes = _climb_sizes(monkeypatch)
    batched = scan_noise(target, 2, 0.05, cfg).to_json_dict(include_trace=True)
    assert sizes[0] == (17, 2)
    monkeypatch.setattr(search, "MAX_BATCH_ENTRIES", 1)
    alone = scan_noise(target, 2, 0.05, cfg).to_json_dict(include_trace=True)
    assert json.dumps(batched) == json.dumps(alone)
