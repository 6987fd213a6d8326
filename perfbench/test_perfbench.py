"""Fast tests of the benchmark itself: its closed forms and its output contract.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ksep  # noqa: E402
import ksep.cli  # noqa: E402
from ksep.search import GHZ_PAIR, RANDOM  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _noisy_ghz(n, p):
    return ksep.white_noise(ksep.ghz(n).to_density(), p)


@pytest.mark.parametrize(
    "n, anchor",
    [
        (2, 1 / math.sqrt(5)),
        (3, (18 + math.sqrt(1872)) / 86),
        (4, (294 + math.sqrt(166208)) / 814),
    ],
)
def test_scan_root_matches_anchor(n, anchor):
    assert abs(checks.scan_root(n) - anchor) <= 1e-12
    checks.check_scan("scan", anchor + 1.5e-3, n, 1e-3)
    with pytest.raises(CheckFailed):
        checks.check_scan("scan", anchor + 2.5e-3, n, 1e-3)


def test_ghz_pair_anchor_values():
    # k=2 on GHZ_10 at p=0.8: 0.4 - 511*sqrt(a*(0.4+a)) with a = 0.2/1024
    a = 0.2 / 1024
    assert abs(checks.ghz_pair_lhs(10, 0.8, 2) - (0.4 - 511 * math.sqrt(a * (0.4 + a)))) <= 1e-13
    # k=5: S(10,5) = 42525 terms, each equal to a
    assert abs(checks.ghz_pair_lhs(10, 0.8, 5) - (0.4 - 42525 * a)) <= 1e-13


def test_wrong_anchor_fails():
    # GHZ_3's root is about 0.712403; the GHZ_2 root in its place must fail
    with pytest.raises(CheckFailed):
        checks.check_scan("scan", checks.scan_root(2), 3, 1e-3)
    # the n=9 anchor in place of the n=10 one must fail, at every k
    for k in (2, 3, 5):
        with pytest.raises(CheckFailed):
            checks.check_ghz_pair("anchor", checks.ghz_pair_lhs(9, 0.8, k), 10, 0.8, k)


@pytest.mark.parametrize("n, p", [(3, 0.8), (4, 0.9), (6, 0.5)])
def test_ghz_pair_closed_form_matches_program(n, p):
    rho = _noisy_ghz(n, p)
    probe = ksep.canonical_probe(GHZ_PAIR, rho.dims)
    for k in range(1, n + 1):
        lhs = ksep.evaluate(rho, probe, k).lhs
        checks.check_ghz_pair(f"n={n} k={k}", lhs, n, p, k)
        with pytest.raises(CheckFailed):
            checks.check_ghz_pair(f"n={n} k={k}", lhs + 1e-8, n, p, k)


def test_first_term_closed_form_matches_program():
    rng = np.random.default_rng(5)
    rho = _noisy_ghz(5, 0.7)
    for _ in range(5):
        probe = ksep.canonical_probe(RANDOM, rho.dims, rng=rng)
        got = ksep.first_term(rho, probe)
        want = checks.noisy_ghz_first_term(probe.u, probe.v, 0.7)
        assert abs(got - want) <= checks.FIRST_TERM_TOL


def test_stirling_numbers():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert checks.stirling2(n, k) == ksep.stirling2(n, k)


def test_report_shape_check_catches_a_wrong_lhs():
    rho = _noisy_ghz(4, 0.8)
    report = ksep.evaluate(rho, ksep.canonical_probe(RANDOM, rho.dims, rng=np.random.default_rng(1)), 3)
    terms = [t for _, t in report.partition_terms]
    summary = {
        "lhs": report.lhs,
        "first": report.first_term,
        "term_sum": sum(terms),
        "partitions": len(terms),
        "terms_ok": True,
    }
    checks.check_report("ok", summary, 4, 3)
    with pytest.raises(CheckFailed):
        checks.check_report("lhs", {**summary, "lhs": report.lhs + 1e-6}, 4, 3)
    with pytest.raises(CheckFailed):
        checks.check_report("count", {**summary, "partitions": len(terms) - 1}, 4, 3)


def test_separable_and_detection_checks():
    checks.check_separable("ok", 1e-10)
    with pytest.raises(CheckFailed):
        checks.check_separable("bad", 2e-9)
    checks.check_detected("ok", 0.1, 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_detected("bad", 0.0, 1e-9)


def test_cli_check():
    out = json.dumps({"report": {"lhs": 0.2}})
    checks.check_cli("detected", 10, out, 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_cli("wrong exit", 0, out, 1e-9)
    checks.check_cli("inconclusive", 0, json.dumps({"report": {"lhs": -0.1}}), 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_cli("not json", 0, "error: boom", 1e-9)


def test_tracer_skips_a_missing_name(monkeypatch):
    from spans import Tracer

    monkeypatch.delattr(ksep.cli, "evaluate_parallel")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["ksep.cli.evaluate_parallel"]
        rho = _noisy_ghz(3, 0.9)
        ksep.optimize_probe(rho, 2, ksep.SearchConfig(restarts=1, max_iters=2))
    finally:
        tracer.uninstall()
    # the search still reports through the wrapped criterion.evaluate
    assert "criterion.evaluate" in {span[0] for span in tracer.spans}
    assert ksep.criterion.evaluate is ksep.evaluate


def test_host_speed_scaling():
    from hostspeed import PARTS, HostSpeed
    from workloads import CALIBRATION

    assert set(CALIBRATION) == {w["name"] for w in BENCHMARK["workloads"]}
    for parts in CALIBRATION.values():
        host = HostSpeed(parts, warm_up_s=0.0)
        assert host.reference_s == sum(PARTS[p][1] for p in parts)
        assert host.calibrate() > 0.0
        # a job's wall time on a host as fast as the reference; half of it on one twice as slow
        assert host.scaled(1.5, host.reference_s) == pytest.approx(1.5)
        assert host.scaled(1.5, 2 * host.reference_s) == pytest.approx(0.75)


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "eval-n10", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
