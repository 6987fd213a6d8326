from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import ksep.cli
import ksep.linalg
import ksep.oracle
import ksep.states
from ksep import (
    DensityMatrix,
    NoisyPureState,
    SearchConfig,
    enumerate_kpartitions,
    equivalence_campaign,
    evaluate,
    ghz,
    optimize_probe,
    random_density,
    save_state,
    scan_noise,
    stirling2,
    w_state,
    white_noise,
)
from ksep.cli import main
from ksep.search import RANDOM, canonical_probe

# files holding a 401-digit integer, which no float can hold, or a NaN
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def read_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


# --- eval ----------------------------------------------------------------------


def test_eval_ghz_detects(capsys):
    code, doc, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2"
    )
    assert code == 10
    report = doc["report"]
    assert report["verdict"] == "not_k_separable"
    assert report["lhs"] == pytest.approx(0.5, abs=1e-12)
    assert report["k"] == 2
    assert [t["partition"] for t in report["terms"]] == ["0,1|2", "0,2|1", "0|1,2"]
    manifest = doc["manifest"]
    assert manifest["command"] == "eval"
    assert manifest["inputs"] == ["family:ghz:n=3", "probe:ghz-pair", "k=2"]
    assert manifest["seed"] == 1
    assert isinstance(manifest["wall_time_ms"], int)
    assert manifest["tool_version"]


def test_eval_maximally_mixed_inconclusive(capsys):
    code, doc, _ = run_json(
        capsys, "eval", "--family", "mixed:I,n=3", "--probe", "ghz-pair", "--k", "2"
    )
    assert code == 0
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["report"]["lhs"] == pytest.approx(-3 / 8, abs=1e-12)


def test_eval_csv_round_trips_floats(capsys):
    code_j, doc, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2"
    )
    code_c, out, _ = run_cli(
        capsys,
        "eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2",
        "--format", "csv",
    )
    assert code_c == code_j == 10
    header, rows = read_csv(out)
    assert header == ["k", "lhs", "first_term", "verdict", "tolerance"]
    (row,) = rows
    assert int(row[0]) == 2
    assert float(row[1]) == doc["report"]["lhs"]
    assert float(row[2]) == doc["report"]["first_term"]
    assert row[3] == "not_k_separable"
    assert float(row[4]) == 1e-9


def test_eval_from_state_file_matches_family(capsys, tmp_path):
    path = tmp_path / "ghz3.json"
    save_state(ghz(3).to_density(), path)
    code_f, doc_f, _ = run_json(
        capsys, "eval", "--state", str(path), "--probe", "ghz-pair", "--k", "2"
    )
    code_g, doc_g, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2"
    )
    assert code_f == code_g == 10
    assert doc_f["report"]["lhs"] == doc_g["report"]["lhs"]
    assert doc_f["manifest"]["inputs"][0] == f"state:{path}"


def test_eval_probe_file(capsys, tmp_path):
    e0 = [[1.0, 0.0], [0.0, 0.0]]
    e1 = [[0.0, 0.0], [1.0, 0.0]]
    probe_doc = {"u": [e0, e0, e0], "v": [e1, e1, e1]}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe_doc))
    code, doc, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", str(path), "--k", "2"
    )
    assert code == 10
    assert doc["report"]["lhs"] == pytest.approx(0.5, abs=1e-12)


def test_eval_basis_pair_probe(capsys):
    code, doc, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "basis-pair:0,1", "--k", "2"
    )
    assert code == 10
    assert doc["report"]["lhs"] == pytest.approx(0.5, abs=1e-12)


def test_eval_random_probe_seeded(capsys):
    args = ("eval", "--family", "ghz:n=3", "--probe", "random", "--k", "2", "--seed", "5")
    _, doc_a, _ = run_json(capsys, *args)
    _, doc_b, _ = run_json(capsys, *args)
    assert doc_a["report"]["lhs"] == doc_b["report"]["lhs"]
    _, doc_c, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "random", "--k", "2", "--seed", "6"
    )
    assert doc_c["report"]["lhs"] != doc_a["report"]["lhs"]


def test_eval_thread_count_does_not_change_numbers(capsys):
    # run to run the numbers repeat, and they are the library's numbers
    base = ("eval", "--family", "noisy-ghz:n=4,p=0.8", "--probe", "random", "--k", "3", "--seed", "9")
    _, doc_1, _ = run_json(capsys, *base)
    _, doc_2, _ = run_json(capsys, *base)
    assert doc_1["report"]["lhs"] == doc_2["report"]["lhs"]
    assert doc_1["report"]["terms"] == doc_2["report"]["terms"]
    rho = white_noise(ghz(4), 0.8)
    probe = canonical_probe(RANDOM, rho.dims, rng=np.random.default_rng(9))
    report = evaluate(rho, probe, 3)
    assert doc_1["report"]["lhs"] == report.lhs
    assert doc_1["report"]["terms"] == report.to_json_dict()["terms"]


def test_eval_noisy_family_threshold_sides(capsys):
    code_lo, doc_lo, _ = run_json(
        capsys, "eval", "--family", "noisy-ghz:n=3,p=0.6", "--probe", "ghz-pair", "--k", "2"
    )
    code_hi, doc_hi, _ = run_json(
        capsys, "eval", "--family", "noisy-ghz:n=3,p=0.8", "--probe", "ghz-pair", "--k", "2"
    )
    assert code_lo == 0 and doc_lo["report"]["lhs"] < 0
    assert code_hi == 10 and doc_hi["report"]["lhs"] > 0


def test_eval_tolerance_flag(capsys):
    code, doc, _ = run_json(
        capsys, "eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2",
        "--tolerance", "0.6",
    )
    assert code == 0
    assert doc["report"]["verdict"] == "inconclusive"
    assert doc["report"]["tolerance"] == 0.6


# --- input errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--family", "bell:n=2", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:n=x", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:d=2", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "mixed:n=3", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "noisy-ghz:n=3,p=1.5", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:n=3", "--probe", "no-such-style", "--k", "2"),
        ("eval", "--family", "ghz:n=3", "--probe", "basis-pair:9,9", "--k", "2"),
        ("eval", "--family", "ghz:n=3", "--probe", "basis-pair:zz", "--k", "2"),
        ("eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "7"),
        ("partitions", "--n", "21", "--k", "2"),
        ("partitions", "--n", "3", "--k", "5"),
        ("eval", "--family", "ghz:n=3,d=x", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "w:n=3,d=3", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:I,n=3", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2", "--seed", "-1"),
        ("oracle-check", "--n", "2", "--trials", "2", "--seed", "-1"),
        ("eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2", "--tolerance", "nan"),
        ("eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2", "--tolerance", "inf"),
        ("detect", "--family", "ghz:n=2", "--k", "2", "--tolerance", "nan"),
        ("detect", "--family", "ghz:n=2", "--k", "2", "--step-init", "inf"),
        ("detect", "--family", "ghz:n=2", "--k", "2", "--eps", "inf"),
        ("scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "inf"),
        ("scan", "--family", "ghz:n=2", "--k", "2", "--tolerance=-inf"),
        ("eval", "--family", "ghz:n=40", "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--state", str(DATA / "overflow_state.json"), "--probe", "ghz-pair", "--k", "2"),
        ("eval", "--family", "ghz:n=2", "--probe", str(DATA / "overflow_probe.json"), "--k", "2"),
        ("eval", "--family", "ghz:n=2", "--probe", str(DATA / "nan_probe.json"), "--k", "2"),
    ],
)
def test_bad_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "family", ["ghz:n=13", "ghz:n=40", "ghz:n=8,d=3", "w:n=13", "mixed:I,n=40", "noisy-ghz:n=13,p=0.5"]
)
def test_dense_state_past_the_guard_is_refused_before_it_is_built(capsys, monkeypatch, family):
    def no_work(*args, **kwargs):
        raise AssertionError("the guard must come first")

    for name in ("ghz", "w_state", "maximally_mixed", "white_noise"):
        monkeypatch.setattr(ksep.cli, name, no_work)
    code, out, err = run_cli(capsys, "eval", "--family", family, "--probe", "ghz-pair", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: family {family!r}: state dimension exceeds the guard 4096")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--family", "ghz:n=3", "--probe", "ghz-pair", "--k", "2"),
        ("detect", "--family", "ghz:n=3", "--k", "2"),
        ("scan", "--family", "ghz:n=2", "--k", "2"),
        ("oracle-check", "--n", "2"),
        ("partitions", "--n", "4", "--k", "2"),
    ],
)
def test_negative_seed_fails_before_any_work(capsys, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started")

    for name in ("_load_state_arg", "equivalence_campaign", "stirling2"):
        monkeypatch.setattr(ksep.cli, name, no_work)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


def test_eval_rejects_non_hermitian_state_file_with_the_eigensolve_record(capsys, tmp_path):
    # the hermitian part is diagonally dominant, so only the hermiticity
    # check stands between this file and acceptance
    path = tmp_path / "nonherm.json"
    path.write_text(json.dumps({"dims": [2], "matrix": [[[0.5, 0.0], [0.1, 0.0]], [[0.3, 0.0], [0.5, 0.0]]]}))
    code, out, err = run_cli(capsys, "eval", "--state", str(path), "--probe", "ghz-pair", "--k", "1")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: not a valid density matrix: hermiticity defect 2.000e-01, "
        "trace defect 0.000e+00, min eigenvalue 3.000e-01 (tol 1.0e-09)\n"
    )


def test_eval_rejects_invalid_state_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2], "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}))
    code, _, err = run_cli(capsys, "eval", "--state", str(path), "--probe", "ghz-pair", "--k", "1")
    assert code == 2
    assert "error:" in err


def test_eval_rejects_bad_probe_file(capsys, tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"u": [[[1.0, 0.0], [0.0, 0.0]]] * 3}))
    code, _, err = run_cli(
        capsys, "eval", "--family", "ghz:n=3", "--probe", str(path), "--k", "2"
    )
    assert code == 2
    assert "'u' and 'v'" in err


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--family", "ghz:n=3", "--probe", "ghz-pair"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("ksep ")


# --- detect ------------------------------------------------------------------------


DETECT_FAST = ("--restarts", "3", "--max-iters", "60")


def test_detect_ghz(capsys):
    code, doc, _ = run_json(
        capsys, "detect", "--family", "ghz:n=3", "--k", "2", *DETECT_FAST
    )
    assert code == 10
    assert doc["report"]["verdict"] == "not_k_separable"
    assert doc["report"]["lhs"] == pytest.approx(0.5, abs=1e-12)
    cfg = doc["manifest"]["search_config"]
    assert cfg["restarts"] == 3 and cfg["max_iters"] == 60
    assert cfg["seed"] == 1
    probe = doc["probe"]
    assert len(probe["u"]) == 3 and len(probe["v"]) == 3
    assert all(len(f) == 2 and len(f[0]) == 2 for f in probe["u"])


def test_detect_separable_family(capsys):
    code, doc, _ = run_json(
        capsys, "detect", "--family", "mixed:I,n=3", "--k", "2", *DETECT_FAST
    )
    assert code == 0
    assert doc["report"]["verdict"] == "inconclusive"


def test_detect_reproducible_across_runs_and_threads(capsys):
    base = ("detect", "--family", "noisy-ghz:n=3,p=0.85", "--k", "2", *DETECT_FAST, "--seed", "4")
    _, doc_a, _ = run_json(capsys, *base)
    _, doc_b, _ = run_json(capsys, *base)
    assert doc_a["report"]["lhs"] == doc_b["report"]["lhs"]
    assert doc_a["probe"] == doc_b["probe"]


def test_detect_csv(capsys):
    code, out, _ = run_cli(
        capsys, "detect", "--family", "ghz:n=3", "--k", "2", *DETECT_FAST,
        "--format", "csv",
    )
    assert code == 10
    header, rows = read_csv(out)
    assert header == ["k", "lhs", "first_term", "verdict", "tolerance"]
    assert rows[0][3] == "not_k_separable"


# --- scan --------------------------------------------------------------------------


SCAN_FAST = ("--restarts", "2", "--max-iters", "30")


def test_scan_json(capsys):
    code, doc, _ = run_json(
        capsys, "scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.02",
        *SCAN_FAST,
    )
    assert code == 0
    result = doc["result"]
    assert abs(result["p_star"] - 1 / math.sqrt(5)) < 0.05
    lo, hi = result["bracket"]
    assert hi - lo <= 0.02
    assert result["grid_fallback"] is False
    assert "trace" not in result
    assert doc["manifest"]["command"] == "scan"
    assert doc["manifest"]["inputs"][2] == "resolution=0.02"


def test_scan_json_with_trace(capsys):
    code, doc, _ = run_json(
        capsys, "scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.05",
        "--trace", *SCAN_FAST,
    )
    assert code == 0
    trace = doc["result"]["trace"]
    assert len(trace) == doc["result"]["evaluations"]
    assert trace[0]["phase"] == "grid" and trace[0]["p"] == 0.0
    assert {"phase", "p", "lhs", "detected"} == set(trace[0])


def test_scan_csv_summary(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.05",
        *SCAN_FAST, "--format", "csv",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["p_star", "p_lo", "p_hi", "grid_fallback", "evaluations"]
    (row,) = rows
    assert float(row[0]) >= float(row[1]) - 1e-15
    assert row[3] == "false"
    assert int(row[4]) > 16


def test_scan_csv_trace(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.05",
        "--trace", *SCAN_FAST, "--format", "csv",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["phase", "p", "lhs", "detected"]
    assert len(rows) >= 17
    assert {r[0] for r in rows} >= {"grid"}
    assert all(r[3] in ("true", "false") for r in rows)


# --- oracle-check and partitions ------------------------------------------------------


def test_oracle_check_passes(capsys):
    code, doc, _ = run_json(
        capsys, "oracle-check", "--n", "2", "--dmax", "2", "--trials", "5"
    )
    assert code == 0
    summary = doc["summary"]
    assert summary["passed"] is True
    assert summary["trials"] == 5
    assert summary["comparisons"] == 10  # S(2,1) + S(2,2) per trial
    assert summary["max_lhs_deviation"] <= 1e-10


def test_oracle_check_fails_on_a_partition_mismatch(capsys, monkeypatch):
    # the campaign has no assert: an oracle that lists the partitions in
    # another order fails it, also under python -O
    honest = ksep.oracle.oracle_evaluate

    def reordered(rho, probe, k, *args, **kwargs):
        report = honest(rho, probe, k, *args, **kwargs)
        parts, values = zip(*report.partition_terms)
        return dataclasses.replace(report, partition_terms=tuple(zip(parts[::-1], values)))

    monkeypatch.setattr(ksep.oracle, "oracle_evaluate", reordered)
    code, doc, err = run_json(capsys, "oracle-check", "--n", "3", "--dmax", "2", "--trials", "2")
    assert code == 1
    assert doc["summary"]["passed"] is False
    assert doc["summary"]["max_term_deviation"] == math.inf
    assert err.startswith("oracle-check FAILED: max term deviation inf")


def test_oracle_check_csv(capsys):
    code, out, _ = run_cli(
        capsys, "oracle-check", "--n", "2", "--dmax", "2", "--trials", "3",
        "--format", "csv",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["trials", "comparisons", "max_term_deviation", "max_lhs_deviation", "passed"]
    assert rows[0][-1] == "true"


def test_partitions_listing(capsys):
    code, doc, _ = run_json(capsys, "partitions", "--n", "4", "--k", "2")
    assert code == 0
    assert doc["count"] == 7
    assert len(doc["partitions"]) == 7
    assert doc["partitions"][0] == "0,1,2|3"
    assert doc["partitions"][-1] == "0|1,2,3"


def test_partitions_count_only(capsys):
    code, doc, _ = run_json(capsys, "partitions", "--n", "10", "--k", "2", "--count-only")
    assert code == 0
    assert doc["count"] == 511
    assert "partitions" not in doc


def test_partitions_csv(capsys):
    code, out, _ = run_cli(
        capsys, "partitions", "--n", "3", "--k", "2", "--format", "csv"
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["partition"]
    assert [r[0] for r in rows] == ["0,1|2", "0,2|1", "0|1,2"]
    code2, out2, _ = run_cli(
        capsys, "partitions", "--n", "4", "--k", "3", "--count-only", "--format", "csv"
    )
    header2, rows2 = read_csv(out2)
    assert header2 == ["n", "k", "count"]
    assert rows2 == [["4", "3", "6"]]


def test_partitions_listing_guard(capsys):
    # S(20, 10) is far past the listing cap, but counting is fine
    code, doc, _ = run_json(capsys, "partitions", "--n", "20", "--k", "10", "--count-only")
    assert code == 0
    assert doc["count"] == 5917584964655
    code2, _, err = run_cli(capsys, "partitions", "--n", "20", "--k", "10")
    assert code2 == 2
    assert "--count-only" in err


# --- the one writer -------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _report_row(doc):
    report = doc["report"]
    return [[report[key] for key in ("k", "lhs", "first_term", "verdict", "tolerance")]]


def _scan_rows(doc):
    result = doc["result"]
    if "trace" in result:
        return [[e["phase"], e["p"], e["lhs"], e["detected"]] for e in result["trace"]]
    lo, hi = result["bracket"]
    return [[result["p_star"], lo, hi, result["grid_fallback"], result["evaluations"]]]


def _oracle_row(doc):
    summary = doc["summary"]
    return [[summary[key] for key in ("trials", "comparisons", "max_term_deviation", "max_lhs_deviation", "passed")]]


def _partition_rows(doc):
    if "partitions" in doc:
        return [[s] for s in doc["partitions"]]
    return [[doc["n"], doc["k"], doc["count"]]]


def _detect_fields(report):
    return {"report": report.to_json_dict(), "probe": report.probe.to_json_dict()}


NOISY_GHZ3 = white_noise(ghz(3), 0.8)
DETECT_CFG = SearchConfig(restarts=3, max_iters=60, seed=2)
SCAN_CFG = SearchConfig(restarts=2, max_iters=30)

# argv, the library's fields after the manifest, the CSV rows from the JSON
WRITER_CASES = {
    "eval": (
        ("eval", "--family", "noisy-ghz:n=3,p=0.8", "--probe", "random", "--k", "2", "--seed", "5"),
        lambda: {
            "report": evaluate(
                NOISY_GHZ3, canonical_probe(RANDOM, (2, 2, 2), rng=np.random.default_rng(5)), 2
            ).to_json_dict()
        },
        _report_row,
    ),
    "detect": (
        ("detect", "--family", "noisy-ghz:n=3,p=0.8", "--k", "2", *DETECT_FAST, "--seed", "2"),
        lambda: _detect_fields(optimize_probe(NOISY_GHZ3, 2, DETECT_CFG)),
        _report_row,
    ),
    "scan": (
        ("scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.05", *SCAN_FAST),
        lambda: {"result": scan_noise(ghz(2), 2, 0.05, SCAN_CFG).to_json_dict()},
        _scan_rows,
    ),
    "scan-trace": (
        ("scan", "--family", "ghz:n=2", "--k", "2", "--resolution", "0.05", *SCAN_FAST, "--trace"),
        lambda: {
            "result": scan_noise(ghz(2), 2, 0.05, SCAN_CFG).to_json_dict(include_trace=True)
        },
        _scan_rows,
    ),
    "oracle-check": (
        ("oracle-check", "--n", "2", "--dmax", "3", "--trials", "4", "--seed", "3"),
        lambda: {"summary": equivalence_campaign(2, 3, 4, 3, threshold=1e-10).to_json_dict()},
        _oracle_row,
    ),
    "partitions": (
        ("partitions", "--n", "4", "--k", "2"),
        lambda: {
            "n": 4, "k": 2, "count": 7,
            "partitions": [part.notation() for part in enumerate_kpartitions(4, 2)],
        },
        _partition_rows,
    ),
    "partitions-count": (
        ("partitions", "--n", "10", "--k", "3", "--count-only"),
        lambda: {"n": 10, "k": 3, "count": stirling2(10, 3)},
        _partition_rows,
    ),
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_json_fields_are_the_library_dicts(capsys, case):
    argv, library, _ = WRITER_CASES[case]
    _, doc, _ = run_json(capsys, *argv)
    want = json.loads(json.dumps(library()))
    assert list(doc) == ["manifest", *want]
    assert {key: doc[key] for key in want} == want
    manifest = doc["manifest"]
    keys = ["command", "inputs", "seed", "tool_version", "wall_time_ms"]
    if argv[0] in ("detect", "scan"):
        keys.append("search_config")
        cfg = DETECT_CFG if argv[0] == "detect" else SCAN_CFG
        assert manifest["search_config"] == cfg.to_json_dict()
    assert list(manifest) == keys
    assert manifest["command"] == argv[0]
    assert isinstance(manifest["wall_time_ms"], int)


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_csv_rows_are_the_json_values(capsys, case):
    argv, _, rows_of = WRITER_CASES[case]
    code_j, doc, _ = run_json(capsys, *argv)
    code_c, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code_c == code_j
    _, rows = read_csv(out)
    assert rows == [[_cell(v) for v in row] for row in rows_of(doc)]


# argv whose documents the templated writer must encode as json.dumps does;
# S(8, 4) = 1701 terms span several writer chunks
DUMPS_CASES = [
    *(
        ("eval", "--family", "noisy-ghz:n=4,p=0.8", "--probe", "random", "--k", str(k), "--seed", "7")
        for k in range(1, 5)
    ),
    ("eval", "--family", "noisy-ghz:n=8,p=0.8", "--probe", "random", "--k", "4"),
    *(argv for argv, _, _ in WRITER_CASES.values() if "--count-only" not in argv),
]


def _written_docs(capsys, monkeypatch, argvs):
    """The document ``main`` hands to the writer for each argv, with its stdout."""
    docs = []
    dumps = ksep.cli._dumps
    with monkeypatch.context() as patch:
        patch.setattr(ksep.cli, "_dumps", lambda doc: docs.append(doc) or dumps(doc))
        outs = [run_cli(capsys, *argv)[1] for argv in argvs]
    assert len(docs) == len(argvs)
    return docs, outs


def test_templated_writer_is_json_dumps(capsys, monkeypatch):
    docs, outs = _written_docs(capsys, monkeypatch, DUMPS_CASES)
    assert sorted({doc["manifest"]["command"] for doc in docs}) == [
        "detect", "eval", "oracle-check", "partitions", "scan",
    ]
    assert [len(doc["report"]["terms"]) for doc in docs[:5]] == [1, 7, 6, 1, 1701]
    for doc, out in zip(docs, outs):
        assert out == json.dumps(doc, indent=2) + "\n"
        assert ksep.cli._dumps(doc) == json.dumps(doc, indent=2)


def test_templated_writer_skips_the_encoder_for_terms(capsys, monkeypatch):
    docs, _ = _written_docs(capsys, monkeypatch, DUMPS_CASES[:5])
    dumps = json.dumps

    def terms_free_dumps(obj, **kwargs):
        assert not (isinstance(obj, dict) and isinstance(obj["report"]["terms"], list))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(ksep.cli.json, "dumps", terms_free_dumps)
    for doc in docs:
        assert ksep.cli._dumps(doc) == dumps(doc, indent=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_templated_writer_falls_back_on_a_nonfinite_term(capsys, monkeypatch, bad):
    (doc,), _ = _written_docs(capsys, monkeypatch, DUMPS_CASES[1:2])
    doc["report"]["terms"][3]["value"] = bad
    text = ksep.cli._dumps(doc)
    assert text == json.dumps(doc, indent=2)
    assert json.dumps(bad) in text  # NaN, Infinity, -Infinity: never repr's nan or inf


@pytest.mark.parametrize("source", ["state", "family"])
def test_each_state_is_validated_once(capsys, monkeypatch, tmp_path, source):
    path = tmp_path / "ghz3.json"
    save_state(ghz(3).to_density(), path)
    calls = []
    require = ksep.states._require_density

    def counting_require(*args, **kwargs):
        calls.append(1)
        return require(*args, **kwargs)

    monkeypatch.setattr(ksep.states, "_require_density", counting_require)
    spec = str(path) if source == "state" else "ghz:n=3"
    code, _, _ = run_cli(capsys, "eval", f"--{source}", spec, "--probe", "ghz-pair", "--k", "2")
    assert code == 10
    assert len(calls) == 1


def test_eval_on_a_noisy_ghz_family_runs_no_eigensolve(capsys, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(ksep.linalg.np.linalg, "eigvalsh", counting_eigvalsh)
    code, doc, _ = run_json(
        capsys, "eval", "--family", "noisy-ghz:n=6,p=0.8", "--probe", "ghz-pair", "--k", "2"
    )
    assert code == 0 and doc["report"]["verdict"] == "inconclusive"
    assert calls == []


# --- families held as kets under white noise -----------------------------------------


def test_ket_families_are_kets_under_white_noise():
    cases = {
        "ghz:n=3": (ghz(3), 1.0),
        "ghz:n=2,d=3": (ghz(2, 3), 1.0),
        "w:n=4": (w_state(4), 1.0),
        "noisy-ghz:n=3,p=0.6": (ghz(3), 0.6),
        "noisy-ghz:n=2,p=0.25,d=3": (ghz(2, 3), 0.25),
    }
    for descriptor, (psi, p) in cases.items():
        state = ksep.cli._parse_family(descriptor)
        assert type(state) is NoisyPureState and state.p == p, descriptor
        assert state.dims == psi.dims and state.pure.vec.tobytes() == psi.vec.tobytes()
    assert type(ksep.cli._parse_family("mixed:I,n=3")) is DensityMatrix


@pytest.mark.parametrize("family", ["ghz:n=3", "w:n=4", "noisy-ghz:n=6,p=0.8"])
def test_ket_family_runs_build_no_matrix(capsys, monkeypatch, family):
    # no D x D matrix, Gershgorin pass or eigensolve on a ket family (a W
    # state used to be eigensolved)
    def no_dense(*args, **kwargs):
        raise AssertionError("a ket family is never built densely")

    monkeypatch.setattr(ksep.states.PureState, "to_density", no_dense)
    monkeypatch.setattr(ksep.states.NoisyPureState, "to_density", no_dense)
    monkeypatch.setattr(ksep.states, "_dominance_accepts", no_dense)
    monkeypatch.setattr(ksep.linalg.np.linalg, "eigvalsh", no_dense)
    for argv in (
        ("eval", "--family", family, "--probe", "random", "--k", "2"),
        ("detect", "--family", family, "--k", "2", "--restarts", "2", "--max-iters", "5"),
        ("scan", "--family", family, "--k", "2", "--resolution", "0.1", "--restarts", "1", "--max-iters", "3"),
    ):
        code, doc, _ = run_json(capsys, *argv)
        assert code in (0, 10) and doc["manifest"]["command"] == argv[0]


@pytest.mark.parametrize(
    "family, k, probe",
    [
        ("noisy-ghz:n=4,p=0.9", 2, "random"),
        ("noisy-ghz:n=4,p=0.9", 3, "ghz-pair"),
        ("noisy-ghz:n=3,p=0.6", 2, "ghz-pair"),
        ("ghz:n=3", 2, "random"),
        ("ghz:n=2,d=3", 2, "basis-pair:0,2"),
        ("w:n=3", 2, "random"),
        ("w:n=4", 3, "ghz-pair"),
    ],
)
def test_family_eval_matches_its_dense_state_file(capsys, tmp_path, family, k, probe):
    # the ket route against the same state saved densely and read back: lhs
    # within 1e-12, the same exit code and verdict
    path = tmp_path / "state.json"
    save_state(ksep.cli._parse_family(family).to_density(), path)
    tail = ("--k", str(k), "--probe", probe, "--seed", "3")
    code_ket, doc_ket, _ = run_json(capsys, "eval", "--family", family, *tail)
    code_file, doc_file, _ = run_json(capsys, "eval", "--state", str(path), *tail)
    assert code_ket == code_file
    ket, dense = doc_ket["report"], doc_file["report"]
    assert ket["verdict"] == dense["verdict"]
    assert abs(ket["lhs"] - dense["lhs"]) <= 1e-12
    assert abs(ket["first_term"] - dense["first_term"]) <= 1e-12
    assert [t["partition"] for t in ket["terms"]] == [t["partition"] for t in dense["terms"]]
