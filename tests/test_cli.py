from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from ksep import evaluate, ghz, random_density, save_state, white_noise
from ksep.cli import main
from ksep.search import RANDOM, canonical_probe


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
    rho = white_noise(ghz(4).to_density(), 0.8)
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
    ],
)
def test_bad_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


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
