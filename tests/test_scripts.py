"""Smoke tests of the experiment scripts under scripts/, run in-process."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[list[str]]:
    """Table rows: the lines after the comment line and the header."""
    lines = out.splitlines()
    assert lines[0].startswith("#")
    return [line.split() for line in lines[2:]]


def test_family_detection_report_lists_every_state_and_k(capsys):
    script = _load("family_detection_report")
    assert script.main(["--restarts", "2", "--max-iters", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    expected = [
        (name, k)
        for name, rho in script.build_zoo()
        for k in range(2, len(rho.dims) + 1)
    ]
    # the state name is every column before k, best lhs, verdict and secs
    assert [(" ".join(row[:-4]), int(row[-4])) for row in rows] == expected
    for row in rows:
        float(row[-3])
        assert row[-2] in ("not_k_separable", "inconclusive")


def test_ghz_noise_thresholds_lists_every_n_and_k(capsys):
    script = _load("ghz_noise_thresholds")
    argv = ["--n", "2", "3", "--resolution", "0.05", "--restarts", "1", "--max-iters", "5"]
    assert script.main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    assert [(int(row[0]), int(row[1])) for row in rows] == [(2, 2), (3, 2)]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0

