"""Smoke runs of the two experiment scripts in `scripts/`, with tiny
arguments; both reach `betti` through the monomial route."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys, *argv):
    monkeypatch.setattr("sys.argv", [name, *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code, capsys.readouterr().out


def test_inequality_experiment_runs_both_pools(monkeypatch, capsys):
    code, out = run_script("run_inequality_experiment.py", monkeypatch, capsys,
                           "--seed", "1", "--trials", "3")
    assert code == 0
    assert "[dim<=1] 3 pairs, 0 violations" in out
    assert "[free] 3 pairs," in out


def test_characteristic_scan_finds_the_jump_of_the_projective_plane(monkeypatch, capsys):
    code, out = run_script("run_characteristic_scan.py", monkeypatch, capsys,
                           "--chars", "0,2")
    assert code == 0
    assert "characteristic 0: reg = 3 (certified: True)" in out
    assert "characteristic 2: reg = 4 (certified: True)" in out
    assert "regularity jump confirmed: 3 (char 0) -> 4 (char 2)" in out
