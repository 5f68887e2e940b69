"""Smoke tests: the example scripts run end to end on the bundled fixture."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(name, out_dir, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), "--out-dir", str(out_dir), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("mode", ["fulltrace", "causal"])
def test_run_comparison(tmp_path, mode):
    proc = run_script("run_comparison.py", tmp_path, "--mode", mode)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    names = [entry["name"] for entry in report["strategies"]]
    assert names == ["feedback", "minimum", "mean", "high", "current", "ondemand"]
    for name in names:
        assert (tmp_path / f"trajectory_{name}.csv").is_file()
    assert (tmp_path / "comparison.csv").is_file()


def test_run_sweep(tmp_path):
    proc = run_script("run_sweep.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    sweep = json.loads((tmp_path / "sweep.json").read_text())
    assert len(sweep["points"]) == 64
    assert "on the frontier" in proc.stdout
