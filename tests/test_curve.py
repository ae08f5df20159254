"""scripts/curve.py: per-trial time against n, one process per n."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curve
from aqsim.adversary import SCENARIO_TOKENS
from aqsim.defense import DEFENSE_GRID

ROOT = Path(__file__).resolve().parent.parent


def test_curve_writes_one_line_per_trial_of_every_cell_from_a_process_per_n():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.run([sys.executable, str(ROOT / "scripts" / "curve.py"), "--n", "1,2",
                            "--trials", "2", "--seed", "3"],
                           capture_output=True, text=True, env=env, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")
    rows = [json.loads(line) for line in child.stdout.splitlines()]
    cells = [(s, d.tokens()) for s in SCENARIO_TOKENS for d in DEFENSE_GRID]
    assert [(r["n"], r["scenario"], tuple(r["defenses"]), r["trial"]) for r in rows] == [
        (n, s, tuple(d), t) for n in (1, 2) for s, d in cells for t in (0, 1)]
    for row in rows:
        assert list(row) == ["scenario", "defenses", "n", "seed", "trial", "ms", "calibration_ms"]
        assert row["seed"] == 3 and row["ms"] > 0 and row["calibration_ms"] > 0


@pytest.mark.parametrize("argv,message", [
    (["--n", "0"], "error: --n: must be >= 1"),
    (["--n", "1,x"], "error: argument --n: invalid int value: 'x'"),
    (["--n", "1,"], "error: argument --n: invalid int value: ''"),
    (["--n", str(2 ** 16 + 1)], "error: --n: must be <= 65536"),
    (["--trials", "0"], "error: --trials: must be >= 1"),
    (["--seed", "-1"], "error: --seed: must be a non-negative 64-bit integer"),
    (["--bogus"], "error: unrecognized arguments: --bogus"),
])
def test_curve_bad_argument_exits_one_in_one_line(argv, message, capsys):
    assert curve.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aqsim: {message}\n"


def test_curve_help_returns_zero(capsys):
    assert curve.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "Usage: PYTHONPATH=src python scripts/curve.py" in captured.out
    assert captured.err == ""
