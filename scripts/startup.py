#!/usr/bin/env python3
"""Where a fresh ``aqsim run`` spends its start-up, phase by phase.

Usage: python scripts/startup.py

Each sample is a fresh interpreter that runs what the benchmark's
``setup_s`` times for the first cell of ``matrix-n8`` (``measure_setup`` in
``perfbench/run.py``), and times it in these phases, in order:

    stdlib            the stdlib modules the set-up child imports first
    numpy             import numpy
    aqsim.cli         import aqsim.cli, numpy already imported
    numpy.random      import numpy.random, which numpy loads on first use
    first invocation  one aqsim.cli.main of the cell, its stdout captured

Then the interpreter times the calibration kernel of ``perfbench/run.py``
(``calibration_ms``, the median of 5), and each phase is scaled by it to
the speed where the kernel takes ``CAL_REF_MS``, as ``setup_s`` is. One
JSON line per phase goes to stdout, the median over ``SAMPLES``
interpreters:

    {"phase", "ms", "samples"}

The phases add up to one ``setup_s`` sample. Python compiles the sources
anew in each interpreter unless it finds their bytecode cached, so where
``PYTHONDONTWRITEBYTECODE`` is set, ``aqsim.cli`` includes compiling
``src/aqsim``.
"""
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import CAL_REF_MS, argv_of, round_cells  # noqa: E402  (perfbench/run.py)

SAMPLES = 15
SEED = 1
PHASES = ("stdlib", "numpy", "aqsim.cli", "numpy.random", "first invocation")

CHILD = """
import time
marks = [time.perf_counter()]
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
marks.append(time.perf_counter())
import numpy
marks.append(time.perf_counter())
import aqsim.cli
marks.append(time.perf_counter())
import numpy.random
marks.append(time.perf_counter())
with contextlib.redirect_stdout(io.StringIO()):
    rc = aqsim.cli.main({argv!r}, {{}})
marks.append(time.perf_counter())
sys.path.insert(0, {bench!r})
from run import calibration_ms
cal = sorted(calibration_ms() for _ in range(5))[2]
print(json.dumps({{"rc": rc, "ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:])],
                  "calibration_ms": cal}}))
"""


def measure(samples: int) -> list[dict]:
    """The scaled median of each phase over ``samples`` fresh interpreters."""
    cell = round_cells("matrix-n8", SEED)[0]
    times = {phase: [] for phase in PHASES}
    with tempfile.TemporaryDirectory() as work:
        for k in range(samples):
            code = CHILD.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
                                argv=argv_of(cell, Path(work) / str(k)))
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
            if result.get("rc") != 0:
                raise SystemExit(f"startup: the invocation failed: {proc.stderr.strip()[-400:]}")
            for phase, ms in zip(PHASES, result["ms"]):
                times[phase].append(ms * CAL_REF_MS / result["calibration_ms"])
    return [{"phase": phase, "ms": round(statistics.median(ms), 2), "samples": samples}
            for phase, ms in times.items()]


def main() -> int:
    for row in measure(SAMPLES):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
