#!/usr/bin/env python3
"""The aqsim benchmark: closed loops of in-process `aqsim run` invocations.

    python3 perfbench/run.py --workload honest-n256 --seed 1 --seconds 20 --trace 0

One operation is one call of ``aqsim.cli.main(argv, env)`` with the argv a
user would type, ``--format json`` and ``--out`` pointing at a scratch
directory. It fails if it exits non-zero, if an exception escapes ``main``
or if any output check in ``checks.py`` fails; every check runs outside
the timed region. Each run attempts whole rounds of its workload's cells
until ``--seconds`` have passed, on one thread.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
cell twice, untraced and through ``replay.py`` in alternating order, and
reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; ``--results PATH`` also appends the run,
with the machine and versions, to a JSON-lines file for ``compare.py``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
from checks import DEFENSE_GRID, TROJAN, VERDICT_TABLE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

WORKLOADS = ("honest-n256", "matrix-n8", "trojan-n64")
MATRIX_TRIALS = 4
SETUP_REPEATS = 9

# Host speed on a shared machine drifts by up to 2x over minutes, so every
# time is scaled by a calibration kernel timed next to it: a reported ms is
# a ms at the speed where the kernel takes CAL_REF_MS, about its time on an
# idle core of the reference machine (see README.md).
CAL_ITERS = 64
CAL_REF_MS = 2.0


def calibration_ms() -> float:
    """Time a fixed kernel of small numpy, list, dict and json work, in ms.

    It uses no aqsim code, so it runs the same on every commit.
    """
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        a = np.array([i, 1.0, 2.0, 3.0], dtype=complex)
        b = np.moveaxis(np.kron(a[:2], a[2:]).reshape(2, 2), 0, 1).reshape(-1)
        json.dumps({"i": i, "amps": [[float(x.real), float(x.imag)] for x in b]})
    return (time.perf_counter() - t0) * 1e3


def round_cells(workload: str, seed: int) -> list[dict]:
    """One round of a workload: (scenario, n, seed, defenses, trials) per cell.

    Every cell of a round shares its seed, so matched-seed arbiter records
    can be compared across cells.
    """
    if workload == "honest-n256":
        grid = [("honest", 256, (), 1)]
    elif workload == "matrix-n8":
        grid = [(s, 8, d, MATRIX_TRIALS) for s in VERDICT_TABLE for d in DEFENSE_GRID]
    elif workload == "trojan-n64":
        grid = [(s, 64, d, 1) for s in TROJAN for d in DEFENSE_GRID]
    else:
        raise ValueError(workload)
    return [{"scenario": s, "n": n, "seed": seed, "defenses": d, "trials": t}
            for s, n, d, t in grid]


def argv_of(cell: dict, out_dir: Path) -> list[str]:
    argv = ["run", "--scenario", cell["scenario"], "--n", str(cell["n"]),
            "--trials", str(cell["trials"]), "--seed", str(cell["seed"]),
            "--format", "json", "--out", str(out_dir)]
    if cell["defenses"]:
        argv += ["--defenses", ",".join(cell["defenses"])]
    return argv


SETUP_CHILD = """
import time
t0 = time.perf_counter()
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import aqsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = aqsim.cli.main({argv!r}, {{}})
setup_s = time.perf_counter() - t0
sys.path.insert(0, {bench!r})
from run import calibration_ms
cal = sorted(calibration_ms() for _ in range(5))[2]
print(json.dumps({{"rc": rc, "setup_s": setup_s, "calibration_ms": cal}}))
"""


def measure_setup(cell: dict, work: Path) -> float:
    """Median over fresh interpreters of `import aqsim` plus one invocation,
    each scaled by the calibration that interpreter times right after."""
    times = []
    for k in range(SETUP_REPEATS):
        code = SETUP_CHILD.format(src=str(SRC), bench=str(Path(__file__).resolve().parent),
                                  argv=argv_of(cell, work / f"setup{k}"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        if result.get("rc") != 0:
            raise RuntimeError(f"set-up invocation failed: {proc.stderr.strip()[-400:]}")
        times.append(result["setup_s"] * CAL_REF_MS / result["calibration_ms"])
    return statistics.median(times)


class Loop:
    """Runs whole rounds of operations and keeps the tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seeds = random.Random(seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.calibrations = [calibration_ms()]

    def run(self, seconds: float, *operations, after_cell=None) -> list[list[tuple[float, int]]]:
        """Whole rounds until ``seconds`` pass; each cell runs every operation,
        in an order that alternates between rounds, then ``after_cell()``.

        ``operation(cell, out_dir)`` returns (exit code or None, stdout, wall
        seconds, failed checks of its own). ``after_cell()`` returns more
        failed checks of the last operation in ``operations``. Returns, per
        operation, the scaled seconds and trial count of each call: its wall
        time scaled by the mean of the calibrations timed just before and
        after it.
        """
        samples = [[] for _ in operations]
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            order = list(enumerate(operations))[:: -1 if rounds % 2 else 1]
            rounds += 1
            # Every cell of a round shares its seed, so the matched-seed
            # records of one round are all that a check needs to keep.
            book = checks.RecordBook()
            for cell in round_cells(self.workload, self.seeds.getrandbits(32)):
                failures = {}
                for k, operation in order:
                    out_dir = self.work / "op"
                    shutil.rmtree(out_dir, ignore_errors=True)
                    rc, stdout, wall, failed = operation(cell, out_dir)
                    self.calibrations.append(calibration_ms())
                    scale = 2 * CAL_REF_MS / sum(self.calibrations[-2:])
                    checked, records = checks.check_invocation(cell, cell["trials"], rc,
                                                               stdout, out_dir)
                    failures[k] = failed + checked + book.check(cell["seed"], records)
                    samples[k].append((wall * scale, cell["trials"]))
                if after_cell is not None:
                    failures[len(operations) - 1] += after_cell()
                for failed in failures.values():
                    self.attempted += 1
                    if failed:
                        self.failed += 1
                        self.failures.update(failed)
        return samples


def untraced_operation(cell: dict, out_dir: Path):
    from aqsim import cli

    argv = argv_of(cell, out_dir)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv, {})
    except Exception:  # an exception escaping main is a failed operation
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0, []


def make_transcript(scenario: str, n: int, seed: int, trial: int) -> str:
    from aqsim.adversary import Scenario
    from aqsim.scenarios import run_scenario

    return run_scenario(Scenario.from_token(scenario), n, seed, trial).transcript_bytes().decode()


def commit_of(root: Path) -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True).stdout.strip() or None
    except OSError:  # no git on this machine
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=None,
                        help="append this run as one JSON line to this file")
    args = parser.parse_args()

    if not (SRC / "aqsim" / "__init__.py").is_file():
        print(f"perfbench: no aqsim sources under {SRC}", file=sys.stderr)
        return 2
    started = time.time()
    work = WORK / f"{args.workload}-{os.getpid()}"
    first_cell = round_cells(args.workload, args.seed)[0]
    try:
        setup_s = measure_setup(first_cell, work) if args.trace == 0 else None

        sys.path.insert(0, str(SRC))
        import aqsim
        from aqsim import cli
        from aqsim.adversary import Scenario
        from aqsim.defense import DefenseConfig

        if Path(aqsim.__file__).resolve().parent != (SRC / "aqsim").resolve():
            print(f"perfbench: imported aqsim from {aqsim.__file__}, not {SRC}", file=sys.stderr)
            return 2
        problems = checks.self_check(make_transcript)
        loop = Loop(args.workload, args.seed, work)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv_of(first_cell, work / "warmup"), {})

        if args.trace == 0:
            [samples] = loop.run(args.seconds, untraced_operation)
            wall = [s for s, _ in samples]
            metrics = {
                "run_ms_p50": {"value": statistics.median(wall) * 1e3, "unit": "ms"},
                "trials_per_s": {"value": sum(t for _, t in samples) / sum(wall), "unit": "1/s"},
                "peak_rss_MB": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
        else:
            import replay

            spans = replay.Spans()
            side_rng = np.random.default_rng(0)
            last = {}

            def traced_operation(cell, out_dir):
                t0 = time.perf_counter()
                try:
                    rc, stdout, trials = replay.traced_invocation(
                        spans, argv_of(cell, out_dir), {})
                except Exception:  # as in untraced_operation
                    rc, stdout, trials = None, "", []
                wall = time.perf_counter() - t0
                last.update(cell=cell, trials=trials)
                return rc, stdout, wall, []

            # Reproducing the trials through run_scenario and timing the
            # primitives waits until both invocations of a cell are done, so
            # neither of them always runs right after that extra work.
            def reproduce():
                cell = last["cell"]
                try:
                    same = replay.after_invocation(
                        spans, Scenario.from_token(cell["scenario"]), cell["n"], cell["seed"],
                        DefenseConfig.from_tokens(cell["defenses"]), last["trials"], side_rng)
                except Exception:  # a replay that cannot be checked does not match
                    same = False
                return [] if same else ["replay-matches-run-scenario"]

            untraced, traced = loop.run(args.seconds, untraced_operation, traced_operation,
                                        after_cell=reproduce)
            # Both lists hold the same cells, so their totals compare like for like.
            overhead = sum(s for s, _ in traced) / sum(s for s, _ in untraced) - 1
            calibration = statistics.median(loop.calibrations)
            metrics = spans.metrics(CAL_REF_MS / calibration)
            metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
            metrics["calibration.ms"] = {"value": calibration, "unit": "ms"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in problems:
        print(f"perfbench: {problem}")
    if loop.failures:
        print(f"perfbench: failed checks {dict(loop.failures)}")
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    if args.results is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "started": started, "commit": commit_of(ROOT),
            "machine": {"platform": platform.platform(), "processor": platform.processor(),
                        "nproc": os.cpu_count()},
            "python": platform.python_version(), "numpy": np.__version__,
            "failed_checks": dict(loop.failures), "problems": problems, "result": result,
        }
        with args.results.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
