#!/usr/bin/env python3
"""Per-trial time against n, for every scenario x defense cell.

Usage: PYTHONPATH=src python scripts/curve.py [--n N,N,...] [--trials T] [--seed S]

For each n (by default 1, 8, 64, 256, 1024 and 4096) every scenario runs
under every defense set of ``scripts/run_matrix.py``, T trials each
(default 3). Each n runs in a process of its own, because the slot plan is
built once per n and process; a process first runs one untimed ``honest``
trial of its n. One JSON line per trial goes to stdout:

    {"scenario", "defenses", "n", "seed", "trial", "ms", "calibration_ms"}

``ms`` is the trial's ``run_scenario`` plus its transcript bytes, scaled by
the calibration kernel of ``perfbench/run.py`` (``calibration_ms``) timed
right before and right after the cell's trials: a ms at the speed where the
kernel takes ``CAL_REF_MS``, as the benchmark reports it. The curve is a
report, not a gate.

Each cell's config is built by ``cli.parse_config``, so a bad value or an
unknown option ends like it does for ``aqsim run``: exit 1 with one
``aqsim: error:`` line, written by ``cli.fail``; an interrupt ends in exit 1
with ``aqsim: interrupted``.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.cli import HelpShown, Parser, UsageError, fail, parse_config
from aqsim.defense import DEFENSE_GRID
from aqsim.scenarios import run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import CAL_REF_MS, calibration_ms  # noqa: E402  (perfbench/run.py)

NS = "1,8,64,256,1024,4096"


def main(argv=None) -> int:
    try:
        return _curve(sys.argv[1:] if argv is None else argv)
    except KeyboardInterrupt:
        return fail("interrupted", 1)


def _curve(argv) -> int:
    parser = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", default=NS)
    parser.add_argument("--trials", default="3")
    parser.add_argument("--seed", default="2026")
    try:
        args = parser.parse_args(argv)
        ns = args.n.split(",")
        configs = {n: [parse_config(["run", "--scenario", token, "--n", n, "--trials", args.trials,
                                     "--seed", args.seed, "--defenses", ",".join(d.tokens())], {})
                       for token in SCENARIO_TOKENS for d in DEFENSE_GRID] for n in ns}
    except UsageError as exc:
        return fail(f"error: {exc}", 1)
    except HelpShown:
        return 0

    if len(ns) == 1:
        lines = list(_lines(configs[ns[0]]))
    else:  # one child per n, run in turn
        lines = []
        for n in ns:
            child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--n", n,
                                    "--trials", args.trials, "--seed", args.seed],
                                   capture_output=True, text=True)
            if child.returncode:
                sys.stderr.write(child.stderr)
                return child.returncode
            lines += child.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _lines(configs):
    """One JSON line per trial of each config, all of one n, in this process."""
    run_scenario(Scenario.from_token("honest"), configs[0].n, configs[0].seed)  # warm-up
    for config in configs:
        before = calibration_ms()
        times = []
        for trial in range(config.trials):
            t0 = time.perf_counter()
            run_scenario(config.scenario, config.n, config.seed, trial,
                         defenses=config.defenses).transcript.to_bytes()
            times.append((time.perf_counter() - t0) * 1e3)
        calibration = (before + calibration_ms()) / 2
        for trial, ms in enumerate(times):
            yield json.dumps({
                "scenario": config.scenario.token, "defenses": config.defenses.tokens(),
                "n": config.n, "seed": config.seed, "trial": trial,
                "ms": ms * CAL_REF_MS / calibration, "calibration_ms": calibration,
            })


if __name__ == "__main__":
    raise SystemExit(main())
