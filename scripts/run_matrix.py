#!/usr/bin/env python3
"""Sweep every scenario/defense combination and print one outcome line each.

Usage: PYTHONPATH=src python scripts/run_matrix.py [--n N] [--trials T] [--seed S]

Each line is one ``aqsim run`` batch of the cell, run through ``cli.run_batch``.
Each cell's config is built by ``cli.parse_config``, so a bad value ends
like it does for ``aqsim run``: exit 1 with one ``aqsim: error:`` line. An
interrupt (Ctrl-C) ends it as it ends ``aqsim run``: exit 1 with one
``aqsim: interrupted`` line. Both lines are written by ``cli.fail``.
"""
import argparse
from collections import Counter

from aqsim.adversary import SCENARIO_TOKENS
from aqsim.cli import UsageError, fail, parse_config, run_batch
from aqsim.defense import DEFENSE_GRID


def main(argv=None) -> int:
    try:
        return _sweep(argv)
    except KeyboardInterrupt:
        return fail("interrupted", 1)


def _sweep(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="4")
    parser.add_argument("--trials", default="20")
    parser.add_argument("--seed", default="2026")
    args = parser.parse_args(argv)

    try:
        configs = [
            parse_config(["run", "--scenario", token, "--n", args.n, "--trials", args.trials,
                          "--seed", args.seed, "--defenses", ",".join(defenses.tokens())], {})
            for token in SCENARIO_TOKENS for defenses in DEFENSE_GRID
        ]
    except UsageError as exc:
        return fail(f"error: {exc}", 1)

    print(f"{'scenario':<16} {'defenses':<24} {'verdicts':<28} expected")
    all_ok = True
    for config in configs:
        rows = run_batch(config).trial_rows
        ok = sum(row["ok"] for row in rows)
        all_ok = all_ok and ok == config.trials
        verdicts = Counter(str(row["verdict"]) for row in rows)
        verdict_text = ",".join(f"{c}x {v}" for v, c in sorted(verdicts.items()))
        defense_text = ",".join(config.defenses.tokens()) or "-"
        print(f"{config.scenario.token:<16} {defense_text:<24} {verdict_text:<28} "
              f"{ok}/{config.trials}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
