#!/usr/bin/env python3
"""Sweep every scenario/defense combination and print one outcome line each.

Usage: PYTHONPATH=src python scripts/run_matrix.py [--n N] [--trials T] [--seed S]

Each line is one ``aqsim run`` batch of the cell, run through ``cli.run_batch``.
"""
import argparse
from collections import Counter

from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.cli import RunConfig, run_batch
from aqsim.defense import DEFENSE_GRID


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    print(f"{'scenario':<16} {'defenses':<24} {'verdicts':<28} expected")
    all_ok = True
    for token in SCENARIO_TOKENS:
        for defenses in DEFENSE_GRID:
            config = RunConfig(Scenario.from_token(token), args.n, args.trials, args.seed,
                               defenses, out=None, format="text")
            rows = run_batch(config).trial_rows
            ok = sum(row["ok"] for row in rows)
            all_ok = all_ok and ok == args.trials
            verdicts = Counter(str(row["verdict"]) for row in rows)
            verdict_text = ",".join(f"{c}x {v}" for v, c in sorted(verdicts.items()))
            defense_text = ",".join(defenses.tokens()) or "-"
            print(f"{token:<16} {defense_text:<24} {verdict_text:<28} {ok}/{args.trials}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
