#!/usr/bin/env python3
"""Regenerate the golden transcript corpus, tests/golden/transcripts.json.

Usage: PYTHONPATH=src python scripts/regen_golden.py

The corpus maps one key per run of the grid below to the sha256 of that
run's transcript bytes. ``tests/test_golden.py`` recomputes every hash, so
any change to a transcript byte shows up there. A change that moves a hash
is a behaviour change and must say why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run_matrix import DEFENSE_GRID  # noqa: E402

from aqsim.adversary import SCENARIO_TOKENS, Scenario  # noqa: E402
from aqsim.scenarios import run_scenario  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "transcripts.json"
NS = (1, 3, 8, 64)
SEEDS = (0, 42)
TRIALS = (0, 1)


def cell_key(scenario: str, defenses, n: int, seed: int, trial: int) -> str:
    return f"{scenario}/{','.join(defenses.tokens()) or '-'}/n{n}/seed{seed}/trial{trial}"


def cell_runs(scenario: str, defenses, ns=NS):
    """(key, RunResult) for every run of one scenario x defense cell."""
    for n in ns:
        for seed in SEEDS:
            for trial in TRIALS:
                result = run_scenario(Scenario.from_token(scenario), n, seed, trial,
                                      defenses=defenses)
                yield cell_key(scenario, defenses, n, seed, trial), result


def cell_hashes(scenario: str, defenses) -> dict[str, str]:
    return {key: hashlib.sha256(result.transcript_bytes()).hexdigest()
            for key, result in cell_runs(scenario, defenses)}


def main() -> int:
    corpus: dict[str, str] = {}
    for scenario in SCENARIO_TOKENS:
        for defenses in DEFENSE_GRID:
            corpus.update(cell_hashes(scenario, defenses))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} hashes to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
