#!/usr/bin/env python3
"""Regenerate the golden corpus: tests/golden/transcripts.json and summaries.json.

Usage: PYTHONPATH=src python scripts/regen_golden.py [--check]

With ``--check`` it recomputes both corpora and writes nothing: it prints
the first mismatching key of each corpus that differs from its file and
exits 1 on any mismatch, 0 when both match.

transcripts.json maps one key per run of the grid below to the sha256 of
that run's transcript bytes. summaries.json maps one key per CLI batch of
the summary grid to the sha256 of what ``aqsim run`` prints, which pins the
names, order and counts of the expected-outcome checks. ``tests/test_golden.py``
recomputes every hash, so any change to a transcript or summary byte shows
up there. A change that moves a hash is a behaviour change and must say why
in CHANGES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from aqsim import cli
from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.defense import DEFENSE_GRID
from aqsim.scenarios import run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_PATH = GOLDEN_DIR / "transcripts.json"
SUMMARIES_PATH = GOLDEN_DIR / "summaries.json"
NS = (1, 3, 8, 64)
SEEDS = (0, 42)
TRIALS = (0, 1)
SUMMARY_NS = (1, 8)
SUMMARY_FORMATS = ("json", "text")


def cell_key(scenario: str, defenses, n: int, seed: int, trial: int) -> str:
    return f"{scenario}/{','.join(defenses.tokens()) or '-'}/n{n}/seed{seed}/trial{trial}"


def cell_runs(scenario: str, defenses):
    """(key, RunResult) for every run of one scenario x defense cell."""
    for n in NS:
        for seed in SEEDS:
            for trial in TRIALS:
                result = run_scenario(Scenario.from_token(scenario), n, seed, trial,
                                      defenses=defenses)
                yield cell_key(scenario, defenses, n, seed, trial), result


def run_hashes(runs) -> dict[str, str]:
    """sha256 of the transcript bytes of each (key, RunResult)."""
    return {key: hashlib.sha256(result.transcript_bytes()).hexdigest() for key, result in runs}


def cell_hashes(scenario: str, defenses) -> dict[str, str]:
    return run_hashes(cell_runs(scenario, defenses))


def summary_hashes(scenario: str, defenses) -> dict[str, str]:
    """sha256 of what ``aqsim run`` prints for each batch of one scenario x defense
    cell: seed 42, 3 trials, every size in SUMMARY_NS and format in SUMMARY_FORMATS."""
    tokens = ",".join(defenses.tokens())
    hashes = {}
    for n, fmt in itertools.product(SUMMARY_NS, SUMMARY_FORMATS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["run", "--scenario", scenario, "--n", str(n), "--trials", "3", "--seed",
                      "42", "--defenses", tokens, "--format", fmt], {})
        key = f"{scenario}/{tokens or '-'}/n{n}/{fmt}"
        hashes[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden corpus.")
    parser.add_argument("--check", action="store_true",
                        help="recompute both corpora, write nothing, exit 1 on any mismatch")
    check = parser.parse_args(argv).check
    mismatched = False
    for path, hashes in ((GOLDEN_PATH, cell_hashes), (SUMMARIES_PATH, summary_hashes)):
        corpus: dict[str, str] = {}
        for scenario in SCENARIO_TOKENS:
            for defenses in DEFENSE_GRID:
                corpus.update(hashes(scenario, defenses))
        if not check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(corpus)} hashes to {path}")
            continue
        stored = json.loads(path.read_text()) if path.exists() else {}
        keys = sorted(key for key in corpus.keys() | stored.keys()
                      if corpus.get(key) != stored.get(key))
        if keys:
            mismatched = True
            print(f"{path}: {len(keys)} of {len(corpus | stored)} keys mismatch, first {keys[0]}")
        else:
            print(f"{path}: all {len(corpus)} hashes match")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
