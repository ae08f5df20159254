#!/usr/bin/env python3
"""Regenerate the golden corpus: tests/golden/transcripts.json and summaries.json.

Usage: PYTHONPATH=src python scripts/regen_golden.py [--check]

With ``--check`` it recomputes both corpora and writes nothing: it prints
the first mismatching key of each corpus that differs from its file and
exits 1 on any mismatch, 0 when both match; it reads both stored corpora
first. As for ``aqsim run``, a bad option or a stored corpus that is not a
readable JSON object exits 1 with one ``aqsim: error:`` line, and
``--help`` exits 0. A corpus is written whole or not at all.

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
BENCH_N = 256  # the benchmark's n, pinned on seed 0 only
# (n, seed, trial) of every run of a scenario x defense cell
RUNS = (*itertools.product(NS, SEEDS, TRIALS), *itertools.product((BENCH_N,), (0,), TRIALS))
SUMMARY_NS = (1, 8)
SUMMARY_FORMATS = ("json", "text")


def cell_key(scenario: str, defenses, n: int, seed: int, trial: int) -> str:
    return f"{scenario}/{','.join(defenses.tokens()) or '-'}/n{n}/seed{seed}/trial{trial}"


def cell_runs(scenario: str, defenses):
    """(key, RunResult) for every run of one scenario x defense cell."""
    for n, seed, trial in RUNS:
        result = run_scenario(Scenario.from_token(scenario), n, seed, trial, defenses=defenses)
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
    parser = cli.Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="recompute both corpora, write nothing, exit 1 on any mismatch")
    try:
        check = parser.parse_args(argv).check
    except cli.UsageError as exc:
        return cli.fail(f"error: {exc}", 1)
    except cli.HelpShown:
        return 0
    corpora = ((GOLDEN_PATH, cell_hashes), (SUMMARIES_PATH, summary_hashes))
    stored = {}  # path -> the corpus it holds, read before anything is computed
    if check:
        for path, _ in corpora:
            try:
                stored[path] = json.loads(path.read_text())
                if type(stored[path]) is not dict:
                    raise ValueError("not a JSON object")
            except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError too
                return cli.fail(f"error: cannot read the stored corpus {path}: {exc}", 1)
    mismatched = False
    for path, hashes in corpora:
        corpus: dict[str, str] = {}
        for scenario in SCENARIO_TOKENS:
            for defenses in DEFENSE_GRID:
                corpus.update(hashes(scenario, defenses))
        if not check:
            path.parent.mkdir(parents=True, exist_ok=True)
            cli._write_atomic(path, (json.dumps(corpus, indent=1, sort_keys=True) + "\n").encode())
            print(f"wrote {len(corpus)} hashes to {path}")
            continue
        old = stored[path]
        keys = sorted(key for key in corpus.keys() | old.keys() if corpus.get(key) != old.get(key))
        if keys:
            mismatched = True
            print(f"{path}: {len(keys)} of {len(corpus | old)} keys mismatch, first {keys[0]}")
        else:
            print(f"{path}: all {len(corpus)} hashes match")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
