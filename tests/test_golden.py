"""Golden corpus: every run and every CLI batch of the grid must reproduce its bytes.

The hashes in golden/transcripts.json and golden/summaries.json were made by
scripts/regen_golden.py. A refactor or speedup must leave every one of them
unchanged.
"""
import json

import pytest

import regen_golden
from aqsim.adversary import SCENARIO_TOKENS
from aqsim.defense import DEFENSE_GRID

GOLDEN = json.loads(regen_golden.GOLDEN_PATH.read_text())


def test_corpus_covers_the_grid():
    expected = {
        regen_golden.cell_key(s, d, n, seed, trial)
        for s in SCENARIO_TOKENS for d in DEFENSE_GRID
        for n in regen_golden.NS for seed in regen_golden.SEEDS for trial in regen_golden.TRIALS
    }
    assert set(GOLDEN) == expected
    assert len(GOLDEN) == 7 * 4 * 4 * 2 * 2


@pytest.mark.parametrize("defenses", DEFENSE_GRID, ids=lambda d: ",".join(d.tokens()) or "none")
@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_transcripts_match_golden(scenario, defenses, golden_grid):
    got = regen_golden.run_hashes(golden_grid.runs(scenario, defenses))
    mismatched = sorted(key for key, digest in got.items() if GOLDEN[key] != digest)
    assert not mismatched


SUMMARIES = json.loads(regen_golden.SUMMARIES_PATH.read_text())


def test_summaries_cover_the_grid():
    assert len(SUMMARIES) == 7 * 4 * len(regen_golden.SUMMARY_NS) * len(regen_golden.SUMMARY_FORMATS)


@pytest.mark.parametrize("defenses", DEFENSE_GRID, ids=lambda d: ",".join(d.tokens()) or "none")
@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_cli_summaries_match_golden(scenario, defenses):
    got = regen_golden.summary_hashes(scenario, defenses)
    mismatched = sorted(key for key, digest in got.items() if SUMMARIES.get(key) != digest)
    assert not mismatched
