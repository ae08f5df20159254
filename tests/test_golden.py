"""Golden corpus: every run and every CLI batch of the grid must reproduce its bytes.

The hashes in golden/transcripts.json and golden/summaries.json were made by
scripts/regen_golden.py. A refactor or speedup must leave every one of them
unchanged.
"""
import json
from pathlib import Path

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
    } | {
        regen_golden.cell_key(s, d, 256, 0, trial)
        for s in SCENARIO_TOKENS for d in DEFENSE_GRID for trial in regen_golden.TRIALS
    }
    assert set(GOLDEN) == expected
    assert len(GOLDEN) == 7 * 4 * 4 * 2 * 2 + 7 * 4 * 2


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


def test_regen_check_prints_the_first_mismatch_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # stand-in hashes, one per cell, so the check runs without the grid
    def hashes(tag):
        return lambda scenario, defenses: {f"{tag}/{scenario}/{defenses.tokens()}": "h"}

    monkeypatch.setattr(regen_golden, "cell_hashes", hashes("t"))
    monkeypatch.setattr(regen_golden, "summary_hashes", hashes("s"))
    transcripts, summaries = tmp_path / "transcripts.json", tmp_path / "summaries.json"
    monkeypatch.setattr(regen_golden, "GOLDEN_PATH", transcripts)
    monkeypatch.setattr(regen_golden, "SUMMARIES_PATH", summaries)
    assert regen_golden.main([]) == 0
    assert regen_golden.main(["--check"]) == 0

    corpus = json.loads(summaries.read_text())
    first, later = sorted(corpus)[2], sorted(corpus)[5]
    corpus[first] = corpus[later] = "stale"
    summaries.write_text(json.dumps(corpus))
    written = transcripts.read_bytes(), summaries.read_bytes()
    capsys.readouterr()
    assert regen_golden.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(f"all {7 * 4} hashes match")
    assert lines[1].endswith(f"2 of {7 * 4} keys mismatch, first {first}")
    assert (transcripts.read_bytes(), summaries.read_bytes()) == written


def test_regen_bad_argument_exits_one_in_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen_golden, "GOLDEN_PATH", tmp_path / "transcripts.json")
    assert regen_golden.main(["--bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "aqsim: error: unrecognized arguments: --bogus\n"
    assert not regen_golden.GOLDEN_PATH.exists()


def test_regen_help_returns_zero_and_keeps_its_docstring_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen_golden, "GOLDEN_PATH", tmp_path / "transcripts.json")
    assert regen_golden.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:") and captured.err == ""
    assert "Usage: PYTHONPATH=src python scripts/regen_golden.py [--check]" in captured.out.splitlines()
    assert not regen_golden.GOLDEN_PATH.exists()


def use_corpus_paths(tmp_path, monkeypatch):
    transcripts, summaries = tmp_path / "transcripts.json", tmp_path / "summaries.json"
    monkeypatch.setattr(regen_golden, "GOLDEN_PATH", transcripts)
    monkeypatch.setattr(regen_golden, "SUMMARIES_PATH", summaries)
    return transcripts, summaries


@pytest.mark.parametrize("bad", ["transcripts", "summaries"])
@pytest.mark.parametrize("content", ['{"k": "h', '["k"]', b"\xff", None],
                         ids=["truncated", "not-an-object", "not-utf8", "missing"])
def test_regen_check_refuses_an_unreadable_corpus_before_computing_anything(
        bad, content, tmp_path, monkeypatch, capsys):
    def computed(scenario, defenses):
        raise AssertionError("the grid was computed")

    monkeypatch.setattr(regen_golden, "cell_hashes", computed)
    monkeypatch.setattr(regen_golden, "summary_hashes", computed)
    paths = dict(zip(["transcripts", "summaries"], use_corpus_paths(tmp_path, monkeypatch)))
    for path in paths.values():
        path.write_text('{"k": "h"}\n')
    if content is None:
        paths[bad].unlink()
    else:
        paths[bad].write_bytes(content if type(content) is bytes else content.encode())
    assert regen_golden.main(["--check"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("aqsim: error: ")
    assert str(paths[bad]) in err


def test_regen_an_interrupted_write_leaves_the_stored_corpus_whole(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen_golden, "cell_hashes",
                        lambda scenario, defenses: {f"{scenario}/{defenses.tokens()}": "new"})
    monkeypatch.setattr(regen_golden, "summary_hashes", lambda scenario, defenses: {})
    transcripts, _ = use_corpus_paths(tmp_path, monkeypatch)
    transcripts.write_text('{"k": "old"}\n')

    def interrupted(path, data, *args, **kwargs):  # half the data lands, then the run stops
        with open(path, "wb" if type(data) is bytes else "w") as file:
            file.write(data[:len(data) // 2])
        raise KeyboardInterrupt

    monkeypatch.setattr(Path, "write_bytes", interrupted)
    monkeypatch.setattr(Path, "write_text", interrupted)
    assert regen_golden.main([]) == 1
    assert capsys.readouterr().err == "aqsim: interrupted\n"
    assert transcripts.read_text() == '{"k": "old"}\n'
    assert [path.name for path in tmp_path.iterdir()] == ["transcripts.json"]


def test_regen_an_interrupt_in_a_summary_batch_ends_the_run_and_writes_no_summaries(
        tmp_path, monkeypatch, capsys):
    # the batch is interrupted inside aqsim run's body: the script stops there,
    # rather than hashing the batch's empty output into the corpus
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(regen_golden, "cell_hashes", lambda scenario, defenses: {scenario: "h"})
    monkeypatch.setattr(regen_golden.cli, "run_scenario", interrupted)
    transcripts, summaries = use_corpus_paths(tmp_path, monkeypatch)
    assert regen_golden.main([]) == 1
    assert capsys.readouterr().err == "aqsim: interrupted\n"
    assert transcripts.exists() and not summaries.exists()
