import contextlib
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

import pytest
import run_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsim import cli
from aqsim.adversary import SCENARIO_TOKENS, ScenarioVariant
from aqsim.cli import UsageError, parse_config, render_summary, run_batch
from aqsim.defense import DefenseConfig


def parse(argv, env=None):
    return parse_config(argv, env or {})


BASE = ["run", "--scenario", "honest", "--n", "4", "--trials", "3", "--seed", "9"]


# --- argument parsing ---------------------------------------------------------


def test_parse_valid_config():
    config = parse(["run", "--scenario", "honest", "--n", "8", "--trials", "100",
                    "--seed", "42"])
    assert config.scenario.variant is ScenarioVariant.HONEST
    assert (config.n, config.trials, config.seed) == (8, 100, 42)
    assert config.defenses == DefenseConfig()
    assert config.out is None
    assert config.format == "text"


def test_parse_rejects_unknown_scenario():
    with pytest.raises(UsageError, match="--scenario"):
        parse(["run", "--scenario", "bogus", "--n", "4", "--trials", "1", "--seed", "1"])


def test_parse_rejects_bad_counts():
    with pytest.raises(UsageError, match="--n"):
        parse(["run", "--scenario", "honest", "--n", "0", "--trials", "1", "--seed", "1"])
    with pytest.raises(UsageError, match="--trials"):
        parse(["run", "--scenario", "honest", "--n", "1", "--trials", "0", "--seed", "1"])


@pytest.mark.parametrize("n", ["0", "-3", str(2 ** 70), str(cli.N_MAX + 1)])
def test_parse_bounds_n(n, capsys):
    # refused at the parser, before any trial allocates n qubits
    with pytest.raises(UsageError, match="--n: must be"):
        parse(BASE[:4] + [n] + BASE[5:])
    assert cli.main(BASE[:4] + [n] + BASE[5:], env={}) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert parse(BASE[:4] + [str(cli.N_MAX)] + BASE[5:]).n == cli.N_MAX


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse(BASE + ["--turbo"])


def test_seed_env_fallback():
    config = parse(["run", "--scenario", "honest", "--n", "4", "--trials", "1"],
                   env={"AQS_SEED": "7"})
    assert config.seed == 7


def test_seed_missing_everywhere():
    with pytest.raises(UsageError, match="--seed"):
        parse(["run", "--scenario", "honest", "--n", "4", "--trials", "1"])


def test_seed_env_not_integer():
    with pytest.raises(UsageError, match="--seed"):
        parse(["run", "--scenario", "honest", "--n", "4", "--trials", "1"],
              env={"AQS_SEED": "many"})


def test_parse_defenses_list():
    config = parse(BASE + ["--defenses", "wavelength-filter,pns"])
    assert config.defenses == DefenseConfig(wavelength_filter=True, pns=True)
    with pytest.raises(UsageError, match="--defenses"):
        parse(BASE + ["--defenses", "tinfoil"])


def test_parse_tamper_scenarios_get_default_index():
    config = parse(["run", "--scenario", "alice-tamper", "--n", "4", "--trials", "1",
                    "--seed", "3"])
    assert config.scenario.tamper_indices == (1,)


# --- batch execution ----------------------------------------------------------


def test_run_batch_honest_all_pass(tmp_path):
    config = parse(BASE + ["--out", str(tmp_path / "out")])
    summary = run_batch(config)
    assert summary.all_ok
    assert all(passed == total for passed, total in summary.check_counts.values())
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == [f"honest-n4-seed9-trial{t:04d}.json" for t in range(3)]


def test_run_batch_attack_scenario_expects_detection():
    config = parse(["run", "--scenario", "ipe", "--n", "4", "--trials", "5", "--seed", "10",
                    "--defenses", "wavelength-filter"])
    summary = run_batch(config)
    assert summary.all_ok
    assert summary.check_counts["alarm-raised"] == [5, 5]
    assert summary.check_counts["run-aborted"] == [5, 5]


def test_run_batch_stealth_scenario_expects_extraction():
    config = parse(["run", "--scenario", "delay-photon", "--n", "4", "--trials", "5",
                    "--seed", "10"])
    summary = run_batch(config)
    assert summary.all_ok
    assert summary.check_counts["extraction-exact"] == [5, 5]


def test_run_batch_transcripts_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_batch(parse(["run", "--scenario", "ipe", "--n", "3", "--trials", "4",
                         "--seed", "21", "--out", str(out)]))
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- rendering ----------------------------------------------------------------


def test_render_text_has_one_line_per_check():
    summary = run_batch(parse(BASE))
    text = render_summary(summary, "text")
    lines = text.splitlines()
    assert lines[0].startswith("scenario=honest n=4 trials=3 seed=9")
    assert len(lines) == 2 + len(summary.check_counts)
    assert lines[-1] == "overall: PASS"


def test_render_json_parseable_with_stable_keys():
    summary = run_batch(parse(BASE))
    doc = json.loads(render_summary(summary, "json"))
    assert list(doc) == ["config", "checks", "trials", "overall"]
    assert doc["overall"] is True
    assert doc["config"] == {"scenario": "honest", "n": 4, "trials": 3, "seed": 9,
                             "defenses": []}
    for row in doc["trials"]:
        assert list(row) == ["trial", "checks", "verdict", "alarms", "extraction_match", "ok"]
        assert list(row["checks"]) == ["V", "v5", "recover_fidelity_min", "signature_valid"]


# --- exit codes ---------------------------------------------------------------


def test_main_exit_zero_on_success(capsys):
    assert cli.main(BASE, env={}) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_main_exit_one_on_usage_error(capsys):
    assert cli.main(["run", "--scenario", "bogus", "--n", "1", "--trials", "1",
                     "--seed", "1"], env={}) == 1
    assert "--scenario" in capsys.readouterr().err


def test_main_exit_one_on_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = cli.main(BASE + ["--out", str(blocker / "sub")], env={})
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_closed_stdout_ends_in_one_io_error_line():
    # the reader is gone before the summary is written: one line, exit 1,
    # and no second failure when the interpreter flushes stdout at exit
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen([sys.executable, "-m", "aqsim", *BASE, "--format", "json"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert err.startswith("aqsim: io error: ") and err.count("\n") == 1, err


def test_empty_out_is_a_usage_error(capsys):
    # an empty path would otherwise name the working directory
    with pytest.raises(UsageError, match="--out"):
        parse(BASE + ["--out", ""])
    assert cli.main(BASE + ["--out", ""], env={}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "aqsim: error: --out: must name a directory\n"


def test_sigint_ends_a_batch_in_one_line_and_leaves_whole_transcripts(tmp_path):
    # interrupted once the first transcript is in place: exit 1, one line,
    # and every file left behind is a whole transcript, with no temp file
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "out"
    child = subprocess.Popen([sys.executable, "-m", "aqsim", "run", "--scenario", "honest",
                              "--n", "8", "--trials", "100000", "--seed", "1", "--out", str(out)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not (out.is_dir() and any(p.suffix == ".json" for p in out.iterdir())):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGINT)
        stdout, stderr = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 1
    assert stderr.decode() == "aqsim: interrupted\n"
    assert stdout == b""
    files = sorted(out.iterdir())
    assert files and all(p.name.startswith("honest-n8-seed1-trial") for p in files)
    for path in files:
        assert json.loads(path.read_bytes())["config"]["n"] == 8


# each flag's values, valid and not; none of them is large
VALID = {"--scenario": SCENARIO_TOKENS, "--n": ("1", "2"), "--trials": ("1", "2"),
         "--seed": ("0", "7"), "--defenses": ("", "pns", "wavelength-filter,pns"),
         "--format": ("json", "text"), "--out": ("OUT",)}
INVALID = {"--scenario": ("bogus", ""), "--n": ("-1", "0", str(cli.N_MAX + 1), "x", ""),
           "--trials": ("0", "-5", "x"), "--seed": ("-1", str(2 ** 64), "y"),
           "--defenses": ("bogus", ",pns,"), "--format": ("xml",), "--out": ("BLOCKED", "")}
FLAGS = sorted(VALID)
# stray tokens: flag-like, spaced, non-ASCII or multi-line; with no digit
# and no "=", none of them sets a count
STRAY = st.text(st.sampled_from("-ab é\n\t☃"), max_size=6)


def test_main_fuzzed_argv_ends_in_a_documented_code_and_one_line():
    # a whole argv with a few flags broken, dropped, left without a value
    # or joined by stray tokens, in any order
    with tempfile.TemporaryDirectory() as tmp:
        blocker = pathlib.Path(tmp) / "blocker"
        blocker.write_text("not a directory")
        paths = {"OUT": str(pathlib.Path(tmp) / "out"), "BLOCKED": str(blocker / "sub")}

        @settings(max_examples=200, deadline=None)
        @given(data=st.data(), command=st.one_of(st.just(["run"]), st.sampled_from([[], ["x"]])),
               env=st.sampled_from([{}, {"AQS_SEED": "3"}, {"AQS_SEED": "z"}]))
        def check(data, command, env):
            def some(strategy):  # half the time nothing, so that some argvs are whole
                return data.draw(st.one_of(st.just(set()), strategy))

            broken = some(st.sets(st.sampled_from(FLAGS), min_size=1, max_size=2))
            dropped = some(st.sets(st.sampled_from(FLAGS), min_size=1, max_size=2))
            bare = some(st.sets(st.sampled_from(FLAGS), min_size=1, max_size=1))
            units = [[flag] if flag in bare else
                     [flag, paths.get(value, value) if flag == "--out" else value]
                     for flag in FLAGS if flag not in dropped
                     for value in [data.draw(st.sampled_from(
                         (INVALID if flag in broken else VALID)[flag]))]]
            units += [[token] for token in some(st.lists(STRAY, min_size=1, max_size=2))]
            argv = command + [token for unit in data.draw(st.permutations(units))
                              for token in unit]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv, env)
                except SystemExit as exc:  # argparse's --help, which prints the usage
                    code = exc.code
            assert code in (0, 1, 2), (argv, code)
            assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), argv

        check()


def test_main_exit_two_on_failed_expectation(monkeypatch, capsys):
    monkeypatch.setattr(cli, "evaluate_expectations", lambda *a, **k: {"doomed": False})
    assert cli.main(BASE, env={}) == 2
    assert "overall: FAIL" in capsys.readouterr().out


def test_main_uses_env_seed(capsys):
    code = cli.main(["run", "--scenario", "honest", "--n", "2", "--trials", "1"],
                    env={"AQS_SEED": "5"})
    assert code == 0
    assert "seed=5" in capsys.readouterr().out


def test_parse_reuses_one_parser():
    parse(BASE)
    first = cli._parser()
    parse(BASE + ["--format", "json"])
    assert cli._parser() is first
    # a reused parser keeps no state from the previous call
    assert parse(BASE).format == "text"


@pytest.mark.parametrize("seed", [str(2 ** 64 - 1), "0"])
def test_seed_accepts_the_64_bit_range(seed):
    assert parse(BASE[:-1] + [seed]).seed == int(seed)


@pytest.mark.parametrize("seed", [str(2 ** 64), "46000000000000000000000", "-1"])
def test_seed_outside_64_bits_is_a_usage_error(seed, capsys):
    with pytest.raises(UsageError, match="64-bit"):
        parse(BASE[:-1] + [seed])
    with pytest.raises(UsageError, match="64-bit"):
        parse(BASE[:-2], env={"AQS_SEED": seed})
    assert cli.main(BASE[:-1] + [seed], env={}) == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("error", [
    "aqsim.statevector.NotNormalized", "aqsim.protocol.ProtocolError",
    "aqsim.adversary.MissingDecoy", "aqsim.qotp.KeyTooShort",
])
def test_main_exit_two_on_internal_error(monkeypatch, capsys, error):
    module, name = error.rsplit(".", 1)
    exc_type = getattr(__import__(module, fromlist=[name]), name)

    def broken(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "run_scenario", broken)
    assert cli.main(BASE, env={}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aqsim: internal error: {name}: boom\n"


# --- transcript files ---------------------------------------------------------


def test_failed_write_leaves_no_partial_transcript(monkeypatch, tmp_path, capsys):
    out = tmp_path / "out"
    write_bytes = pathlib.Path.write_bytes

    def disk_full_on_second_file(path, data):
        if len(list(out.iterdir())) == 1:  # trial 0 is in place
            write_bytes(path, data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(pathlib.Path, "write_bytes", disk_full_on_second_file)
    assert cli.main(BASE + ["--out", str(out)], env={}) == 1
    err = capsys.readouterr().err
    assert err.startswith("aqsim: io error:") and err.count("\n") == 1
    files = list(out.iterdir())
    assert [p.name for p in files] == ["honest-n4-seed9-trial0000.json"]
    json.loads(files[0].read_bytes())


def test_successful_batch_leaves_only_transcripts(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(BASE + ["--out", str(out)], env={}) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        f"honest-n4-seed9-trial{t:04d}.json" for t in range(3)]


# --- scripts/run_matrix.py ------------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (["--n", "0", "--trials", "1"], "--n: must be >= 1"),
    (["--trials", "0"], "--trials: must be >= 1"),
    (["--seed", "-1"], "--seed: must be a non-negative 64-bit integer"),
    (["--seed", str(2 ** 64)], "--seed: must be a non-negative 64-bit integer"),
    (["--n", "x"], "argument --n: invalid int value: 'x'"),
])
def test_run_matrix_bad_argument_exits_one_in_one_line(argv, message, capsys):
    assert run_matrix.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aqsim: error: {message}\n"


def test_run_matrix_interrupt_exits_one_in_one_line(monkeypatch, capsys):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(run_matrix, "run_batch", interrupted)
    assert run_matrix.main(["--n", "1", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "aqsim: interrupted\n"


def test_run_matrix_escapes_a_newline_in_its_error_line(monkeypatch, capsys):
    def refused(argv, env):
        raise UsageError("--n: bad value '1\n2'")

    monkeypatch.setattr(run_matrix, "parse_config", refused)
    assert run_matrix.main([]) == 1
    assert capsys.readouterr().err == "aqsim: error: --n: bad value '1\\n2'\n"


def test_run_matrix_prints_one_line_per_cell(capsys):
    assert run_matrix.main(["--n", "1", "--trials", "1", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 7 * 4
    assert lines[-1] == "overall: PASS"
