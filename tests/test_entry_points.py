"""The scripts fail as ``aqsim run`` does: each runs its body through
``cli.run_entry``, so every failure ends in its documented exit code and
one ``aqsim:`` line on stderr, with no traceback (README, "Exit codes")."""
import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curve
import regen_golden
import run_matrix
import startup
from aqsim import cli
from aqsim.adversary import MissingDecoy
from aqsim.protocol import ProtocolError
from aqsim.qotp import KeyTooShort
from aqsim.statevector import NotNormalized

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each script: a valid argv, the (module, name) its body calls for each run,
# and its out-of-memory line, which names n where the batch has one
SCRIPTS = {
    run_matrix: (["--n", "1", "--trials", "1"], (cli, "run_scenario"), "out of memory at --n 1"),
    curve: (["--n", "1", "--trials", "1"], (curve, "run_scenario"), "out of memory at --n 1"),
    regen_golden: (["--check"], (regen_golden, "run_scenario"), "out of memory"),
    startup: ([], (startup, "measure"), "out of memory"),
}
NAMES = [script.__name__ for script in SCRIPTS]


@pytest.fixture(autouse=True)
def no_child_interpreter(monkeypatch):
    """``startup.py``'s 15 interpreters, or ``curve.py``'s one per n, are
    never started here: a call of ``subprocess.run`` fails the test."""
    def refused(*args, **kwargs):
        raise AssertionError(f"subprocess.run{args}")

    monkeypatch.setattr(subprocess, "run", refused)


# a bad option and --help of the other scripts: test_cli.py, test_curve.py
# and test_golden.py
def test_startup_bad_option_exits_one_in_one_line(capsys):
    assert startup.main(["--bogus"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "aqsim: error: unrecognized arguments: --bogus\n")


def test_startup_help_exits_zero_and_starts_no_interpreter(capsys):
    assert startup.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "Usage: python scripts/startup.py" in captured.out.splitlines()
    assert captured.out.startswith("usage:") and captured.err == ""


# what a run raises, the exit code, and the line after "aqsim: " (None: the
# script's out-of-memory line)
FAILURES = [
    (KeyboardInterrupt, (), 1, "interrupted"),
    (MemoryError, (), 1, None),
    (OSError, (28, "No space left on device"), 1, "io error: [Errno 28] No space left on device"),
    (NotNormalized, ("boom",), 2, "internal error: NotNormalized: boom"),
    (ProtocolError, ("boom",), 2, "internal error: ProtocolError: boom"),
    (MissingDecoy, ("boom",), 2, "internal error: MissingDecoy: boom"),
    (KeyTooShort, ("boom",), 2, "internal error: KeyTooShort: boom"),
]


@pytest.mark.parametrize("error,args,code,line", FAILURES, ids=[f[0].__name__ for f in FAILURES])
@pytest.mark.parametrize("script", SCRIPTS, ids=NAMES)
def test_a_failed_run_ends_in_its_code_and_one_line(script, error, args, code, line, monkeypatch,
                                                    capsys):
    argv, (owner, name), out_of_memory = SCRIPTS[script]

    def failed(*_, **__):
        raise error(*args)

    monkeypatch.setattr(owner, name, failed)
    assert script.main(argv) == code
    assert capsys.readouterr().err == f"aqsim: {line or out_of_memory}\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_run_matrix_closed_stdout_ends_in_one_io_error_line(unbuffered):
    # the reader is gone before the first line: one line, exit 1, and no
    # second failure when the interpreter flushes stdout at exit
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
    child = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "run_matrix.py"), "--n", "1",
                              "--trials", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert err.startswith("aqsim: io error: ") and err.count("\n") == 1, err


# each script's options and their values, valid and not; none of them is large
VALID = {"--n": ("1", "2"), "--trials": ("1", "2"), "--seed": ("0", "7"), "--check": (None,)}
INVALID = {"--n": ("0", "x", "", "1,x", "1,0", str(cli.N_MAX + 1)), "--trials": ("0", "-5", "x"),
           "--seed": ("-1", str(2 ** 64), "y"), "--check": ("x",)}
TAKES = {run_matrix: ("--n", "--seed", "--trials"), curve: ("--n", "--seed", "--trials"),
         regen_golden: ("--check",), startup: ()}
# stray tokens: another script's option, help, or flag-like, spaced,
# non-ASCII or multi-line text with no digit
STRAY = st.one_of(st.sampled_from(sorted(VALID) + ["-h"]),
                  st.text(st.sampled_from("-ab é\n\t☃"), max_size=6))


def test_scripts_fuzzed_argv_end_in_a_documented_code_and_one_line(tmp_path, monkeypatch):
    # stand-ins for what would be slow or would write outside tmp_path
    monkeypatch.setattr(regen_golden, "GOLDEN_PATH", tmp_path / "transcripts.json")
    monkeypatch.setattr(regen_golden, "SUMMARIES_PATH", tmp_path / "summaries.json")
    monkeypatch.setattr(regen_golden, "cell_hashes", lambda scenario, defenses: {scenario: "h"})
    monkeypatch.setattr(regen_golden, "summary_hashes", lambda scenario, defenses: {})
    monkeypatch.setattr(startup, "measure", lambda samples: [{"phase": "stdlib", "ms": 1.0}])
    monkeypatch.setattr(curve, "calibration_ms", lambda: 1.0)
    monkeypatch.setattr(curve, "NS", "1")  # one n: in this process

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), script=st.sampled_from(list(SCRIPTS)))
    def check(data, script):
        units = []
        for flag in TAKES[script]:
            kind = data.draw(st.sampled_from(["valid", "valid", "invalid", "dropped", "bare"]))
            if kind in ("valid", "invalid"):
                value = data.draw(st.sampled_from((VALID if kind == "valid" else INVALID)[flag]))
                units.append([flag] if value is None else [flag, value])
            elif kind == "bare":
                units.append([flag])
        units += [[token] for token in data.draw(st.one_of(
            st.just([]), st.lists(STRAY, min_size=1, max_size=2)))]
        argv = [token for unit in data.draw(st.permutations(units)) for token in unit]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = script.main(argv)
        assert code in (0, 1, 2), (script.__name__, argv, code)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), argv

    check()
