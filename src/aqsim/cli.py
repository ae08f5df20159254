"""Command-line front end: seeded batches of runs with pass/fail reporting.

Each scenario/defense combination has a codified expected outcome (an
attack that the enabled screening must catch is *supposed* to raise an
alarm), so the exit code asserts success for attack scenarios too:
0 = every trial matched the expected outcome (or ``--help`` printed the
usage), 1 = usage or I/O error, or an interrupt (Ctrl-C, SIGINT) or the
host running out of memory stopped the batch, 2 = some invariant check
failed, or an internal error (a state,
protocol, key-length or attack failure) stopped the batch. A failed check
shows in the summary; every other failure prints one line on stderr that
says why. The transcripts written before an interrupt stay whole. The
contract holds for every entry point: ``main`` and the scripts each run
their body through ``run_entry``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .adversary import SCENARIO_TOKENS, AttackError, Scenario, ScenarioVariant
from .defense import DefenseConfig
from .jsonutil import canonical_json
from .protocol import ProtocolError
from .qotp import KeyTooShort
from .record import Record
from .scenarios import SCENARIOS, RunResult, run_scenario
from .statevector import StateError

SEED_ENV_VAR = "AQS_SEED"
SEED_MAX = 2 ** 64 - 1
N_MAX = 2 ** 16  # a trial holds about 3.9 KB per qubit: about 250 MB at the bound


class UsageError(Exception):
    pass


class HelpShown(Exception):
    """argparse printed the help that ``--help`` asked for: exit 0."""


class OutOfMemory(MemoryError):
    """The host ran out of memory in a batch whose n the message names."""


class Parser(argparse.ArgumentParser):
    """An argument parser that raises where argparse would exit: ``UsageError``
    for a bad argument, ``HelpShown`` once ``--help`` has printed."""

    def error(self, message):  # argparse would exit(2); the contract is raise -> exit(1)
        raise UsageError(message)

    def exit(self, status=0, message=None):  # argparse exits here after --help
        raise HelpShown()


class RunConfig(NamedTuple):
    scenario: Scenario
    n: int
    trials: int
    seed: int
    defenses: DefenseConfig
    out: Path | None
    format: str


class BatchSummary(Record):
    __slots__ = ("config", "trial_rows", "check_counts", "all_ok")

    def __init__(self, config: RunConfig, trial_rows: list[dict],
                 check_counts: dict[str, list[int]], all_ok: bool):
        self.config = config
        self.trial_rows = trial_rows
        self.check_counts = check_counts  # name -> [passed, total]
        self.all_ok = all_ok


@functools.cache
def _parser() -> Parser:
    """The argument parser, built on first use and reused."""
    parser = Parser(prog="aqsim", description="arbitrated quantum signature testbed")
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="execute a seeded batch of protocol runs")
    run_parser.error = parser.error
    run_parser.add_argument("--scenario", required=True)
    run_parser.add_argument("--n", type=int, required=True)
    run_parser.add_argument("--trials", type=int, required=True)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--defenses", default="")
    run_parser.add_argument("--out", default=None)
    run_parser.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def parse_config(argv, env) -> RunConfig:
    args = _parser().parse_args(list(argv))
    if args.command != "run":
        raise UsageError("expected the 'run' command")

    if args.scenario not in SCENARIO_TOKENS:
        raise UsageError(
            f"--scenario: unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(SCENARIO_TOKENS)})"
        )
    if args.n < 1:
        raise UsageError("--n: must be >= 1")
    if args.n > N_MAX:
        raise UsageError(f"--n: must be <= {N_MAX}")
    if args.trials < 1:
        raise UsageError("--trials: must be >= 1")

    seed = args.seed
    if seed is None:
        raw = env.get(SEED_ENV_VAR)
        if raw is None:
            raise UsageError(f"--seed: required (or set {SEED_ENV_VAR})")
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"--seed: {SEED_ENV_VAR}={raw!r} is not an integer") from None
    if not 0 <= seed <= SEED_MAX:
        raise UsageError("--seed: must be a non-negative 64-bit integer")
    if args.out == "":
        raise UsageError("--out: must name a directory")

    tokens = [t for t in args.defenses.split(",") if t]
    try:
        defenses = DefenseConfig.from_tokens(tokens)
    except ValueError as exc:
        raise UsageError(f"--defenses: {exc}") from None

    return RunConfig(
        scenario=Scenario.from_token(args.scenario),
        n=args.n,
        trials=args.trials,
        seed=seed,
        defenses=defenses,
        out=Path(args.out) if args.out is not None else None,
        format=args.format,
    )


def evaluate_expectations(
    result: RunResult, variant: ScenarioVariant, defenses: DefenseConfig
) -> dict[str, bool]:
    """The named boolean checks of the scenario's expected outcome."""
    return SCENARIOS[variant].expectations(result, defenses)


def _transcript_filename(config: RunConfig, trial: int) -> str:
    return f"{config.scenario.token}-n{config.n}-seed{config.seed}-trial{trial:04d}.json"


def run_batch(config: RunConfig) -> BatchSummary:
    """Execute all trials, write transcripts if requested, aggregate checks."""
    if config.out is not None:
        config.out.mkdir(parents=True, exist_ok=True)

    rows = []
    counts: dict[str, list[int]] = {}
    all_ok = True
    with batch_of(config.n):
        for trial in range(config.trials):
            result = run_scenario(
                config.scenario, config.n, config.seed, trial, defenses=config.defenses
            )
            expectations = evaluate_expectations(result, config.scenario.variant, config.defenses)
            ok = all(expectations.values())
            all_ok = all_ok and ok
            for name, passed in expectations.items():
                bucket = counts.setdefault(name, [0, 0])
                bucket[0] += int(passed)
                bucket[1] += 1
            rows.append(
                {
                    "trial": trial,
                    "checks": result.checks,
                    "verdict": result.verdict,
                    "alarms": list(result.alarms),
                    "extraction_match": result.extraction_matches,
                    "ok": ok,
                }
            )
            if config.out is not None:
                _write_atomic(config.out / _transcript_filename(config, trial),
                              result.transcript_bytes() + b"\n")

    return BatchSummary(config=config, trial_rows=rows, check_counts=counts, all_ok=all_ok)


@contextlib.contextmanager
def batch_of(n: int):
    """Run the trials of one n: a ``MemoryError`` inside ends the entry point
    in ``aqsim: out of memory at --n <n>``."""
    try:
        yield
    except MemoryError:
        raise OutOfMemory(f"out of memory at --n {n}") from None


def _write_atomic(path: Path, data: bytes) -> None:
    """Write to a temporary file beside ``path``, then rename it into place,
    so a failed or interrupted write never leaves a truncated transcript."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def render_summary(summary: BatchSummary, fmt: str) -> str:
    config = summary.config
    config_doc = {
        "scenario": config.scenario.token,
        "n": config.n,
        "trials": config.trials,
        "seed": config.seed,
        "defenses": config.defenses.tokens(),
    }
    if fmt == "json":
        doc = {
            "config": config_doc,
            "checks": {
                name: {"passed": passed, "trials": total, "ok": passed == total}
                for name, (passed, total) in summary.check_counts.items()
            },
            "trials": summary.trial_rows,
            "overall": summary.all_ok,
        }
        return canonical_json(doc)

    defenses = ",".join(config.defenses.tokens()) or "-"
    lines = [
        f"scenario={config.scenario.token} n={config.n} trials={config.trials} "
        f"seed={config.seed} defenses={defenses}"
    ]
    width = max(len(name) for name in summary.check_counts)
    for name, (passed, total) in summary.check_counts.items():
        status = "PASS" if passed == total else "FAIL"
        lines.append(f"  {name:<{width}}  {passed}/{total}  {status}")
    lines.append(f"overall: {'PASS' if summary.all_ok else 'FAIL'}")
    return "\n".join(lines)


def fail(message: str, code: int) -> int:
    """Say ``aqsim: <message>`` on one line of stderr (a newline that the
    message quotes from argv is escaped) and return the exit code."""
    print("aqsim: " + message.replace("\n", "\\n"), file=sys.stderr)
    return code


def run_entry(body, argv, *args) -> int:
    """Run an entry point's ``body`` on its argv (``sys.argv[1:]`` for None)
    and ``args``, and end each way it can fail in the stderr line and exit
    code of the contract above. What the body printed is flushed here, so a
    stdout closed by its reader fails inside the contract too."""
    try:
        code = body(sys.argv[1:] if argv is None else argv, *args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        return fail(f"error: {exc}", 1)
    except HelpShown:
        return 0
    except KeyboardInterrupt:
        return fail("interrupted", 1)
    except MemoryError as exc:
        return fail(str(exc) if type(exc) is OutOfMemory else "out of memory", 1)
    except OSError as exc:
        if sys.stdout is sys.__stdout__:
            try:
                sys.stdout.flush()
            except OSError:  # the reader is gone, as after `| head -c 10`: point stdout
                # at devnull, so that the shutdown flush does not fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return fail(f"io error: {exc}", 1)
    except (StateError, ProtocolError, KeyTooShort, AttackError) as exc:
        return fail(f"internal error: {type(exc).__name__}: {exc}", 2)


def main(argv=None, env=None) -> int:
    return run_entry(_main, argv, os.environ if env is None else env)


def _main(argv, env) -> int:
    config = parse_config(argv, env)
    summary = run_batch(config)
    print(render_summary(summary, config.format))
    return 0 if summary.all_ok else 2
