"""Source-level checks on ``src/aqsim``: which parameters take a default."""
import ast
from pathlib import Path

import aqsim

SRC = Path(aqsim.__file__).parent

# (module, function, parameter) of every parameter in src/aqsim with a
# default, sorted. A default is one more way to call the code, so a new one
# must be added here, where a review sees it.
DEFAULTED = [
    ("cli.py", "exit", "message"),
    ("cli.py", "exit", "status"),
    ("cli.py", "main", "argv"),
    ("cli.py", "main", "env"),
    ("protocol.py", "alice_sign", "forced_pad"),
    ("protocol.py", "random_message_spec", "generic_margin"),
    ("qotp.py", "mask_rows", "inverse"),
    ("scenarios.py", "run_scenario", "defenses"),
    ("scenarios.py", "run_scenario", "forced_pad"),
    ("scenarios.py", "run_scenario", "message"),
    ("scenarios.py", "run_scenario", "trial"),
    ("statevector.py", "bell_measure", "forced"),
    ("statevector.py", "equal_up_to_phase", "tol"),
]


def defaulted_parameters() -> list[tuple[str, str, str]]:
    """Every (module, function, parameter) in ``SRC`` whose parameter has a
    default, positional or keyword-only, lambdas included."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                name = getattr(node, "name", "<lambda>")
                found += [(path.name, name, arg.arg) for arg in named]
    return sorted(found)


def test_src_has_only_the_listed_defaults():
    assert defaulted_parameters() == DEFAULTED
