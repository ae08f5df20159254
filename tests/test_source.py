"""Source-level checks: which parameters in ``src/aqsim`` take a default,
which modules in ``tests/`` name the state store's layout, and which
modules handle the exit contract's failures themselves."""
import ast
from pathlib import Path

import aqsim

SRC = Path(aqsim.__file__).parent
TESTS = Path(__file__).parent
SCRIPTS = TESTS.parent / "scripts"

# (module, function, parameter) of every parameter in src/aqsim with a
# default, sorted. A default is one more way to call the code, so a new one
# must be added here, where a review sees it.
DEFAULTED = [
    ("cli.py", "exit", "message"),
    ("cli.py", "exit", "status"),
    ("cli.py", "main", "argv"),
    ("cli.py", "main", "env"),
    ("qotp.py", "mask_rows", "inverse"),
    ("scenarios.py", "run_scenario", "defenses"),
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


# The private members of ``protocol.QuantumRegistry``'s layout. Only
# ``store_layout.py`` names them, so a change of the store's shape edits
# ``protocol.py`` and that module alone. The record-class inventory of
# ``test_records.py`` names ``_Family``, the one record class of the layout,
# and this module names them all, here.
STORE_LAYOUT = frozenset({"_columns", "_column", "_Family", "_add_checked_columns",
                          "_new_family", "_refusal", "_register", "_mask_streams"})
LAYOUT_READERS = {"store_layout.py": STORE_LAYOUT, "test_records.py": {"_Family"},
                  "test_source.py": STORE_LAYOUT}


def layout_names(tests: Path) -> list[tuple[str, int, str]]:
    """Each (module, line, name) in ``tests`` where a module names a member
    of ``STORE_LAYOUT`` that ``LAYOUT_READERS`` does not give it: as an
    attribute, a name, an import or a string (``monkeypatch.setattr``'s)."""
    found = []
    for path in sorted(tests.glob("*.py")):
        allowed = LAYOUT_READERS.get(path.name, frozenset())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name in STORE_LAYOUT - allowed:
                found.append((path.name, node.lineno, name))
    return sorted(found)


def test_only_the_layout_module_names_the_stores_private_members():
    assert layout_names(TESTS) == []


# The failures that ``cli.run_entry`` maps to the exit contract's lines and
# codes. Only ``cli.py`` handles them, so every entry point ends them alike.
CONTRACT = frozenset({"KeyboardInterrupt", "MemoryError", "UsageError", "HelpShown"})


def contract_handlers(paths) -> list[tuple[str, int, str]]:
    """Each (module, line, name) where an ``except`` clause in ``paths``
    names a member of ``CONTRACT``, bare or as an attribute."""
    found = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                found += [(path.name, node.lineno, name) for part in ast.walk(node.type)
                          for name in [getattr(part, "attr", getattr(part, "id", None))]
                          if name in CONTRACT]
    return found


def test_only_cli_handles_the_exit_contracts_failures():
    paths = [*SRC.glob("*.py"), *SCRIPTS.glob("*.py")]
    assert contract_handlers(path for path in paths if path != SRC / "cli.py") == []
    assert {name for _, _, name in contract_handlers([SRC / "cli.py"])} == CONTRACT
