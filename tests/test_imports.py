"""Import hygiene: no module of the package imports a name it never uses.

Neither ruff nor pyflakes is a dependency, so this is a small `ast` check of
pyflakes' F401. A name counts as used where the module reads it anywhere
(annotations included). `__init__` re-exports, so it is left out. An import
kept on purpose carries `# noqa: F401` on its line. Importing the package
starts no process machinery; only a run with jobs > 1 loads it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpq

PACKAGE = Path(qpq.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_imports_left_behind():
    source = (PACKAGE / "adversaries.py").read_text()
    source = source.replace("  # noqa: F401 (bench/tests/test_bench.py traces through it)\n)",
                            "\n)", 1)
    source += "\nfrom .protocol import RestartLimitExceeded\nimport numpy.linalg as la\n"
    names = [entry.split(": ")[1] for entry in unused_imports(source)]
    assert names == ["run_protocol", "RestartLimitExceeded", "la"]


# How one attempt is made is the engine's own business: every other module
# goes through `protocol._attempts` (or `run_protocol`).
ATTEMPT_MAKERS = {"_send", "_run_attempt", "_streamed_attempt"}


def attempt_makers_imported(source: str) -> list[str]:
    """The `ATTEMPT_MAKERS` names that the source imports, in order."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name in ATTEMPT_MAKERS]


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "protocol.py"], ids=lambda path: path.name)
def test_only_the_engine_makes_attempts(path):
    assert attempt_makers_imported(path.read_text()) == []


def test_attempt_guard_flags_an_engine_import():
    source = "from .protocol import _attempts, _send\nfrom qpq.protocol import _run_attempt\n"
    assert attempt_makers_imported(source) == ["_send", "_run_attempt"]


def imported_modules(prefixes: tuple[str, ...]) -> str:
    """The sorted names of the modules under `prefixes` that `import qpq, qpq.cli`
    loads in a fresh interpreter, as printed."""
    code = ("import sys, qpq, qpq.cli; print(sorted(m for m in sys.modules "
            f"if m.startswith({prefixes!r})))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


def test_importing_qpq_loads_no_process_pool():
    assert imported_modules(("concurrent", "multiprocessing")) == "[]"


def test_importing_qpq_loads_no_numpy_random():
    """numpy loads `numpy.random` on first use, ≈25 ms; the package reads it
    only when it runs, where a generator already exists."""
    assert imported_modules(("numpy.random",)) == "[]"
