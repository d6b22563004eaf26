"""Rules every module keeps: no top-level name bound twice, no name
imported and never used, one symbol test, one home for what an error
kind does, and no heavy import when the package and its CLI load."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import delcodes
from delcodes.patterns import KINDS

SRC = Path(delcodes.__file__).resolve().parents[1]
ROOT = SRC.parent


def test_no_module_defines_a_top_level_name_twice():
    # A second `def test_x` silently replaces the first, which never runs.
    sources = [path for folder in ("src/delcodes", "tests", "bench", "demos")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(sources) > 20
    rebound = []
    for path in sources:
        seen = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    rebound.append(f"{path.relative_to(ROOT)}: {node.name}")
                seen.add(node.name)
    assert not rebound


def test_no_library_module_imports_a_name_it_never_uses():
    # No linter is a dependency, so the parse finds what one would: a name
    # left imported after its last use went.  The package's __init__
    # imports to re-export, and a __future__ import binds no name.
    unused = []
    for path in sorted((SRC / "delcodes").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused


def test_the_symbol_test_is_written_once():
    # Every word is read through words.symbol_bytes, whose one translate
    # deletes the allowed symbols; another such call is a second copy of
    # the rule that the two would have to keep in agreement.
    calls = [path.name for path in sorted((SRC / "delcodes").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "translate" and node.args
             and isinstance(node.args[0], ast.Constant)
             and node.args[0].value is None]
    assert calls == ["words.py"]


def test_loading_the_package_and_cli_imports_no_heavy_module():
    # A split imports pickle and signal when it forks, so a command that
    # stays in one process does not pay for them at start-up.
    heavy = {"pickle", "signal", "multiprocessing"}
    result = subprocess.run(
        [sys.executable, "-c", "import sys, delcodes, delcodes.cli; "
         "print(*sorted(sys.modules), sep='\\n')"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "delcodes.cli" in loaded and not loaded & heavy


def _is_kind_text(node):
    """Whether node is a string literal of error-kind letters only."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value != "" and set(node.value) <= set(KINDS))


def test_only_patterns_says_what_an_error_kind_does():
    # What a deletion, erasure or flip does to a word is apply_pattern's
    # rule alone: another module that compares with a kind letter, or
    # maps one to a symbol, holds a second copy of it.
    found = []
    for path in sorted((SRC / "delcodes").glob("*.py")):
        if path.name == "patterns.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Dict):
                operands = [key for key in node.keys if key is not None]
            else:
                continue
            found += [f"{path.name}:{node.lineno}"
                      for operand in operands if _is_kind_text(operand)]
    assert not found
