"""Rules every module keeps: no top-level name bound twice, and no heavy
import when the package and its CLI load."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import delcodes

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
