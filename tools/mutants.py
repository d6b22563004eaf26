"""Mutation audit: does a test subset notice each small change to a module?

Each mutant changes one thing in one module of the checkout: it deletes
a statement (puts `pass` in its place), swaps a comparison (`<`/`<=`,
`>`/`>=`, `==`/`!=`), swaps `+`/`-`, turns `//` into `*` and `%` into
`//`, swaps `and`/`or`, or raises an int literal 0-3 by one.  The named
tests then run against it with `pytest -x`; a mutant they pass survives.
Every run is capped in address space (RLIMIT_AS) and in time, so a
mutant that drops a budget check or loops is killed, not the host.
Docstrings, imports and `pass` are never deleted.

Run from the root of a checkout (standard library and pytest only):

    python3 tools/mutants.py src/delcodes/vt.py src/delcodes/far.py \\
        --tests tests/test_vt.py tests/test_far.py tests/test_modulus.py

One worker per CPU this process may use runs in its own copy of the
checkout.  The clean tests run first and must pass; the time cap is four
times the clean run and at least 30 s, the address-space cap
MEMORY_MB.  `--lines 90-120` keeps the mutants on those lines.  The
survivors and the mutants that hit a cap are printed as
`path:line  kind  change`.
"""

import argparse
import ast
import copy
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.And: ast.Or,
         ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//",
           ast.Mult: "*", ast.Mod: "%", ast.And: "and", ast.Or: "or"}
KEEP = (ast.Import, ast.ImportFrom, ast.Pass)
MEMORY_MB = 1024
# pytest in a child that caps its own address space first (a preexec_fn
# is unsafe in a process with threads)
CAPPED_PYTEST = ("import resource, sys, pytest; "
                 f"cap = {MEMORY_MB} << 20; "
                 "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
                 "sys.exit(pytest.main(sys.argv[1:]))")


def _deletable(stmt: ast.stmt) -> bool:
    docstring = (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                 and isinstance(stmt.value.value, str))
    return not docstring and not isinstance(stmt, KEEP)


def mutation_points(tree: ast.Module):
    """(node path, kind, description, line) of every mutant of the tree.
    A node path is the chain of (field, index) steps from the module."""
    def walk(node, path):
        for field, value in ast.iter_fields(node):
            items = value if isinstance(value, list) else [value]
            for i, child in enumerate(items):
                if not isinstance(child, ast.AST):
                    continue
                here = path + ((field, i if isinstance(value, list) else None),)
                yield from points(child, here)
                yield from walk(child, here)

    def points(node, path):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.stmt) and path[-1][1] is not None and _deletable(node):
            text = next(t for t in ast.unparse(node).splitlines() if t[0] != "@")
            yield path, "delete", text, line
        ops = ([("op", None, node.op)] if isinstance(node, (ast.BinOp, ast.BoolOp))
               else [("ops", i, op) for i, op in enumerate(node.ops)]
               if isinstance(node, ast.Compare) else [])
        for field, i, op in ops:
            if type(op) in SWAPS:
                change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                yield path + ((field, i),), "operator", change, line
        if (isinstance(node, ast.Constant) and type(node.value) is int
                and 0 <= node.value <= 3):
            yield path, "literal", f"{node.value} -> {node.value + 1}", line

    yield from walk(tree, ())


def mutate(tree: ast.Module, path, kind: str) -> str:
    """The source of a copy of tree with the mutant at path applied."""
    tree = copy.deepcopy(tree)
    parent, (field, i) = tree, path[-1]
    for step_field, step_i in path[:-1]:
        parent = getattr(parent, step_field)
        parent = parent if step_i is None else parent[step_i]
    target = getattr(parent, field)
    node = target if i is None else target[i]
    if kind == "delete":
        target[i] = ast.copy_location(ast.Pass(), node)
    elif kind == "literal":
        node.value += 1
    else:
        swapped = SWAPS[type(node)]()
        if i is None:
            setattr(parent, field, swapped)
        else:
            target[i] = swapped
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(root: Path, tests, timeout: float) -> str:
    """'passed', 'failed', 'timeout' or 'memory' for one run in root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(root / "src"))
    with subprocess.Popen([sys.executable, "-c", CAPPED_PYTEST, "-x", "-q",
                           "-p", "no:cacheprovider", *tests],
                          cwd=root, env=env, start_new_session=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            return "timeout"
    if proc.returncode == 0:
        return "passed"
    return "memory" if "MemoryError" in out else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="files to mutate, from the root")
    parser.add_argument("--tests", nargs="+", required=True)
    parser.add_argument("--lines", default=None,
                        help="only mutants on these lines, e.g. 90-120")
    args = parser.parse_args(argv)
    root = Path.cwd()
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                    ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        copies = []
        for k in range(len(os.sched_getaffinity(0))):
            copies.append(Path(workdir) / f"w{k}")
            shutil.copytree(root, copies[-1], ignore=ignore)
        start = time.monotonic()
        if run_tests(copies[0], args.tests, 3600) != "passed":
            print("the tests fail on the clean code", file=sys.stderr)
            return 2
        clean = time.monotonic() - start
        timeout = max(30.0, 4 * clean)
        lo, hi = map(int, (args.lines or "0-999999").split("-"))
        jobs = queue.Queue()
        for module in args.modules:
            tree = ast.parse((root / module).read_text(), module)
            for path, kind, change, line in mutation_points(tree):
                if lo <= line <= hi:
                    jobs.put((module, tree, path, kind, change, line))
        total, results, lock = jobs.qsize(), [], threading.Lock()
        print(f"{total} mutants; clean run {clean:.1f} s, cap {timeout:.0f} s "
              f"and {MEMORY_MB} MiB", flush=True)

        def worker(copy_root: Path) -> None:
            while True:
                try:
                    module, tree, path, kind, change, line = jobs.get_nowait()
                except queue.Empty:
                    return
                target = copy_root / module
                original = target.read_text()
                target.write_text(mutate(tree, path, kind))
                try:
                    outcome = run_tests(copy_root, args.tests, timeout)
                finally:
                    target.write_text(original)
                with lock:
                    results.append((module, line, kind, change, outcome))
                    print(f"[{len(results)}/{total}] {module}:{line} {kind} "
                          f"{change}: {outcome}", flush=True)

        threads = [threading.Thread(target=worker, args=(c,)) for c in copies]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.monotonic() - start
    flagged = sorted(r for r in results if r[4] != "failed")
    print(f"\n{total} mutants in {elapsed / 60:.1f} min: "
          f"{sum(r[4] == 'failed' for r in results)} killed by a test, "
          f"{sum(r[4] in ('timeout', 'memory') for r in results)} by a cap, "
          f"{sum(r[4] == 'passed' for r in results)} survived")
    for module, line, kind, change, outcome in flagged:
        print(f"{module}:{line}  {kind}  {change}  [{outcome}]")
    return 1 if any(r[4] == "passed" for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
