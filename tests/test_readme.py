"""The README's examples run as written: its Quick start block, and each
`delcodes` line of its CLI block through `cli.main`."""

import re
import shlex
from pathlib import Path

from delcodes import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# The simulate example runs far(60,6) under pFar(18) with flips, which the
# paper's code cannot always tell apart: some trials fail, flagged.
EXIT_CODES = {"simulate": cli.EXIT_VERIFY_FAIL}


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    exec(compile(_block("Quick start", "python"), "README.md", "exec"), {})


def test_cli_examples_exit_as_documented(capsys):
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("delcodes ") for line in lines)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == EXIT_CODES.get(argv[0], cli.EXIT_OK), line
        capsys.readouterr()
