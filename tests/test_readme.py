"""The README's library example runs against the current API, and its
command lines parse with the current CLI."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from cubicscan.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under ## Library"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue()


def test_readme_command_lines_parse():
    text = README.read_text()
    section = text[text.index("\n## Command line\n") :]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no sh block under ## Command line"
    lines = [line for line in block.group(1).splitlines() if line.startswith("cubicscan ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        command = line.split("#")[0].split(">")[0]
        parser.parse_args(shlex.split(command)[1:])  # SystemExit on a stale line
