"""The README quick start, its command lines and every demo script run as
documented."""

import re
import shlex

import pytest

from conftest import ROOT, run_python


def test_readme_python_blocks():
    """Each block runs; a ``print(...)  # value`` line documents its output."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        r = run_python("-c", block)
        assert r.returncode == 0, r.stderr
        documented = [
            line.split("#", 1)[1].strip().strip('"')
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        assert r.stdout.splitlines() == documented


def _readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("whdetect ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines(argv):
    r = run_python("-m", "whdetect.cli", *argv[1:])
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(demo):
    r = run_python(str(demo))
    assert r.returncode == 0, r.stderr
