"""The README quick start and every demo script run as documented."""

import re

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


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(demo):
    r = run_python(str(demo))
    assert r.returncode == 0, r.stderr
