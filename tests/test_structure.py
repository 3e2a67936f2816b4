"""Layout guards: a realized group's coset table and word tree stay inside
``coset.py``; every other module uses the methods derived from them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "whdetect"


def test_only_coset_reads_table_and_tree():
    readers = sorted(
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in SRC.glob("*.py")
        if path.name != "coset.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("table", "tree")
    )
    assert readers == []
