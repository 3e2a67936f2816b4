"""Layout guards: a realized group's coset table and word tree stay inside
``coset.py``; every other module uses the methods derived from them.  No
module imports a name it never uses."""

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


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no other line refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from .steinberg import evaluate, k2_membership\nprint(evaluate)\n"
    assert unused_imports(source) == ["1: k2_membership"]


def test_no_unused_imports():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path.read_text())]
        if names
    }
    assert found == {}
