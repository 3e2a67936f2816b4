"""Layout guards: a realized group's coset table and word tree stay inside
``coset.py``; every other module uses the methods derived from them.  No
module imports a name it never uses, and nothing is defined that only the
tests use."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "whdetect"


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


def referenced_names(node: ast.AST) -> Counter:
    """How often each name is read, as a variable, an attribute or an import."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.asname or n.name] += 1
    return found


def test_every_definition_is_used_outside_the_tests():
    """Each function, class and method of the package (dunders aside) is
    named somewhere in the package outside its own body, in a demo or in
    the benchmark: a helper only the tests read belongs in the tests."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in (SRC, ROOT / "demos", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    }
    used = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(SRC)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == referenced_names(node)[node.name]
    )
    assert unused == []
