"""Every imported name is used.

An AST scan of the package modules (but not ``__init__.py``, which imports
to re-export) and of the test modules.  A name counts as used when it is
read anywhere in the module, including inside a string annotation such as
``-> "LaurentPoly"``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "halflattice").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
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
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")  # e.g. -> "LaurentPoly"
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]
    assert unused_imports("from a import B\nx: 'B' = 1\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in SOURCES:
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)
