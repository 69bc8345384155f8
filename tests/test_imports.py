"""Every imported name is used, and the integer form keeps one owner.

An AST scan of the package modules (but not ``__init__.py``, which imports
to re-export) and of the test modules.  A name counts as used when it is
read anywhere in the module, including inside a string annotation such as
``-> "LaurentPoly"``.  A second scan keeps ``gcd`` and ``lcm`` from
``math`` inside ``combination``, the one module that builds, raises,
reduces and divides back integer numerators over a denominator.  A third
keeps the weight formula ``truncation_bound`` an oracle: the engine cuts
its sums at a field's own ``top``, so only ``vertex``, which defines the
formula, and ``suites``, whose module-axioms check compares the two, name
it, and no package module reads a ``.bound`` attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "halflattice").glob("*.py"))
SOURCES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))
DENOMINATOR_NAMES = {"gcd", "lcm"}


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


def denominator_names(source: str) -> list:
    """The names in {gcd, lcm} that the source takes from ``math``, by
    ``from math import`` or as ``math.gcd`` / ``math.lcm``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found.update(alias.name for alias in node.names if alias.name in DENOMINATOR_NAMES)
        elif (isinstance(node, ast.Attribute) and node.attr in DENOMINATOR_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.add(node.attr)
    return sorted(found)


def test_the_scan_finds_gcd_and_lcm():
    assert denominator_names("from math import comb, gcd\n") == ["gcd"]
    assert denominator_names("import math\nx = math.lcm(2, 3)\n") == ["lcm"]
    assert denominator_names("from math import comb\nx = comb(3, 1)\n") == []


def test_only_combination_takes_gcd_or_lcm():
    found = {path.name: denominator_names(path.read_text()) for path in PACKAGE}
    assert found.pop("combination.py") == ["gcd", "lcm"]
    assert not any(found.values()), found


def cutoff_names(source: str) -> list:
    """Where the source names ``truncation_bound`` (as a name, an imported
    name or an attribute) or reads an attribute ``bound``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "bound":
            found.add(".bound")
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
        if name == "truncation_bound":
            found.add(name)
    return sorted(found)


def test_the_scan_finds_the_weight_formula_and_bound_reads():
    assert cutoff_names("from .vertex import truncation_bound\n") == ["truncation_bound"]
    assert cutoff_names("x = vertex.truncation_bound(u, w, ctx)\n") == ["truncation_bound"]
    assert cutoff_names("def truncation_bound(u, w, ctx):\n    pass\n") == ["truncation_bound"]
    assert cutoff_names("n = field.bound + 1\n") == [".bound"]
    assert cutoff_names("n = field.top + 1\nbound = 3\n") == []


def test_only_vertex_and_suites_name_the_weight_formula():
    found = {path.name: cutoff_names(path.read_text()) for path in PACKAGE}
    assert found.pop("vertex.py") == ["truncation_bound"]
    assert found.pop("suites.py") == ["truncation_bound"]
    assert not any(found.values()), found
