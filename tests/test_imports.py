"""Every imported name is used, each public name has one import path, each
module loads only the layers below it, and the integer form keeps one owner.

An AST scan of the package modules and of the test modules.  A name
imported at module level counts as used when it is read anywhere in the
module, including inside a string annotation such as ``-> "LaurentPoly"``;
a name imported inside a function must be read inside that function.  The
package ``__init__.py`` imports nothing, so a name is imported from the
module that defines it.  The layers a module loads when it is imported, the
closure of its module-level relative imports, are pinned for the engine
(``vertex``), the checkers (``identities``), the probes, the suites, the
parsers (``serialize``) and the CLI: a suite or a command imports any other
layer inside the function that reads it, so importing ``suites`` or ``cli``
does not load the layers of suites or commands that do not run.
A second scan keeps
``gcd`` and ``lcm`` from ``math`` inside ``combination``, the one module
that builds, raises, reduces and divides back integer numerators over a
denominator.  A third keeps the weight formula ``truncation_bound`` an
oracle: the engine cuts its sums at a field's own ``top``, so only
``vertex``, which defines the formula, and ``suites``, whose module-axioms
check compares the two, name it, and no package module reads a ``.bound``
attribute.  A fourth keeps the layout of a Fock factor code, its shift and
direction mask, inside ``fock``: every other module, the tests included,
reads and builds factors through ``fock.encode`` and ``fock.decode``.
A fifth keeps the combination core the one owner of a combination's shape,
its trusted builder, its order of terms and its printer: no ``Combination``
subclass in the package defines ``_make``, ``shape``, ``__repr__``,
``__str__`` or ``sorted_terms`` (it states ``_order`` and ``_name``
instead), and a subclass's
``__init__`` only passes its terms and shape to ``super().__init__``, so
each key is checked in the subclass's ``_key`` and nowhere else.  A sixth
keeps ``fock.act_on_labels`` the one place a coefficient module acts: the
package reads a module's ``e_action`` or ``d_action`` only as an argument of
``act_on_labels``, so no other function calls one.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "halflattice").glob("*.py"))
SOURCES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))
DENOMINATOR_NAMES = {"gcd", "lcm"}
CODE_LAYOUT_NAMES = {"_SHIFT", "_DIRECTION_MASK"}
CORE_NAMES = {"_make", "shape", "__repr__", "__str__", "sorted_terms"}


@lru_cache(maxsize=None)
def nodes(source: str) -> tuple:
    """Every node of the source's syntax tree, parsed once for all the scans."""
    return tuple(ast.walk(ast.parse(source)))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope) -> list:
    """The import statements of a module or function, without those of the
    functions it defines."""
    found, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return found


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that its scope never reads: the
    module for a module-level import, else the body of the function that
    holds the import statement."""
    tree = nodes(source)[0]
    found = []
    for scope in (tree,) + tuple(n for n in nodes(source) if isinstance(n, FUNCTIONS)):
        body = [node for stmt in scope.body for node in ast.walk(stmt)]
        used = {node.id for node in body if isinstance(node, ast.Name)}
        for annotation in _annotations(body):
            for node in ast.walk(annotation):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    inner = ast.parse(node.value, mode="eval")  # e.g. -> "LaurentPoly"
                    used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
        for node in own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append((node.lineno, name))
    return sorted(found)


def _annotations(all_nodes):
    for node in all_nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [(1, "os"), (2, "b")]
    assert unused_imports("from a import B\nx: 'B' = 1\n") == []


def test_the_scan_reads_a_function_import_in_its_own_function_only():
    # read only by another function: unused where it is imported
    assert unused_imports("def f():\n    from a import b\n\ndef g():\n    return b\n") == [(2, "b")]
    # read by a closure of the importing function, or by any function
    # when imported at module level: used
    assert unused_imports("def f():\n    from a import b\n    return lambda: b\n") == []
    assert unused_imports("def f():\n    from a import b\n\n    def g():\n        return b\n"
                          "    return g\n") == []
    assert unused_imports("from a import b\n\ndef g():\n    return b\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in SOURCES:
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_package_init_imports_nothing():
    init = ROOT / "src" / "halflattice" / "__init__.py"
    found = [node.lineno for node in nodes(init.read_text())
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports in __init__.py at lines {found}"


def loaded_layers(module: str) -> set:
    """The package modules that importing ``module`` loads, by the closure of
    the module-level relative imports (``from .x import y``), itself excluded."""
    seen, todo = set(), [module]
    while todo:
        path = ROOT / "src" / "halflattice" / f"{todo.pop()}.py"
        for node in own_imports(nodes(path.read_text())[0]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                layer = node.module.split(".")[0]
                if layer not in seen:
                    seen.add(layer)
                    todo.append(layer)
    return seen - {module}


def test_each_module_loads_only_the_layers_it_pins():
    engine = {"combination", "fock", "lattice"}
    assert loaded_layers("vertex") == engine
    assert loaded_layers("identities") == engine | {"vertex"}
    assert loaded_layers("probes") == engine
    assert loaded_layers("suites") == engine | {"identities", "vertex"}
    assert loaded_layers("serialize") == engine
    assert loaded_layers("cli") == engine | {"identities", "vertex", "suites", "serialize"}


def denominator_names(source: str) -> list:
    """The names in {gcd, lcm} that the source takes from ``math``, by
    ``from math import`` or as ``math.gcd`` / ``math.lcm``."""
    found = set()
    for node in nodes(source):
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
    for node in nodes(source):
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


def code_layout_names(source: str) -> list:
    """The names of the factor code's layout that the source names, as a
    name, an imported name or an attribute."""
    found = set()
    for node in nodes(source):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in CODE_LAYOUT_NAMES:
            found.add(name)
    return sorted(found)


def test_the_scan_finds_the_code_layout():
    assert code_layout_names("from .fock import _SHIFT\n") == ["_SHIFT"]
    assert code_layout_names("d = code & fock._DIRECTION_MASK\n") == ["_DIRECTION_MASK"]
    assert code_layout_names("_SHIFT = 16\nm = -(c >> _SHIFT)\n") == ["_SHIFT"]
    assert code_layout_names("dir_, mode = decode(code)\n") == []


def test_only_fock_names_the_code_layout():
    found = {path.name: code_layout_names(path.read_text()) for path in SOURCES}
    assert found.pop("fock.py") == sorted(CODE_LAYOUT_NAMES)
    assert not any(found.values()), found


def combination_classes(source: str) -> list:
    """The classes of the source that name ``Combination`` as a base."""
    return [node for node in nodes(source) if isinstance(node, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Combination" for b in node.bases)]


def only_calls_super_init(fn) -> bool:
    """The function's body, past a docstring, is one ``super().__init__(...)``
    call whose arguments hold no comprehension or lambda."""
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__init__" and isinstance(call.func.value, ast.Call)
            and isinstance(call.func.value.func, ast.Name) and call.func.value.func.id == "super"
            and not any(isinstance(n, (ast.comprehension, ast.Lambda)) for n in ast.walk(call)))


def core_regrowth(source: str) -> list:
    """(class, name) for each ``Combination`` subclass of the source that
    defines or assigns a name of ``CORE_NAMES``, or whose ``__init__`` does
    more than pass its arguments to ``super().__init__``."""
    found = []
    for cls in combination_classes(source):
        for stmt in cls.body:
            if isinstance(stmt, FUNCTIONS):
                names = [stmt.name]
                if stmt.name == "__init__" and not only_calls_super_init(stmt):
                    found.append((cls.name, "__init__"))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [(cls.name, name) for name in names if name in CORE_NAMES]
    return found


def test_the_scan_finds_a_regrown_core():
    head = "class V(Combination):\n"
    assert core_regrowth(head + "    __repr__ = __str__\n") == [("V", "__repr__")]
    assert core_regrowth(head + "    def shape(self):\n        return 2\n") == [("V", "shape")]
    assert core_regrowth(head + "    def _make(self, terms):\n        pass\n") == [("V", "_make")]
    assert core_regrowth(head + "    def __str__(self):\n        return 'v'\n") == [("V", "__str__")]
    assert core_regrowth(head + "    sorted_terms = _printing_order\n") == [("V", "sorted_terms")]
    assert core_regrowth(head + "    def __init__(self, nu, terms):\n        self.nu = nu\n"
                         "        super().__init__(terms)\n") == [("V", "__init__")]
    assert core_regrowth(head + "    def __init__(self, terms):\n"
                         "        super().__init__({tuple(w): c for w, c in terms.items()})\n"
                         ) == [("V", "__init__")]
    assert core_regrowth(head + "    def __init__(self, nu, terms):\n"
                         "        super().__init__(terms, integer(nu))\n"
                         "    nu = property(lambda self: self.shape)\n") == []
    assert core_regrowth("class W:\n    __repr__ = __str__\n") == []


def test_the_combination_core_is_the_one_owner():
    classes = [cls.name for path in PACKAGE for cls in combination_classes(path.read_text())]
    assert sorted(classes) == ["AElement", "BElement", "LatticeVector", "LaurentPoly",
                               "ModuleElement", "VElement"]
    found = [f"{path.name}: {cls}.{name}" for path in PACKAGE
             for cls, name in core_regrowth(path.read_text())]
    assert not found, found


LABEL_ACTIONS = {"e_action", "d_action"}


def label_action_reads(source: str) -> list:
    """The lines where the source reads an ``e_action`` or a ``d_action``,
    as an attribute or a name, anywhere but inside an argument of a call to
    ``act_on_labels``: a call of a label action, or one handed elsewhere."""
    passed = set()
    for node in nodes(source):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "act_on_labels"):
            passed.update(id(inner) for arg in node.args for inner in ast.walk(arg))
    return sorted(node.lineno for node in nodes(source) if id(node) not in passed
                  and (isinstance(node, ast.Attribute) and node.attr in LABEL_ACTIONS
                       or isinstance(node, ast.Name) and node.id in LABEL_ACTIONS))


def test_the_scan_finds_a_label_action_read():
    assert label_action_reads("m.e_action(c, lab)\n") == [1]
    assert label_action_reads("x = 1\nf(d_action)\n") == [2]
    assert label_action_reads("act_on_labels({}, 1, s, m.d_action, j)\n") == []
    assert label_action_reads("act_on_labels({}, 1, s, m.e_action if e else m.d_action, j)\n") == []
    assert label_action_reads("def e_action(self, charge, label):\n    return []\n") == []


def test_only_act_on_labels_applies_a_label_action():
    found = {path.name: label_action_reads(path.read_text()) for path in PACKAGE}
    assert not any(found.values()), found
