"""Outside-in layer tracer for halflattice.

The tracer never edits the package.  It rebinds the layers' public functions
and methods in the package's module namespaces (every module that imported
the object by name, and every class attribute that holds it) to a wrapper
that times the call.  Calls are aggregated into a tree keyed by
(function, parent node), so a layer called millions of times costs one
counter per call site instead of one stored span per call; only the suite
calls are kept as individual spans.

A node's self time is its total time minus the time of the nodes below it.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

PACKAGE = "halflattice"

# (module, qualified name) of every traced boundary, outermost layers first.
TRACED = (
    ("identities", "borcherds_residual"),
    ("identities", "d_derivative_residual"),
    ("identities", "heisenberg_residual"),
    ("identities", "ActionCache.act"),
    ("identities", "ActionCache.adjoint_product"),
    ("zhu", "zhu_star"),
    ("zhu", "zhu_reduce"),
    ("assoc", "act_on_omega_module"),
    ("assoc", "iso_decide"),
    ("assoc", "simplicity_witness"),
    ("bridge", "z_operator"),
    ("bridge", "vacuum_basis"),
    ("linalg", "nullspace"),
    ("laurent", "LaurentPoly.__mul__"),
    ("vertex", "y_coefficient"),
    ("vertex", "apply_heisenberg_mode"),
    ("fock", "VElement.__init__"),
    ("fock", "fock_word"),
)


class Node:
    __slots__ = ("name", "calls", "total_ns", "child_ns", "children", "items")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.children: dict = {}
        self.items = 0  # terms in the results, where the layer returns a combination

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, parent=None):
        yield parent, self
        for child in self.children.values():
            yield from child.walk(self)


class Tracer:
    def __init__(self):
        self.root = Node("root")
        self.stack = [self.root]
        self.spans: list = []  # (name, start_ns, end_ns, parent name)
        self.missing: list = []

    # -- installing --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, qualname in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, _, attr = qualname.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{qualname}")
                continue
            label = f"{mod_name}.{qualname}"
            wrapper = self._wrap(label, original)
            if owner:
                # every attribute of the class holding the function (e.g. __rmul__ = __mul__)
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, label: str, fn):
        stack = self.stack
        counts_terms = label == "vertex.y_coefficient"

        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.child(label)
            stack.append(node)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                node.calls += 1
                node.total_ns += elapsed
                parent.child_ns += elapsed
            if counts_terms:
                node.items += len(result)
            return result

        return traced

    # -- top-level spans ---------------------------------------------------------

    def span(self, name: str, fn):
        """Run fn() as one recorded span directly under the root."""
        node = self.root.child(name)
        self.stack.append(node)
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            node.calls += 1
            node.total_ns += end - start
            self.root.child_ns += end - start
            self.spans.append((name, start, end, self.root.name))

    # -- reading -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total and self seconds, terms out, and the
        number of calls per parent function (for hit ratios)."""
        out: dict = {}
        for parent, node in self.root.walk():
            if parent is None:
                continue
            row = out.setdefault(node.name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                             "items": 0, "by_parent": {}})
            row["calls"] += node.calls
            row["total_ns"] += node.total_ns
            row["self_ns"] += node.total_ns - node.child_ns
            row["items"] += node.items
            by_parent = row["by_parent"]
            by_parent[parent.name] = by_parent.get(parent.name, 0) + node.calls
        return {"functions": out, "spans": self.spans, "missing": self.missing}
