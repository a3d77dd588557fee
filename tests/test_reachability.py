"""Every top-level definition under src/liouville is used by the package itself.

A function or class that only tests reach is dead weight in the library: the
tests exercise it, but no command, report or other layer does.  The allowlist
is the functions perfbench/tracer.py wraps by name (its `Tracer.install` looks
each one up, so they stay until the tracer drops them) and `density_witness`.

Likewise every field of a dataclass is read as an attribute somewhere in the
package: a field that is stored but never read is a second home for a fact that
lives elsewhere, or no fact at all.  A `getattr` string does not count as a read.
"""

import ast
import os

from test_bench_contract import traced_names

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "liouville")

ALLOWED = {
    ("exactreal", "density_witness"),  # ROADMAP item 5 replaces it with an LLL witness
}

UNREAD_FIELDS_ALLOWED = {
    ("HyperplaneCertificate", "h_basis"),  # the certificate's H, which tests check
    ("SmoothFunction", "sup_grad"),  # kept for the error bounds of ROADMAP item 1
    ("SmoothFunction", "sup_d4"),  # likewise
    ("ProbeResult", "basis_estimate"),  # g_estimate's counterpart for d >= 2, tests check it
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _referenced(name, own, trees):
    """Whether `name` is read as a name or an attribute anywhere outside `own`."""
    return any(
        id(node) not in own
        and (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
        for tree in trees
        for node in ast.walk(tree)
    )


def unreferenced_definitions():
    modules = dict(_modules())
    trees = list(modules.values())
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {id(n) for n in ast.walk(node)}
                if not _referenced(node.name, own, trees):
                    found.append((module, node.name))
    return found


def test_every_definition_is_reached_from_src():
    traced = {(layer, name) for layer, names in traced_names().items() for name in names}
    assert [d for d in unreferenced_definitions() if d not in traced | ALLOWED] == []


def test_the_scan_sees_a_definition_used_only_by_itself():
    # recursion does not count as a use: the walk skips the definition's own body
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return 1\n\nh = g\n")
    (f, g) = tree.body[:2]
    assert not _referenced("f", {id(n) for n in ast.walk(f)}, [tree])
    assert _referenced("g", {id(n) for n in ast.walk(g)}, [tree])


def _is_dataclass(cls):
    targets = (dec.func if isinstance(dec, ast.Call) else dec for dec in cls.decorator_list)
    return any(getattr(t, "id", getattr(t, "attr", None)) == "dataclass" for t in targets)


def unread_fields(trees):
    reads = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (cls.name, stmt.target.id)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads
    ]


def test_every_dataclass_field_is_read_in_src():
    trees = [tree for _, tree in _modules()]
    assert [f for f in unread_fields(trees) if f not in UNREAD_FIELDS_ALLOWED] == []


def test_the_field_scan_ignores_writes_and_getattr_strings():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int\n    c: int = 0\n\n"
        "def f(p):\n    p.c = getattr(p, 'b')\n    return p.a\n"
    )
    assert unread_fields([tree]) == [("P", "b"), ("P", "c")]
