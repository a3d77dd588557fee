"""Every top-level definition under src/liouville is used by the package itself.

A function or class that only tests reach is dead weight in the library: the
tests exercise it, but no command, report or other layer does.  The allowlist
is the functions perfbench/tracer.py wraps by name (its `Tracer.install` looks
each one up, so they stay until the tracer drops them) and `density_witness`.

Likewise every field of a dataclass is read as an attribute somewhere in the
package: a field that is stored but never read is a second home for a fact that
lives elsewhere, or no fact at all.  A `getattr` string does not count as a read.

And every parameter or dataclass field with a default is set by some call in the
package: an option that only tests set is a code path no command takes.
"""

import ast
import os

from test_bench_contract import traced_names

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "liouville")

ALLOWED = {
    ("exactreal", "density_witness"),  # ROADMAP item 5 replaces it with an LLL witness
}

UNSET_PARAMETERS_ALLOWED = {
    ("cli.main", "argv"),  # the entry point: the console script calls main() with no arguments
    ("exactreal.density_witness", "cap"),  # ROADMAP item 5 replaces it with an LLL witness
    # a spec sets the continuous-part fields through `cls(**...)` in _parse_continuous
    ("RelativisticPart", "alpha"),
    ("RelativisticPart", "m"),
    ("RelativisticPart", "coefficient"),
    ("SphereSurfacePart", "radius"),
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
    """Dataclass fields read as an attribute nowhere in `trees`.

    A read is matched by attribute name alone, whatever the object: `state.sizes`
    counts as a read of every field named `sizes`.  So the scan did not see that
    ProbeResult.sizes, ProbeResult.flagged_partial and Counterexample.dimension were
    never read, because PropagationState.sizes, PropagationState.flagged_partial and
    LevyMeasure.dimension are.
    """
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


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _init_false(stmt):
    v = stmt.value
    return isinstance(v, ast.Call) and _callee(v) == "field" and any(
        k.arg == "init" and getattr(k.value, "value", None) is False for k in v.keywords
    )


def _defaults(module, tree):
    """(owner, name, callees, position) of each defaulted parameter and init field.

    `callees` are the names a call that sets it uses; `position` counts the
    positional arguments such a call passes before this one (None: keyword only).
    """
    classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    for cls in classes:
        if _is_dataclass(cls):
            init = [s for s in cls.body if isinstance(s, ast.AnnAssign) and not _init_false(s)]
            for i, stmt in enumerate(init):
                if stmt.value is not None:
                    yield cls.name, stmt.target.id, (cls.name, "replace"), i
    methods = {id(f): cls.name for cls in classes for f in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = 1 if cls and not static else 0  # self or cls, passed by the call's object
        owner = f"{cls}.{fn.name}" if cls else f"{module}.{fn.name}"
        callees = (cls if fn.name == "__init__" else fn.name,)
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first:], first):
            yield owner, arg.arg, callees, i - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield owner, arg.arg, callees, None


def unset_parameters(modules):
    """Defaulted parameters and dataclass fields that no call in `modules` sets.

    Calls are matched to definitions by name, as reads are in `unread_fields`; `cls(...)`
    inside a class body calls that class, and `replace(x, name=...)` sets every field
    called `name`.  A `**mapping` argument sets nothing the scan can see.
    """
    calls = {}
    for tree in modules.values():
        for scope in ast.walk(tree):
            if isinstance(scope, ast.ClassDef):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call) and _callee(node) == "cls":
                        calls.setdefault(scope.name, []).append(node)
            elif isinstance(scope, ast.Call):
                calls.setdefault(_callee(scope), []).append(scope)

    def sets(call, name, position):
        if any(k.arg == name for k in call.keywords):
            return True
        if position is None or len(call.args) <= position:
            return False
        return not any(isinstance(a, ast.Starred) for a in call.args[: position + 1])

    return [
        (owner, name)
        for module, tree in modules.items()
        for owner, name, callees, position in _defaults(module, tree)
        if not any(
            sets(c, name, None if callee == "replace" else position)  # replace takes keywords only
            for callee in callees
            for c in calls.get(callee, [])
        )
    ]


def test_every_default_is_set_in_src():
    assert [p for p in unset_parameters(dict(_modules())) if p not in UNSET_PARAMETERS_ALLOWED] == []


def test_the_parameter_scan_counts_keywords_positions_and_methods():
    tree = ast.parse(
        "@dataclass\nclass P:\n    a: int\n    b: int = 0\n    c: int = 1\n    d: int = 2\n"
        "    memo: dict = field(default_factory=dict, init=False)\n\n"
        "    def m(self, x=1, y=2):\n        return x\n\n"
        "    @classmethod\n    def make(cls):\n        return cls(0, c=2)\n\n"
        "def f(u, v=0, *, w=None):\n    return replace(P(1), d=3).m(u)\n\n"
        "f(1, 2)\n"
        "'ab'.replace('a', 'b')  # a str method: sets no field by position\n"
    )
    assert sorted(unset_parameters({"mod": tree})) == [("P", "b"), ("P.m", "y"), ("mod.f", "w")]
