"""Every top-level name of the package, public or private, and every
method of its classes except the dunders Python calls itself, is reached
from outside its own definition.

A name counts as reached when it is loaded (as a bare name or as an
attribute) somewhere in the package, the demos, the benchmark harness or
the acceptance gate; a load inside the name's own definition does not
count, nor does a load of a class's name inside that class.  Methods are
matched by name alone, as attribute loads carry no class, except a method
named like a builtin container's (``count``, ``get``...): ``kinds.count``
on a list must not reach ``RealizationContext.count``, so such a name is
reached only through a receiver that resolves to its class (see
``_receiver``) and is listed as ``Class.name``.  The unit tests do not
count either: code that only its own tests call reproduces nothing.  The
few names kept on purpose are listed in ALLOWED with the reason they stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fareyflats"
USERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

ALLOWED = {
    "literal_intersection_number": (
        "the independent oracle the kernel is checked against"
    ),
    "error": "_Parser.error overrides argparse's, which argparse calls",
}


BUILTIN_METHODS = {
    name
    for kind in (list, dict, set, tuple, str, bytes, int)
    for name in dir(kind)
    if not name.startswith("_")
}
# the package's name for a value of a package class
RECEIVERS = {"ctx": "RealizationContext"}


def _receiver(node: ast.expr, cls: str | None) -> str | None:
    """The package class an attribute's receiver resolves to, if any:
    self inside class cls, a name in RECEIVERS, or a call of a class."""
    if isinstance(node, ast.Name):
        return cls if node.id == "self" else RECEIVERS.get(node.id)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _loads(tree: ast.AST, cls: str | None = None) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in BUILTIN_METHODS:
                names.add(node.attr)
            elif (owner := _receiver(node.value, cls)) is not None:
                names.add(f"{owner}.{node.attr}")
    return names


def _units(stmt: ast.stmt) -> list[tuple[ast.AST, set[str], str | None]]:
    """(node, names its loads do not reach, enclosing class) for a
    top-level statement; a class splits into its header and each statement
    of its body."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, {getattr(stmt, "name", "")}, None)]
    header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
    return [(node, {stmt.name}, None) for node in header] + [
        (node, {stmt.name, name, f"{stmt.name}.{name}"}, stmt.name)
        for node in stmt.body
        for name in [getattr(node, "name", "")]
    ]


def _reached(paths=USERS) -> set[str]:
    names = set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            for node, own, cls in _units(stmt):
                names |= _loads(node, cls) - own
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names() -> dict[str, str]:
    """name -> where, for every top-level def, class and constant and every
    method of a top-level class but the dunders."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                        name = node.name
                        if name in BUILTIN_METHODS:
                            name = f"{stmt.name}.{name}"
                        found[name] = f"{path.stem}.{stmt.name}"
                names = [stmt.name]
            elif isinstance(stmt, ast.FunctionDef):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [
                    t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()
                ]
            else:
                continue
            for name in names:
                found[name] = path.stem
    return found


def _unreached(private: bool) -> list[str]:
    reached = _reached()
    return sorted(
        f"{module}.{name}"
        for name, module in _defined_names().items()
        if name.startswith("_") == private
        and name not in reached
        and name not in ALLOWED
    )


def test_every_public_name_is_reached():
    assert _unreached(private=False) == []


def test_every_private_name_is_reached():
    assert _unreached(private=True) == []


def test_allowlist_holds_only_unreached_names():
    defined, reached = _defined_names(), _reached()
    assert all(name in defined and name not in reached for name in ALLOWED)


def test_builtin_method_names_reach_only_through_their_class():
    # list.count in a demo reaches nothing of the package ...
    demo = ROOT / "demos" / "flat_certificates.py"
    assert "kinds.count" in demo.read_text()
    assert not any(name.endswith("count") for name in _reached([demo]))
    # ... while each receiver that resolves to the class reaches its count
    for source, cls in [
        ("ctx.count(0, 1)", None),
        ("RealizationContext(objs).count(0, 1)", None),
        ("self.count(0, 1)", "RealizationContext"),
    ]:
        assert "RealizationContext.count" in _loads(ast.parse(source), cls)
    assert _loads(ast.parse("self.count(0, 1)"), "Other") == {"self", "Other.count"}
    assert "RealizationContext.count" in _defined_names()
