"""Every top-level name of the package, public or private, and every
method of its classes except the dunders Python calls itself, is reached
from outside its own definition.

A name counts as reached when it is loaded (as a bare name or as an
attribute) somewhere in the package, the demos, the benchmark harness or
the acceptance gate; a load inside the name's own definition does not
count, nor does a load of a class's name inside that class.  Methods are
matched by name alone, as attribute loads carry no class.  The unit tests
do not count either: code that only its own tests call reproduces
nothing.  The few names kept on purpose are listed in ALLOWED with the
reason they stay.
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
    "tightness_check": "an oracle: checks a realization is in minimal position",
    "regenerate_default_lines": "regenerates data/geodesics.json",
    "scaled": "the stability oracle: recounts with the wave offsets shrunk",
    "error": "_Parser.error overrides argparse's, which argparse calls",
}


def _loads(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _units(stmt: ast.stmt) -> list[tuple[ast.AST, set[str]]]:
    """(node, names its loads do not reach) for a top-level statement; a
    class splits into its header and each statement of its body."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, {getattr(stmt, "name", "")})]
    header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
    return [(node, {stmt.name}) for node in header] + [
        (node, {stmt.name, getattr(node, "name", "")}) for node in stmt.body
    ]


def _reached() -> set[str]:
    names = set()
    for path in USERS:
        for stmt in ast.parse(path.read_text()).body:
            for node, own in _units(stmt):
                names |= _loads(node) - own
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
                        found[node.name] = f"{path.stem}.{stmt.name}"
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
