"""Every top-level function and method of the package is reached from
somewhere: the package itself, the experiment scripts or the acceptance
criteria.  Unit tests alone do not count as a use."""

import ast
from pathlib import Path

import qsearch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsearch"
USERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
USERS.append(ROOT / "tests" / "test_acceptance.py")
EXEMPT = set(qsearch.__all__) | {"main"}


def _definitions():
    """(module, name) of each top-level function and non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path.stem, f"{node.name}.{item.name}"


def _references() -> set[str]:
    """Every name read or attribute taken anywhere in the user files; a def
    statement is not a reference to the name it defines."""
    seen = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_definition_is_reached():
    used = _references()
    unreached = [
        f"{module}.{qual}"
        for module, qual in _definitions()
        if qual.split(".")[-1] not in used | EXEMPT
    ]
    assert unreached == []
