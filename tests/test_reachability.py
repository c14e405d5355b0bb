"""Every top-level function and method of the package is reached from
somewhere: the package itself, the experiment scripts or the acceptance
criteria.  Unit tests alone do not count as a use, and a method is reached
only through an attribute (`x.sub`), never by a bare name (`sub`)."""

import ast
from pathlib import Path

import qsearch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsearch"
USERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
USERS.append(ROOT / "tests" / "test_acceptance.py")
EXEMPT = set(qsearch.__all__) | {"main"}
# kept for the benchmark's gf.sub_ns.q7 row until it changes (ROADMAP item 7)
EXEMPT_METHODS = {"GF.sub"}


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


def _references() -> tuple[set[str], set[str]]:
    """Every name read and every attribute taken anywhere in the user files;
    a def statement is not a reference to the name it defines."""
    names, attrs = set(), set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_definition_is_reached():
    names, attrs = _references()
    unreached = [
        f"{module}.{qual}"
        for module, qual in _definitions()
        if qual not in EXEMPT_METHODS
        and qual.split(".")[-1] not in (attrs if "." in qual else names | attrs) | EXEMPT
    ]
    assert unreached == []
