"""Rules checked on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "toricarcs"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants raise exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    """Names a module imports and never reads, __all__ counting as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_package_modules_import_no_unused_name():
    # __init__ imports to re-export, so it is the one module left out
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_unused_import_rule_sees_a_name_that_is_never_read():
    tree = ast.parse("from fractions import Fraction\nimport math\nfrom .lattice import INF\nx = math.pi\n")
    assert _unused_imports(tree) == [(1, "Fraction"), (3, "INF")]
