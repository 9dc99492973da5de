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
