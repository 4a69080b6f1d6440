"""Source-level rules the package keeps."""

import ast
from pathlib import Path

import interdec

PACKAGE = Path(interdec.__file__).parent


def test_no_assert_or_assertion_error_in_package():
    # correctness checks raise InternalContradiction: `python -O` strips
    # assert statements, and AssertionError escapes the CLI's exit codes
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
