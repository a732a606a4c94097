"""Rules on the package source itself."""

import ast
from pathlib import Path

import hydrochar


def test_no_assert_statements_in_package():
    """Invariants are explicit raises, because ``python -O`` strips asserts."""
    root = Path(hydrochar.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
