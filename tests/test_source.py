import ast
from pathlib import Path

import kroncave

PACKAGE = Path(kroncave.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """Invariant checks are explicit exceptions, so they still run under python -O."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
