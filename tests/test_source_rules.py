"""Rules the package source keeps."""

import ast
from pathlib import Path

import taskrouter


def test_no_invariant_is_guarded_by_assert():
    # ``python -O`` strips assert statements, so invariants raise errors instead
    sources = sorted(Path(taskrouter.__file__).parent.glob("*.py"))
    assert sources
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
