"""Rules about the library source that its behaviour tests cannot see."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "demazure").glob("*.py")
)


def test_no_assert_statements():
    assert {p.name for p in SOURCES} >= {"algebra.py", "lattice.py"}
    # ``python -O`` strips asserts, so a check written as one silently
    # disappears; invariants are stated in comments and tested instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"
