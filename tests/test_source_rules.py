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


# cli.main reports a bare ValueError from these modules as an invalid fan
# (exit 3), so each error they raise must be a typed DemazureError that
# names what is wrong.
FAN_FAMILY = {"fan.py", "roots.py", "orbits.py", "serialize.py", "cli.py"}


def test_no_bare_value_or_type_errors_in_the_fan_family():
    assert {p.name for p in SOURCES} >= FAN_FAMILY
    found = []
    for path in SOURCES:
        if path.name not in FAN_FAMILY:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError",
                                                        "TypeError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare ValueError/TypeError in the fan family: {found}"
