"""Checks on the package source itself."""

import ast
import pathlib

import capnet

SRC = pathlib.Path(capnet.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so a certified inequality written as one would
    # silently stop being checked; such checks raise VerificationError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in capnet: {found}"
