"""Package-wide invariants: internal checks survive ``python -O``; memos are bounded."""

import ast
from pathlib import Path

import epistrict
from epistrict import symplectic

SOURCES = sorted(Path(epistrict.__file__).parent.glob("*.py"))


def test_package_has_no_bare_asserts():
    # ``assert`` statements are stripped under -O; invariants raise AssertionError.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def test_complement_memo_is_bounded():
    assert symplectic._euclidean_complement.cache_info().maxsize is not None
