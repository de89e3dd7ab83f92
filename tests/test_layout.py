"""The layout of the test suite: what more than one test module uses lives
in conftest.py, so no test module imports another."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def test_no_test_module_imports_another():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0].startswith("test_")]
    assert found == []
