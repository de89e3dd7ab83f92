"""The layout of the repository's Python code: what more than one test
module uses lives in conftest.py, so no test module imports another; no
module of the package, the tests or the demos imports a name it never
uses; and every demo runs."""

import ast
import pathlib
import subprocess
import sys

import pytest

from conftest import DEMOS, ROOT, fsmkit_env

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


def test_no_unused_imports():
    found = []
    for path in [*sorted((ROOT / "src" / "fsmkit").glob("*.py")),
                 *sorted(TESTS.glob("*.py")), *sorted(DEMOS.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        found.append(f"{path.relative_to(ROOT)}:"
                                     f"{node.lineno}: {name}")
    assert found == []


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_without_a_solver(demo, tmp_path):
    env = fsmkit_env()
    env.pop("FSMKIT_SOLVER", None)
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
