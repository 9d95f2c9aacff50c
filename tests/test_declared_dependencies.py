"""Every third-party module the code imports is declared in pyproject.toml.

The package (``src/repro``) may import only ``[project].dependencies``;
the tests may also import the ``dev`` extras.  The scan is static and
offline: it reads every ``import`` statement, at any depth, and treats
``sys.stdlib_module_names`` and the repository's own modules as
declared.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _distribution(requirement: str) -> str:
    """``"pytest-benchmark>=4"`` -> ``"pytest_benchmark"``."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    return name.lower().replace("-", "_").replace(".", "_")


def _declared() -> tuple[set[str], set[str]]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {_distribution(r) for r in project["dependencies"]}
    dev = {_distribution(r)
           for r in project["optional-dependencies"]["dev"]}
    return runtime, runtime | dev


def _imports(root: Path) -> dict[str, list[str]]:
    """Top-level module name -> files under *root* that import it
    (relative imports excluded)."""
    found: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], []).append(
                    str(path.relative_to(ROOT)))
    return found


def _local(root: Path) -> set[str]:
    return {p.stem for p in root.iterdir()
            if p.suffix == ".py" or (p / "__init__.py").exists()}


def _undeclared(root: Path, declared: set[str]) -> dict[str, list[str]]:
    known = declared | set(sys.stdlib_module_names) | {"repro"} | _local(root)
    return {name: files for name, files in _imports(root).items()
            if name not in known}


def test_package_imports_only_runtime_dependencies() -> None:
    runtime, _ = _declared()
    package = ROOT / "src" / "repro"
    assert {"numpy", "scipy"} <= set(_imports(package))
    assert _undeclared(package, runtime) == {}


def test_tests_import_only_runtime_and_dev_dependencies() -> None:
    _, dev = _declared()
    tests = ROOT / "tests"
    assert {"pytest", "hypothesis"} <= set(_imports(tests))
    assert _undeclared(tests, dev) == {}
