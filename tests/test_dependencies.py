"""The package has no runtime dependency: it imports only the standard
library and itself, and pyproject.toml declares none."""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    paths = sorted((REPO / "src" / "hyperterm").glob("*.py"))
    assert paths
    outside = [
        f"{path.name}:{line}: {name}"
        for path in paths
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"hyperterm"}
    ]
    assert not outside, outside


def test_pyproject_declares_no_dependencies():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies\s*=.*$", text, re.M) == ["dependencies = []"]
