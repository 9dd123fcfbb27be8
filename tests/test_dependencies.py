"""The package has no runtime dependency: it imports only the standard
library and itself, and pyproject.toml declares none.  Its modules are
layered: each imports only modules below it, and only when it loads.  Of
the standard library it loads only what runs: not ``logging``,
``dataclasses`` or ``inspect``, which cost more to import than the
package's own modules."""

import ast
import os
import re
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "hyperterm"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
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


def _runtime_imports(path: Path):
    """(import node, whether it sits in a function) for each import
    statement of the module outside an ``if TYPE_CHECKING:`` block, whose
    imports serve annotations only."""
    stack = [(ast.parse(path.read_text(encoding="utf-8"), str(path)), False)]
    while stack:
        node, nested = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack.extend((child, nested) for child in node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, nested
        nested = nested or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        stack.extend((child, nested) for child in ast.iter_child_nodes(node))


def _package_imports(path: Path) -> set[str]:
    """The package modules the module imports at run time, by relative
    import."""
    names = set()
    for node, _ in _runtime_imports(path):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_no_import_inside_a_function():
    # an import in a function body hides an edge, usually an upward one
    # that would close a cycle, from the module's header
    nested = sorted(
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in PACKAGE.glob("*.py")
        for node, inside in _runtime_imports(path)
        if inside
    )
    assert not nested, nested


def test_package_imports_form_no_cycle():
    graph = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_jsonio_loads_only_the_spec_layers():
    # results are written from objects the caller built, so jsonio needs
    # the layers that produce them only for its annotations
    allowed = {"errors", "geometry", "parsing", "poly", "termratio"}
    assert _package_imports(PACKAGE / "jsonio.py") <= allowed


# a module here is loaded by neither ``import hyperterm`` nor the CLI; each
# pulls in others (``traceback``, ``string``; ``ast``, ``dis``) on import
UNLOADED = ("logging", "dataclasses", "inspect")


def test_import_leaves_heavy_stdlib_modules_unloaded():
    code = (
        "import sys\n"
        "import hyperterm, hyperterm.cli\n"
        f"print(' '.join(name for name in {UNLOADED!r} if name in sys.modules))"
    )
    path = os.pathsep.join([str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert proc.stdout.split() == []
