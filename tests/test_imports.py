"""Every module-level import of the package is read in its module.

A name that an import binds and nothing reads keeps a dependency between
modules that no code needs.  ``__init__`` binds names for the package's
users and is not scanned.  An import kept only for perfbench's tracer is
allowlisted, and each allowlisted one must be a patch target of the tracer.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "superpatterns"

# (module, name) bound only for a reader outside the module: perfbench's
# tracer wraps search.enumerate_layered and universal._greedy
_ALLOWED = {("search", "enumerate_layered"), ("universal", "_greedy")}


def _imports(body):
    """The import statements of a module body, those in its top-level if
    and try blocks included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _imports(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                yield from _imports(handler.body)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in _imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            assert alias.name != "*", f"{path.name} imports * from {node.module}"
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield path.stem, name


def test_every_module_level_import_is_used():
    modules = [path for path in sorted(_SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 9
    unused = {pair for path in modules for pair in _unused_imports(path)}
    assert unused == _ALLOWED


def _tracer_targets():
    """The (module, "attr") pairs that perfbench/tracing.py patches."""
    tree = ast.parse((_ROOT / "perfbench" / "tracing.py").read_text())
    return {
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Name)
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
    }


def test_every_allowed_import_is_a_tracer_target():
    # an allowlisted import cannot outlive the patch that it is kept for
    targets = _tracer_targets()
    assert ("search", "_scan_length") in targets
    assert _ALLOWED <= targets, _ALLOWED - targets


def _package_imports(path):
    """The package modules that a module imports (relatively, as the
    package imports itself), at any depth of its body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_the_chain_engine_and_the_twin_stand_alone():
    # the chain engine imports only errors and the twin nothing of the
    # package, so a checker can import either without the other; only the
    # backend selection imports the twin
    assert _package_imports(_SRC / "chains.py") == {"errors"}
    assert _package_imports(_SRC / "_kernels_py.py") == set()
    importers = {
        path.stem for path in _SRC.glob("*.py") if "_kernels_py" in _package_imports(path)
    }
    assert importers == {"kernels"}
