"""The kernel backends that the parity tests run on.

Tests taking a ``backend`` argument run once per backend: the pure-Python
twin, and the compiled extension.  The compiled one is the installed module
when it imports; otherwise setup.py builds it into a temporary directory for
the session, and it is loaded from there for these tests only, so the
library keeps the backend it selected at import.  Tests taking ``compiled``
run on the compiled backend alone.
"""

import importlib.machinery
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

from superpatterns import _kernels_py, kernels

_ROOT = Path(__file__).resolve().parent.parent
_BACKENDS = {"python": _kernels_py}
_build_dir = None


def _compiled_kernels():
    """The compiled kernel module, or None when it cannot be built here."""
    global _build_dir
    try:
        from superpatterns import _kernels
    except ImportError:
        pass
    else:
        return _kernels
    _build_dir = tempfile.TemporaryDirectory(prefix="superpatterns-kernels-")
    out = _build_dir.name
    # a failed build leaves no module behind, and the parity tests run on
    # the pure backend alone; the report header says which backends ran
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", out, "--build-temp", out],
        cwd=_ROOT,
        capture_output=True,
    )
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(out, "superpatterns", "_kernels" + suffix)
        if path.exists():
            spec = importlib.util.spec_from_file_location("superpatterns._kernels", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


def pytest_configure(config):
    compiled = _compiled_kernels()
    if compiled is not None:
        _BACKENDS[compiled.BACKEND] = compiled


def pytest_unconfigure(config):
    if _build_dir is not None:
        _build_dir.cleanup()


def pytest_report_header(config):
    return (
        f"kernel backends in parity tests: {', '.join(sorted(_BACKENDS))}; "
        f"library backend: {kernels.BACKEND}"
    )


def pytest_generate_tests(metafunc):
    names = sorted(_BACKENDS)
    if "backend" in metafunc.fixturenames:
        metafunc.parametrize("backend", [_BACKENDS[n] for n in names], ids=names)
    if "compiled" in metafunc.fixturenames:
        names = [n for n in names if n != "python"]
        metafunc.parametrize("compiled", [_BACKENDS[n] for n in names], ids=names)
