"""The `>>>` examples in README.md and in the package's docstrings run as
written."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import superpatterns

_README = Path(__file__).resolve().parent.parent / "README.md"
_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(superpatterns.__path__, "superpatterns.")
)


@pytest.mark.parametrize("name", ["superpatterns", *_MODULES])
def test_module_examples(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_readme_examples():
    failed, attempted = doctest.testfile(str(_README), module_relative=False)
    assert attempted > 0
    assert failed == 0
