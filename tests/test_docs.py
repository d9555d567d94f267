"""The `>>>` examples in README.md and in the package's docstrings run as
written, and so does every command of README's CLI block."""

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import superpatterns
from superpatterns import cli

_README = Path(__file__).resolve().parent.parent / "README.md"
_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(superpatterns.__path__, "superpatterns.")
)


def _cli_commands():
    """(command, comment) for each line of the sh block under README's
    `## CLI` heading."""
    text = _README.read_text()
    section = text[text.index("## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("  #")
        lines.append((command.strip(), comment.strip()))
    return lines


@pytest.mark.parametrize("name", ["superpatterns", *_MODULES])
def test_module_examples(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_readme_examples():
    failed, attempted = doctest.testfile(str(_README), module_relative=False)
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("command, comment", _cli_commands())
def test_readme_cli_commands(command, comment, capsys):
    # bracketed options are left out; the exit code is the comment's
    # "exit N", else 0, the exit-code paragraph's true/success
    argv = shlex.split(re.sub(r"\s*\[--[^\]]*\]", "", command))
    assert argv[0] == "superpatterns"
    expected = re.search(r"exit (\d)", comment)
    assert cli.main(argv[1:]) == (int(expected.group(1)) if expected else 0)
    printed = re.search(r'prints "([^"]*)"', comment)
    if printed:
        assert capsys.readouterr().out.strip() == printed.group(1)
