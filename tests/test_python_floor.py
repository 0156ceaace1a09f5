"""The oldest Python that pyproject.toml declares, checked for grammar only:
every module under src/ and tests/ must parse as that version's syntax.
It says nothing of the standard library or of the installed packages."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOOR = (3, 10)


def modules():
    for top in ("src", "tests"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            yield from sorted(os.path.relpath(os.path.join(dirpath, f), ROOT)
                              for f in files if f.endswith(".py"))


def test_floor_is_the_declared_one():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in fh.read()


@pytest.mark.parametrize("path", list(modules()))
def test_module_parses_at_the_floor(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        ast.parse(fh.read(), filename=path, feature_version=FLOOR)
