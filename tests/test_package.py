"""What the package and its modules export, and what README's API example imports."""

import ast
import re
from pathlib import Path

import pytest

import eprbsim
from eprbsim import bell, bounds, coincidence, model, runner

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_imports() -> set[str]:
    """Names that README's fenced Python blocks import from ``eprbsim``."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "eprbsim":
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [eprbsim, model, coincidence, runner, bounds, bell],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name


def test_readme_api_block_uses_only_exported_names():
    names = readme_api_imports()
    assert names, "README has no Python block importing from eprbsim"
    assert names <= set(eprbsim.__all__), sorted(names - set(eprbsim.__all__))
