"""What the package and its modules export, what README's API example imports,
and the code that README and the docstrings name."""

import ast
import re
from pathlib import Path

import pytest

import eprbsim
from eprbsim import bell, bounds, cli, coincidence, model, reproduce, runner

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.__name__.rpartition(".")[2]: m
           for m in (model, coincidence, runner, bounds, bell, cli, reproduce)}
# a backticked module.name; ``model.py`` and the like are file names
REFERENCE = re.compile(r"`(%s)\.(\w+)" % "|".join(MODULES))


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


def test_code_references_in_the_docs_resolve():
    """Every backticked ``module.name`` in README and in the package's
    docstrings and comments names an attribute of that module."""
    texts = [README, *sorted(Path(eprbsim.__file__).parent.glob("*.py"))]
    missing = [f"{path.name}: {module}.{name}"
               for path in texts
               for module, name in REFERENCE.findall(path.read_text())
               if name != "py" and not hasattr(MODULES[module], name)]
    assert not missing, missing


def test_only_the_orchestrators_take_both_settings():
    """Each station's step takes its own setting alone; the functions whose
    parameters include both a1 and a2 are the five that call a station step
    once per station."""
    both = set()
    for module in (model, coincidence):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                if {"a1", "a2"} <= names:
                    both.add(f"{module.__name__.rpartition('.')[2]}.{node.name}")
    assert both == {"model.generate_batch", "model._events_from_uniforms",
                    "coincidence._screen", "coincidence._outcome_counts",
                    "coincidence._block_counts"}
