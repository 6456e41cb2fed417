"""The geometry layers must not depend on the presentation layers.

Reads each geometry module's import statements (without importing it) and
fails if any of them names ``textio``, ``figures``, ``checks`` or ``cli``.
"""

import ast
from pathlib import Path

import pytest

import exactplane

PACKAGE = Path(exactplane.__file__).parent
GEOMETRY = (
    "kernel",
    "linsolve",
    "double_projection",
    "axis_projection",
    "parallelogram",
    "parallelogram_axis",
)
PRESENTATION = {"textio", "figures", "checks", "cli"}


def imported_modules(module: str):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            if node.level and not node.module:
                # "from . import cli" names the module in the alias
                for alias in node.names:
                    yield alias.name


@pytest.mark.parametrize("module", GEOMETRY)
def test_geometry_module_imports_no_presentation_layer(module):
    offending = sorted(
        name
        for name in imported_modules(module)
        if name.split(".")[-1] in PRESENTATION
    )
    assert offending == [], f"{module} imports {offending}"
