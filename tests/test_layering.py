"""The geometry layers must not depend on the presentation layers, nor the
presentation layers on the ones above them.

Reads each module's import statements (without importing it) and fails if a
geometry module names ``textio``, ``figures``, ``checks`` or ``cli``, if
``textio`` (whose flag rule ``cli`` and ``checks`` share) names ``figures``,
``checks`` or ``cli``, or if ``figures`` or ``checks`` names the other or
``cli``.  Among the geometry modules, each general construction stays below
its coordinate-axis case: ``parallelogram_axis`` below ``parallelogram``,
and ``axis_projection`` below ``double_projection``.  The closed forms and
``oracle_point`` stay independent of the elimination they check: they may
share its case guard (``_shift_axis``), but name none of its functions.
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
# each presentation module -> the presentation modules it must not import
PRESENTATION_BELOW = {
    "textio": {"figures", "checks", "cli"},
    "figures": {"checks", "cli"},
    "checks": {"figures", "cli"},
}


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


def offending_imports(module: str, forbidden):
    return sorted(name for name in imported_modules(module) if name.split(".")[-1] in forbidden)


@pytest.mark.parametrize("module", GEOMETRY)
def test_geometry_module_imports_no_presentation_layer(module):
    offending = offending_imports(module, PRESENTATION)
    assert offending == [], f"{module} imports {offending}"


@pytest.mark.parametrize("module", list(PRESENTATION_BELOW))
def test_presentation_module_imports_no_layer_above_it(module):
    offending = offending_imports(module, PRESENTATION_BELOW[module])
    assert offending == [], f"{module} imports {offending}"


def test_general_parallelogram_imports_not_its_coordinate_axis_case():
    offending = offending_imports("parallelogram_axis", {"parallelogram"})
    assert offending == [], f"parallelogram_axis imports {offending}"


def test_general_projection_imports_not_its_coordinate_axis_case():
    offending = offending_imports("axis_projection", {"double_projection"})
    assert offending == [], f"axis_projection imports {offending}"


# the first proposition's elimination and everything built on it
ELIMINATION = {
    "_eliminate", "_eliminate_on", "_witness", "p_hor", "p_ver", "rho_pair", "rho_tilde_pair",
}


@pytest.mark.parametrize("oracle", ["p_hor_closed_form", "p_ver_closed_form", "oracle_point"])
def test_projection_oracles_name_no_elimination_function(oracle):
    tree = ast.parse((PACKAGE / "double_projection.py").read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == oracle]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    offending = sorted(named & ELIMINATION)
    assert offending == [], f"{oracle} names {offending}"
