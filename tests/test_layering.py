"""The geometry layers must not depend on the presentation layers, nor the
presentation layers on the ones above them.

Reads each module's import statements (without importing it) and fails if a
geometry module names ``textio``, ``figures``, ``checks`` or ``cli``, if
``textio`` (whose flag rule ``cli`` and ``checks`` share) names ``figures``,
``checks`` or ``cli``, or if ``figures`` or ``checks`` names the other or
``cli``.  The package root names none of ``checks``, ``figures`` or ``cli``,
and a fresh interpreter loads ``checks`` only for ``exactplane check``.  No
module of the package, the root included, imports ``exactplane`` by absolute
name, so a second copy of the package can load under another name without
reaching back into the first.
Among the geometry modules, each general construction stays below
its coordinate-axis case: ``parallelogram_axis`` below ``parallelogram``,
and ``axis_projection`` below ``double_projection``.  The closed forms and
``oracle_point`` stay independent of the elimination they check: they may
share its case guard (``_shift_axis``), but name none of its functions.  In
the mirror image, the parallelogram constructions (``build_witness``,
``mu_witness``, ``nu``, ``mu`` and ``nu_general``, with every function of
their module they reach) name none of the closed forms or their guards.
"""

import ast
import json
import subprocess
import sys
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


def test_package_root_imports_no_check_engine_renderer_or_cli():
    offending = offending_imports("__init__", {"checks", "figures", "cli"})
    assert offending == [], f"exactplane/__init__.py imports {offending}"


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_module_imports_the_package_only_by_relative_name(module):
    absolute = [name for name in imported_modules(module) if name.split(".")[0] == "exactplane"]
    assert absolute == [], f"{module} imports {absolute} by absolute name"


# what each kind of run leaves in sys.modules of a fresh interpreter
ROOT_MODULES = {
    "exactplane", *(f"exactplane.{name}" for name in (*GEOMETRY, "errors", "textio")),
}
CLI_MODULES = ROOT_MODULES | {"exactplane.cli", "exactplane.figures"}
CHECK_MODULES = CLI_MODULES | {"exactplane.checks"}

CONSTRUCTIONS = {
    "phor": ("phor", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=1"),
    "pver": ("pver", "--line-g-s", "y=2x+4", "--line-g-t", "y=2x+2", "--line-l", "y=1"),
    "construct-p": (
        "construct-p", "--line-g-s", "y=x+2", "--line-g-t", "y=x-1", "--line-l", "1x+1y=4",
        "--line-axis", "1x-3y=3", "--origin", "(3, 0)",
    ),
    "nu": ("nu", "--line-g", "y=2x+4", "--line-p", "y=2x+2", "--epsilon", "4",
           "--sample", "(0, 4)"),
    "mu": ("mu", "--line-g", "1x-2y=4", "--line-p", "1x-2y=2", "--epsilon", "4",
           "--sample", "(4, 0)"),
    "nu-general": (
        "nu-general", "--line-g", "y=2x+4", "--line-p", "y=2x+2", "--line-axis", "1x-4y=4",
        "--origin", "(4, 0)", "--offset", "3", "--sample", "(0, 4)",
    ),
}


def loaded_modules(argv=None):
    """The ``exactplane`` modules a fresh interpreter holds after importing
    the package, or after ``cli.main(argv)`` exits 0 with its output dropped."""
    script = (
        "import contextlib, io, json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is None:\n"
        "    import exactplane\n"
        "else:\n"
        "    from exactplane.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'exactplane')))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout))


def test_import_loads_only_the_geometry():
    assert loaded_modules() == ROOT_MODULES


@pytest.mark.parametrize("mode", ["text", "json", "svg"])
@pytest.mark.parametrize("command", list(CONSTRUCTIONS))
def test_construction_run_loads_no_check_engine(command, mode, tmp_path):
    extra = {"text": [], "json": ["--json"], "svg": ["--svg-out", str(tmp_path / "scene.svg")]}
    assert loaded_modules([*CONSTRUCTIONS[command], *extra[mode]]) == CLI_MODULES


def test_figure_run_loads_no_check_engine():
    assert loaded_modules(["figure", "pic1"]) == CLI_MODULES


def test_check_run_loads_the_check_engine():
    argv = ["check", "--trials", "1", "--only", "kernel-intersection"]
    assert loaded_modules(argv) == CHECK_MODULES


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


# the parallelogram closed forms, their guards, and the coordinate swap
STRIP_ORACLES = {
    "connecting_line", "nu_closed_form", "mu_closed_form", "s_bar_t_bar_closed_form",
    "minus_nu_check", "swap_scene", "_require_sloped", "_require_transversal_rays",
}


def names_reachable(module: str, entries):
    """Every bare name the module-level functions ``entries`` use, following
    the module's own functions they name, called or passed along.  Attributes
    are left out: the record's ``connecting_line`` field is not the oracle."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named, todo = set(entries), list(entries)
    while todo:
        ids = {node.id for node in ast.walk(functions[todo.pop()]) if isinstance(node, ast.Name)}
        todo += sorted((ids & functions.keys()) - named)
        named |= ids
    return named


@pytest.mark.parametrize("module, entries", [
    ("parallelogram", ["build_witness", "mu_witness", "nu", "mu"]),
    ("parallelogram_axis", ["nu_general", "_nu_general_core"]),
], ids=["parallelogram", "parallelogram_axis"])
def test_parallelogram_constructions_name_no_oracle(module, entries):
    offending = sorted(names_reachable(module, entries) & STRIP_ORACLES)
    assert offending == [], f"{module} constructions name {offending}"
