"""Fuzz the CLI in-process: every argv ends in a documented exit code.

Flag values are canonical renderings of random lines, points and scalars
(lines often parallel to a drawn one, points often on a drawn line, so
valid scenes come up too), mangled copies of them, or arbitrary text; a
value is joined to its flag with ``=`` or given as the next word, and now
and then a flag is left out.  Whatever the argv, ``main`` must return 0, 2,
3 or 4, argparse may only exit with 0 (``--help``), and no other exception
may escape.  A ``--json`` run that exits 2 prints one parse error document,
and any other run that exits 2 prints the parse error on stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from exactplane import Line, Point, format_line, format_point, format_scalar
from exactplane.checks import PROPERTY_NAMES
from exactplane.figures import FIGURES
from exactplane.cli import main

from conftest import lines, nonzero_rationals, points, rationals

EXITS = {0, 2, 3, 4}
GRAMMAR = "()/,=+-*xy0123456789 "


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _noisy(draw, text: str) -> str:
    """The text itself most of the time, else mangled or replaced."""
    how = draw(st.integers(0, 11))
    if how == 10:  # overwrite a few characters with grammar characters
        at = draw(st.integers(0, len(text)))
        junk = draw(st.text(alphabet=GRAMMAR, max_size=3))
        return text[:at] + junk + text[at + 1:]
    if how == 11:
        return draw(st.text(max_size=12))
    return text


def _off_origin(draw) -> Line:
    """A line of random direction, usually missing the origin as most scenes need."""
    l = draw(lines)
    return Line(l.a, l.b, draw(nonzero_rationals)) if draw(st.integers(0, 3)) else l


def _parallel(draw, l: Line) -> Line:
    return Line(l.a, l.b, draw(rationals)) if draw(st.integers(0, 3)) else draw(lines)


def _point_on(draw, l: Line) -> Point:
    if not draw(st.integers(0, 3)):
        return draw(points)
    if l.is_vertical:
        return Point(l.c / l.a, draw(rationals))
    x = draw(rationals)
    return Point(x, (l.c - l.a * x) / l.b)


@st.composite
def argvs(draw, out_dir):
    command = draw(st.sampled_from(
        ("phor", "pver", "construct-p", "nu", "mu", "nu-general", "check", "figure")
    ))
    flags = {}
    if command == "check":
        # at most two trials of one property, so a run stays a few milliseconds
        seed = draw(st.one_of(st.integers(-5, 10**6).map(str), st.text(max_size=4)))
        trials = draw(st.integers(-1, 2))
        prop = _noisy(draw, draw(st.sampled_from(PROPERTY_NAMES)))
        return ["check", f"--seed={seed}", f"--trials={trials}", f"--only={prop}"]
    if command in ("phor", "pver", "construct-p"):
        g_s = _off_origin(draw)
        flags["line-g-s"] = format_line(g_s)
        flags["line-g-t"] = format_line(_parallel(draw, g_s))
        flags["line-l"] = format_line(_off_origin(draw))
    if command in ("nu", "mu", "nu-general"):
        g = _off_origin(draw)
        flags["line-g"] = format_line(g)
        flags["line-p"] = format_line(_parallel(draw, g))
        flags["sample"] = format_point(_point_on(draw, g))
    if command in ("nu", "mu"):
        flags["epsilon"] = format_scalar(draw(rationals))
    if command in ("construct-p", "nu-general"):
        axis = draw(lines)
        flags["line-axis"] = format_line(axis)
        flags["origin"] = format_point(_point_on(draw, axis))
    if command == "nu-general":
        flags["offset"] = format_scalar(draw(rationals))
    argv = [command]
    if command == "figure":
        argv.append(_noisy(draw, draw(st.sampled_from(sorted(FIGURES)))))
    for name, value in flags.items():
        if not draw(st.integers(0, 15)):
            continue  # a missing required flag
        value = _noisy(draw, value)
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    if command != "figure" and draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        name = draw(st.sampled_from(("scene.svg",) * 4 + ("missing/scene.svg", ".")))
        argv.append(f"--svg-out={out_dir / name}")
    for name in ("xmin", "xmax", "ymin", "ymax"):
        if not draw(st.integers(0, 5)):
            argv.append(f"--{name}={_noisy(draw, format_scalar(draw(rationals)))}")
    for name in ("width", "height"):
        if not draw(st.integers(0, 5)):
            argv.append(f"--{name}={_noisy(draw, str(draw(st.integers(-2, 900))))}")
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argv_exits_with_a_documented_code(out_dir, data):
    argv = data.draw(argvs(out_dir), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse prints help
            code = exit_.code
            assert code == 0, (argv, stderr.getvalue())
    event(f"{argv[0]} exit {code}")
    assert code in EXITS, (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 2 and "--json" in argv:
        doc = json.loads(stdout.getvalue())
        assert set(doc) == {"construction", "inputs", "error"}, argv
        assert doc["error"]["code"] == "E_PARSE", argv
    elif code == 2:
        assert stderr.getvalue().startswith("error[E_PARSE]: "), (argv, stderr.getvalue())
