"""Command-line front end.

Every flag value is taken as a plain string and parsed by the same grammar
the library exposes, so a malformed line or point yields the structured
parse error (exit code 2) instead of an argparse usage dump.  So does an argv
argparse cannot read (a missing or unknown flag): the parser raises the same
``ParseError``.  A value word that starts with ``-`` and a digit, such as
``--offset -3/2``, is the flag's value, as in ``--offset=-3/2``.  Geometry
preconditions exit 3, an internal cross-check failure exits 4, and a failing
check suite exits 1.

Each construction handler builds its scene, runs it, and hands the result
record to ``_report``, the one place that decides how a value prints: a
point, line or rational as its canonical text (``textio.format_value``), an
absent value as ``-``.  Without ``--json`` that is ``label: value`` rows.
With ``--json`` it is one result document: ``construction``, ``inputs`` (the
scene's fields, echoed in canonical text form), ``outputs``, ``case`` and
``witnesses``, where a point becomes ``{"x", "y"}`` and rationals are ``p/q``
strings, so the documents are exact and byte-stable.  A rejected run prints
the same envelope with an ``error`` object and the raw input strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from typing import Dict, List, NoReturn, Optional, Sequence

from . import axis_projection as ap
from . import double_projection as dp
from . import parallelogram as pg
from . import parallelogram_axis as pga
from .checks import PROPERTY_NAMES, run_all, summarize
from .errors import GeomError, InconsistentError, ParseError
from .figures import (
    FIGURES,
    Viewport,
    axis_projection_elements,
    axis_strip_elements,
    render_svg,
    strip_elements,
    transversal_elements,
)
from .kernel import Point
from .textio import format_scalar, format_value, parse_line_spec, parse_point, parse_scalar


# ------------------------------------------------------------- output

def _json(value):
    """The JSON form of a record value: a point becomes ``{"x", "y"}``, a
    dict recurses, and strings, bools and None pass through."""
    if isinstance(value, Point):
        return {"x": format_scalar(value.x), "y": format_scalar(value.y)}
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, bool)):
        return value
    return format_value(value)


def _text(value) -> str:
    if value is None:
        return "-"
    return value if isinstance(value, str) else format_value(value)


def _report(
    args, scene, outputs: dict, case: str, witnesses: dict, rows, title: str, elements
) -> int:
    """Print one construction result: the ``--json`` document, or the
    ``label: value`` text rows.  The inputs echo the scene's fields, whose
    names are the document's keys.  ``elements`` builds the figure, and is
    called only when an SVG is written."""
    # the SVG goes first, so a bad viewport flag prints only its error
    if args.svg_out:
        _write_svg_out(args.svg_out, render_svg(title, elements(), _viewport(args, Viewport())))
    if args.json:
        inputs = {f.name: getattr(scene, f.name) for f in dataclasses.fields(scene)}
        doc = {
            "construction": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "case": case,
            "witnesses": witnesses,
        }
        print(json.dumps(_json(doc), indent=2, sort_keys=True))
    else:
        for label, value in rows:
            print(f"{label}: {_text(value)}")
    return 0


def _write_svg_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ParseError(
            f"cannot write --svg-out {path!r}: {err.strerror or err}",
            0,
            "a writable file path",
        ) from None


_VIEWPORT_FLAGS = ("xmin", "xmax", "ymin", "ymax", "width", "height")


def _viewport(args, default: Viewport) -> Viewport:
    parsed = {}
    for name in _VIEWPORT_FLAGS:
        raw = getattr(args, name, None)
        if raw is not None:
            parsed[name] = _pixels(name, raw) if name in ("width", "height") else parse_scalar(raw)
    if not parsed:
        return default
    try:
        return dataclasses.replace(default, **parsed)
    except ValueError as err:
        raise ParseError(
            f"bad viewport: {err}", 0, "xmin < xmax, ymin < ymax and positive pixel sizes"
        ) from None


def _pixels(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad --{name} {raw!r}", 0, "a whole number of pixels") from None


# ------------------------------------------------------------- subcommands

def _cmd_projection(args) -> int:
    horizontal = args.command == "phor"
    scene = dp.TransversalScene(
        g_s=parse_line_spec(args.line_g_s),
        g_t=parse_line_spec(args.line_g_t),
        l=parse_line_spec(args.line_l),
    )
    w = dp.p_hor(scene) if horizontal else dp.p_ver(scene)
    case = w.case_tag.value
    witnesses = {f.name: getattr(w, f.name) for f in dataclasses.fields(w) if f.name != "point"}
    witnesses["case_tag"] = case
    shift_s, shift_t = ("a_s", "a_t") if horizontal else ("b_s", "b_t")
    rows = [
        ("case", case), ("p", w.point), ("s", w.s), ("t", w.t),
        (shift_s, w.a_or_b_s), (shift_t, w.a_or_b_t),
        ("rho", w.rho), ("alpha", w.alpha), ("beta", w.beta),
    ]
    return _report(
        args, scene, {"p": w.point}, case, witnesses, rows,
        "Distinguished point on a transversal",
        lambda: transversal_elements(scene, [w], mark_intercepts=True),
    )


def _cmd_construct_p(args) -> int:
    scene = ap.AxisScene(
        g_s=parse_line_spec(args.line_g_s),
        g_t=parse_line_spec(args.line_g_t),
        l=parse_line_spec(args.line_l),
        axis=parse_line_spec(args.line_axis),
        origin=parse_point(args.origin),
    )
    r = ap.construct_p(scene)
    checks = ap.verify_p2(r)
    outputs = {
        name: getattr(r, name) for name in ("p", "axis_p", "s_axis", "t_axis", "s_p", "t_p")
    }
    witnesses = {name: getattr(r, name) for name in ("s", "t", "z_s", "z_t")}
    witnesses["checks"] = checks
    case = r.case_tag.value
    rows = [("case", case), *outputs.items(), ("verified", f"{sum(checks.values())}/{len(checks)}")]
    return _report(
        args, scene, outputs, case, witnesses, rows,
        "Construction relative to an axis", lambda: axis_projection_elements(r),
    )


def _report_parallelogram(args, scene, record, label: str, value, title: str, elements) -> int:
    """The shared report of ``nu``/``mu`` (a ``ParallelogramWitness``) and
    ``nu-general`` (an ``AxisParallelogram``)."""
    case = "collapsed" if record.t_bar == record.neg_s_bar else "main"
    corners = ("s_bar", "t_bar", "neg_s_bar", "neg_t_bar")
    witnesses = {name: getattr(record, name) for name in ("s", "t", *corners, "connecting_line")}
    rows = [
        (label, value), *((name, witnesses[name]) for name in corners),
        ("connecting", record.connecting_line), ("case", case),
    ]
    return _report(args, scene, {label: value}, case, witnesses, rows, title, elements)


def _cmd_strip(args) -> int:
    swap = args.command == "mu"
    scene = pg.StripScene(
        g=parse_line_spec(args.line_g),
        p=parse_line_spec(args.line_p),
        epsilon=parse_scalar(args.epsilon),
        sample=parse_point(args.sample),
    )
    w = pg.mu_witness(scene) if swap else pg.build_witness(scene)
    return _report_parallelogram(
        args, scene, w, args.command, w.nu, "Parallelogram intercept",
        lambda: strip_elements(scene, w, "μ" if swap else "ν"),
    )


def _cmd_nu_general(args) -> int:
    scene = pga.AxisStripScene(
        g=parse_line_spec(args.line_g),
        p=parse_line_spec(args.line_p),
        axis=parse_line_spec(args.line_axis),
        origin=parse_point(args.origin),
        offset=parse_scalar(args.offset),
        sample=parse_point(args.sample),
    )
    r = pga.nu_general(scene)
    return _report_parallelogram(
        args, scene, r, "nu_point", r.nu_point, "Parallelogram intercept on an axis",
        lambda: axis_strip_elements(r),
    )


def _cmd_check(args) -> int:
    names: Optional[List[str]] = None
    if args.only is not None:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(names) - set(PROPERTY_NAMES))
        if unknown or not names:
            # an empty list would pass on zero evidence
            print(
                f"unknown properties: {', '.join(unknown)}" if unknown else "--only names no property",
                file=sys.stderr,
            )
            print(f"available: {', '.join(PROPERTY_NAMES)}", file=sys.stderr)
            return 2
    if args.trials < 1:
        print(f"--trials must be positive, not {args.trials}", file=sys.stderr)
        return 2
    reports = run_all(args.seed, args.trials, names)
    print(summarize(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_figure(args) -> int:
    try:
        builder = FIGURES[args.name]
    except KeyError:
        print(
            f"unknown figure {args.name!r}; available: {', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 2
    title, elements, default_vp = builder()
    svg = render_svg(title, elements, _viewport(args, default_vp))
    if args.svg_out:
        _write_svg_out(args.svg_out, svg)
    else:
        sys.stdout.write(svg)
    return 0


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """An argument parser that reports an unreadable argv as a ``ParseError``
    instead of printing its usage and exiting."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {message}", 0, f"the arguments of '{self.prog} --help'")


def _add_common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="print a JSON result document")
    sub.add_argument("--svg-out", metavar="PATH", help="also render the scene as SVG")
    _add_viewport_flags(sub)


def _add_viewport_flags(sub: argparse.ArgumentParser) -> None:
    for name in ("xmin", "xmax", "ymin", "ymax"):
        sub.add_argument(f"--{name}", metavar="R", help=f"viewport {name} (rational)")
    sub.add_argument("--width", metavar="PX", help="viewport width in pixels")
    sub.add_argument("--height", metavar="PX", help="viewport height in pixels")


def _line_flag(sub: argparse.ArgumentParser, name: str, role: str) -> None:
    sub.add_argument(
        f"--line-{name}",
        dest=f"line_{name.replace('-', '_')}",
        metavar="SPEC",
        required=True,
        help=f"{role}, e.g. 'y=2*x+4', 'x=-2' or '2x+3y=1/2'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactplane",
        description="Exact rational constructions on parallel lines and transversals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("phor", "point whose horizontal shifts land on the two origin rays"),
        ("pver", "point whose vertical shifts land on the two origin rays"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _line_flag(sub, "g-s", "first base line")
        _line_flag(sub, "g-t", "second base line")
        _line_flag(sub, "l", "transversal line")
        _add_common_output_flags(sub)
        sub.set_defaults(handler=_cmd_projection)

    sub = commands.add_parser(
        "construct-p", help="the same point relative to an arbitrary axis and center"
    )
    _line_flag(sub, "g-s", "first base line")
    _line_flag(sub, "g-t", "second base line")
    _line_flag(sub, "l", "transversal line")
    _line_flag(sub, "axis", "reference axis")
    sub.add_argument("--origin", metavar="POINT", required=True, help="center, e.g. '(3, 0)'")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_construct_p)

    for name, blurb in (
        ("nu", "x-axis intercept of the parallelogram's connecting line"),
        ("mu", "the coordinate-swapped variant of nu"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _line_flag(sub, "g", "source line")
        _line_flag(sub, "p", "target line (parallel to the source)")
        sub.add_argument("--epsilon", metavar="R", required=True, help="half-spread, e.g. '4' or '1/2'")
        sub.add_argument("--sample", metavar="POINT", required=True, help="sample point on the source line")
        _add_common_output_flags(sub)
        sub.set_defaults(handler=_cmd_strip)

    sub = commands.add_parser(
        "nu-general", help="the parallelogram intercept relative to an arbitrary axis"
    )
    _line_flag(sub, "g", "source line")
    _line_flag(sub, "p", "target line (parallel to the source)")
    _line_flag(sub, "axis", "reference axis")
    sub.add_argument("--origin", metavar="POINT", required=True, help="projection center on the axis")
    sub.add_argument("--offset", metavar="R", required=True, help="signed shift along the axis direction")
    sub.add_argument("--sample", metavar="POINT", required=True, help="sample point on the source line")
    _add_common_output_flags(sub)
    sub.set_defaults(handler=_cmd_nu_general)

    sub = commands.add_parser("check", help="run the seeded property suite")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument("--trials", type=int, default=100, help="trials per property (default 100)")
    sub.add_argument("--only", metavar="NAMES", help="comma-separated property names")
    sub.set_defaults(handler=_cmd_check, json=False)

    sub = commands.add_parser("figure", help="render a built-in figure as SVG")
    sub.add_argument("name", help=f"one of: {', '.join(sorted(FIGURES))}")
    sub.add_argument("--svg-out", metavar="PATH", help="write here instead of stdout")
    _add_viewport_flags(sub)
    sub.set_defaults(handler=_cmd_figure, json=False)

    return parser


# every construction input flag; the error envelope echoes them raw
_INPUT_DESTS = (
    "line_g_s", "line_g_t", "line_l", "line_axis", "line_g", "line_p",
    "origin", "epsilon", "offset", "sample",
)


def _raw_inputs(args) -> Dict[str, str]:
    return {
        dest.removeprefix("line_"): getattr(args, dest)
        for dest in _INPUT_DESTS
        if getattr(args, dest, None) is not None
    }


def _report_error(args, err: GeomError) -> None:
    # str(err) keeps the position/expected suffix of parse errors
    if getattr(args, "json", False):
        doc = {
            "construction": args.command,
            "inputs": _raw_inputs(args),
            "error": {"code": err.code, "message": str(err)},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"error[{err.code}]: {err}", file=sys.stderr)


def _value_words(argv: Sequence[str]) -> List[str]:
    """``argv`` with each word that starts with ``-`` and a digit, such as
    ``-3/2``, joined to the ``--flag`` before it as ``--flag=-3/2``: argparse
    takes only a plain negative number for a value, and other such words
    for flags."""
    words: List[str] = []
    for word in argv:
        if words and re.fullmatch(r"--[\w-]+", words[-1]) and re.match(r"-[0-9]", word):
            words[-1] += f"={word}"
        else:
            words.append(word)
    return words


def main(argv: Optional[Sequence[str]] = None) -> int:
    words = _value_words(sys.argv[1:] if argv is None else argv)
    # what an error envelope can tell while argparse has not read the words;
    # argparse takes any prefix of "--json" longer than "--" for it
    command = words[0] if words and not words[0].startswith("-") else None
    wants_json = any(len(word) > 2 and "--json".startswith(word) for word in words)
    args = argparse.Namespace(command=command, json=wants_json)
    try:
        args = build_parser().parse_args(words)
        return args.handler(args)
    except ParseError as err:
        _report_error(args, err)
        return 2
    except InconsistentError as err:
        _report_error(args, err)
        return 4
    except GeomError as err:
        _report_error(args, err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
